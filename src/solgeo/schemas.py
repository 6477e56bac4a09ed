"""JSON schemas for every file format the CLI reads or writes."""

from __future__ import annotations

_SIGN = {"type": "integer", "enum": [-1, 1]}
_CHECK = {
    "type": "object",
    "required": ["name", "measured", "threshold", "passed"],
    "properties": {
        "name": {"type": "string"},
        "measured": {"type": "number"},
        "threshold": {"type": "number"},
        "passed": {"type": "boolean"},
    },
}

CSP_INSTANCE = {
    "type": "object",
    "required": ["kind", "k", "n", "clauses"],
    "properties": {
        "kind": {"const": "csp"},
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "index_base": {"const": 0},
        "clauses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["vars", "signs"],
                "properties": {
                    "vars": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "signs": {"type": "array", "items": _SIGN},
                },
            },
        },
    },
}

XOR_INSTANCE = {
    "type": "object",
    "required": ["kind", "k", "n", "clauses"],
    "properties": {
        "kind": {"const": "xor"},
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "index_base": {"const": 0},
        "clauses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["vars", "rhs"],
                "properties": {
                    "vars": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "rhs": _SIGN,
                },
            },
        },
    },
}

HYPERGRAPH = {
    "type": "object",
    "required": ["kind", "k", "n", "edges"],
    "properties": {
        "kind": {"const": "hypergraph"},
        "k": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "edges": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}

GRAPH = {
    "type": "object",
    "required": ["n", "edges"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}

MATRIX = {
    "type": "object",
    "required": ["kind", "n", "matrix"],
    "properties": {
        "kind": {"const": "goe"},
        "n": {"type": "integer", "minimum": 1},
        "matrix": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
}

COUNT_CERTIFICATE = {
    "type": "object",
    "required": [
        "kind", "n", "log2_bound", "eta", "fallback", "checks",
        "instance_sha256", "tool_version",
    ],
    "properties": {
        "kind": {"enum": ["count", "sk-count", "indset-count"]},
        "n": {"type": "integer", "minimum": 1},
        "log2_bound": {"type": "number", "minimum": 0},
        "eta": {"type": "number", "minimum": 0},
        "fallback": {"type": "boolean"},
        "checks": {"type": "array", "items": _CHECK},
        "recursion_trace": {"type": "array"},
        "transcript": {"type": "object"},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "tool_version": {"type": "string"},
    },
}

CLUSTER_CERTIFICATE = {
    "type": "object",
    "required": [
        "kind", "n", "eta", "theta", "log2_cluster_bound", "gap_interval",
        "fallback", "checks", "instance_sha256", "tool_version",
    ],
    "properties": {
        "kind": {"const": "clusters"},
        "n": {"type": "integer", "minimum": 1},
        "eta": {"type": "number", "minimum": 0},
        "theta": {"type": "number", "minimum": 0, "maximum": 0.5},
        "log2_cluster_bound": {"type": "number", "minimum": 0},
        "gap_interval": {
            "type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2,
        },
        "primal_report": {"type": "object"},
        "fallback": {"type": "boolean"},
        "checks": {"type": "array", "items": _CHECK},
        "transcript": {"type": "object"},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "tool_version": {"type": "string"},
    },
}

BALANCE_CERTIFICATE = {
    "type": "object",
    "required": [
        "kind", "n", "rho", "eta", "violated_fraction_bound", "checks",
        "instance_sha256", "tool_version",
    ],
    "properties": {
        "kind": {"const": "balance"},
        "n": {"type": "integer", "minimum": 1},
        "rho": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "eta": {"type": "number", "minimum": 0},
        "violated_fraction_bound": {"type": "number", "minimum": 0},
        "checks": {"type": "array", "items": _CHECK},
        "transcript": {"type": "object"},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "tool_version": {"type": "string"},
    },
}

BALANCE_DECLINED = {
    "type": "object",
    "required": ["kind", "rho", "instance_sha256"],
    "properties": {
        "kind": {"const": "balance-declined"},
        "rho": {"type": "number"},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
}

REFUTATION_CERTIFICATE = {
    "type": "object",
    "required": ["kind", "n", "eta_refuted", "evidence", "instance_sha256", "tool_version"],
    "properties": {
        "kind": {"enum": ["refutation", "indset-refutation"]},
        "n": {"type": "integer", "minimum": 1},
        "eta_refuted": {"type": "number", "minimum": 0},
        "evidence": {"type": "object"},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "tool_version": {"type": "string"},
    },
}

ORACLE_RESULT = {
    "type": "object",
    "required": ["kind", "exact_value", "enumeration_size", "instance_sha256"],
    "properties": {
        "kind": {
            "enum": ["count", "gauss-count", "clusters", "max-bias", "sk",
                     "indset", "subspace-count"],
        },
        "enumeration_size": {"type": "integer", "minimum": 0},
        "instance_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "eta": {"type": "number", "minimum": 0},
        "theta": {"type": "number", "minimum": 0, "maximum": 0.5},
        "threshold_size": {"type": "integer", "minimum": 1},
        "runtime_ms": {"type": "number", "minimum": 0},
    },
}

SWEEP_ROW = {
    "type": "object",
    "required": ["cell", "seed", "result", "cell_hash"],
    "properties": {
        "cell": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "result": {"type": "object"},
        "oracle": {},
        "sound": {},
        "cell_hash": {"type": "string"},
    },
}

CERTIFICATES_BY_KIND = {
    "count": COUNT_CERTIFICATE,
    "sk-count": COUNT_CERTIFICATE,
    "indset-count": COUNT_CERTIFICATE,
    "clusters": CLUSTER_CERTIFICATE,
    "balance": BALANCE_CERTIFICATE,
    "balance-declined": BALANCE_DECLINED,
    "refutation": REFUTATION_CERTIFICATE,
    "indset-refutation": REFUTATION_CERTIFICATE,
}

INSTANCES_BY_KIND = {
    "csp": CSP_INSTANCE,
    "xor": XOR_INSTANCE,
    "hypergraph": HYPERGRAPH,
    "goe": MATRIX,
}


def schema_for(document: dict) -> dict:
    """Pick the schema matching a parsed JSON document.

    Oracle results are recognized by their enumeration_size field, since
    their kind namespace overlaps with the certificate kinds.
    """
    kind = document.get("kind")
    if "enumeration_size" in document and kind in ORACLE_RESULT["properties"]["kind"]["enum"]:
        return ORACLE_RESULT
    if kind in CERTIFICATES_BY_KIND:
        return CERTIFICATES_BY_KIND[kind]
    if kind in INSTANCES_BY_KIND:
        return INSTANCES_BY_KIND[kind]
    if "edges" in document and "n" in document and kind is None:
        return GRAPH
    raise ValueError(f"no schema for kind {kind!r}")
