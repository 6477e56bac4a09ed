"""JSON schemas for every file format the CLI reads or writes.

A format that a package type reads is described by that type alone: the
certificate schemas are built from the records of ``oracle.PAIRINGS``,
one per certificate kind (the declined balance note among them), and
the oracle-result (of the oracle kinds the rows name) and sweep-row
schemas from their records, each from the fields and type hints; the
csp, xor and hypergraph schemas from their classes' ``KIND``, ``BODY``
and ``PAYLOAD``.  Written here are only what no type states: the limits
of a value (``_LIMITS``), a clause's entry of each instance array
(``_ENTRIES``), and the formats no type reads: graphs and GOE matrices.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from types import UnionType
from typing import get_args, get_origin

from .instances import SignedHypergraph, UnsignedHypergraph, XorInstance
from .jsonio import JsonRecord, _hints
from .oracle import PAIRINGS, OracleResult, SweepRow

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}
# The limits of a value that its type does not state, by field name.
_LIMITS = {
    "k": {"minimum": 1},
    "n": {"minimum": 1},
    "eta": {"minimum": 0},
    "eta_refuted": {"minimum": 0},
    "log2_bound": {"minimum": 0},
    "log2_cluster_bound": {"minimum": 0},
    "violated_fraction_bound": {"minimum": 0},
    "theta": {"minimum": 0, "maximum": 0.5},
    "rho": {"exclusiveMinimum": 0, "maximum": 1},
    "instance_sha256": {"pattern": "^[0-9a-f]{64}$"},
    "enumeration_size": {"minimum": 0},
    "threshold_size": {"minimum": 1},
    "seed": {"minimum": 0},
}
# Fields that every file of a record holding them carries, default or not.
_CARRIED = ("kind", "instance_sha256", "tool_version")
# The oracle kinds that certificate kinds pair with; they overlap the certificate kinds.
_ORACLE_KINDS = list(dict.fromkeys(row.oracle_kind for row in PAIRINGS.values() if row.oracle_kind))


def _schema(hint) -> dict:
    """The schema of a value of type ``hint``: a tuple as an array (of
    fixed length if not ``tuple[X, ...]``), ``X | None`` as X, a record
    as its object, ``object`` as any value."""
    args = get_args(hint)
    if hint is object:
        return {}
    if get_origin(hint) is UnionType:
        (hint,) = set(args) - {type(None)}
        return _schema(hint)
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return {"type": "array", "items": _schema(args[0])}
        (item,) = set(args)
        return {"type": "array", "items": _schema(item),
                "minItems": len(args), "maxItems": len(args)}
    if issubclass(hint, JsonRecord):
        return _record(hint)
    return {"type": _JSON_TYPES[hint]}


def _property(name: str, hint) -> dict:
    return {**_schema(hint), **_LIMITS.get(name, {})}


def _record(cls: type, kinds: list[str] | None = None) -> dict:
    """The schema of a record's JSON: a field is required unless it has a
    default or is carried anyway; ``kinds`` are the values of ``kind``."""
    hints = _hints(cls)
    properties = {f.name: _property(f.name, hints[f.name]) for f in fields(cls)}
    if kinds:
        properties["kind"] = {"const": kinds[0]} if len(kinds) == 1 else {"enum": kinds}
    required = [f.name for f in fields(cls)
                if f.name in _CARRIED or (f.default is MISSING and f.default_factory is MISSING)]
    return {"type": "object", "required": required, "properties": properties}


_SIGN = {"type": "integer", "enum": [-1, 1]}
# One clause's entry of each array of a k-uniform instance, by array name.
_ENTRIES = {
    "vars": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    "signs": {"type": "array", "items": _SIGN},
    "rhs": _SIGN,
}


def _k_uniform(cls: type) -> dict:
    """The schema of a k-uniform instance file: a body of records of
    ``vars`` and the payload arrays, or of bare variable tuples."""
    names = ["vars", *cls.PAYLOAD]
    entry = ({"type": "object", "required": names,
              "properties": {name: _ENTRIES[name] for name in names}}
             if cls.PAYLOAD else _ENTRIES["vars"])
    return {
        "type": "object",
        "required": ["kind", "k", "n", cls.BODY],
        "properties": {
            "kind": {"const": cls.KIND},
            "k": _property("k", int),
            "n": _property("n", int),
            "index_base": {"const": 0},
            cls.BODY: {"type": "array", "items": entry},
        },
    }


GRAPH = {
    "type": "object",
    "required": ["n", "edges"],
    "properties": {
        "n": _property("n", int),
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
        "n": _property("n", int),
        "matrix": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
}

SWEEP_ROW = _record(SweepRow)

ORACLE_RESULT = _record(OracleResult, _ORACLE_KINDS)

_BY_RECORD = {row.record: _record(row.record, [kind for kind, r in PAIRINGS.items()
                                                 if r.record is row.record])
              for row in PAIRINGS.values()}
CERTIFICATES_BY_KIND = {kind: _BY_RECORD[row.record] for kind, row in PAIRINGS.items()}

INSTANCES_BY_KIND = {
    **{cls.KIND: _k_uniform(cls) for cls in (SignedHypergraph, XorInstance, UnsignedHypergraph)},
    "goe": MATRIX,
}


def schema_for(document: dict) -> dict:
    """Pick the schema matching a parsed JSON document.

    Oracle results are recognized by their enumeration_size field, since
    their kind namespace overlaps with the certificate kinds.
    """
    kind = document.get("kind")
    if "enumeration_size" in document and kind in _ORACLE_KINDS:
        return ORACLE_RESULT
    if kind in CERTIFICATES_BY_KIND:
        return CERTIFICATES_BY_KIND[kind]
    if kind in INSTANCES_BY_KIND:
        return INSTANCES_BY_KIND[kind]
    if "edges" in document and "n" in document and kind is None:
        return GRAPH
    raise ValueError(f"no schema for kind {kind!r}")
