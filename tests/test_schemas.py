"""The schemas refuse malformed documents: a missing required key, a value
outside its limits, a foreign kind.  Each case edits one valid document
of every certificate kind, an oracle result, or a csp, xor or hypergraph
instance file, and validates it against the original's schema."""

import json

import jsonschema
import pytest

from solgeo import schemas
from solgeo.instances import SignedHypergraph, UnsignedHypergraph, XorInstance, instance_doc
from solgeo.jsonio import canonical_json
from solgeo.oracle import PAIRINGS, OracleResult
from test_certificates import SHA, samples

VARS = [[0, 1, 2], [1, 3, 4]]
INSTANCES = {
    "csp": SignedHypergraph(3, 5, VARS, [[1, -1, 1], [-1, -1, 1]]),
    "xor": XorInstance(3, 5, VARS, [1, -1]),
    "hypergraph": UnsignedHypergraph(3, 5, VARS),
}


def documents() -> dict:
    """One valid document of each format, as the JSON a file holds."""
    docs = {kind: cert.to_json_dict() for kind, cert in samples().items()}
    docs["oracle"] = OracleResult(kind="clusters", exact_value={"cover_count": 3},
                                  enumeration_size=1024, instance_sha256=SHA,
                                  eta=0.05, theta=0.25, threshold_size=2).to_json_dict()
    docs.update((kind, instance_doc(x)) for kind, x in INSTANCES.items())
    return {name: json.loads(canonical_json(doc)) for name, doc in docs.items()}


COUNT = ["kind", "n", "log2_bound", "eta", "fallback", "checks", "instance_sha256", "tool_version"]
REFUTATION = ["kind", "n", "eta_refuted", "evidence", "instance_sha256", "tool_version"]
REQUIRED = {
    "count": COUNT,
    "sk-count": COUNT,
    "indset-count": COUNT,
    "clusters": ["kind", "n", "eta", "theta", "log2_cluster_bound", "gap_interval", "fallback",
                 "checks", "instance_sha256", "tool_version"],
    "balance": ["kind", "n", "rho", "eta", "violated_fraction_bound", "checks",
                "instance_sha256", "tool_version"],
    "refutation": REFUTATION,
    "indset-refutation": REFUTATION,
    "oracle": ["kind", "exact_value", "enumeration_size", "instance_sha256"],
    "csp": ["kind", "k", "n", "clauses"],
    "xor": ["kind", "k", "n", "clauses"],
    "hypergraph": ["kind", "k", "n", "edges"],
}

# a value out of its limits or of another type, set wherever the key is present
BAD_VALUES = [
    ("n", 0), ("n", 1.5), ("k", 0), ("eta", -0.1), ("eta_refuted", -0.1),
    ("log2_bound", -1.0), ("log2_cluster_bound", -1.0), ("violated_fraction_bound", -0.1),
    ("theta", 0.6), ("theta", -0.1), ("rho", 0), ("rho", 1.5), ("fallback", 1),
    ("instance_sha256", "AB" * 32), ("instance_sha256", "ab" * 31 + "a"),
    ("enumeration_size", -1), ("threshold_size", 0),
    ("gap_interval", [1.0]), ("gap_interval", [1.0, 2.0, 3.0]),
    ("checks", [{"name": "gate", "measured": 0.1, "threshold": 0.5}]),
    ("checks", [{"name": "gate", "measured": 0.1, "threshold": 0.5, "passed": "yes"}]),
]
# the body of an instance file with one malformed clause or edge
BAD_BODIES = {
    "csp": [("clauses", [{"vars": [0, -1, 2], "signs": [1, 1, 1]}]),
            ("clauses", [{"vars": [0, 1, 2], "signs": [1, 0, 1]}]),
            ("clauses", [{"vars": [0, 1, 2]}])],
    "xor": [("clauses", [{"vars": [0, 1, 2], "rhs": 0}]),
            ("clauses", [{"vars": [0, 1.5, 2], "rhs": 1}]),
            ("clauses", [{"rhs": 1}])],
    "hypergraph": [("edges", [[0, -1, 2]]), ("edges", [3])],
}


def cases():
    docs = documents()
    for name, keys in REQUIRED.items():
        yield from ((name, "drop", key, None) for key in keys)
    for name, doc in docs.items():
        yield from ((name, "set", key, value) for key, value in BAD_VALUES if key in doc)
        yield from ((name, "set", key, value) for key, value in BAD_BODIES.get(name, ()))
        yield name, "set", "kind", "xor" if doc["kind"] != "xor" else "csp"


def case_id(case) -> str:
    name, action, key, value = case
    return f"{name}-{action}-{key}" + ("" if action == "drop" else f"={json.dumps(value):.24}")


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_every_sample_document_is_valid(name):
    doc = documents()[name]
    jsonschema.validate(doc, schemas.schema_for(doc))


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_schema_refuses_a_malformed_document(case):
    name, action, key, value = case
    doc = documents()[name]
    schema = schemas.schema_for(doc)
    if action == "drop":
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


@pytest.mark.parametrize("name, key, value", [
    ("count", "recursion_trace", [3]),
    ("hypergraph", "index_base", 1),
    ("clusters", "primal_report", None),
], ids=["trace-entry-not-object", "hypergraph-index-base", "cluster-without-primal-report"])
def test_schemas_derived_from_the_types_hold_what_the_readers_demand(name, key, value):
    # the hand-written schemas accepted each of these, which no reader takes
    doc = documents()[name]
    schema = schemas.schema_for(doc)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_oracle_kinds_are_those_a_certificate_pairs_with():
    # the hand-written list also named gauss-count and subspace-count,
    # results no certificate pairs with
    paired = {row.oracle_kind for row in PAIRINGS.values()} - {None}
    assert set(schemas.ORACLE_RESULT["properties"]["kind"]["enum"]) == paired
    for kind in ("gauss-count", "subspace-count"):
        with pytest.raises(ValueError, match="no schema"):
            schemas.schema_for({"kind": kind, "exact_value": 0, "enumeration_size": 1})
