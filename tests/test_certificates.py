"""The certificate JSON codec, derived from the dataclass fields, checked
against frozen output of the hand-written codecs it replaced."""

from dataclasses import dataclass

import numpy as np
import pytest

from solgeo import schemas
from solgeo.certificates import (
    BalanceCertificate,
    CheckRecord,
    ClusterCertificate,
    CountCertificate,
    DeclinedBalance,
    JsonRecord,
    RefutationCertificate,
)
from solgeo.jsonio import canonical_json
from solgeo.oracle import PAIRINGS, certificate_from_json

SHA = "ab" * 32
# numpy scalars, an int measured value and a float32 exercise the float()
# coercion; tuples exercise the list form
CHECKS = (CheckRecord("gate", np.float64(0.1) + 0.2, np.float32(0.5), True),
          CheckRecord("block", 3, np.float64(1e-17), False))


def count(kind):
    return CountCertificate(
        kind=kind, n=12, log2_bound=np.float64(7.25), eta=np.float32(0.3), fallback=False,
        checks=CHECKS, instance_sha256=SHA,
        recursion_trace=({"depth": 0, "fallback": False, "log2": 1.5},),
        transcript={"lambda_1": 0.1 + 0.2, "nested": {"a": [1, 2.0]}}, tool_version="0.2.0")


def samples():
    return {
        "count": count("count"),
        "sk-count": count("sk-count"),
        "indset-count": count("indset-count"),
        "clusters": ClusterCertificate(
            n=10, eta=0.05, theta=np.float64(1 / 3), log2_cluster_bound=np.float64(2.0),
            gap_interval=(np.float64(2.5), 7), primal_report={"d_avg": 4.0, "norm": 1 / 7},
            fallback=False, checks=CHECKS, instance_sha256=SHA, transcript={"c0": 6.0},
            tool_version="0.2.0"),
        "balance": BalanceCertificate(
            n=14, rho=np.float64(0.6), eta=0.02, violated_fraction_bound=np.float32(0.1),
            checks=CHECKS[:1], instance_sha256=SHA, transcript={"k": 3}, tool_version="0.2.0"),
        "refutation": RefutationCertificate(
            kind="refutation", n=12, eta_refuted=np.float64(0.375),
            evidence={"count_certificate": count("count").to_json_dict(), "set_size": 3},
            instance_sha256=SHA, tool_version="0.2.0"),
        "indset-refutation": RefutationCertificate(
            kind="indset-refutation", n=8, eta_refuted=0.2,
            evidence={"refuted_size": 4, "log2_subsets": np.float64(2.0)},
            instance_sha256=SHA, tool_version="0.2.0"),
        "balance-declined": DeclinedBalance(rho=np.float64(1 / 3), instance_sha256=SHA),
    }


# canonical_json(cert.to_json_dict()) of samples() under the hand-written
# codecs of version 0.2.0; the declined balance note as `solgeo certify`
# wrote it by hand before it had a record
FROZEN = {
    "count": (
        '{"checks":[{"measured":0.30000000000000004,"name":"gate","passed":true,"threshol'
        'd":0.5},{"measured":3.0,"name":"block","passed":false,"threshold":1.000000000000'
        '0001e-17}],"eta":0.30000001192092896,"fallback":false,"instance_sha256":"abababa'
        'babababababababababababababababababababababababababababab","kind":"count","log2_'
        'bound":7.25,"n":12,"recursion_trace":[{"depth":0,"fallback":false,"log2":1.5}],"'
        'tool_version":"0.2.0","transcript":{"lambda_1":0.30000000000000004,"nested":{"a"'
        ':[1,2.0]}}}'
    ),
    "sk-count": (
        '{"checks":[{"measured":0.30000000000000004,"name":"gate","passed":true,"threshol'
        'd":0.5},{"measured":3.0,"name":"block","passed":false,"threshold":1.000000000000'
        '0001e-17}],"eta":0.30000001192092896,"fallback":false,"instance_sha256":"abababa'
        'babababababababababababababababababababababababababababab","kind":"sk-count","lo'
        'g2_bound":7.25,"n":12,"recursion_trace":[{"depth":0,"fallback":false,"log2":1.5}'
        '],"tool_version":"0.2.0","transcript":{"lambda_1":0.30000000000000004,"nested":{'
        '"a":[1,2.0]}}}'
    ),
    "indset-count": (
        '{"checks":[{"measured":0.30000000000000004,"name":"gate","passed":true,"threshol'
        'd":0.5},{"measured":3.0,"name":"block","passed":false,"threshold":1.000000000000'
        '0001e-17}],"eta":0.30000001192092896,"fallback":false,"instance_sha256":"abababa'
        'babababababababababababababababababababababababababababab","kind":"indset-count"'
        ',"log2_bound":7.25,"n":12,"recursion_trace":[{"depth":0,"fallback":false,"log2":'
        '1.5}],"tool_version":"0.2.0","transcript":{"lambda_1":0.30000000000000004,"neste'
        'd":{"a":[1,2.0]}}}'
    ),
    "clusters": (
        '{"checks":[{"measured":0.30000000000000004,"name":"gate","passed":true,"threshol'
        'd":0.5},{"measured":3.0,"name":"block","passed":false,"threshold":1.000000000000'
        '0001e-17}],"eta":0.050000000000000003,"fallback":false,"gap_interval":[2.5,7.0],'
        '"instance_sha256":"ababababababababababababababababababababababababababababababa'
        'bab","kind":"clusters","log2_cluster_bound":2.0,"n":10,"primal_report":{"d_avg":'
        '4.0,"norm":0.14285714285714285},"theta":0.33333333333333331,"tool_version":"0.2.'
        '0","transcript":{"c0":6.0}}'
    ),
    "balance": (
        '{"checks":[{"measured":0.30000000000000004,"name":"gate","passed":true,"threshol'
        'd":0.5}],"eta":0.02,"instance_sha256":"ababababababababababababababababababababa'
        'bababababababababababab","kind":"balance","n":14,"rho":0.59999999999999998,"tool'
        '_version":"0.2.0","transcript":{"k":3},"violated_fraction_bound":0.1000000014901'
        '1612}'
    ),
    "refutation": (
        '{"eta_refuted":0.375,"evidence":{"count_certificate":{"checks":[{"measured":0.30'
        '000000000000004,"name":"gate","passed":true,"threshold":0.5},{"measured":3.0,"na'
        'me":"block","passed":false,"threshold":1.0000000000000001e-17}],"eta":0.30000001'
        '192092896,"fallback":false,"instance_sha256":"ababababababababababababababababab'
        'ababababababababababababababab","kind":"count","log2_bound":7.25,"n":12,"recursi'
        'on_trace":[{"depth":0,"fallback":false,"log2":1.5}],"tool_version":"0.2.0","tran'
        'script":{"lambda_1":0.30000000000000004,"nested":{"a":[1,2.0]}}},"set_size":3},"'
        'instance_sha256":"ababababababababababababababababababababababababababababababab'
        'ab","kind":"refutation","n":12,"tool_version":"0.2.0"}'
    ),
    "indset-refutation": (
        '{"eta_refuted":0.20000000000000001,"evidence":{"log2_subsets":2.0,"refuted_size"'
        ':4},"instance_sha256":"ababababababababababababababababababababababababababababa'
        'bababab","kind":"indset-refutation","n":8,"tool_version":"0.2.0"}'
    ),
    "balance-declined": (
        '{"instance_sha256":"abababababababababababababababababababababababababababababab'
        'abab","kind":"balance-declined","rho":0.33333333333333331}'
    ),
}


def test_frozen_reference_covers_every_kind():
    assert set(FROZEN) == set(samples()) == set(PAIRINGS)


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_codec_matches_frozen_reference(kind):
    assert canonical_json(samples()[kind].to_json_dict()) == "".join(FROZEN[kind])


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_codec_round_trip(kind):
    cert = samples()[kind]
    doc = cert.to_json_dict()
    back = certificate_from_json(doc)
    assert type(back) is type(cert)
    assert back.to_json_dict() == doc
    assert back == cert
    if hasattr(cert, "checks"):
        assert all(isinstance(c, CheckRecord) for c in back.checks)
        assert isinstance(back.checks, tuple)


def test_decoder_defaults_and_required_keys():
    doc = samples()["count"].to_json_dict()
    for key in ("recursion_trace", "transcript", "tool_version"):
        del doc[key]
    cert = certificate_from_json(doc)
    assert cert.recursion_trace == () and cert.transcript == {}
    del doc["instance_sha256"]
    # a missing field once raised a bare KeyError, printed as `error: 'instance_sha256'`
    with pytest.raises(ValueError, match="CountCertificate lacks the field 'instance_sha256'"):
        certificate_from_json(doc)
    with pytest.raises(ValueError, match="unrecognized"):
        certificate_from_json({"kind": "nope"})


@dataclass(frozen=True)
class _Optional(JsonRecord):
    value: float | None
    values: tuple[float, ...] = ()
    note: str | None = None


@pytest.mark.parametrize("value", [None, 0.25])
def test_optional_field_round_trips(value):
    record = _Optional(value, (0.5, 1.0))
    assert record.to_json_dict() == {"value": value, "values": [0.5, 1.0]}
    assert _Optional.from_json_dict(record.to_json_dict()) == record


def test_field_defaulting_to_none_is_written_only_when_set():
    # a None without a default stays in the JSON; one with a None default does not
    assert _Optional(None).to_json_dict() == {"value": None, "values": []}
    record = _Optional(None, note="x")
    assert record.to_json_dict() == {"value": None, "values": [], "note": "x"}
    assert _Optional.from_json_dict(record.to_json_dict()) == record


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_json_keys_match_schema(kind):
    # the schemas and the dataclasses describe one format
    schema = schemas.CERTIFICATES_BY_KIND[kind]
    assert set(samples()[kind].to_json_dict()) == set(schema["properties"])


def test_every_schema_kind_has_a_class():
    assert set(PAIRINGS) == set(schemas.CERTIFICATES_BY_KIND)


@pytest.mark.parametrize("key, value", [
    ("checks", 5), ("log2_bound", "7"), ("n", 12.0), ("n", True), ("eta", False),
    ("fallback", 0), ("instance_sha256", None), ("recursion_trace", [3]),
    ("transcript", []), ("checks", [["gate", 0.1, 0.5, True]]),
    ("checks", [{"name": "gate", "measured": "0.1", "threshold": 0.5, "passed": True}]),
])
def test_decoder_refuses_a_value_of_another_type(key, value):
    doc = {**samples()["count"].to_json_dict(), key: value}
    with pytest.raises(ValueError, match="holds"):
        certificate_from_json(doc)


def test_decoder_reads_json_integers_as_floats():
    doc = {**samples()["clusters"].to_json_dict(), "theta": 0, "gap_interval": [0, 12]}
    cert = certificate_from_json(doc)
    assert type(cert.theta) is float and all(type(x) is float for x in cert.gap_interval)
