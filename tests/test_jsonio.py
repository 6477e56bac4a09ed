import json
import math

import numpy as np
import pytest

from solgeo.jsonio import _emit_int_row, canonical_json, format_float, sha256_of


def test_float_formatting_17_digits():
    assert format_float(0.05) == "0.050000000000000003"
    assert format_float(1.0) == "1.0"
    assert format_float(-3.0) == "-3.0"
    # round-trip is lossless
    for x in (0.1, 2.0 / 3.0, 1e-17, 123456.789, math.pi):
        assert float(format_float(x)) == x


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_keys_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [1.5, {"z": True, "y": None}]})
    b = canonical_json({"a": [1.5, {"y": None, "z": True}], "b": 1})
    assert a == b
    assert a == '{"a":[1.5,{"y":null,"z":true}],"b":1}'
    # output parses back with the stock decoder
    assert json.loads(a) == {"b": 1, "a": [1.5, {"z": True, "y": None}]}


def test_hash_stability():
    doc = {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "rhs": 1}]}
    assert sha256_of(doc) == sha256_of(dict(reversed(list(doc.items()))))
    assert sha256_of(doc) != sha256_of({**doc, "n": 4})


def test_non_string_keys_rejected():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


# ---------------------------------------------------------------------------
# The float-row fast path against a frozen copy of the element-wise encoder
# ---------------------------------------------------------------------------

def _reference_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _reference_emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _reference_emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(item, out)
        out.append("]")
    else:
        _reference_emit(obj.item(), out)


def reference_json(obj) -> str:
    out: list = []
    _reference_emit(obj, out)
    return "".join(out)


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 0.5, 1e16, -1e16, 1e16 - 2.0, 1e16 + 2.0, 9007199254740993.0,
    4503599627370495.5, 1e-300, 5e-324, -2.5e-310, 1.7976931348623157e308, 1e22, 0.1,
    2.0 / 3.0, 123456.789, -1e-17,
]


def test_float_rows_match_reference_encoder():
    rng = np.random.default_rng(7)
    rows = [
        rng.normal(size=50).tolist(),
        (rng.normal(size=30) * 10.0 ** rng.integers(-300, 300, size=30)).tolist(),
        [float(v) for v in rng.integers(-1000, 1000, size=20)],
        EDGE_FLOATS,
        [np.float64(v) for v in rng.normal(size=10)],
        list(np.float64(EDGE_FLOATS)),
        tuple(rng.normal(size=5).tolist()),
        [1.5, 2, 3.25],
        [1.5, True, 0.25],
        [0.25, None, "x", -0.0],
        [[0.1, 0.2], [0.3, 4.0], []],
        [],
    ]
    for i in range(200):
        k = int(rng.integers(1, 8))
        pool = np.concatenate([rng.normal(size=k), rng.choice(EDGE_FLOATS, size=k)])
        rows.append(rng.permutation(pool).tolist())
    for row in rows:
        doc = {"row": row, "matrix": [row, row]}
        assert canonical_json(doc) == reference_json(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_float_rows_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        canonical_json([0.5, bad, 0.25])
    with pytest.raises(ValueError):
        canonical_json([[0.5, 0.75], [0.1, bad]])


# ---------------------------------------------------------------------------
# The int-row fast path against the same frozen encoder
# ---------------------------------------------------------------------------

BIG = [0, -1, 7, -2**31, 2**31, -2**63, 2**63 - 1, 2**64, -(10**30), 10**40]


def test_int_rows_match_reference_encoder():
    rng = np.random.default_rng(11)
    pairs = rng.integers(-5, 2000, size=(300, 2)).tolist()
    rows = [
        [1, 2, 3],
        (4, 5, 6),
        BIG,
        pairs,
        [tuple(p) for p in pairs],
        [[0, 1], (2, 3), [], ()],
        [[], []],
        [[BIG, [1]], [2]],
        [],
        [1, True, 2],
        [True, False],
        [[0, 1], [True, 2]],
        [np.int64(3), 4],
        [[np.int64(3), 4], [5, 6]],
        list(np.arange(5)),
        [1, 2.5, 3],
        [1, 2.0],
        [[1, 2], [0.5, 3]],
        [[0.5, 0.25], [1, 2]],
        [[1, 2], 3],
        [1, [2, 3]],
        [1, None, "x"],
        [[1, 2], {"a": [3, 4]}],
    ]
    for _ in range(100):
        k = int(rng.integers(0, 6))
        rows.append(rng.choice(BIG, size=k).tolist())
        rows.append([rng.choice(BIG, size=2).tolist() for _ in range(k)])
    for row in rows:
        doc = {"row": row, "rows": [row, row], "nested": {"edges": row, "n": 3}}
        assert canonical_json(row) == reference_json(row)
        assert canonical_json(doc) == reference_json(doc)


@pytest.mark.parametrize("row, fast", [
    ([[1, 2, 3]], True),
    ([(1, -2)], True),
    ([[1, 2], (3, 4), []], True),
    ([1, True], False),
    ([np.int64(1), 2], False),
    ([[1, 2], [np.int64(3), 4]], False),
    ([1, 2.0], False),
    ([[0.5, 1.5], [1, 2]], False),
    ([[1, 2], 3], False),
    ([1, 2, 3], False),
    ((1, -2), False),
])
def test_int_row_gate(row, fast):
    # only rows of lists and tuples of exact ints take the one-call path;
    # a flat row of ints is encoded element by element
    out: list = []
    assert _emit_int_row(row, out) is fast
    assert out == ([json.dumps(row, separators=(",", ":"))] if fast else [])
