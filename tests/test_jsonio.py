import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from solgeo.certificates import CheckRecord
from solgeo.instances import rendered_doc, sample_goe, sample_signed_hypergraph
from solgeo.jsonio import (
    _FLOAT_BLOCK,
    canonical_json,
    decode,
    decode_field,
    format_float,
    read_json,
    read_json_lines,
    render,
    sha256_of,
    write_json,
)


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


@pytest.mark.parametrize("text", ["", "plain", "é ü 中文 🙂", 'a "quote"', "back\\slash",
                                  "\x00\x01\x1f\x7f", "tab\tnew\nline\r\b\f", "\u2028\u2029",
                                  "\ud800"])
def test_strings_and_keys_are_encoded_as_json_dumps_encodes_them(text):
    encoded = json.dumps(text, ensure_ascii=False)
    assert canonical_json(text) == encoded
    assert canonical_json({text: [text]}) == "{" + encoded + ":[" + encoded + "]}"


def test_hash_stability():
    doc = {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "rhs": 1}]}
    assert sha256_of(doc) == sha256_of(dict(reversed(list(doc.items()))))
    assert sha256_of(doc) != sha256_of({**doc, "n": 4})


def test_non_string_keys_rejected():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


# ---------------------------------------------------------------------------
# canonical_json and the array renderer against a frozen copy of the
# element-wise encoder
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


def rendered(value) -> str:
    return canonical_json(render(value))


def symmetric(values) -> np.ndarray:
    """An exactly symmetric matrix holding each of ``values``: entry
    (i, j) is values[(i + j) % len(values)]."""
    k = len(values)
    return np.asarray(values, dtype=float)[np.add.outer(np.arange(k), np.arange(k)) % k]


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
    # the renderer: each float row as a row of a plain and of a symmetric matrix
    for row in rows[:4] + rows[12:]:
        for M in (np.array([row, row[::-1]]), symmetric(row), symmetric(row).T[:, ::-1]):
            assert rendered(M) == reference_json(M.tolist())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_float_rows_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        canonical_json([0.5, bad, 0.25])
    with pytest.raises(ValueError):
        canonical_json([[0.5, 0.75], [0.1, bad]])
    for M in ([[0.5, bad], [bad, 0.25]], [[0.5, 0.75], [0.1, bad]], [[bad]]):
        with pytest.raises(ValueError, match="non-finite float"):
            render(np.array(M))


def test_float_matrix_edge_shapes():
    for M in (np.empty((0, 0)), np.empty((0, 3)), np.empty((3, 0)),
              np.array([[0.0]]), np.array([[-0.0]]), np.array([[0.1]]), np.array([[1e16]]),
              np.array([[5e-324]]), np.float32([[0.1, 2.0], [2.0, 0.5]])):
        assert rendered(M) == reference_json(M.tolist())


@pytest.mark.parametrize("i, j, value", [
    (None, None, None),  # exactly symmetric
    (0, 1, None),        # one entry one ulp above its mirror
    (4, 2, None),
    (3, 3, None),        # a diagonal entry moves: still symmetric
    (1, 5, -0.0),        # -0.0 against 0.0 compares equal but prints otherwise
])
def test_symmetric_and_near_symmetric_matrices(i, j, value):
    rng = np.random.default_rng(5)
    W = rng.normal(size=(7, 7))
    M = W + W.T
    if i is not None and value is None:
        M[i, j] = np.nextafter(M[i, j], np.inf)
    elif i is not None:
        M[i, j], M[j, i] = value, 0.0
    assert rendered(M) == reference_json(M.tolist())


# ---------------------------------------------------------------------------
# Int rows and clause records against the same frozen encoder
# ---------------------------------------------------------------------------

BIG = [0, -1, 7, -2**31, 2**31, -2**63, 2**63 - 1, 2**64, -(10**30), 10**40]
INT64 = [v for v in BIG if -2**63 <= v < 2**63]


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


def test_int_arrays_at_int64_extremes():
    rng = np.random.default_rng(13)
    for width in (1, 2, 3, 5):
        A = rng.choice(np.array(INT64), size=(40, width))
        assert rendered(A) == reference_json(A.tolist())
        assert rendered({"rhs": A[:, 0], "vars": A}) == reference_json(
            [{"rhs": b, "vars": S} for b, S in zip(A[:, 0].tolist(), A.tolist())])
    U = np.array([[0, 2**64 - 1], [2**63, 1]], dtype=np.uint64)
    assert rendered(U) == reference_json(U.tolist())
    for A in (np.empty((0, 2), np.int64), np.empty((0, 0), np.int64), np.empty((3, 0), np.int8)):
        assert rendered(A) == reference_json(A.tolist())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_clause_records_match_reference_encoder(k):
    I = sample_signed_hypergraph(k, 9, 80, k)
    xi = I.to_xor()
    signs, vars_, rhs = I.signs.tolist(), I.vars.tolist(), xi.rhs.tolist()
    assert rendered({"vars": I.vars, "signs": I.signs}) == reference_json(
        [{"vars": S, "signs": c} for S, c in zip(vars_, signs)])
    assert rendered({"vars": xi.vars, "rhs": xi.rhs}) == reference_json(
        [{"vars": S, "rhs": b} for S, b in zip(vars_, rhs)])
    assert rendered({"vars": I.vars[:0], "signs": I.signs[:0]}) == "[]"


@pytest.mark.parametrize("row, fast", [
    (np.array([[1, 2, 3]]), True),
    (np.array([[1, -2], [-128, 127]], dtype=np.int8), True),
    ({"signs": np.array([[1, -1]], dtype=np.int8), "vars": np.array([[0, 4]])}, True),
    (np.array([[True, False]]), False),
    (np.array([[1, 2]], dtype=object), False),
    (np.array([1, 2, 3]), False),
    (np.zeros((2, 2, 2), dtype=np.int64), False),
    (np.array([["1", "2"]]), False),
    ({"signs": np.array([[1.0, -1.0]]), "vars": np.array([[0, 4]])}, False),
    ({"rhs": np.array([1, -1]), "vars": np.array([[0, 4]])}, False),
    ({"rhs": np.zeros((1, 1, 1), dtype=np.int64), "vars": np.array([[0, 4]])}, False),
])
def test_int_row_gate(row, fast):
    # only integer arrays, and records of integer columns of one length,
    # are rendered with %d templates; bools, objects, strings and other
    # shapes are refused rather than printed as numbers
    if fast:
        plain = ([dict(zip(row, values)) for values in zip(*(c.tolist() for c in row.values()))]
                 if isinstance(row, dict) else row.tolist())
        assert rendered(row) == reference_json(plain)
    else:
        with pytest.raises((TypeError, ValueError)):
            render(row)


# ---------------------------------------------------------------------------
# write_json renders before it opens the file
# ---------------------------------------------------------------------------

def test_failed_render_leaves_no_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        write_json(str(path), {"matrix": [[0.5, float("nan")]]})
    assert not path.exists()


def test_failed_render_keeps_an_existing_file(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"a": 1})
    with pytest.raises(ValueError):
        write_json(str(path), {"a": float("inf")})
    assert path.read_text() == '{"a":1}\n'


# ---------------------------------------------------------------------------
# the readers refuse the tokens NaN, Infinity and -Infinity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_readers_refuse_non_json_numbers(tmp_path, token):
    path = tmp_path / "x.json"
    path.write_text('{"a": [1, {"b": %s}]}\n' % token)
    where = f" holds {token} at ['a'][1]['b'], not a finite JSON number"
    with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
        read_json(str(path))
    with pytest.raises(ValueError, match=re.escape(f"{path} line 1{where}")):
        read_json_lines(str(path))


# ---------------------------------------------------------------------------
# the float-matrix kernel: exact 17-digit rounding, fallbacks, block edges
# ---------------------------------------------------------------------------

def mismatch(M: np.ndarray):
    """None if ``render`` gives the reference text of ``M``, else the
    first differing offset with 30 characters of each text from there
    (a short report where pytest would diff megabytes)."""
    text, expected = rendered(M), reference_json(M.tolist())
    if text == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    return i, text[i:i + 30], expected[i:i + 30]


def _kernel_matrix(values, width: int = 41) -> np.ndarray:
    """``values`` as the rows of a ``width``-column matrix, the last row
    filled up with 0.5."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.full(-len(values) % width, 0.5)]).reshape(-1, width)


def test_float_kernel_rounds_exact_ties_half_to_even():
    # x = j / 2^(17 - d), j odd, in [10^d, 10^(d+1)): x * 10^(16 - d) is
    # j * 5^(16 - d) / 2, an exact tie at the 17th significant digit
    rng = np.random.default_rng(17)
    ties = []
    for d in range(0, -5, -1):
        lo, hi = 10.0**d * 2.0 ** (17 - d), 10.0 ** (d + 1) * 2.0 ** (17 - d)
        j = 2 * rng.integers(lo // 2, hi // 2, size=40000) + 1
        ties.append(j[(j >= lo) & (j < hi)] / 2.0 ** (17 - d))
    ties = np.concatenate(ties)
    assert len(ties) > 190000
    for values in (ties, -ties):
        M = _kernel_matrix(values)
        assert mismatch(M) is None


def test_float_kernel_range_edges_and_fallbacks():
    powers = 10.0 ** np.arange(-4, 2)
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, above, -powers, -below, -above])
    ends = [1e-4, np.nextafter(1e-4, 0), 9.999999999999998, 10.0, 1.5, 0.25, 0.125, -0.125]
    fallbacks = [3.0, -0.0, 0.0, 1e-300, 1e22, 5e-324, -7.0, 1e16, 12.5, -2e-5]
    rng = np.random.default_rng(19)
    mixed = rng.permutation(np.concatenate([rng.normal(size=60), fallbacks * 3]))
    for M in (_kernel_matrix(values), _kernel_matrix(ends, 4), _kernel_matrix(mixed, 9),
              np.array([fallbacks]), np.array([fallbacks]).T, -np.array([ends]).T):
        assert mismatch(M) is None


def test_float_kernel_block_edges():
    rng = np.random.default_rng(23)
    for rows in (1, _FLOAT_BLOCK - 1, _FLOAT_BLOCK, _FLOAT_BLOCK + 1, 2 * _FLOAT_BLOCK + 1):
        for cols in (1, 3):
            M = rng.normal(size=(rows, cols))
            assert mismatch(M) is None
    for n in (1, _FLOAT_BLOCK - 1, _FLOAT_BLOCK, _FLOAT_BLOCK + 1):
        G = sample_goe(n, n)
        assert mismatch(G) is None


def test_float_kernel_random_normal_entries():
    rng = np.random.default_rng(29)
    for scale in (1.0, 1e-3, 3.0):
        M = rng.normal(size=(400, 500)) * scale
        assert mismatch(M) is None


def test_float_kernel_raises_no_warnings():
    M = np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308, -1e-300, 0.5, 9.99, 1e-4, 10.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mismatch(M) is None


@pytest.mark.parametrize("seed", [1, 2])
def test_goe_instance_hash_matches_reference_encoder(seed):
    G = sample_goe(300, seed)
    doc = {"kind": "goe", "n": 300, "matrix": G.tolist()}
    assert sha256_of(rendered_doc(G)) == hashlib.sha256(reference_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the readers name the file that is not JSON
# ---------------------------------------------------------------------------

def test_readers_name_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} is not JSON: Expecting value")):
        read_json(str(path))
    path.write_text('{"a": 1}\n{"a": \n')
    with pytest.raises(ValueError, match=re.escape(f"{path} line 2 is not JSON: Expecting value")):
        read_json_lines(str(path))


# ---------------------------------------------------------------------------
# decode: one rule for a JSON value against its type hint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, hint, expected", [
    ({"3": 1, "4": 0}, dict[str, int], {"3": 1, "4": 0}),
    ({"a": 2, "b": 0.5}, dict[str, float], {"a": 2.0, "b": 0.5}),
    ([1, 2], tuple[int, ...], (1, 2)),
    ([0, 12], tuple[float, float], (0.0, 12.0)),
    (None, float | None, None),
    (3, float | None, 3.0),
    ("x", str | None, "x"),
    ({"a": [1]}, dict, {"a": [1]}),
])
def test_decode_reads_a_value_of_its_type(value, hint, expected):
    # repr tells 2 from 2.0 and a tuple from a list
    assert repr(decode(value, hint, "v")) == repr(expected)


@pytest.mark.parametrize("value, hint, message", [
    ({"3": 1.5}, dict[str, int], "v['3'] holds float 1.5, not int"),
    ({"3": True}, dict[str, int], "v['3'] holds bool True, not int"),
    ([1, 2], dict[str, int], "v holds list [1, 2], not dict[str, int]"),
    (True, int, "v holds bool True, not int"),
    (1, bool, "v holds int 1, not bool"),
    (False, float, "v holds bool False, not finite float"),
    (math.inf, float, "v holds float inf, not finite float"),
    (10**400, float, f"v holds int {str(10**400)[:40]}, not finite float"),
    ([1, 2.5], tuple[int, ...], "v[1] holds float 2.5, not int"),
    ([1], tuple[float, float], "v holds list [1], not tuple[float, float]"),
    (7, str | None, "v holds int 7, not str | None"),
    (5, tuple[CheckRecord, ...], "v holds int 5, not tuple[CheckRecord, ...]"),
])
def test_decode_refuses_a_value_of_another_type(value, hint, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decode(value, hint, "v")


def test_decode_field_names_the_object_and_the_field():
    assert decode_field({"a": 1}, "a", float, "rec") == 1.0
    for d, message in [({"a": 1}, "rec lacks the field 'b'"),
                       ({"b": "1"}, "rec field 'b' holds str '1', not int"),
                       ([], "rec holds list [], not dict")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_field(d, "b", int, "rec")
