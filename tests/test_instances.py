import json
import math
import re

import numpy as np
import pytest

from conftest import (density_table, evaluate, fourier_transform, from_clauses, induced_xor,
                      poly_from_terms, truncated_xor, xor_violations)
from solgeo import instances, spectral
from solgeo.geometry import _positive_fraction
from solgeo.instances import (
    MultiGraph,
    Predicate,
    SamplerError,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    _sample_distinct_indices,
    _sample_tuples,
    clause_split,
    csp_to_ksat,
    index_to_signs,
    instance_doc,
    load_instance,
    primal_graph,
    read_instance,
    row_groups,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    split_by_sign,
    violation_budget,
)
from solgeo.jsonio import canonical_json, write_json
from solgeo.oracle import violation_profile
from solgeo.refuter import _coefficient_polynomial, refute_polynomial


def random_xor(k, n, m, seed) -> XorInstance:
    return sample_signed_hypergraph(k, n, m, seed).to_xor()


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_signed_sampler_zero_probability_empty():
    I = sample_signed_hypergraph(2, 4, 0, seed=0)
    assert I.clauses == ()


def test_signed_sampler_deterministic():
    a = sample_signed_hypergraph(3, 10, 30, seed=7)
    b = sample_signed_hypergraph(3, 10, 30, seed=7)
    assert a == b
    c = sample_signed_hypergraph(3, 10, 30, seed=8)
    assert a != c


def test_signed_sampler_binomial_mean():
    # mean clause count over many seeds concentrates on m
    counts = [sample_signed_hypergraph(3, 50, 200, seed=s).m for s in range(1000)]
    assert 170 <= np.mean(counts) <= 230


def test_signed_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_signed_hypergraph(1, 10, 5, seed=0)
    with pytest.raises(ValueError):
        sample_signed_hypergraph(3, 2, 5, seed=0)
    with pytest.raises(ValueError):
        sample_signed_hypergraph(2, 2, 1000, seed=0)  # probability > 1


def test_unsigned_sampler_probability_one_is_complete():
    H = sample_unsigned_hypergraph(2, 3, 9, seed=0)
    assert sorted(H.edges) == [(a, b) for a in range(3) for b in range(3)]


def test_unsigned_sampler_deterministic():
    assert sample_unsigned_hypergraph(3, 12, 40, seed=5) == sample_unsigned_hypergraph(
        3, 12, 40, seed=5
    )


def test_unsigned_sampler_concentration():
    # single draw within 3 sigma of the binomial mean
    H = sample_unsigned_hypergraph(2, 100, 500, seed=11)
    assert abs(H.m - 500) <= 3 * math.sqrt(500)


def test_goe_symmetric_and_moments():
    G = sample_goe(500, seed=3)
    assert np.array_equal(G, G.T)
    off = G[~np.eye(500, dtype=bool)]
    assert abs(off.var() - 1.0) < 0.2
    assert abs(np.diag(G).var() - 2.0) < 0.4


def test_regular_sampler_k4():
    G = sample_regular_graph(4, 3, seed=0)
    assert sorted(G.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("k, n, m, seed", [(2, 50, 300, 1), (3, 14, 400, 2), (4, 9, 200, 3)])
def test_samplers_match_digit_loop(k, n, m, seed):
    # the samplers' draws decoded one base-n digit at a time, as Python ints
    def drawn(space):
        rng = np.random.default_rng(seed)
        count = int(rng.binomial(space, m / space))
        for idx in _sample_distinct_indices(rng, count, space):
            c_bits, s_idx = divmod(idx, n**k)
            S = []
            for _ in range(k):
                s_idx, digit = divmod(s_idx, n)
                S.append(digit)
            yield c_bits, tuple(S)

    signed = sorted(((index_to_signs(c, k), S) for c, S in drawn((1 << k) * n**k)),
                    key=lambda cs: (cs[1], cs[0]))
    assert sample_signed_hypergraph(k, n, m, seed).clauses == tuple(signed)
    edges = sample_unsigned_hypergraph(k, n, m, seed).edges
    assert edges == tuple(sorted(S for _, S in drawn(n**k)))
    assert {type(v) for S in edges for v in S} == {int}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sampler_sort_keys_order_as_a_lexsort(k):
    # the samplers once sorted with np.lexsort over the variable columns,
    # then the sign columns
    rng = np.random.default_rng(k)
    for seed in range(30):
        n = int(rng.integers(k, k + 8))
        m = int(rng.integers(0, min(n**k, 2000)))
        c_bits, S = _sample_tuples(k, n, m, seed, True)
        signs = 1 - 2 * ((c_bits[:, None] >> np.arange(k)) & 1)
        order = np.lexsort(np.hstack((S, signs)).T[::-1])
        I = sample_signed_hypergraph(k, n, m, seed)
        assert np.array_equal(I.vars, S[order]) and np.array_equal(I.signs, signs[order])
        _, S = _sample_tuples(k, n, m, seed, False)
        assert np.array_equal(sample_unsigned_hypergraph(k, n, m, seed).vars,
                              S[np.lexsort(S.T[::-1])])


def test_regular_sampler_degrees():
    G = sample_regular_graph(100, 3, seed=2)
    assert set(G.degrees) == {3}
    assert G.m == 150


def test_regular_sampler_rejects():
    with pytest.raises(ValueError):
        sample_regular_graph(7, 3, seed=0)  # odd n*d
    with pytest.raises(SamplerError):
        sample_regular_graph(6, 4, seed=0, max_attempts=0)


# ---------------------------------------------------------------------------
# predicates and Fourier data
# ---------------------------------------------------------------------------

def test_ksat_fourier_k2():
    P = Predicate.ksat(2)
    fourier = fourier_transform(P.table, P.k)
    assert fourier[()] == pytest.approx(3 / 4)
    for T in [(0,), (1,), (0, 1)]:
        assert fourier[T] == pytest.approx(-1 / 4)


def test_ksat_fourier_k3():
    P = Predicate.ksat(3)
    fourier = fourier_transform(P.table, P.k)
    assert fourier[()] == pytest.approx(7 / 8)
    for T, coeff in fourier.items():
        if T:
            assert coeff == pytest.approx(-1 / 8)


def test_ksat_truth_table():
    P = Predicate.ksat(3)
    assert P.value((1, 1, 1)) == 0
    assert P.value((-1, 1, 1)) == 1
    assert sum(P.table) == 7


def test_predicate_plancherel():
    for P in (Predicate.ksat(3), Predicate.parity(3), Predicate.parity(4, -1)):
        power = sum(c * c for c in fourier_transform(P.table, P.k).values())
        mean_sq = sum(v * v for v in P.table) / len(P.table)
        assert power == pytest.approx(mean_sq, abs=1e-9)


def test_constant_one_rejected():
    with pytest.raises(ValueError):
        Predicate(2, (1, 1, 1, 1))


def reference_fourier_transform(table, k: int) -> dict:
    """The O(4^k) loop the Walsh-Hadamard transform replaced, frozen here."""
    coeffs = {}
    for mask in range(1 << k):
        T = tuple(i for i in range(k) if (mask >> i) & 1)
        acc = 0.0
        for idx in range(1 << k):
            chi = -1.0 if bin(idx & mask).count("1") % 2 else 1.0
            acc += table[idx] * chi
        coeffs[T] = acc / (1 << k)
    return coeffs


def every_bit(coeffs: dict) -> list:
    """The keys in order and each coefficient's exact bits, sign of zero included."""
    return [(T, c.hex()) for T, c in coeffs.items()]


@pytest.mark.parametrize("k", range(1, 9))
def test_fourier_transform_matches_the_quadratic_loop(k):
    rng = np.random.default_rng(k)
    for table in ([0] * (1 << k), [1] * (1 << k), *rng.integers(0, 2, (4, 1 << k)).tolist()):
        assert every_bit(fourier_transform(table, k)) == every_bit(
            reference_fourier_transform(table, k))


@pytest.mark.parametrize("k", range(1, 9))
def test_predicate_fourier_unchanged_to_the_bit(k):
    table = np.random.default_rng(k).integers(0, 2, 1 << k)
    table[k % len(table)] = 0  # not the constant-1 predicate
    for P in (Predicate.ksat(k), Predicate.parity(k), Predicate.parity(k, -1),
              Predicate(k, tuple(table.tolist()))):
        assert every_bit(fourier_transform(P.table, P.k)) == every_bit(
            reference_fourier_transform(P.table, k))


# ---------------------------------------------------------------------------
# evaluation and density tables
# ---------------------------------------------------------------------------

def test_evaluate_single_2xor_clause():
    I = XorInstance(2, 2, [(0, 1)], [1]).to_signed()
    P = Predicate.parity(2)
    assert evaluate(I, P, np.array([1, 1])) == 1.0
    assert evaluate(I, P, np.array([1, -1])) == 0.0


def test_evaluate_locality():
    base = sample_signed_hypergraph(3, 9, 20, seed=4)
    # re-house on 10 variables so variable 9 appears in no clause
    I = SignedHypergraph(3, 10, base.vars, base.signs)
    P = Predicate.ksat(3)
    x = np.random.default_rng(1).choice([-1, 1], size=10)
    y = x.copy()
    y[9] *= -1
    assert evaluate(I, P, x) == evaluate(I, P, y)


def test_evaluate_matches_fourier_pairing():
    P = Predicate.ksat(3)
    rng = np.random.default_rng(0)
    for trial in range(100):
        I = sample_signed_hypergraph(3, 8, 20, seed=trial)
        if I.m == 0:
            continue
        x = rng.choice([-1, 1], size=8)
        table = density_table(I, x)
        fourier = fourier_transform(P.table, P.k)
        paired = sum(fourier[T] * table.fourier[T] for T in fourier)
        assert evaluate(I, P, x) == pytest.approx(paired, abs=1e-9)


def test_density_table_single_clause():
    I = SignedHypergraph(2, 2, [(0, 1)], [(1, 1)])
    table = density_table(I, np.array([1, 1]))
    assert table.values[(1, 1)] == pytest.approx(4.0)  # concentrated, scaled by 2^k
    assert table.fourier[()] == pytest.approx(1.0)


def test_density_table_top_coefficient_is_xor_margin():
    rng = np.random.default_rng(2)
    for trial in range(100):
        I = sample_signed_hypergraph(3, 9, 25, seed=100 + trial)
        if I.m == 0:
            continue
        x = rng.choice([-1, 1], size=9)
        xi = I.to_xor()
        frac = 1.0 - xor_violations(xi, x) / xi.m
        table = density_table(I, x)
        assert table.fourier[(0, 1, 2)] == pytest.approx(2 * frac - 1, abs=1e-9)
        assert table.fourier[()] == pytest.approx(1.0, abs=1e-9)


def test_density_table_normalization():
    I = sample_signed_hypergraph(2, 6, 12, seed=9)
    table = density_table(I, np.ones(6, dtype=int))
    assert sum(table.values.values()) / 4 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# induced / truncated / primal
# ---------------------------------------------------------------------------

def test_induced_truncated_worked_example():
    # 4XOR clause x_a x_b x_c x_d = +1 with a, b in S, sigma_a=+1, sigma_b=-1
    a, b, c, d = 0, 1, 2, 3
    I = XorInstance(4, 4, [(a, b, c, d)], [1])
    S = [a, b]
    sigma = {a: 1, b: -1}
    ind = induced_xor(I, S, sigma, t=2)
    assert ind.clauses == ((-1, (c, d)),)
    trunc = truncated_xor(I, S, 2)
    assert trunc.clauses == ((1, (a, b)),)


def test_induced_sigma_all_plus_keeps_signs():
    I = random_xor(4, 10, 40, seed=6)
    S = [0, 1, 2, 3]
    sigma = {v: 1 for v in S}
    ind = induced_xor(I, S, sigma, t=2)
    trunc = truncated_xor(I, S, 2)
    assert [b for b, _ in ind.clauses] == [b for b, _ in trunc.clauses]


def test_truncated_empty_S():
    I = random_xor(3, 8, 30, seed=1)
    assert truncated_xor(I, [], 1).m == 0


def test_induced_truncated_size_and_sum_identities():
    rng = np.random.default_rng(5)
    for trial in range(100):
        I = random_xor(4, 10, 35, seed=trial)
        S = list(rng.choice(10, size=4, replace=False))
        sigma = {int(v): int(rng.choice([-1, 1])) for v in S}
        for t in (1, 2, 3):
            ind = induced_xor(I, S, sigma, t)
            trunc = truncated_xor(I, S, I.k - t)
            assert ind.m == trunc.m
            lhs = sum(b for b, _ in ind.clauses)
            rhs = sum(
                b * int(np.prod([sigma[v] for v in U])) for b, U in trunc.clauses
            )
            assert lhs == rhs


def test_primal_graph_triangle():
    H = UnsignedHypergraph(3, 3, ((0, 1, 2),))
    G = primal_graph(H)
    assert sorted(G.edges) == [(0, 1), (0, 2), (1, 2)]


def test_primal_graph_edge_count_and_degree():
    H = sample_unsigned_hypergraph(3, 20, 60, seed=4).without_repeats()
    G = primal_graph(H)
    assert G.m == 3 * H.m
    assert G.average_degree() == pytest.approx(6 * H.m / 20)


def test_primal_graph_rejects_repeated_vertices():
    with pytest.raises(ValueError):
        primal_graph(UnsignedHypergraph(3, 3, ((0, 0, 1),)))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_csp_to_ksat_identity_on_ksat():
    I = sample_signed_hypergraph(3, 8, 25, seed=2)
    assert csp_to_ksat(I, Predicate.ksat(3)) == I


def test_csp_to_ksat_preserves_near_satisfaction():
    P = Predicate.parity(3)  # first unsatisfying string is (-1, 1, 1)
    assert P.first_unsatisfying() == (-1, 1, 1)
    ksat = Predicate.ksat(3)
    for seed in range(10):
        I = sample_signed_hypergraph(3, 12, 30, seed=seed)
        if I.m == 0:
            continue
        reduced = csp_to_ksat(I, P)
        viol_p = violation_profile(I.to_xor())  # P = parity: same violations
        viol_k = violation_profile(reduced, ksat)
        assert (viol_k <= viol_p).all()


def test_csp_to_ksat_clause_counts():
    I = sample_signed_hypergraph(3, 10, 40, seed=6)
    reduced = csp_to_ksat(I, Predicate.parity(3))
    assert reduced.m == I.m
    assert [S for _, S in reduced.clauses] == [S for _, S in I.clauses]


def test_csp_to_ksat_rejects_constant_one():
    with pytest.raises(ValueError):
        Predicate(2, (1, 1, 1, 1))


def test_split_by_sign_all_positive():
    clauses = tuple(((1, 1, 1), (0, 1, 2)) for _ in range(4))
    I = from_clauses(SignedHypergraph, 3, 5, clauses)
    plus, minus = split_by_sign(I)
    assert plus == I
    assert minus.m == 0


def test_split_by_sign_density():
    total_plus = 0
    total = 0
    for seed in range(40):
        I = sample_signed_hypergraph(3, 30, 200, seed=seed)
        plus, minus = split_by_sign(I)
        assert plus.m + minus.m <= I.m
        total_plus += plus.m
        total += I.m
    # each sign class holds about a 1/8 fraction
    assert total_plus / total == pytest.approx(1 / 8, abs=0.02)


# ---------------------------------------------------------------------------
# serialization, assignments, budgets
# ---------------------------------------------------------------------------

def test_serialization_round_trips():
    I = sample_signed_hypergraph(3, 10, 30, seed=1)
    assert SignedHypergraph.from_json_dict(instance_doc(I)) == I
    xi = I.to_xor()
    assert XorInstance.from_json_dict(instance_doc(xi)) == xi
    H = xi.hypergraph()
    assert UnsignedHypergraph.from_json_dict(instance_doc(H)) == H
    G = sample_regular_graph(10, 3, seed=0)
    assert MultiGraph.from_json_dict(instance_doc(G)) == G
    for obj in (I, xi, H, G):
        assert load_instance(instance_doc(obj)) == obj
    M = sample_goe(5, seed=2)
    assert np.array_equal(load_instance(instance_doc(M)), M)


def test_documents_of_another_kind_are_refused():
    I = sample_signed_hypergraph(3, 10, 30, seed=1)
    instances = [I, I.to_xor(), I.hypergraph(), sample_regular_graph(10, 3, seed=0)]
    for cls in map(type, instances):
        for other in instances:
            if type(other) is not cls:
                with pytest.raises(ValueError, match="not a"):
                    cls.from_json_dict(instance_doc(other))
    for doc in ({"kind": "nope"}, {"kind": "graph", "n": 2, "edges": []}, {"kind": [1]}):
        with pytest.raises(ValueError, match="unrecognized"):
            load_instance(doc)


MALFORMED_DOCS = [
    {"kind": "xor", "k": 2, "n": 3.0, "clauses": []},
    {"kind": "xor", "k": 2, "n": 3, "index_base": 1, "clauses": []},
    {"kind": "hypergraph", "k": 2, "n": 3, "edges": [[0, 1.5]]},
    {"kind": "hypergraph", "k": 2, "n": 3, "edges": 5},
    {"kind": "hypergraph", "k": 2, "n": 3},
    {"n": 3, "edges": [[0, 2, 1]]},
    {"kind": "goe", "n": 2, "matrix": [[1.0, 0.0], [0.0, "1"]]},
    {"kind": "goe", "n": 3, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
    {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "rhs": 0}]},
    {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "rhs": True}]},
    {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1, 2], "rhs": 1}]},
    {"kind": "csp", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "signs": [1, 0]}]},
    {"kind": "csp", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "signs": [1]}]},
    {"kind": "csp", "k": 2, "n": 3, "clauses": [{"vars": [0, True], "signs": [1, 1]}]},
    {"kind": "csp", "k": 2, "n": 3, "clauses": [{"vars": [0, 3], "signs": [1, 1]}]},
    {"kind": "csp", "k": 2, "n": 3, "clauses": [[0, 1]]},
    {"kind": "xor", "k": 2, "n": 3, "clauses": [{"vars": [0, 1], "rhs": 2**64 - 1}]},
]
MALFORMED_DOC_IDS = [
    "float-n", "index-base", "float-vertex", "edges-not-a-list", "no-edges", "edge-arity",
    "string-entry", "matrix-shape", "rhs-zero", "rhs-bool", "clause-arity", "sign-zero",
    "sign-arity", "bool-vertex", "vertex-out-of-range", "clause-not-an-object", "rhs-beyond-int64"]


@pytest.mark.parametrize("doc", MALFORMED_DOCS, ids=MALFORMED_DOC_IDS)
def test_malformed_documents_raise_value_error(doc):
    with pytest.raises(ValueError):
        load_instance(doc)


MALFORMED_HEADERS = [
    ({"kind": "xor", "k": 2, "n": True, "clauses": []}, "instance file field 'n' holds bool True"),
    ({"kind": "hypergraph", "k": 2, "n": 3, "index_base": 0.0, "edges": []},
     "instance file field 'index_base' holds float 0.0"),
    ({"kind": "csp", "n": 3, "clauses": []}, "instance file lacks the field 'k'"),
    ({"n": "3", "edges": []}, "instance file field 'n' holds str '3'"),
    # once "internal error: int too large to convert to float" (exit 4)
    ({"kind": "goe", "n": 1, "matrix": [[10**400]]}, "int too large to convert to float"),
]
MALFORMED_HEADER_IDS = ["n-bool", "index-base-float", "no-k", "graph-n-string",
                        "matrix-int-beyond-a-float"]


@pytest.mark.parametrize("doc, message", MALFORMED_HEADERS, ids=MALFORMED_HEADER_IDS)
def test_malformed_header_is_named(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_instance(doc)


@pytest.mark.parametrize("doc", MALFORMED_DOCS + [doc for doc, _ in MALFORMED_HEADERS],
                         ids=MALFORMED_DOC_IDS + MALFORMED_HEADER_IDS)
def test_malformed_file_raises_what_its_document_raises(tmp_path, doc):
    # canonical_json puts the body first, where the array reader looks for it
    path = str(tmp_path / "doc.json")
    write_json(path, doc)
    with pytest.raises(ValueError) as expected:
        load_instance(doc)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        read_instance(path)


@pytest.mark.parametrize("text", [
    '{"edges":[[1,0],[2,2],[0,3]],"n":4}', '{"edges":[],"n":4}', '{"edges":[[0,1]],"n":2}',
    '{"clauses":[],"index_base":0,"k":2,"kind":"csp","n":3}',
    '{"clauses":[{"signs":[1,-1],"vars":[2,2]}],"k":2,"kind":"csp","n":3}',
    '{"edges":[[0]],"index_base":0,"k":1,"kind":"hypergraph","n":1,"x":{"edges":[[0]]}}',
])
def test_rendered_file_reads_as_its_document_without_the_json_path(tmp_path, monkeypatch, text):
    # each body is as render writes it; a graph's edges are cleaned on both paths
    path = tmp_path / "doc.json"
    path.write_text(text)
    monkeypatch.setattr(instances, "read_json", None)
    assert read_instance(str(path)) == load_instance(json.loads(text))


def test_multigraph_cleaning_and_cache():
    G = MultiGraph.build(4, [(0, 0), (1, 0), (1, 2), (1, 2)])
    assert G.edges == ((0, 1), (1, 2), (1, 2))  # loop dropped, orientation fixed
    assert G.degrees == (1, 3, 2, 0)
    assert G.simple().m == 2 and G.simple().degrees == (1, 2, 1, 0)
    for edges in (((1, 0),), ((1, 1),), ((0, 4),)):
        with pytest.raises(ValueError):
            MultiGraph(4, edges)  # unoriented, a loop, out of range


@pytest.mark.parametrize("edges", [[], [(0, 1), (1, 2), (1, 2), (2, 4), (0, 4), (4, 0)]])
def test_adjacency_matches_loop(edges):
    G = MultiGraph.build(5, edges)
    ref = np.zeros((5, 5))
    for u, v in G.edges:
        ref[u, v] += 1.0
        ref[v, u] += 1.0
    A = G.adjacency()
    assert A.dtype == ref.dtype and np.array_equal(A, ref)


# ---------------------------------------------------------------------------
# The array-backed multigraph against the element-wise loops it replaced
# ---------------------------------------------------------------------------

def _reference_build(edges) -> tuple:
    norm = []
    for u, v in edges:
        if u < v:
            norm.append((u, v))
        elif v < u:
            norm.append((v, u))
    return tuple(norm)


def _reference_degrees(n, edges) -> tuple:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg)


def _reference_adjacency(n, edges) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] += 1.0
        A[v, u] += 1.0
    return A


def _reference_matvec(n, edges, x) -> np.ndarray:
    E = np.array(edges, dtype=np.intp).reshape(-1, 2)
    u, v = E[:, 0], E[:, 1]
    return np.bincount(u, x[v], n) + np.bincount(v, x[u], n)


def _reference_primal(H) -> tuple:
    edges = []
    for S in H.edges:
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                edges.append((S[i], S[j]))
    return _reference_build(edges)


def _messy_edges(rng, n, m) -> list:
    """Endpoint pairs with self-loops, both orientations and parallel
    edges; the top two vertices are never used, so they stay isolated."""
    pairs = [tuple(p) for p in rng.integers(0, max(n - 2, 1), size=(m, 2)).tolist()]
    pairs += [pairs[i] for i in rng.integers(0, m, size=m // 3)] if m else []
    pairs += [(v, u) for u, v in pairs[: m // 4]]
    pairs += [(w, w) for w in rng.integers(0, max(n - 2, 1), size=m // 5).tolist()]
    return [pairs[i] for i in rng.permutation(len(pairs))]


@pytest.mark.parametrize("n, m", [(1, 0), (1, 4), (2, 3), (5, 0), (5, 12), (30, 80), (200, 900)])
def test_array_graph_matches_reference_loops(monkeypatch, n, m):
    # the matvec is built only where Lanczos runs, so check it at these sizes too
    monkeypatch.setattr(spectral, "ITERATIVE_MIN_N", 1)
    rng = np.random.default_rng(1000 * n + m)
    for _ in range(5):
        raw = _messy_edges(rng, n, m)
        want = _reference_build(raw)
        for G in (MultiGraph.build(n, raw), MultiGraph.build(n, np.array(raw, dtype=np.int32)),
                  MultiGraph.build(n, iter(raw))):
            E = G.edge_array
            assert E.dtype == np.int64 and E.shape == (len(want), 2) and not E.flags.writeable
            assert G.edges == want and G.m == len(want)
            assert all(type(x) is int for e in G.edges for x in e)
            assert G.degrees == _reference_degrees(n, want)
            assert all(type(d) is int for d in G.degrees)
            simple = tuple(dict.fromkeys(want))
            assert G.simple().edges == simple
            assert G.simple().degrees == _reference_degrees(n, simple)
            assert np.array_equal(G.adjacency(), _reference_adjacency(n, want))
            x = rng.normal(size=n)
            assert np.array_equal(spectral._adjacency_matvec(G)(x), _reference_matvec(n, want, x))
            doc = {"n": n, "edges": [[u, v] for u, v in want]}
            assert instance_doc(G) == doc
            assert canonical_json(instance_doc(G)) == canonical_json(doc)
            assert G == MultiGraph(n, want) == MultiGraph.from_json_dict(doc)


@pytest.mark.parametrize("k, n, m, seed", [(2, 12, 40, 0), (3, 20, 60, 4), (4, 9, 50, 1)])
def test_primal_graph_matches_reference_loop(k, n, m, seed):
    H = sample_unsigned_hypergraph(k, n, m, seed).without_repeats()
    assert primal_graph(H).edges == _reference_primal(H)
    assert primal_graph(UnsignedHypergraph(k, n, ())).m == 0


@pytest.mark.parametrize("edges", [
    [(0, 1.5)], [(0, True)], [(0, 1, 2)], [(0,)], np.array([[0.0, 1.0]]),
    np.zeros((2, 3), dtype=np.int64), [(0, 2**70)], [(0, 9)], [(-1, 2)],
])
def test_multigraph_refuses_bad_edges(edges):
    with pytest.raises(ValueError):
        MultiGraph.build(5, edges)


def test_er_2xor_instance_digests_pinned():
    # recorded with the element-wise sampler and graph code, so that the
    # vectorized ones cannot drift
    n = 2000
    H = sample_unsigned_hypergraph(2, n, math.floor(n**1.4), 3)
    assert H.sha256() == "ad6b5b77253c1506befdaf8e697c435a68b5ba79f53e0f0c3fced8b29c9e3bd0"
    G = MultiGraph.build(n, H.edges)
    assert G.sha256() == "fcf7df781af804a8b6be231c378eebea26c5c520d5f4453577cb04ab1afdcd2c"
    assert G.simple().sha256() == "85e883eb6f5825c271efbbc3e1a37a9ffc02f02b2860a3f2e1c591809b2199c7"


@pytest.mark.parametrize("A", [
    np.zeros((0, 3), dtype=np.int64), np.array([[7]]), np.array([[2], [1], [2], [2], [0], [1]]),
    np.random.default_rng(1).integers(0, 3, size=(500, 3)),
    np.random.default_rng(2).integers(-2, 2, size=(300, 1)),
    np.random.default_rng(3).choice([-0.0, 0.0, 0.5, -1.25], size=(400, 2)),
    np.random.default_rng(4).normal(size=(50, 4)),
], ids=["empty", "one-row", "one-column", "int", "negative", "float-signed-zero", "float-distinct"])
def test_row_groups_match_a_dict_of_rows(A):
    groups: dict[tuple, int] = {}  # each row's value to its group, numbered by first row
    first, group = [], []
    for i, row in enumerate(A.tolist()):
        if tuple(row) not in groups:
            groups[tuple(row)] = len(first)
            first.append(i)
        group.append(groups[tuple(row)])
    got_first, got_group = row_groups(A)
    assert got_first.tolist() == first and got_group.tolist() == group


def test_violation_budget_boundaries():
    assert violation_budget(0.0, 100) == 0
    assert violation_budget(0.05, 112) == 5
    assert violation_budget(0.1, 30) == 3  # exact product stays inclusive
    with pytest.raises(ValueError):
        violation_budget(-0.1, 10)
    # a finite eta whose product overflows once raised OverflowError from math.floor
    with pytest.raises(ValueError, match=r"eta = 1e\+308 times 10 clauses is beyond a float"):
        violation_budget(1e308, 10)


@pytest.mark.parametrize("eta", [math.inf, math.nan, -math.inf])
def test_violation_budget_refuses_nonfinite_eta(eta):
    # inf once raised OverflowError ("cannot convert float infinity to
    # integer") and nan once gave a ValueError from int(), not one naming eta
    with pytest.raises(ValueError, match="eta must be finite and nonnegative"):
        violation_budget(eta, 10)


def test_xor_violation_helpers():
    I = XorInstance(2, 3, [(0, 1), (1, 2)], [1, -1])
    assert xor_violations(I, np.array([1, 1, 1])) == 1
    assert xor_violations(I, [1, 1, -1]) == 0
    assert xor_violations(XorInstance(2, 3, [], []), [1, 1, 1]) == 0


# ---------------------------------------------------------------------------
# The array-backed k-uniform instances against the tuple code they replaced
# ---------------------------------------------------------------------------

def _reference_refuses(kind, k, n, clauses) -> bool:
    """Whether the tuple-backed constructor refused these clauses."""
    try:
        if k < 1 or n < 1:
            raise ValueError
        tuples = clauses if kind == "hypergraph" else [S for _, S in clauses]
        if set(map(len, tuples)) - {k}:
            raise ValueError
        flat = [v for S in tuples for v in S]
        if flat and (min(flat) < 0 or max(flat) >= n):
            raise ValueError
        for payload, _ in clauses if kind != "hypergraph" else ():
            if kind == "csp" and (len(payload) != k or any(s not in (-1, 1) for s in payload)):
                raise ValueError
            if kind == "xor" and payload not in (-1, 1):
                raise ValueError
    except ValueError:
        return True
    return False


def _reference_clause_split(tuples, S, inside):
    S = frozenset(S)
    for i, U in enumerate(tuples):
        in_part = [u for u in U if u in S]
        if len(in_part) == inside:
            yield i, tuple(in_part), tuple([u for u in U if u not in S])


def _reference_induced(clauses, S, sigma, t):
    k = len(clauses[0][1]) if clauses else t + 1
    return tuple(
        (clauses[i][0] * math.prod(sigma[u] for u in in_part), out_part)
        for i, in_part, out_part in _reference_clause_split([U for _, U in clauses], S, k - t)
    )


def _reference_evaluate(clauses, P, x) -> float:
    sat = 0
    for c, S in clauses:
        sat += P.value(tuple(int(ci * x[si]) for ci, si in zip(c, S)))
    return sat / len(clauses)


def _reference_density_counts(k, clauses, x) -> list:
    counts = [0.0] * (1 << k)
    for c, S in clauses:
        idx = 0
        for i, (ci, si) in enumerate(zip(c, S)):
            if ci * int(x[si]) == -1:
                idx |= 1 << i
        counts[idx] += 1
    return counts


def _reference_xor_violations(clauses, x) -> int:
    bad = 0
    for b, S in clauses:
        prod = 1
        for si in S:
            prod *= int(x[si])
        if prod != b:
            bad += 1
    return bad


def _reference_coefficient_terms(clauses, T) -> dict:
    terms: dict = {}
    inv_m = 1.0 / len(clauses)
    for c, S in clauses:
        sign = 1.0
        for i in T:
            sign *= c[i]
        U = tuple(S[i] for i in T)
        terms[U] = terms.get(U, 0.0) + sign * inv_m
    return terms


def _reference_positive_terms(S, truncated) -> dict:
    remap = {v: i for i, v in enumerate(sorted(set(S)))}
    terms: dict = {}
    for b, in_part in truncated:
        key = tuple(remap[v] for v in in_part)
        terms[key] = terms.get(key, 0.0) + float(b)
    return terms


def _bits(keys, weights) -> list:
    """The terms in order, each coefficient as its exact bit pattern."""
    return [(tuple(T), float(w).hex()) for T, w in zip(keys, weights)]


def _messy_clauses(rng, k, n, m) -> tuple:
    """m random clauses and a third as many repeats of them, shuffled:
    with n small, variable tuples often repeat a vertex, and the repeated
    tuples often carry other signs."""
    V = rng.integers(0, n, size=(m, k))
    V = np.concatenate((V, V[rng.integers(0, max(m, 1), size=m // 3)]))
    V = V[rng.permutation(len(V))]
    signs = rng.choice([-1, 1], size=V.shape)
    return tuple(zip(map(tuple, signs.tolist()), map(tuple, V.tolist())))


@pytest.mark.parametrize("kind, k, n, clauses", [
    ("hypergraph", 0, 5, []),
    ("hypergraph", 2, 0, []),
    ("hypergraph", 3, 5, [(0, 1, 2), (0, 1)]),
    ("hypergraph", 3, 5, [(0, 1, 5)]),
    ("hypergraph", 3, 5, [(-1, 1, 2)]),
    ("hypergraph", 1, 1, [(0,), (0,)]),
    ("xor", 2, 3, [(1, (0, 1)), (0, (0, 1))]),
    ("xor", 2, 3, [(2, (0, 1))]),
    ("xor", 2, 3, [(1, (0, 3))]),
    ("xor", 3, 4, [(-1, (3, 3, 3))]),
    ("csp", 2, 3, [((1,), (0, 1))]),
    ("csp", 2, 3, [((1, 0), (0, 1))]),
    ("csp", 2, 3, [((1, 1), (0, 1, 2))]),
    ("csp", 2, 3, [((1, -1), (0, 0)), ((-1, -1), (2, 1))]),
    ("csp", 2, 3, []),
])
def test_constructors_refuse_what_the_tuple_code_refused(kind, k, n, clauses):
    cls = {"csp": SignedHypergraph, "xor": XorInstance, "hypergraph": UnsignedHypergraph}[kind]

    def build():
        return cls(k, n, clauses) if kind == "hypergraph" else from_clauses(cls, k, n, clauses)

    if _reference_refuses(kind, k, n, clauses):
        with pytest.raises(ValueError):
            build()
    else:
        I = build()
        assert (I.edges if kind == "hypergraph" else I.clauses) == tuple(clauses)


@pytest.mark.parametrize("build", [
    lambda: UnsignedHypergraph(2, 3, [(0, 1.0)]),
    lambda: UnsignedHypergraph(2, 3, [(0, True)]),
    lambda: UnsignedHypergraph(2, 3, np.array([[0.0, 1.0]])),
    lambda: SignedHypergraph(2, 3, [(0, 1)], [(1, True)]),
    lambda: SignedHypergraph(2, 3, [(0, 1)], [(1, 1), (1, 1)]),
    lambda: XorInstance(2, 3, [(0, 1)], [1.5]),
    lambda: XorInstance(2, 3, [(0, 1)], [1, -1]),
    lambda: XorInstance(2, 3, np.array([[0, 1]]), np.array([True])),
    lambda: XorInstance(2, 3, [(0, 1)], [2**64 - 1]),
    lambda: SignedHypergraph(2, 3, [(0, 1)], np.array([[1, 2**64 - 1]], dtype=np.uint64)),
])
def test_constructors_refuse_non_integers_and_misaligned_payloads(build):
    # the tuple code accepted these, or some of them, and wrote them out
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("k, n, m, seed", [
    (1, 3, 8, 0), (2, 4, 0, 1), (2, 4, 30, 2), (3, 5, 40, 3), (3, 12, 200, 4), (4, 6, 60, 5),
])
def test_k_uniform_arrays_match_tuple_code(k, n, m, seed):
    rng = np.random.default_rng(seed)
    clauses = _messy_clauses(rng, k, n, m)
    tuples = tuple(S for _, S in clauses)
    I = from_clauses(SignedHypergraph, k, n, clauses)
    xi, H = I.to_xor(), I.hypergraph()
    for A, dtype in ((I.vars, np.int64), (I.signs, np.int8), (xi.rhs, np.int8)):
        assert A.dtype == dtype and not A.flags.writeable
    assert I.clauses == clauses and I.m == len(clauses) and H.edges == tuples
    assert {type(v) for c, S in I.clauses for v in c + S} <= {int}
    assert I == from_clauses(SignedHypergraph, k, n, clauses) == SignedHypergraph(
        k, n, np.array(tuples, dtype=np.int32).reshape(-1, k), I.signs)
    assert load_instance(instance_doc(I)) == I and load_instance(instance_doc(xi)) == xi

    assert xi.clauses == tuple((int(np.prod(c)), S) for c, S in clauses)
    assert {type(b) for b, _ in xi.clauses} <= {int}
    assert xi.to_signed().clauses == tuple(((b,) + (1,) * (k - 1), S) for b, S in xi.clauses)
    repeat_free = tuple(S for S in tuples if len(set(S)) == k)
    assert H.without_repeats().edges == repeat_free
    assert H.dedup().edges == tuple(dict.fromkeys(tuples))
    assert H.without_repeats().dedup().edges == tuple(dict.fromkeys(repeat_free))
    for P in (Predicate.ksat(k), Predicate.parity(k)):
        z = P.first_unsatisfying()
        assert csp_to_ksat(I, P).clauses == tuple(
            (tuple(ci * zi for ci, zi in zip(c, z)), S) for c, S in clauses)
    plus, minus = split_by_sign(I)
    assert plus.clauses == tuple((c, S) for c, S in clauses if all(ci == 1 for ci in c))
    assert minus.clauses == tuple((c, S) for c, S in clauses if all(ci == -1 for ci in c))

    for S in ([], [0], list(range(n)), rng.choice(n, size=n // 2, replace=False).tolist()):
        for inside in range(k + 1):
            rows, in_part, out_part = clause_split(I.vars, S, inside)
            got = zip(rows.tolist(), map(tuple, in_part.tolist()), map(tuple, out_part.tolist()))
            assert list(got) == list(_reference_clause_split(tuples, S, inside))
        if k >= 2:
            sigma = {v: int(rng.choice([-1, 1])) for v in S}
            for t in range(1, k):
                assert induced_xor(xi, S, sigma, t).clauses == _reference_induced(
                    xi.clauses, S, sigma, t)
                truncated = truncated_xor(xi, S, k - t)
                assert truncated.clauses == tuple(
                    (xi.clauses[i][0], in_part)
                    for i, in_part, _ in _reference_clause_split(tuples, S, k - t))
                if truncated.m and k - t == k - 2:
                    ref = refute_polynomial(poly_from_terms(
                        len(set(S)), k - 2, _reference_positive_terms(S, truncated.clauses)))
                    got = _positive_fraction(S, truncated)
                    assert got.eps == min(0.5, ref.value / (2.0 * truncated.m))
                    assert (got.bound.value, got.bound.branches) == (ref.value, ref.branches)

    if m == 0:
        return
    for _ in range(3):
        x = rng.choice([-1, 1], size=n)
        for P in (Predicate.ksat(k), Predicate.parity(k)):
            assert evaluate(I, P, x) == _reference_evaluate(clauses, P, x)
        table = density_table(I, x)
        scaled = [c * ((1 << k) / I.m) for c in _reference_density_counts(k, clauses, x)]
        assert list(table.values.values()) == scaled
        assert xor_violations(xi, x) == _reference_xor_violations(xi.clauses, x)
    for mask in range(1, 1 << k):
        T = tuple(i for i in range(k) if (mask >> i) & 1)
        got = _coefficient_polynomial(I, T)
        assert got.degree == len(T)
        ref = _reference_coefficient_terms(clauses, T)
        assert _bits(got.keys.tolist(), got.weights) == _bits(ref.keys(), ref.values())
