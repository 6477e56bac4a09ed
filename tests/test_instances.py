import math

import numpy as np
import pytest

from solgeo.instances import (
    MultiGraph,
    Predicate,
    SamplerError,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    bias,
    csp_to_ksat,
    density_table,
    evaluate,
    induced_xor,
    ksat_fourier,
    load_instance,
    primal_graph,
    random_assignment,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    split_by_sign,
    truncated_xor,
    violation_budget,
    xor_satisfied_fraction,
    xor_violations,
)
from solgeo.oracle import violation_profile


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
    P = ksat_fourier(2)
    assert P.fourier[()] == pytest.approx(3 / 4)
    for T in [(0,), (1,), (0, 1)]:
        assert P.fourier[T] == pytest.approx(-1 / 4)


def test_ksat_fourier_k3():
    P = ksat_fourier(3)
    assert P.fourier[()] == pytest.approx(7 / 8)
    for T, coeff in P.fourier.items():
        if T:
            assert coeff == pytest.approx(-1 / 8)


def test_ksat_truth_table():
    P = ksat_fourier(3)
    assert P.value((1, 1, 1)) == 0
    assert P.value((-1, 1, 1)) == 1
    assert sum(P.table) == 7


def test_predicate_plancherel():
    for P in (ksat_fourier(3), Predicate.parity(3), Predicate.parity(4, -1)):
        power = sum(c * c for c in P.fourier.values())
        mean_sq = sum(v * v for v in P.table) / len(P.table)
        assert power == pytest.approx(mean_sq, abs=1e-9)


def test_constant_one_rejected():
    with pytest.raises(ValueError):
        Predicate(2, (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# evaluation and density tables
# ---------------------------------------------------------------------------

def test_evaluate_single_2xor_clause():
    I = XorInstance(2, 2, ((1, (0, 1)),)).to_signed()
    P = Predicate.parity(2)
    assert evaluate(I, P, np.array([1, 1])) == 1.0
    assert evaluate(I, P, np.array([1, -1])) == 0.0


def test_evaluate_locality():
    base = sample_signed_hypergraph(3, 9, 20, seed=4)
    # re-house on 10 variables so variable 9 appears in no clause
    I = SignedHypergraph(3, 10, base.clauses)
    P = ksat_fourier(3)
    x = random_assignment(10, seed=1)
    y = x.copy()
    y[9] *= -1
    assert evaluate(I, P, x) == evaluate(I, P, y)


def test_evaluate_matches_fourier_pairing():
    P = ksat_fourier(3)
    rng = np.random.default_rng(0)
    for trial in range(100):
        I = sample_signed_hypergraph(3, 8, 20, seed=trial)
        if I.m == 0:
            continue
        x = rng.choice([-1, 1], size=8)
        table = density_table(I, x)
        paired = sum(P.fourier[T] * table.fourier[T] for T in P.fourier)
        assert evaluate(I, P, x) == pytest.approx(paired, abs=1e-9)


def test_density_table_single_clause():
    I = SignedHypergraph(2, 2, (((1, 1), (0, 1)),))
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
        frac = xor_satisfied_fraction(xi, x)
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
    I = XorInstance(4, 4, ((1, (a, b, c, d)),))
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
    assert csp_to_ksat(I, ksat_fourier(3)) == I


def test_csp_to_ksat_preserves_near_satisfaction():
    P = Predicate.parity(3)  # first unsatisfying string is (-1, 1, 1)
    assert P.first_unsatisfying() == (-1, 1, 1)
    ksat = ksat_fourier(3)
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
    I = SignedHypergraph(3, 5, clauses)
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
    assert SignedHypergraph.from_json_dict(I.to_json_dict()) == I
    xi = I.to_xor()
    assert XorInstance.from_json_dict(xi.to_json_dict()) == xi
    H = xi.hypergraph()
    assert UnsignedHypergraph.from_json_dict(H.to_json_dict()) == H
    G = sample_regular_graph(10, 3, seed=0)
    assert MultiGraph.from_json_dict(G.to_json_dict()) == G
    for obj in (I, xi, H):
        assert load_instance(obj.to_json_dict()) == obj


def test_multigraph_cleaning_and_cache():
    G = MultiGraph.build(4, [(0, 0), (1, 0), (1, 2), (1, 2)])
    assert G.edges == ((0, 1), (1, 2), (1, 2))  # loop dropped, orientation fixed
    assert G.degrees == (1, 3, 2, 0)
    assert G.simple().m == 2
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 1),), (2, 0))  # stale degree cache


@pytest.mark.parametrize("edges", [[], [(0, 1), (1, 2), (1, 2), (2, 4), (0, 4), (4, 0)]])
def test_adjacency_matches_loop(edges):
    G = MultiGraph.build(5, edges)
    ref = np.zeros((5, 5))
    for u, v in G.edges:
        ref[u, v] += 1.0
        ref[v, u] += 1.0
    A = G.adjacency()
    assert A.dtype == ref.dtype and np.array_equal(A, ref)


def test_bias():
    assert bias(np.array([1, 1, 1, 1])) == 1.0
    assert bias(np.array([1, -1, 1, -1])) == 0.0
    assert bias(np.array([1, 1, 1, -1])) == pytest.approx(0.5)


def test_violation_budget_boundaries():
    assert violation_budget(0.0, 100) == 0
    assert violation_budget(0.05, 112) == 5
    assert violation_budget(0.1, 30) == 3  # exact product stays inclusive
    with pytest.raises(ValueError):
        violation_budget(-0.1, 10)


def test_xor_violation_helpers():
    I = XorInstance(2, 3, ((1, (0, 1)), (-1, (1, 2))))
    x = np.array([1, 1, 1])
    assert xor_violations(I, x) == 1
    assert xor_satisfied_fraction(I, x) == pytest.approx(0.5)
