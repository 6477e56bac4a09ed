import numpy as np
import pytest

from conftest import petersen_graph
from solgeo import oracle
from solgeo.certificates import CheckRecord, ClusterCertificate, CountCertificate
from solgeo.instances import (
    MultiGraph,
    Predicate,
    UnsignedHypergraph,
    XorInstance,
    evaluate,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    xor_violations,
)
from solgeo.oracle import (
    OracleResult,
    batch_xor_counts,
    brute_clusters,
    brute_count,
    brute_independent_sets,
    brute_max_bias,
    brute_sk_opt_and_count,
    brute_subspace_count,
    gaussian_count,
    independence_number,
    verify_certificate,
    violation_profile,
    xor_sign_table,
)


def triangle_xor(signs=(1, 1, 1)) -> XorInstance:
    return XorInstance(2, 3, [(0, 1), (1, 2), (0, 2)], signs)


def test_brute_count_rejects_empty():
    with pytest.raises(ValueError):
        brute_count(XorInstance(2, 3, [], []), None, 0.0)


def test_brute_count_single_2xor_clause():
    I = XorInstance(2, 2, [(0, 1)], [1])
    assert brute_count(I, None, 0.0).exact_value == 2


def test_brute_count_agrees_with_gaussian():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 20))
        I = sample_signed_hypergraph(2, n, m, seed=trial).to_xor()
        if I.m == 0:
            continue
        assert brute_count(I, None, 0.0).exact_value == gaussian_count(I).exact_value


def test_gaussian_triangle_cases():
    assert gaussian_count(triangle_xor((1, 1, 1))).exact_value == 2
    assert gaussian_count(triangle_xor((1, 1, -1))).exact_value == 0
    assert gaussian_count(XorInstance(2, 5, [], [])).exact_value == 32


def test_gaussian_handles_repeated_variables():
    # x_0 * x_0 = -1 is contradictory; = +1 is vacuous
    assert gaussian_count(XorInstance(2, 3, [(0, 0)], [-1])).exact_value == 0
    assert gaussian_count(XorInstance(2, 3, [(0, 0)], [1])).exact_value == 8


def test_batch_xor_counts_matches_single():
    H = UnsignedHypergraph(2, 5, [(i, (i + 1) % 5) for i in range(5)])
    table = xor_sign_table(H)
    rng = np.random.default_rng(1)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(10, H.m))
    counts = batch_xor_counts(table, signs, 1)
    for row in range(10):
        I = XorInstance(2, 5, H.vars, signs[row])
        assert brute_count(I, None, 1 / H.m).exact_value == counts[row]


def test_brute_clusters_single_solution():
    I = XorInstance(2, 4, [(0, i) for i in range(1, 4)], [1] * 3)
    # solutions of the star with all +1 signs: x all-equal
    profile = brute_clusters(I, 0.0, 0.1).exact_value
    assert profile["num_solutions"] == 2
    assert profile["distance_histogram"] == {"4": 1}
    assert profile["cover_count"] == 2


def test_brute_clusters_plus_minus_pair():
    profile = brute_clusters(triangle_xor(), 0.0, 0.0).exact_value
    assert profile["num_solutions"] == 2
    assert profile["distance_histogram"] == {"3": 1}


def test_brute_max_bias_empty_and_symmetry():
    with pytest.raises(ValueError):
        brute_max_bias(XorInstance(2, 4, [], []), None, 0.0)
    # even-k XOR instances are sign-flip symmetric
    I = XorInstance(2, 4, [(0, 1), (2, 3)], [1, 1])
    res = brute_max_bias(I, None, 0.0)
    assert res.exact_value == 1.0  # all-ones satisfies both clauses


def test_brute_sk_single_variable():
    G = np.array([[2.5]])
    res = brute_sk_opt_and_count(G, 0.5)
    assert res.exact_value["opt"] == pytest.approx(2.5)
    # threshold 2*(1-0.5)*1 = 1 <= 2.5, both x=+1 and x=-1 reach it
    assert res.exact_value["count"] == 2


def test_brute_sk_count_is_even():
    G = sample_goe(10, seed=4)
    res = brute_sk_opt_and_count(G, 0.2)
    assert res.exact_value["count"] % 2 == 0


def test_independence_number_matches_enumeration():
    for seed in range(8):
        G = sample_regular_graph(14, 3, seed=seed)
        res = brute_independent_sets(G, 1)
        # enumeration-based alpha: largest threshold with nonzero count
        alpha = res.exact_value["alpha"]
        assert brute_independent_sets(G, alpha).exact_value["count"] >= 1
        assert brute_independent_sets(G, alpha + 1).exact_value["count"] == 0
        assert independence_number(G) == alpha


def test_brute_independent_sets_k4_and_petersen():
    K4 = MultiGraph.build(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert brute_independent_sets(K4, 1).exact_value == {"alpha": 1, "count": 4}
    assert brute_independent_sets(petersen_graph(), 4).exact_value == {
        "alpha": 4,
        "count": 5,
    }


@pytest.mark.parametrize("threshold", [0, -1])
def test_brute_independent_sets_refuses_a_threshold_before_searching(monkeypatch, threshold):
    def searched(G):
        raise AssertionError("independence_number ran")

    monkeypatch.setattr(oracle, "independence_number", searched)
    with pytest.raises(ValueError, match="size threshold must be positive"):
        brute_independent_sets(petersen_graph(), threshold)


def test_brute_subspace_full_and_zero():
    n = 8
    assert brute_subspace_count(np.eye(n), 0.1).exact_value == 2**n
    assert brute_subspace_count(np.zeros((n, 0)), 0.9).exact_value == 0


def test_verify_count_certificate():
    cert = CountCertificate(
        kind="count", n=6, log2_bound=3.0, eta=0.0, fallback=False,
        checks=(), signature="0" * 64,
    )
    assert verify_certificate(cert, OracleResult("count", 8, 64)) == "sound"
    assert verify_certificate(cert, OracleResult("count", 9, 64)) == "violated"
    assert verify_certificate(cert, OracleResult("sk", {}, 64)) == "inapplicable"
    fallback = CountCertificate(
        kind="count", n=6, log2_bound=6.0, eta=0.0, fallback=True,
        checks=(CheckRecord("x", 0.0, 1.0, False),), signature="0" * 64,
    )
    assert verify_certificate(fallback, OracleResult("count", 64, 64)) == "sound"


def cluster_certificate(fallback: bool) -> ClusterCertificate:
    # theta n = 2, gap window [8, 12], at most 2^2 clusters unless fallback
    return ClusterCertificate(
        n=20, eta=0.05, theta=0.1, log2_cluster_bound=20.0 if fallback else 2.0,
        gap_interval=(8.0, 12.0), primal_report={}, fallback=fallback, checks=(),
        signature="0" * 64,
    )


def cluster_oracle(histogram: dict, cover_count: int) -> OracleResult:
    profile = {"n": 20, "num_solutions": 1 + sum(histogram.values()),
               "distance_histogram": histogram, "cover_count": cover_count}
    return OracleResult("clusters", profile, 1 << 20)


def test_cluster_verdict_reads_every_distance_and_the_cover_count():
    cert = cluster_certificate(fallback=False)
    # within theta n, or at either end of the gap window, with 2^2 covers
    assert verify_certificate(cert, cluster_oracle({"1": 3, "2": 1, "8": 2, "12": 5}, 4)) == "sound"
    assert verify_certificate(cert, cluster_oracle({"5": 0}, 1)) == "sound"
    # between theta n and the gap, or beyond it
    assert verify_certificate(cert, cluster_oracle({"1": 3, "5": 1}, 1)) == "violated"
    assert verify_certificate(cert, cluster_oracle({"13": 1}, 1)) == "violated"
    # more covers than 2^log2_cluster_bound
    assert verify_certificate(cert, cluster_oracle({"1": 1}, 5)) == "violated"
    # a fallback certificate claims nothing
    fallback = cluster_certificate(fallback=True)
    assert verify_certificate(fallback, cluster_oracle({"5": 1}, 5)) == "sound"


def test_violation_profile_matches_direct_evaluation():
    predicates = [Predicate.ksat(3), Predicate.parity(3), Predicate.parity(3, -1)]
    for seed in range(10):
        n = 5 + seed % 4
        I = sample_signed_hypergraph(3, n, 3 * n, seed)
        # bit i of an assignment's index is set exactly when x_i == -1
        X = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
        for P in predicates:
            direct = [round((1 - evaluate(I, P, x)) * I.m) for x in X]
            assert violation_profile(I, P).tolist() == direct, (seed, P.table)
        J = I.to_xor()
        assert violation_profile(J).tolist() == [xor_violations(J, x) for x in X], seed
