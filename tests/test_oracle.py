import math
import re

import numpy as np
import pytest

from conftest import batch_xor_counts, evaluate, petersen_graph, xor_sign_table, xor_violations
from solgeo import oracle
from solgeo.certificates import CheckRecord, ClusterCertificate, CountCertificate
from solgeo.cli import main
from solgeo.instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    instance_doc,
    read_instance,
    sample_goe,
    sample_signed_hypergraph,
    signs_to_index,
    violation_budget,
)
from solgeo.jsonio import read_json, write_json
from solgeo.oracle import (
    OracleResult,
    brute_clusters,
    brute_count,
    brute_independent_sets,
    brute_max_bias,
    brute_sk_opt_and_count,
    brute_subspace_count,
    gaussian_count,
    verify_certificate,
    violation_profile,
)
from test_certificates import samples


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
        # the enumeration itself: brute_count at eta 0 is GF(2) elimination too
        assert gaussian_count(I) == int(np.count_nonzero(violation_profile(I) == 0))


def test_brute_count_takes_gf2_elimination_exactly_at_budget_0(monkeypatch):
    I = sample_signed_hypergraph(3, 12, 40, seed=2).to_xor()
    calls = []

    def counted(name):
        real = getattr(oracle, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("violation_profile", "gaussian_count"):
        monkeypatch.setattr(oracle, name, counted(name))
    for eta, path in [(0.0, "gaussian_count"), (0.02, "gaussian_count"),
                      (0.025, "violation_profile"), (0.3, "violation_profile")]:
        calls.clear()
        brute_count(I, None, eta)
        assert calls == [path], (eta, violation_budget(eta, I.m))
    # a csp file under the parity predicate is the same XOR system; under
    # another predicate it enumerates
    for P, eta, path in [(Predicate.parity(3), 0.0, "gaussian_count"),
                         (Predicate.parity(3), 0.3, "violation_profile"),
                         (Predicate.parity(3, -1), 0.0, "violation_profile"),
                         (Predicate.ksat(3), 0.0, "violation_profile")]:
        calls.clear()
        brute_count(I.to_signed(), P, eta)
        assert calls == [path], (P, eta)


def test_parity_csp_count_agrees_with_enumeration():
    # prod over the clause of c_i x_i = 1 is prod(x[S]) = prod(c): the XOR
    # system I.to_xor(), counted by GF(2) elimination, bound to the csp file
    cases = 0
    for k in (2, 3, 4):
        for n in range(k + 1, 15):
            for m in (n // 2, n, 2 * n):
                I = sample_signed_hypergraph(k, n, m, seed=100 * k + n + m)
                if I.m == 0:
                    continue
                P = Predicate.parity(k)
                res = brute_count(I, P, 0.0)
                assert res.exact_value == int(np.count_nonzero(violation_profile(I, P) == 0))
                assert res.instance_sha256 == I.sha256()
                cases += 1
    assert cases >= 90


def test_parity_count_of_a_csp_file_runs_past_enumeration(tmp_path):
    # the count oracle once enumerated a csp file under --predicate xor and
    # refused it past n = 24
    inst, res = tmp_path / "inst.json", tmp_path / "oracle.json"
    assert main(["gen", "--kind", "csp", "-k", "3", "-n", "100", "-m", "3000", "--seed", "1",
                 "--out", str(inst)]) == 0
    assert main(["oracle", "--kind", "count", "--predicate", "xor", "--instance", str(inst),
                 "--out", str(res)]) == 0
    I = read_instance(str(inst))
    doc = read_json(str(res))
    assert doc["exact_value"] == gaussian_count(I.to_xor())
    assert doc["instance_sha256"] == I.sha256()


def test_gaussian_triangle_cases():
    assert gaussian_count(triangle_xor((1, 1, 1))) == 2
    assert gaussian_count(triangle_xor((1, 1, -1))) == 0
    assert gaussian_count(XorInstance(2, 5, [], [])) == 32


def test_gaussian_handles_repeated_variables():
    # x_0 * x_0 = -1 is contradictory; = +1 is vacuous
    assert gaussian_count(XorInstance(2, 3, [(0, 0)], [-1])) == 0
    assert gaussian_count(XorInstance(2, 3, [(0, 0)], [1])) == 8


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


def sk_terms(G: np.ndarray, idx: np.ndarray) -> list[list[float]]:
    """The n^2 exact products x_i G_ij x_j of each x with index in ``idx``
    (bit i set when x_i = -1), as lists for math.fsum."""
    X = 1.0 - 2.0 * ((idx[:, None] >> np.arange(G.shape[0])) & 1)
    return (X[:, :, None] * G * X[:, None, :]).reshape(len(idx), -1).tolist()


def reference_sk(G: np.ndarray, eta: float) -> tuple[float, int]:
    """The correctly rounded max of x^T G x and the count of x reaching the
    SK threshold, over the full hypercube in chunks of 2^16 rows.  The
    count is the GEMM loop's that the half-cube enumeration replaced; the
    max is the largest fsum of exact products, over every x for n <= 12
    and over the x within 1e-9 sum|G_ij| of the GEMM maximum above that."""
    n = G.shape[0]
    threshold = 2.0 * (1.0 - eta) * n**1.5
    vals = []
    for start in range(0, 1 << n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.uint32)
        X = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n, dtype=np.uint32)) & 1)
        vals.append(np.einsum("ij,ij->i", X @ G, X))
    vals = np.concatenate(vals)
    count = int((vals >= threshold - 1e-9).sum())
    near = vals >= vals.max() - 1e-9 * np.abs(G).sum()
    idx = np.arange(1 << n) if n <= 12 else np.flatnonzero(near)
    return max(map(math.fsum, sk_terms(G, idx))), count


@pytest.mark.parametrize("n", range(1, 19))
def test_brute_sk_matches_the_full_hypercube(n):
    for seed, eta in ((n, 0.1), (n + 100, 0.6), (n + 200, 0.9)):
        G = sample_goe(n, seed)
        res = brute_sk_opt_and_count(G, eta).exact_value
        assert (res["opt"], res["count"]) == reference_sk(G, eta), (seed, eta)


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_brute_sk_opt_is_the_exact_maximum_to_rounding(n):
    # each x_i G_ij x_j is exact, so fsum of them is the correctly rounded
    # x^T G x, and opt is the largest of these
    for seed in range(n, n + 5):
        G = sample_goe(n, seed)
        exact = max(map(math.fsum, sk_terms(G, np.arange(1 << n))))
        assert brute_sk_opt_and_count(G, 0.5).exact_value["opt"] == exact, seed


def int_sk_values(K: np.ndarray) -> np.ndarray:
    """x^T K x of an integer matrix for every x in {-1, 1}^n, in int64."""
    n = K.shape[0]
    vals = []
    for start in range(0, 1 << n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << n))
        X = 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)
        vals.append(((X @ K) * X).sum(axis=1))
    return np.concatenate(vals)


def sk_level(n: int, eta: float) -> float:
    """The level T that brute_sk_opt_and_count counts x^T G x against."""
    return 2.0 * (1.0 - eta) * n**1.5 - 1e-9


def integer_matrices(n: int) -> dict[str, np.ndarray]:
    """Small-integer n x n matrices, by name."""
    rng = np.random.default_rng(n)
    A = rng.integers(-3, 4, (n, n))
    pair = np.zeros((n, n), dtype=np.int64)  # x^T G x = 2 x_0 x_1 (or 2) ties half the cube
    pair[0, min(1, n - 1)] += 1
    pair[min(1, n - 1), 0] += 1
    return {"zero": np.zeros((n, n), dtype=np.int64), "ones": np.ones((n, n), dtype=np.int64),
            "random": A + A.T, "asymmetric": A, "pair": pair}


@pytest.mark.parametrize("n", [1, 2, 17, 18])
def test_brute_sk_is_exact_on_integer_matrices(n):
    for name, K in integer_matrices(n).items():
        vals = int_sk_values(K)
        for eta in (0.1, 0.5, 1.0):
            res = brute_sk_opt_and_count(K.astype(float), eta).exact_value
            expected = {"opt": float(vals.max()), "count": int((vals >= sk_level(n, eta)).sum())}
            assert res == expected, (name, eta)
    assert brute_sk_opt_and_count(np.zeros((n, n)), 1.0).exact_value["count"] == 1 << n


@pytest.mark.parametrize("n", [1, 2, 17, 18])
def test_brute_sk_counts_a_value_at_the_level_exactly(n):
    # K sums to 0 and K_00 = 0, so G = K + L e_0 e_0^T gives x^T G x =
    # L + x^T K x exactly, and the all-ones x lands on L: the level T, the
    # float above it or the float below it.  For n > 1, G is off one
    # grid (two ``_grid_parts``), so the near-ties go to the exact recheck.
    K = integer_matrices(n)["random"]
    K[0, 0] = 0
    K[-1, -1] -= K.sum()
    vals = int_sk_values(K)
    eta = 0.5
    T = sk_level(n, eta)
    for level, least in ((T, 0), (np.nextafter(T, math.inf), 0), (np.nextafter(T, -math.inf), 1)):
        G = K.astype(float)
        G[0, 0] = level
        res = brute_sk_opt_and_count(G, eta).exact_value
        expected = {"opt": float(level) + float(vals.max()), "count": int((vals >= least).sum())}
        assert res == expected, level - T


def test_brute_sk_rechecks_few_rows_on_degenerate_matrices(monkeypatch):
    # every x ties under the zero and the diagonal matrices, and many under
    # the others; one fsum per x within w of the best took seconds at n = 18
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
    n = 18
    for G in (np.zeros((n, n)), np.ones((n, n)), np.full((n, n), 0.1),
              np.diag(np.arange(1.0, n + 1)), np.diag(np.linspace(0.1, 1.7, n))):
        for eta in (0.1, 1.0):
            calls.clear()
            brute_sk_opt_and_count(G, eta)
            assert len(calls) <= 64, (G[0, :2], eta, len(calls))


def test_brute_sk_rechecks_a_whole_half_cube_of_ties():
    # every x ties at trace(G) under a diagonal G, so the whole half-cube is
    # rechecked and grouped into one fsum
    G = np.diag(np.linspace(0.1, 1.7, 18))
    for eta, count in ((0.1, 0), (1.0, 1 << 18)):
        res = brute_sk_opt_and_count(G, eta).exact_value
        assert res == {"opt": float.fromhex("0x1.0333333333333p+4"), "count": count}, eta
        assert res["opt"] == math.fsum(np.diag(G))


def test_brute_sk_refuses_non_finite_entries():
    for bad in (math.nan, math.inf, 1e308):  # 1e308: the sum of |G_ij| overflows
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            brute_sk_opt_and_count(np.full((3, 3), bad), 0.1)


def test_brute_sk_count_is_even():
    G = sample_goe(10, seed=4)
    res = brute_sk_opt_and_count(G, 0.2)
    assert res.exact_value["count"] % 2 == 0


def reference_independent_sets(n: int, edges: np.ndarray, threshold: int) -> dict:
    """alpha and the count of independent sets of size >= threshold, by a
    plain scan of all 2^n vertex subsets.  A loop (v, v) does not bar v
    (``MultiGraph.build`` drops it); a repeated edge bars its pair once."""
    subsets = np.arange(1 << n)
    independent = np.ones(1 << n, dtype=bool)
    for u, v in edges.tolist():
        if u != v:
            independent &= ((subsets >> u) & (subsets >> v) & 1) == 0
    sizes = np.bitwise_count(subsets)[independent]
    return {"alpha": int(sizes.max()), "count": int((sizes >= threshold).sum())}


def test_brute_independent_sets_matches_a_scan_of_all_subsets():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(1, 15))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        # a self-loop and a repeated edge in every graph with an edge
        edges = np.concatenate((edges, edges[:1, [0, 0]], edges[:1]))
        G = MultiGraph.build(n, edges)
        for threshold in range(1, n + 2):
            expected = reference_independent_sets(n, edges, threshold)
            assert brute_independent_sets(G, threshold).exact_value == expected, (trial, threshold)
        assert brute_independent_sets(G, 1).exact_value["alpha"] == expected["alpha"]


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
        raise AssertionError("the size distribution was computed")

    monkeypatch.setattr(oracle, "_size_distribution", searched)
    with pytest.raises(ValueError, match="size threshold must be positive"):
        brute_independent_sets(petersen_graph(), threshold)


def reference_subspace_count(basis: np.ndarray, eps: float) -> int:
    """The count over the full hypercube in chunks of 2^16 rows, each y
    built from its index bits, by a float test of the distance itself:
    sqrt(max(1 - |Q^T y|^2, 0)) <= eps + 1e-12.  Off the distances at
    which y lie, it agrees with the oracle's exact squared-distance rule."""
    n = basis.shape[0]
    if basis.size == 0 or basis.shape[1] == 0:
        Q = np.zeros((n, 0))
    else:
        U, s, _ = np.linalg.svd(basis, full_matrices=False)
        Q = U[:, s > 1e-10 * s.max()]
    count = 0
    for start in range(0, 1 << n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.uint32)
        Y = (1.0 - 2.0 * ((idx[:, None] >> np.arange(n, dtype=np.uint32)) & 1)) / math.sqrt(n)
        proj = Y @ Q
        dist_sq = np.maximum(1.0 - np.einsum("ij,ij->i", proj, proj), 0.0)
        count += int((np.sqrt(dist_sq) <= eps + 1e-12).sum())
    return count


@pytest.mark.parametrize("n", range(1, 21))
def test_brute_subspace_matches_the_full_hypercube(n):
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, 2))
    bases = {
        "random": rng.normal(size=(n, int(rng.integers(1, 4)))),
        "rank-deficient": np.column_stack((b, b[:, 0] - 2.0 * b[:, 1], 3.0 * b[:, 0])),
        "zero": np.zeros((n, 2)),
        "empty": np.zeros((n, 0)),
    }
    for name, basis in bases.items():
        for e in (0.3, 0.9) if n > 12 else (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            expected = reference_subspace_count(basis, e)
            assert brute_subspace_count(basis, e) == expected, (name, e)


def test_brute_subspace_is_exact_at_the_distances_of_coordinate_and_sign_bases():
    # y = x / sqrt(n) lies at squared distance (n - r)/n from the span of r
    # coordinate vectors, and at 4 j (n - j)/n^2 from the span of a +-1
    # vector x0 it disagrees with in j places; with eps at one of these
    # distances, membership is an exact integer comparison
    for n in range(1, 21):
        for r in range(1, n + 1):
            for k in range(max(r - 1, 0), min(r + 1, n) + 1):
                res = brute_subspace_count(np.eye(n)[:, :r], math.sqrt((n - k) / n))
                assert res == (2**n if k <= r else 0), (n, r, k)
        x0 = np.random.default_rng(n).choice([-1.0, 1.0], size=(n, 1))
        for k in range(n + 1):
            expected = sum(math.comb(n, j) for j in range(n + 1) if j * (n - j) <= k * (n - k))
            res = brute_subspace_count(x0, 2.0 * math.sqrt(k * (n - k)) / n)
            assert res == expected, (n, k)


def test_brute_subspace_refuses_a_negative_eps():
    for eps in (-0.1, math.nan):
        with pytest.raises(ValueError, match="eps must be a distance"):
            brute_subspace_count(np.eye(4), eps)


def test_brute_subspace_full_and_zero():
    n = 8
    assert brute_subspace_count(np.eye(n), 0.1) == 2**n
    assert brute_subspace_count(np.zeros((n, 0)), 0.9) == 0


def test_verify_count_certificate():
    cert = CountCertificate(
        kind="count", n=6, log2_bound=3.0, eta=0.0, fallback=False,
        checks=(), instance_sha256="0" * 64,
    )
    assert verify_certificate(cert, OracleResult("count", 8, 64)) == "sound"
    assert verify_certificate(cert, OracleResult("count", 9, 64)) == "violated"
    assert verify_certificate(cert, OracleResult("sk", {}, 64)) == "inapplicable"
    fallback = CountCertificate(
        kind="count", n=6, log2_bound=6.0, eta=0.0, fallback=True,
        checks=(CheckRecord("x", 0.0, 1.0, False),), instance_sha256="0" * 64,
    )
    assert verify_certificate(fallback, OracleResult("count", 64, 64)) == "sound"


def cluster_certificate(fallback: bool) -> ClusterCertificate:
    # theta n = 2, gap window [8, 12], at most 2^2 clusters unless fallback
    return ClusterCertificate(
        n=20, eta=0.05, theta=0.1, log2_cluster_bound=20.0 if fallback else 2.0,
        gap_interval=(8.0, 12.0), primal_report={}, fallback=fallback, checks=(),
        instance_sha256="0" * 64,
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


@pytest.mark.parametrize("kind, result, message", [
    ("count", OracleResult("count", -7, 64), "exact_value holds -7"),
    ("sk-count", OracleResult("sk", {"opt": 1.0, "count": -1}, 64), "'count' holds -1"),
    ("indset-count", OracleResult("indset", {"alpha": 3, "count": -1}, 256), "'count' holds -1"),
    ("clusters", cluster_oracle({"1": 1}, -1), "'cover_count' holds -1"),
    ("clusters", cluster_oracle({"1": -2}, 1), "'distance_histogram'"),
    ("balance", OracleResult("max-bias", 1.5, 1 << 14), "1.5, not a bias in"),
    ("balance", OracleResult("max-bias", -0.1, 1 << 14), "-0.1, not a bias in"),
    ("refutation", OracleResult("count", -1, 1 << 12), "exact_value holds -1"),
    ("indset-refutation", OracleResult("indset", {"alpha": -1, "count": 0}, 256), "'alpha' holds -1"),
], ids=["count", "sk-count", "indset-count", "clusters-cover", "clusters-histogram",
        "balance-above-1", "balance-negative", "refutation", "indset-refutation"])
def test_verdict_refuses_an_oracle_value_out_of_range(kind, result, message):
    # each of these once gave a verdict: a negative count or size "sound",
    # a bias of 1.5 "violated"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_certificate(samples()[kind], result)


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


@pytest.mark.parametrize("terms_bits", [oracle._TERMS_BITS, 8])
@pytest.mark.parametrize("k", range(2, 13))
def test_violation_profile_matches_direct_evaluation_at_every_arity(k, terms_bits, monkeypatch):
    # with 2^8 terms a block, every T of k >= 4 splits into low and high columns
    monkeypatch.setattr(oracle, "_TERMS_BITS", terms_bits)
    n = max(k, 6)
    X = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    rng = np.random.default_rng(k)
    repeats = SignedHypergraph(k, n, rng.integers(0, n, size=(5, k)),
                               rng.choice([-1, 1], size=(5, k)))
    for I in (sample_signed_hypergraph(k, n, 3 * n, seed=k), repeats):
        # each assignment's sign pattern c o x_S at every clause, as a table index
        patterns = ((I.signs * X[:, I.vars]) == -1) @ (1 << np.arange(k))
        for P in (Predicate.ksat(k), Predicate.parity(k, -1), random_predicate(k, n)):
            direct = (1 - np.array(P.table)[patterns]).sum(axis=1)
            assert np.array_equal(violation_profile(I, P), direct), P.table
        J = I.to_xor()
        direct = (X[:, J.vars].prod(axis=2) != J.rhs).sum(axis=1)
        assert np.array_equal(violation_profile(J), direct)


# ---------------------------------------------------------------------------
# The oracle's enumerations against the tuple code they replaced, frozen
# here: per-clause loops over the ``clauses`` and ``edges`` views, with
# exact Python-int masks
# ---------------------------------------------------------------------------

def _odd_mask(S) -> int:
    mask = 0
    for v in S:
        mask ^= 1 << v
    return mask


def reference_sign_table(H: UnsignedHypergraph) -> np.ndarray:
    idx = np.arange(1 << H.n, dtype=np.uint64)
    table = np.empty((1 << H.n, H.m), dtype=np.int8)
    for j, S in enumerate(H.edges):
        masked = idx & np.uint64(_odd_mask(S))
        parity = np.bitwise_count(masked).astype(np.int8) & 1
        table[:, j] = 1 - 2 * parity
    return table


def reference_violations_signed(I: SignedHypergraph, P: Predicate) -> np.ndarray:
    idx = np.arange(1 << I.n, dtype=np.uint32)
    lut = np.array(P.table, dtype=np.uint8)
    violations = np.zeros(1 << I.n, dtype=np.int32)
    for c, S in I.clauses:
        pattern = np.full(1 << I.n, signs_to_index(c), dtype=np.uint32)
        for i, v in enumerate(S):
            pattern ^= ((idx >> np.uint32(v)) & np.uint32(1)) << np.uint32(i)
        violations += 1 - lut[pattern]
    return violations


def reference_violations_xor(I: XorInstance) -> np.ndarray:
    idx = np.arange(1 << I.n, dtype=np.uint64)
    violations = np.zeros(1 << I.n, dtype=np.int32)
    for b, S in I.clauses:
        masked = idx & np.uint64(_odd_mask(S))
        parity = (np.bitwise_count(masked) & 1).astype(np.int32)
        violations += ((1 - 2 * parity) != b).astype(np.int32)
    return violations


def reference_gaussian_count(I: XorInstance) -> int:
    pivots: dict[int, tuple[int, int]] = {}
    for b, S in I.clauses:
        mask, rhs = _odd_mask(S), 1 if b == -1 else 0
        while mask:
            top = mask.bit_length() - 1
            if top in pivots:
                pmask, prhs = pivots[top]
                mask ^= pmask
                rhs ^= prhs
            else:
                pivots[top] = (mask, rhs)
                break
        else:
            if rhs:
                return 0
    return 1 << (I.n - len(pivots))


def random_predicate(k: int, seed: int) -> Predicate:
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 2, size=1 << k)
    table[rng.permutation(1 << k)[:2]] = (0, 1)  # neither constant 1 nor constant 0
    return Predicate(k, tuple(int(v) for v in table))


def sampled_instances():
    """Signed instances at n = 3..14 over k = 2, 3, 4, with an empty one."""
    for n in range(3, 15):
        for k in (2, 3, 4):
            if n >= k:
                yield sample_signed_hypergraph(k, n, 2 * n, seed=100 * n + k)
    yield SignedHypergraph(3, 5, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)))


# repeated variables: a repeated pair cancels from the parity, a triple
# leaves one copy
REPEATS = SignedHypergraph(
    3, 5, [(0, 0, 1), (2, 2, 2), (3, 1, 3), (4, 4, 4), (1, 2, 3)],
    [(1, -1, 1), (-1, -1, 1), (1, 1, -1), (1, 1, 1), (-1, 1, -1)])


# the desk-cli cluster oracle's 3XOR shape, k = 5, and n = 20 (profiles only)
LARGER = [sample_signed_hypergraph(3, 14, 1960, seed=1),
          *(sample_signed_hypergraph(5, n, 3 * n, seed=n) for n in (5, 9, 12)),
          sample_signed_hypergraph(3, 20, 24, seed=20)]


@pytest.mark.parametrize("I", [*sampled_instances(), REPEATS, *LARGER],
                         ids=lambda I: f"k{I.k}-n{I.n}-m{I.m}")
def test_array_oracle_matches_tuple_reference(I):
    scans = I.m and I.n <= 14
    for P in (Predicate.ksat(I.k), Predicate.parity(I.k), Predicate.parity(I.k, -1),
              random_predicate(I.k, I.n)):
        expected = reference_violations_signed(I, P)
        assert np.array_equal(violation_profile(I, P), expected), P.table
        if scans:
            budget = violation_budget(0.1, I.m)
            assert brute_count(I, P, 0.1).exact_value == int((expected <= budget).sum())
    # the signs' products, and every rhs -1
    for J in (I.to_xor(), XorInstance(I.k, I.n, I.vars, np.full(I.m, -1))):
        expected = reference_violations_xor(J)
        assert np.array_equal(violation_profile(J), expected)
        if I.n > 14:
            continue
        assert np.array_equal(xor_sign_table(J.hypergraph()),
                              reference_sign_table(J.hypergraph()))
        assert gaussian_count(J) == reference_gaussian_count(J)
        if scans:
            solutions = np.flatnonzero(expected <= violation_budget(0.1, I.m))
            assert brute_count(J, None, 0.1).exact_value == len(solutions)
            ones = np.bitwise_count(solutions.astype(np.uint64)).astype(np.int64)
            expected_bias = float(np.max(np.abs(I.n - 2 * ones)) / I.n) if len(solutions) else None
            assert brute_max_bias(J, None, 0.1).exact_value == expected_bias


@pytest.mark.parametrize("arity", [2, 4])
def test_a_predicate_of_another_arity_is_refused(arity):
    I = sample_signed_hypergraph(3, 8, 40, seed=3)
    P = Predicate.ksat(arity)
    for scan in (lambda: violation_profile(I, P), lambda: brute_count(I, P, 0.3),
                 lambda: brute_max_bias(I, P, 0.3)):
        with pytest.raises(ValueError, match="predicate arity does not match instance"):
            scan()


@pytest.mark.parametrize("theta", [-0.1, 0.7, math.nan])
def test_brute_clusters_refuses_theta_outside_half_interval(theta):
    with pytest.raises(ValueError, match="theta must lie in"):
        brute_clusters(triangle_xor(), 0.0, theta)


def test_brute_clusters_takes_an_empty_instance():
    n = 6
    profile = brute_clusters(XorInstance(3, n, np.zeros((0, 3), dtype=np.int64), []),
                             0.0, 0.5).exact_value
    assert profile["num_solutions"] == 1 << n
    # 2^n / 2 pairs of assignments at each distance d, times C(n, d)
    assert profile["distance_histogram"] == {
        str(d): (1 << (n - 1)) * math.comb(n, d) for d in range(1, n + 1)}


def planted_xor(n: int, m: int, free: int, seed: int) -> tuple[XorInstance, np.ndarray]:
    """A 3XOR instance satisfied by a random assignment, none of whose
    clauses holds one of ``free`` random variables; repeats allowed."""
    rng = np.random.default_rng(seed)
    unused = rng.choice(n, size=free, replace=False)
    V = rng.choice(np.setdiff1d(np.arange(n), unused), size=(m, 3))
    x = rng.choice(np.array([-1, 1]), size=n)
    return XorInstance(3, n, V, x[V].prod(axis=1)), unused


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("density", [0.6, 1.5])
def test_gaussian_count_is_exact_past_64_variables(n, density):
    free = 5
    I, unused = planted_xor(n, int(density * n), free, seed=n)
    assert I.vars.max() >= 64
    count = gaussian_count(I)
    assert count == reference_gaussian_count(I)
    # consistent, and the unused variables are free
    assert count >= 1 << free and count % (1 << free) == 0
    # a cycle of 2XOR clauses whose signs multiply to -1 contradicts any system
    cycle = [int(v) for v in np.setdiff1d(np.arange(n), unused)[[3, 40, 70, -1]]]
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    plus = XorInstance(2, n, I.vars[:, :2].tolist() + edges, [1] * I.m + [1, 1, 1, -1])
    assert gaussian_count(plus) == reference_gaussian_count(plus) == 0


@pytest.mark.parametrize("n, m", [(100, 3000), (400, 14494)])
def test_count_oracle_checks_eta_0_certificates_past_enumeration(tmp_path, capsys, n, m):
    # the count oracle once stopped at n = 24; a planted signing has
    # 2^(n - rank) solutions, a random one this dense has none
    random = tmp_path / "random.json"
    assert main(["gen", "--kind", "xor", "-k", "3", "-n", str(n), "-m", str(m),
                 "--seed", "1", "--out", str(random)]) == 0
    V = read_instance(str(random)).vars
    x = np.random.default_rng(n).choice(np.array([-1, 1]), size=n)
    J, planted = XorInstance(3, n, V, x[V].prod(axis=1)), tmp_path / "planted.json"
    write_json(str(planted), instance_doc(J))
    cert = tmp_path / "cert.json"
    assert main(["certify", "--kind", "count", "--instance", str(random), "--out", str(cert)]) == 0
    solutions = reference_gaussian_count(J)
    assert solutions >= 1
    for path, expected in [(planted, solutions), (random, 0)]:
        res = tmp_path / "oracle.json"
        assert main(["oracle", "--kind", "count", "--instance", str(path), "--out", str(res)]) == 0
        assert read_json(str(res))["exact_value"] == expected
        capsys.readouterr()
        assert main(["verify", "--certificate", str(cert), "--oracle", str(res)]) == 0
        assert capsys.readouterr().out == "sound\n"
