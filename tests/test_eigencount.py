import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import petersen_graph
from solgeo.eigencount import (
    IndSetConstants,
    certify_count_indsets,
    certify_count_sk,
    eigenspace_window,
    entropy2,
    hoffman_bound,
    refute_indset_from_count,
    subspace_count_bound,
)
from solgeo.instances import MultiGraph, sample_goe, sample_regular_graph
from solgeo.oracle import (
    brute_independent_sets,
    brute_sk_opt_and_count,
    brute_subspace_count,
    verify_certificate,
)
from solgeo.spectral import demeaned_adjacency


def two_k4s() -> MultiGraph:
    block = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return MultiGraph.build(8, block + [(u + 4, v + 4) for u, v in block])


def test_entropy2_values():
    assert entropy2(0.5) == 1.0
    assert entropy2(0.0) == 0.0
    assert entropy2(1.0) == 0.0
    assert entropy2(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(ValueError):
        entropy2(1.5)


def test_subspace_count_bound_edges():
    # alpha = 0, tiny eps: almost nothing fits near the origin
    assert subspace_count_bound(0.0, 1e-6, 20) == pytest.approx(0.0, abs=1e-3)
    # alpha = 1 caps at the whole cube
    assert subspace_count_bound(1.0, 0.2, 20) == 20.0
    with pytest.raises(ValueError):
        subspace_count_bound(0.5, 0.3, 10)
    with pytest.raises(ValueError):
        subspace_count_bound(1.5, 0.1, 10)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_subspace_count_bound_vs_brute(eps):
    n = 10
    rng = np.random.default_rng(1)
    for trial in range(10):
        dim = int(rng.integers(1, 4))
        basis = rng.normal(size=(n, dim))
        res = brute_subspace_count(basis, eps)
        bound = subspace_count_bound(dim / n, eps, n)
        assert math.log2(max(res.exact_value, 1)) <= bound + 1e-9


def test_eigenspace_window_identity():
    win = eigenspace_window(np.eye(12), 0.5, "top")
    assert win.alpha == 1.0
    assert win.lambda_top == pytest.approx(1.0)


def test_eigenspace_window_bottom_negates():
    M = np.diag([3.0, -5.0, 1.0])
    win = eigenspace_window(M, 0.1, "bottom")
    assert win.lambda_top == pytest.approx(5.0)
    assert win.count == 1


def test_counts_record_the_eigenspace_window():
    # both counts rest on the one window: the alpha and lambda_1 each
    # records are eigenspace_window's fields on the matrix it reads
    M = sample_goe(40, seed=3)
    sk = certify_count_sk(M, 0.1).transcript
    win = eigenspace_window(M, sk["delta"])
    assert (sk["alpha"], sk["lambda_1"]) == (win.alpha, win.lambda_top)
    assert sk["eps_measured"] == win.eps(sk["target_rayleigh"])
    G = sample_regular_graph(40, 3, seed=3)
    indset = certify_count_indsets(G, 0.2).transcript
    Abar, err = demeaned_adjacency(G)  # A - (d/n) J; the count reads its negation
    win = eigenspace_window(Abar, indset["delta"], "bottom", err)
    assert (indset["alpha"], indset["lambda_1"]) == (win.alpha, win.lambda_top)


def test_sk_signature_hashes_the_matrix_as_before():
    from solgeo.jsonio import sha256_of

    G = sample_goe(12, seed=4)
    doc = {"kind": "goe", "n": 12, "matrix": [[float(v) for v in row] for row in G]}
    assert certify_count_sk(G, 0.1).instance_sha256 == sha256_of(doc)


@pytest.mark.slow
def test_bottom_window_kesten_mckay_scale():
    # mass of the bottom spectral window of a random 3-regular de-meaned
    # adjacency stays under twice the semicircle-envelope estimate
    d, n, delta = 3, 2000, 0.1
    envelope = 2.0 * (12.0 * math.sqrt(2.0) / math.pi) * delta**1.5
    good = 0
    for seed in range(10):
        G = sample_regular_graph(n, d, seed=seed)
        A = G.adjacency()
        abar = A - (d / n) * np.ones((n, n))
        win = eigenspace_window(abar, delta, "bottom")
        if win.alpha <= envelope:
            good += 1
    assert good >= 9


def test_distance_lemma_numeric():
    # vectors with near-extremal Rayleigh quotient sit near the top window
    rng = np.random.default_rng(3)
    G = sample_goe(60, seed=5)
    vals, vecs = np.linalg.eigh(G)
    lam1 = vals[-1]
    delta = 0.3
    threshold = lam1 * (1 - delta)
    V = vecs[:, vals >= threshold]
    proj_away = np.eye(60) - V @ V.T
    for trial in range(20):
        x = vecs[:, -1] + 0.3 * rng.normal(size=60)
        rayleigh = x @ G @ x / (x @ x)
        eta = max(0.0, 1 - rayleigh / lam1)
        lhs = np.linalg.norm(proj_away @ x)
        assert lhs <= math.sqrt(eta / delta) * np.linalg.norm(x) + 1e-8


# ---------------------------------------------------------------------------
# SK counting
# ---------------------------------------------------------------------------

def test_sk_spectral_exclusion_gives_zero_bits():
    # eta tiny: the measured top eigenvalue cannot reach the target
    G = sample_goe(12, seed=0)
    lam1 = float(np.linalg.eigvalsh(G)[-1])
    eta = 1e-6
    assert lam1 < 2 * (1 - eta) * math.sqrt(12)
    cert = certify_count_sk(G, eta)
    assert cert.log2_bound == 0.0 and not cert.fallback
    assert cert.transcript["spectral_exclusion"] is True


def test_sk_parameter_rule_transcript():
    cert = certify_count_sk(sample_goe(12, seed=1), 0.01)
    assert cert.transcript["delta"] == pytest.approx(0.01 ** 0.4)
    assert cert.transcript["delta"] == pytest.approx(0.158489, abs=1e-5)
    assert cert.transcript["eps_asymptotic_rule"] == pytest.approx(0.251189, abs=1e-5)


@pytest.mark.parametrize("eta", [0.05, 0.1])
def test_sk_soundness_small(eta):
    for seed in range(8):
        G = sample_goe(13, seed=seed)
        cert = certify_count_sk(G, eta)
        res = brute_sk_opt_and_count(G, eta)
        assert verify_certificate(cert, res) == "sound"


def test_sk_rejects_bad_eta():
    with pytest.raises(ValueError):
        certify_count_sk(sample_goe(8, seed=0), 0.0)


# ---------------------------------------------------------------------------
# independent sets
# ---------------------------------------------------------------------------

def test_indset_constants_d3():
    consts = IndSetConstants.for_degree(3)
    assert consts.r_d == pytest.approx(2 * math.sqrt(2) / 3)
    assert consts.r_d == pytest.approx(0.94281, abs=1e-5)
    assert consts.C_d == pytest.approx(0.48528, abs=1e-5)
    assert consts.C_y < math.sqrt(consts.C_d)
    for d in range(4, 12):
        assert IndSetConstants.for_degree(d).r_d <= 1.0


def test_hoffman_k4():
    G = MultiGraph.build(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert hoffman_bound(G) == 1


def test_hoffman_petersen_tight():
    pet = petersen_graph()
    assert hoffman_bound(pet) == 4
    assert brute_independent_sets(pet, 4).exact_value == {"alpha": 4, "count": 5}


def test_hoffman_never_below_truth_random():
    for seed in range(10):
        G = sample_regular_graph(16, 3, seed=seed)
        alpha = brute_independent_sets(G, 1).exact_value["alpha"]
        assert hoffman_bound(G) >= alpha


def test_hoffman_requires_regular():
    with pytest.raises(ValueError):
        hoffman_bound(MultiGraph.build(3, [(0, 1)]))


def test_centered_indicator_exact_identities():
    n = 10
    pet = petersen_graph()
    subset = frozenset({0, 2, 8, 9})  # an independent set of the Petersen graph
    assert not any(u in subset and v in subset for u, v in pet.edges)
    # the centered indicator: 1 - |S|/n on S, -|S|/n off S
    s = Fraction(len(subset), n)
    yv = [(1 - s) if i in subset else -s for i in range(n)]
    norm_sq = sum(v * v for v in yv)
    assert sum(yv) == 0
    assert norm_sq == Fraction(4) * (1 - Fraction(4, 10))
    # quadratic identity behind the Hoffman bound, in exact rationals
    d = 3
    A = [[Fraction(0)] * n for _ in range(n)]
    for u, v in pet.edges:
        A[u][v] += 1
        A[v][u] += 1
    minus_abar = [
        [Fraction(d, n) - A[i][j] for j in range(n)] for i in range(n)
    ]
    ones_form = sum(
        minus_abar[i][j] for i in subset for j in subset
    )
    y_form = sum(minus_abar[i][j] * yv[i] * yv[j] for i in range(n) for j in range(n))
    assert ones_form == y_form == Fraction(d, n) * len(subset) ** 2
    # the Rayleigh quotient certify_count_indsets uses at the binding size
    assert y_form / norm_sq == (d * s) / (1 - s)


def test_indsets_hoffman_exclusion_gives_zero_bits():
    G = two_k4s()
    cert = certify_count_indsets(G, eta=0.4)
    # threshold size 3 exceeds the certified independence bound 2
    assert cert.transcript["threshold_size"] == 3
    assert cert.log2_bound == 0.0 and not cert.fallback
    assert cert.transcript.get("hoffman_exclusion") is True
    res = brute_independent_sets(G, 3)
    assert res.exact_value == {"alpha": 2, "count": 0}
    assert verify_certificate(cert, res) == "sound"


def test_indsets_fallback_when_window_hypotheses_void():
    cert = certify_count_indsets(sample_regular_graph(14, 3, seed=1), eta=0.2)
    # desk-scale windows are too wide for a nontrivial bound: fallback 2^n
    assert cert.fallback and cert.log2_bound == 14.0


@pytest.mark.parametrize("seed", range(6))
def test_indsets_soundness_small(seed):
    G = sample_regular_graph(18, 3, seed=seed)
    cert = certify_count_indsets(G, eta=0.2)
    res = brute_independent_sets(G, max(int(cert.transcript["threshold_size"]), 1))
    assert verify_certificate(cert, res) == "sound"


def test_refute_indset_trivial_bound_gives_nothing():
    G = sample_regular_graph(12, 3, seed=0)
    cert = certify_count_indsets(G, eta=0.2)
    assert cert.fallback
    assert refute_indset_from_count(G, cert, 0.2) is None


def test_refute_indset_emission_on_disjoint_cliques():
    G = two_k4s()
    eta = 0.4
    cert = certify_count_indsets(G, eta)
    assert cert.log2_bound == 0.0
    ref = refute_indset_from_count(G, cert, eta)
    assert ref is not None
    res = brute_independent_sets(G, 1)
    assert res.exact_value["alpha"] < ref.evidence["refuted_size"]
    assert verify_certificate(ref, res) == "sound"


def test_refute_indset_refuses_certificate_of_another_graph():
    cert = certify_count_indsets(two_k4s(), 0.4)
    cube = MultiGraph.build(
        8, [(u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit]
    )
    with pytest.raises(ValueError):
        refute_indset_from_count(cube, cert, 0.4)


def test_refute_indset_threshold_arithmetic():
    # the subset binomial beats (C_d/4) eta log2(1/eta) n for eta < 1/2
    n, d = 100, 3
    consts = IndSetConstants.for_degree(d)
    for eta in (0.1, 0.3, 0.45):
        s_big = math.ceil((1 - eta / 2) * consts.C_d * n - 1e-9)
        s_small = math.ceil(consts.C_d * (1 - eta) * n - 1e-9)
        log2_subsets = math.log2(math.comb(s_big, s_big - s_small))
        assert log2_subsets > (consts.C_d / 4) * eta * math.log2(1 / eta) * n
