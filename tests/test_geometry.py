import itertools
import math

import numpy as np
import pytest

from solgeo.geometry import (
    balanced_code_bound,
    certify_balance_3csp,
    certify_balance_kcsp,
    certify_balance_kxor,
    certify_clusters_3csp,
    certify_clusters_3xor,
    certify_induced_positive_fraction,
    certify_primal_expansion,
    hyperedge_split_bounds,
    refute_biased_2xor_family,
)
from solgeo.instances import (
    MultiGraph,
    Predicate,
    UnsignedHypergraph,
    XorInstance,
    ksat_fourier,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    violation_budget,
)
from solgeo.oracle import (
    batch_xor_counts,
    brute_clusters,
    brute_max_bias,
    verify_certificate,
    xor_sign_table,
)
from solgeo.spectral import SpectralReport

from conftest import planted_3sat, sign_cube_k4, synthetic_balanced_k4


# ---------------------------------------------------------------------------
# primal expansion and split bounds
# ---------------------------------------------------------------------------

def test_primal_expansion_single_hyperedge_exact():
    H = UnsignedHypergraph(3, 5, ((0, 1, 2),))
    got = certify_primal_expansion(H).report.demeaned_norm
    # independent computation of the de-meaned triangle spectrum
    A = np.zeros((5, 5))
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        A[u, v] = A[v, u] = 1.0
    Abar = A - (6 / 5 / 5) * np.ones((5, 5))
    expected = float(np.max(np.abs(np.linalg.eigvalsh(Abar))))
    assert got == pytest.approx(expected, abs=1e-8)


def test_primal_expansion_empty():
    pe = certify_primal_expansion(UnsignedHypergraph(3, 6, ()))
    assert pe.report.demeaned_norm == 0.0
    assert pe.check.passed


@pytest.mark.slow
def test_primal_norm_calibration_at_scale():
    # the default constant c0 = 3 holds with room at n = 2000, density sqrt(n)
    n = 2000
    m = int(math.sqrt(n) * n)
    passed = 0
    for seed in range(20):
        H = sample_unsigned_hypergraph(3, n, m, seed)
        if certify_primal_expansion(H).check.passed:
            passed += 1
    assert passed >= 19


def test_split_bounds_zero_norm_limit():
    # with a zero measured norm the bounds match the clean quadratics
    n, m = 20, 120
    H = sample_unsigned_hypergraph(3, n, m, seed=1).without_repeats()
    report = SpectralReport(n, 3 * H.m, 0, 10**9, 6 * H.m / n, None, 0.0)
    for gamma in (0.1, 0.25, 0.4):
        split = hyperedge_split_bounds(H, report, gamma)
        assert split.lb2 == pytest.approx(3 * H.m * (gamma - 2 * gamma**2), rel=1e-4)
        assert split.lb3 == pytest.approx(H.m * (gamma + 2 * gamma**2), rel=1e-4)


def test_split_bounds_monotone_in_measured_norm():
    n, m = 20, 120
    H = sample_unsigned_hypergraph(3, n, m, seed=1).without_repeats()
    davg = 6 * H.m / n
    previous = None
    for nu in (0.0, 2.0, 5.0, 11.0):
        report = SpectralReport(n, 3 * H.m, 0, 10**9, davg, None, nu)
        split = hyperedge_split_bounds(H, report, 0.3)
        if previous is not None:
            assert split.lb2 <= previous.lb2 + 1e-12
            assert split.lb3 <= previous.lb3 + 1e-12
        previous = split


def test_split_bounds_sign_sanity_at_zero_gamma():
    H = sample_unsigned_hypergraph(3, 12, 60, seed=2).without_repeats()
    pe = certify_primal_expansion(H)
    split = hyperedge_split_bounds(H, pe.report, 0.0)
    assert split.lb2 >= 0.0
    assert split.lb3 >= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_split_bounds_exhaustive_small(seed):
    n = 9
    H = sample_unsigned_hypergraph(3, n, 45, seed=seed).without_repeats().dedup()
    if H.m == 0:
        pytest.skip("empty sample")
    pe = certify_primal_expansion(H)
    for mask in range(1 << n):
        s = bin(mask).count("1")
        if s <= n / 2:
            continue
        inside = [v for v in range(n) if (mask >> v) & 1]
        in_set = set(inside)
        t2 = sum(1 for S in H.edges if sum(v in in_set for v in S) == 2)
        t3 = sum(1 for S in H.edges if sum(v in in_set for v in S) == 3)
        split = hyperedge_split_bounds(H, pe.report, s / n - 0.5)
        assert t2 >= split.lb2 - 1e-9
        assert t3 >= split.lb3 - 1e-9


# ---------------------------------------------------------------------------
# balanced-code bound
# ---------------------------------------------------------------------------

def test_code_bound_at_least_2n():
    for eps in (0.0, 0.1, 0.3, 0.45):
        for n in (8, 14, 100):
            assert balanced_code_bound(eps, n) >= min(n, math.log2(2 * n)) - 1e-9


def test_code_bound_monotone_in_eps():
    values = [balanced_code_bound(e, 40) for e in np.linspace(0.0, 0.45, 12)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_code_bound_rejects_bad_eps():
    with pytest.raises(ValueError):
        balanced_code_bound(0.5, 10)
    with pytest.raises(ValueError):
        balanced_code_bound(-0.1, 10)


def greedy_balanced_code(n: int, eps: float, restarts: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    lo = (1 - eps) / 2 * n
    hi = (1 + eps) / 2 * n
    best = 0
    for _ in range(restarts):
        code: list[int] = []
        for cand in rng.integers(0, 1 << n, size=150):
            cand = int(cand)
            ok = True
            for word in code:
                d = bin(cand ^ word).count("1")
                if not (lo <= d <= hi):
                    ok = False
                    break
            if ok:
                code.append(cand)
        best = max(best, len(code))
    return best


def test_code_bound_dominates_greedy_witness():
    witness = greedy_balanced_code(14, 0.15, restarts=100, seed=0)
    assert witness >= 2
    assert balanced_code_bound(0.15, 14) >= math.log2(witness)


# ---------------------------------------------------------------------------
# cluster certificates
# ---------------------------------------------------------------------------

def test_clusters_dense_instance_emits():
    H = sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3)
    cert = certify_clusters_3xor(H, 0.05, c0=6.0)
    assert not cert.fallback
    assert 0 < cert.theta < 0.25
    lo, hi = cert.gap_interval
    assert lo == pytest.approx((0.5 - cert.theta) * 14)
    assert hi == pytest.approx((0.5 + cert.theta) * 14)
    assert cert.transcript["theta_asymptotic_rule"] == pytest.approx(
        max(2 * 0.05, cert.transcript["density"] ** -0.5 * math.log(14))
    )


def test_clusters_fallback_on_large_eta():
    H = sample_unsigned_hypergraph(3, 14, 14 * 140, seed=3)
    cert = certify_clusters_3xor(H, 0.45, c0=6.0)
    assert cert.fallback and cert.log2_cluster_bound == 14.0


def test_clusters_planted_signings_respect_certificate():
    n = 14
    H = sample_unsigned_hypergraph(3, n, n * 140, seed=7)
    cert = certify_clusters_3xor(H, 0.05, c0=6.0)
    assert not cert.fallback
    table = xor_sign_table(H)
    rng = np.random.default_rng(1)
    for idx in rng.integers(0, 1 << n, size=8):
        signs = table[idx]
        I = XorInstance(3, n, tuple((int(b), S) for b, S in zip(signs, H.edges)))
        res, profile = brute_clusters(I, 0.05, cert.theta)
        assert profile.num_solutions >= 1
        assert verify_certificate(cert, res) == "sound"


def test_clusters_3csp_slack_conversion():
    I, _ = planted_3sat(14, 14 * 140, 7, seed=4)
    cert = certify_clusters_3csp(I, ksat_fourier(3), 0.01, c0=6.0)
    eps = cert.transcript["quasirandom_eps"]
    assert cert.transcript["eta_x"] == pytest.approx(4 * 0.01 + 3 * eps)
    assert cert.signature == I.sha256()


@pytest.mark.parametrize("seed", range(3))
def test_clusters_3csp_sound_small(seed):
    n = 12
    I, _ = planted_3sat(n, n * 100, 6, seed=seed)
    P = ksat_fourier(3)
    eta = 0.01
    cert = certify_clusters_3csp(I, P, eta, c0=8.0)
    from solgeo.oracle import violation_profile

    viol = violation_profile(I, P)
    sols = np.nonzero(viol <= violation_budget(eta, I.m))[0]
    assert len(sols) >= 1
    if cert.fallback:
        return
    theta_n = cert.theta * n
    lo, hi = cert.gap_interval
    for i in range(len(sols)):
        d = np.bitwise_count(np.uint64(sols[i]) ^ sols[i + 1:].astype(np.uint64))
        for dist in d:
            assert dist <= theta_n + 1e-9 or (lo - 1e-9 <= dist <= hi + 1e-9)


# ---------------------------------------------------------------------------
# induced positivity and the biased-family refuter
# ---------------------------------------------------------------------------

def test_induced_positive_fraction_tight_when_all_positive():
    clauses = tuple((1, (0, 1, 4, 5)) for _ in range(6))
    I = XorInstance(4, 6, clauses)
    res = certify_induced_positive_fraction(I, [0, 1])
    assert res.eps == pytest.approx(0.5)


def test_induced_positive_fraction_cancellation():
    clauses = ((1, (0, 1, 4, 5)), (-1, (0, 1, 4, 5)))
    I = XorInstance(4, 6, clauses)
    res = certify_induced_positive_fraction(I, [0, 1])
    assert res.eps == pytest.approx(0.0, abs=1e-12)


def test_induced_positive_fraction_exhaustive_sigma():
    rng = np.random.default_rng(3)
    n, s = 12, 6
    clauses = []
    for _ in range(60):
        a, b = rng.choice(s, size=2, replace=False)
        u, v = rng.choice(np.arange(s, n), size=2, replace=False)
        clauses.append((int(rng.choice([-1, 1])), (int(a), int(b), int(u), int(v))))
    I = XorInstance(4, n, tuple(clauses))
    S = list(range(s))
    res = certify_induced_positive_fraction(I, S)
    from solgeo.instances import induced_xor

    for bits in itertools.product([-1, 1], repeat=s):
        sigma = dict(zip(S, bits))
        ind = induced_xor(I, S, sigma, 2)
        pos = sum(1 for b, _ in ind.clauses if b == 1) / ind.m
        assert pos <= 0.5 + res.eps + 1e-9


def test_biased_family_near_complete_limit():
    # dense multigraph, eps = 0, rho = 1: the violated fraction approaches 1/2
    n = 40
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)] * 3
    G = MultiGraph.build(n, edges)
    got = refute_biased_2xor_family(G, 0.0, 1.0)
    assert got == pytest.approx(0.5, abs=0.1)


def test_biased_family_clamps_to_zero():
    G = MultiGraph.build(6, [(0, 1), (2, 3), (4, 5)])
    assert refute_biased_2xor_family(G, 0.3, 0.1) == 0.0


@pytest.mark.parametrize("seed", range(2))
def test_biased_family_exhaustive(seed):
    n = 8
    rng = np.random.default_rng(seed)
    edges = [
        tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(12)
    ]
    G = MultiGraph.build(n, edges)
    eps, rho = 0.2, 0.5
    bound = refute_biased_2xor_family(G, eps, rho)
    m = G.m
    max_pos = math.floor((0.5 + eps) * m + 1e-9)
    table = xor_sign_table(UnsignedHypergraph(2, n, G.edges))
    idx = np.arange(1 << n, dtype=np.uint64)
    ones = np.bitwise_count(idx).astype(np.int64)
    biased = np.abs(n - 2 * ones) >= rho * n - 1e-9
    for signs in itertools.product([-1, 1], repeat=m):
        if sum(1 for b in signs if b == 1) > max_pos:
            continue
        sat = (table @ np.array(signs, dtype=np.int64) + m) // 2
        viol_frac = (m - sat[biased]) / m
        assert (viol_frac >= bound - 1e-9).all()


# ---------------------------------------------------------------------------
# balance certificates
# ---------------------------------------------------------------------------

def test_balance_3csp_emits_and_oracle_agrees():
    n = 14
    I, xstar = planted_3sat(n, n * 140, 9, seed=5)  # planted bias 4/14
    P = ksat_fourier(3)
    cert = certify_balance_3csp(I, P, rho=0.8, eta=0.02)
    assert cert is not None
    assert cert.violated_fraction_bound > cert.eta
    res = brute_max_bias(I, P, cert.eta)
    assert res.exact_value is not None  # the planted satisfier keeps this real
    assert verify_certificate(cert, res) == "sound"


def test_balance_3csp_declines_quietly():
    I = sample_signed_hypergraph(3, 12, 60, seed=0)
    assert certify_balance_3csp(I, ksat_fourier(3), rho=0.05, eta=0.02) is None


def test_balance_3csp_reference_rule_recorded():
    I, _ = planted_3sat(14, 14 * 140, 7, seed=9)
    cert = certify_balance_3csp(I, ksat_fourier(3), rho=0.8, eta=0.02)
    assert cert is not None
    assert cert.transcript["eta_asymptotic_rule"] == pytest.approx(0.8 / 16)


def test_balance_kxor_emits_on_structured_instance():
    I = synthetic_balanced_k4()
    cert = certify_balance_kxor(I, rho=0.5)
    assert cert is not None
    assert cert.rho == pytest.approx((0.5 * 32 + 32) / 64)
    assert cert.transcript["eta_asymptotic_rule"] == pytest.approx(0.5**2 * 0.5**2 / 2)
    assert cert.transcript["selected_clauses"] == I.m
    assert 0 < cert.transcript["eps_induced"] < 0.05
    assert cert.violated_fraction_bound > cert.eta


def test_balance_kxor_declines_at_desk_scale():
    I = sample_signed_hypergraph(4, 12, 12 * 60, seed=2).to_xor()
    assert certify_balance_kxor(I, rho=0.5) is None


def test_balance_kxor_rejects_small_k():
    I = sample_signed_hypergraph(3, 10, 40, seed=1).to_xor()
    with pytest.raises(ValueError):
        certify_balance_kxor(I, rho=0.5)


def test_balance_kcsp_composes_through_identity_reduction():
    signed = sign_cube_k4()
    cert = certify_balance_kcsp(signed, ksat_fourier(4), rho=0.5)
    assert cert is not None
    assert cert.eta < cert.violated_fraction_bound
    assert cert.transcript["quasirandom_eps"] == pytest.approx(0.0, abs=1e-12)
    assert cert.transcript["eta_asymptotic_rule"] == pytest.approx(0.5**4 / 2)


def test_balance_kcsp_declined_propagates():
    I = sample_signed_hypergraph(4, 12, 12 * 40, seed=3)
    assert certify_balance_kcsp(I, ksat_fourier(4), rho=0.4) is None
