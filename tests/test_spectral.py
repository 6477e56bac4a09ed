import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import petersen_graph
from solgeo import eigencount, spectral
from solgeo.eigencount import (
    certify_count_indsets,
    certify_count_sk,
    eigenspace_window,
    hoffman_bound,
)
from solgeo.geometry import refute_biased_2xor_family
from solgeo.instances import (
    MultiGraph,
    primal_graph,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)
from solgeo.spectral import (
    EigensolverError,
    SpectralReport,
    demeaned_norm,
    edge_expansion_lower_bound,
    eig_slack,
    mixing_interval,
    spectral_report,
    symmetric_spectrum,
)


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> MultiGraph:
    return MultiGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, m: int, seed: int) -> MultiGraph:
    H = sample_unsigned_hypergraph(2, n, m, seed)
    return MultiGraph.build(n, [tuple(S) for S in H.edges])


def test_k4_lambda2():
    # L = I - A/3 with A eigenvalues {3, -1, -1, -1}
    report = spectral_report(complete_graph(4), demeaned=False)
    assert report.lambda2 == pytest.approx(4 / 3, abs=1e-9)
    assert (report.d_min, report.d_max) == (3, 3)


def test_four_cycle_lambda2():
    report = spectral_report(cycle_graph(4), demeaned=False)
    assert report.lambda2 == pytest.approx(1.0, abs=1e-9)


def test_isolated_vertex_rejected():
    G = MultiGraph.build(3, [(0, 1)])
    with pytest.raises(ValueError):
        spectral_report(G)


def test_edge_expansion_four_cycle():
    report = spectral_report(cycle_graph(4), demeaned=False)
    bound = edge_expansion_lower_bound(report, 1)
    assert bound == pytest.approx(1.0, rel=1e-6)
    # actual boundary of any single vertex is 2
    assert bound <= 2.0


def test_edge_expansion_disconnected_is_zero():
    G = MultiGraph.build(4, [(0, 1), (2, 3)])
    report = spectral_report(G, demeaned=False)
    assert report.lambda2 == pytest.approx(0.0, abs=1e-9)
    assert edge_expansion_lower_bound(report, 1) == pytest.approx(0.0, abs=1e-6)
    assert edge_expansion_lower_bound(report, 0) == 0.0


def test_demeaned_norm_complete_graph():
    # de-meaned K_n has eigenvalues {0, -1 x (n-1)}
    assert demeaned_norm(complete_graph(6)) == pytest.approx(1.0, abs=1e-8)


def test_demeaned_norm_empty_graph():
    assert demeaned_norm(MultiGraph.build(5, [])) == 0.0


def test_demeaned_norm_relabeling_invariant():
    G = random_graph(10, 25, seed=3)
    perm = np.random.default_rng(0).permutation(10)
    relabeled = MultiGraph.build(10, [(perm[u], perm[v]) for u, v in G.edges])
    assert demeaned_norm(G) == pytest.approx(demeaned_norm(relabeled), abs=1e-8)


def test_mixing_interval_k4():
    report = spectral_report(complete_graph(4), laplacian=False)
    lo, hi = mixing_interval(report, 2, 2)
    assert lo == pytest.approx(1.0, abs=1e-5)
    assert hi == pytest.approx(5.0, abs=1e-5)
    A = complete_graph(4).adjacency()
    for S in itertools.combinations(range(4), 2):
        for T in itertools.combinations(range(4), 2):
            ones_s = np.zeros(4)
            ones_s[list(S)] = 1
            ones_t = np.zeros(4)
            ones_t[list(T)] = 1
            e_st = ones_s @ A @ ones_t
            assert lo - 1e-9 <= e_st <= hi + 1e-9


def test_mixing_interval_empty_set():
    report = spectral_report(complete_graph(4), laplacian=False)
    assert mixing_interval(report, 0, 3) == (0.0, 0.0)


def test_mixing_interval_of_arrays_is_the_scalar_calls():
    # an array of sizes once raised "truth value of an array is ambiguous"
    report = spectral_report(random_graph(12, 40, seed=1), laplacian=False)
    s = np.array([0, 0, 3, 7.5, 12, 5])
    t = np.array([0, 4, 0, 2.25, 12, 5])
    lo, hi = mixing_interval(report, s, t)
    for i in range(len(s)):
        want = mixing_interval(report, float(s[i]), float(t[i]))
        assert (lo[i].hex(), hi[i].hex()) == (want[0].hex(), want[1].hex())
    assert [lo[0].hex(), hi[0].hex(), lo[1].hex(), hi[2].hex()] == [(0.0).hex()] * 4
    with pytest.raises(ValueError, match="nonnegative"):
        mixing_interval(report, np.array([1.0, -1.0]), 2.0)


@pytest.mark.parametrize("seed", range(5))
def test_mixing_and_expansion_exhaustive_small(seed):
    # every subset of an n=8 multigraph respects both certificates
    n = 8
    G = random_graph(n, 20, seed)
    if min(G.degrees) == 0:
        G = MultiGraph.build(n, list(G.edges) + [(i, (i + 1) % n) for i in range(n)])
    report = spectral_report(G)
    A = G.adjacency()
    total_volume = sum(G.degrees)
    indicators = np.array(
        [[(mask >> v) & 1 for v in range(n)] for mask in range(1 << n)], dtype=float
    )
    e_matrix = indicators @ A @ indicators.T
    sizes = indicators.sum(axis=1).astype(int)
    volumes = indicators @ np.array(G.degrees, dtype=float)

    # mixing holds for every ordered pair of subsets
    for s_mask in range(1, 1 << n):
        lo_hi = {}
        s = sizes[s_mask]
        for t_mask in range(1, 1 << n):
            t = sizes[t_mask]
            if (s, t) not in lo_hi:
                lo_hi[(s, t)] = mixing_interval(report, s, t)
            lo, hi = lo_hi[(s, t)]
            assert lo - 1e-9 <= e_matrix[s_mask, t_mask] <= hi + 1e-9

    # expansion holds for every subset with volume at most half the total
    full = (1 << n) - 1
    for s_mask in range(1, 1 << n):
        if volumes[s_mask] > total_volume / 2:
            continue
        cut = e_matrix[s_mask, full ^ s_mask]
        assert cut >= edge_expansion_lower_bound(report, int(sizes[s_mask])) - 1e-9


@pytest.mark.slow
def test_er_spectral_gap_at_scale():
    # lambda2 of dense Erdos-Renyi graphs clears 1 - 5/sqrt(2*density)
    n = 2000
    m = int(n**1.4)
    good = 0
    for seed in range(10):
        G = random_graph(n, m, seed).simple()
        report = spectral_report(G, demeaned=False)
        density = G.m / n
        if report.lambda2 >= 1.0 - 5.0 / math.sqrt(2.0 * density):
            good += 1
    assert good >= 9


def test_report_serialization_and_validation():
    report = spectral_report(complete_graph(5))
    back = SpectralReport.from_json_dict(report.to_json_dict())
    assert back == report
    with pytest.raises(ValueError):
        SpectralReport(4, 6, 3, 3, 3.0, 2.5, 1.0)  # lambda2 out of range
    with pytest.raises(ValueError):
        SpectralReport(4, 6, 5, 3, 4.0, 1.0, 1.0)  # degree stats out of order


def test_report_deterministic():
    G = random_graph(12, 30, seed=9)
    if min(G.degrees) == 0:
        G = MultiGraph.build(12, list(G.edges) + [(i, (i + 1) % 12) for i in range(12)])
    a = spectral_report(G)
    b = spectral_report(G)
    assert a == b


# ---------------------------------------------------------------------------
# Cholesky proofs of the consumed spectral numbers
# ---------------------------------------------------------------------------

def connected_graph(n: int, m: int, seed: int) -> MultiGraph:
    G = random_graph(n, m, seed)
    return MultiGraph.build(n, list(G.edges) + [(i, (i + 1) % n) for i in range(n)])


def skewed_eigvalsh(monkeypatch, edit):
    """Make np.linalg.eigvalsh return its true values changed by edit."""
    true_eigvalsh = np.linalg.eigvalsh

    def fake(M):
        vals = true_eigvalsh(M).copy()
        edit(vals)
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", fake)


def test_over_reported_lambda2_is_caught(monkeypatch):
    # lambda2 is consumed as a lower bound, so over-reporting is unsafe
    G = connected_graph(30, 60, seed=1)

    def edit(vals):
        vals[1] += 10 * eig_slack(2.0)

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError):
        spectral_report(G, demeaned=False)


def test_under_reported_lambda2_still_verifies(monkeypatch):
    G = connected_graph(30, 60, seed=1)
    true = spectral_report(G, demeaned=False).lambda2

    def edit(vals):
        vals[1] -= 10 * eig_slack(2.0)

    skewed_eigvalsh(monkeypatch, edit)
    report = spectral_report(G, demeaned=False)
    assert report.lambda2 == pytest.approx(true - 10 * eig_slack(2.0))


def test_under_reported_demeaned_norm_is_caught(monkeypatch):
    G = connected_graph(30, 60, seed=2)
    nu = demeaned_norm(G)

    def edit(vals):
        vals[0] += 10 * eig_slack(nu)
        vals[-1] -= 10 * eig_slack(nu)

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError):
        demeaned_norm(G)
    with pytest.raises(EigensolverError):
        spectral_report(G, laplacian=False)


def goe_window(M):
    return eigenspace_window(M, 0.5, "top")


# each consumer of symmetric_spectrum on a matrix of order 40, and the end
# of the spectrum it reads: lambda_max as an upper bound (-1) or lambda_min
# as a lower bound (0)
SPECTRUM_CONSUMERS = {
    "certify_count_sk": (lambda: sample_goe(40, seed=3), lambda M: certify_count_sk(M, 0.1), -1),
    "certify_count_indsets": (lambda: sample_regular_graph(40, 3, seed=3),
                              lambda G: certify_count_indsets(G, 0.2), -1),
    "eigenspace_window": (lambda: sample_goe(40, seed=3), goe_window, -1),
    "hoffman_bound": (lambda: sample_regular_graph(40, 3, seed=3), hoffman_bound, 0),
}


@pytest.mark.parametrize("consumer", sorted(SPECTRUM_CONSUMERS))
def test_wrong_extreme_eigenvalue_is_caught(monkeypatch, consumer):
    make, consume, end = SPECTRUM_CONSUMERS[consumer]
    instance = make()
    consume(instance)

    def edit(vals):
        s = 10 * eig_slack(float(np.max(np.abs(vals))))
        vals[end] += s if end == 0 else -s

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError):
        consume(instance)


@pytest.mark.parametrize("consumer", sorted(SPECTRUM_CONSUMERS))
def test_spectrum_consumer_factors_once(monkeypatch, consumer):
    # the side a consumer does not read is not proved
    make, consume, _ = SPECTRUM_CONSUMERS[consumer]
    instance = make()
    calls = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda B, **kw: calls.append(B.shape) or real(B, **kw))
    consume(instance)
    assert calls == [(40, 40)]


def test_proof_margin_on_known_spectrum():
    # I + J has smallest eigenvalue exactly 1 (multiplicity n - 1) and
    # largest n + 1; -(I + J) has norm n + 1 on its smallest side
    n = 50
    B = np.eye(n) + np.ones((n, n))
    before = B.copy()
    for side, t, outward in [("min", 1.0, -1.0), ("max", n + 1.0, 1.0),
                             ("norm", n + 1.0, 1.0)]:
        for M in (B, -B) if side == "norm" else (B,):
            spectral.prove_side(M, side, t + outward * 1e-9)
            with pytest.raises(EigensolverError):
                spectral.prove_side(M, side, t - outward * 1e-9)
            # a true claim closer than the factorization's rounding margin
            # (about 51u tr(X) ~ 3e-13 for "min") is refused, not waved through
            with pytest.raises(EigensolverError):
                spectral.prove_side(M, side, t + outward * 1e-13)
            # a perturbation of size err must be covered too
            with pytest.raises(EigensolverError):
                spectral.prove_side(M, side, t + outward * 1e-9, err=2e-9)
        assert np.array_equal(B, before)


def test_nonfinite_matrix_fails_proof():
    B = np.eye(4)
    B[2, 1] = B[1, 2] = np.nan
    before = B.copy()
    for side, t in [("min", 0.5), ("max", 1.5), ("norm", 1.5)]:
        spectral.prove_side(np.eye(4), side, t)
        with pytest.raises(EigensolverError):
            spectral.prove_side(B, side, t)
        assert np.array_equal(B, before, equal_nan=True)


def test_asymmetry_is_charged_to_the_proof():
    # the lower triangle the solvers read is not M's symmetric part: the
    # top eigenvalue of the lower triangle plus slack falls below the true
    # one, so M is refused as input
    M = 10.0 * np.ones((4, 4))
    M[1, 0] -= 9e-5
    vals = np.linalg.eigvalsh(M)
    s = eig_slack(float(np.max(np.abs(vals))))
    assert vals[-1] + s < np.linalg.eigvalsh((M + M.T) / 2)[-1]
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_spectrum(M, "max")
    # asymmetry the check lets through is charged to the proofs, which pass
    M[1, 0] = 10.0 - s / 20
    vals, hi = symmetric_spectrum(M, "max")
    low_vals, lo = symmetric_spectrum(M, "min")
    assert np.array_equal(low_vals, vals)
    assert vals[-1] + s > np.linalg.eigvalsh((M + M.T) / 2)[-1]
    assert vals[0] - s < np.linalg.eigvalsh((M + M.T) / 2)[0]
    # the bounds returned are the ones proved, and they hold for M's symmetric part
    s = eig_slack(float(np.max(np.abs(vals))))
    assert (lo, hi) == (vals[0] - s, vals[-1] + s)
    assert lo < np.linalg.eigvalsh((M + M.T) / 2)[0]
    assert hi > np.linalg.eigvalsh((M + M.T) / 2)[-1]


# ---------------------------------------------------------------------------
# Every consumer reads the bound its proof established
# ---------------------------------------------------------------------------

def dense_graph() -> MultiGraph:
    # 60 vertices of average degree 39.6: lambda_2 near 0.78, de-meaned norm near 10
    return random_graph(60, 1200, seed=2)


def edge_expansion_case(_):
    report = spectral_report(dense_graph(), demeaned=False)
    loaded = SpectralReport.from_json_dict(report.to_json_dict())
    assert loaded.lambda2_bound == report.lambda2_bound > 0
    return edge_expansion_lower_bound(loaded, 7), lambda t: 0.5 * t * report.d_min * 7


def matching_union(n: int, d: int, seed: int) -> MultiGraph:
    """d random perfect matchings on n vertices: a d-regular multigraph."""
    rng = np.random.default_rng(seed)
    return MultiGraph.build(n, np.concatenate([rng.permutation(n).reshape(-1, 2) for _ in range(d)]))


def sparse_graph() -> MultiGraph:
    # 400 vertices of degree 20: n^2 neighbour pairs, de-meaned norm near 8.6
    return matching_union(400, 20, seed=2)


def mixing_case(make):
    def run(_):
        report = spectral_report(make(), laplacian=False)
        loaded = SpectralReport.from_json_dict(report.to_json_dict())
        assert loaded.norm_bound == report.norm_bound
        center = report.d_avg / report.n * 20 * 30
        return (mixing_interval(loaded, 20, 30),
                lambda t: (center - t * math.sqrt(20 * 30), center + t * math.sqrt(20 * 30)))
    return run


def biased_family_case(make, eps):
    def run(_):
        G = make()
        n, davg, rho = G.n, G.average_degree(), 1.0

        def expected(nu):
            gamma_frac = (davg * n / 2.0 * (1.0 + rho**2) - nu * n - davg) / (2.0 * G.m)
            assert gamma_frac - (0.5 + eps) > 0  # not hidden by the floor at 0
            return max(0.0, gamma_frac - (0.5 + eps))

        return refute_biased_2xor_family(G, eps, rho), expected
    return run


def on_square(case):
    """A norm case whose proof is lambda_max < fl(t t) on the square: the
    bound t is read back as sqrt(fl(t t)), which is t exactly in binary
    floating point."""
    def run(monkeypatch):
        got, expected = case(monkeypatch)
        return got, lambda t2: expected(math.sqrt(t2))
    return run


def hoffman_case(_):
    # lambda_min = -2 gives floor(2 * 10 / 5) = 4; the widened slack of 1.5
    # moves the floor to 5
    G = petersen_graph()

    def expected(t):
        lam = -t
        assert math.floor(lam * G.n / (3 + lam) + 1e-9) == 5
        return math.floor(lam * G.n / (3 + lam) + 1e-9)

    return hoffman_bound(G), expected


def window_case(certify, make):
    def run(monkeypatch):
        windows = []
        window_of = eigencount.eigenspace_window
        monkeypatch.setattr(eigencount, "eigenspace_window",
                            lambda *a, **kw: windows.append(window_of(*a, **kw)) or windows[-1])
        certify(make())
        (window,) = windows
        return window.lam_hi, lambda t: t
    return run


# consumer: (slack factor, side proved, case); a case runs the consumer and
# returns its bound and the bound expected from the proved threshold
BOUND_CONSUMERS = {
    "edge_expansion_lower_bound": (1e5, "min", edge_expansion_case),
    "mixing_interval": (1e5, "norm", mixing_case(dense_graph)),
    "mixing_interval-square": (1e5, "max", on_square(mixing_case(sparse_graph))),
    "refute_biased_2xor_family": (1e5, "norm", biased_family_case(dense_graph, 0.1)),
    "refute_biased_2xor_family-square": (
        1e5, "max", on_square(biased_family_case(sparse_graph, 0.01))),
    "hoffman_bound": (5e6, "min", hoffman_case),
    "certify_count_sk": (1e5, "max", window_case(
        lambda M: certify_count_sk(M, 0.1), lambda: sample_goe(40, seed=3))),
    "certify_count_indsets": (1e5, "max", window_case(
        lambda G: certify_count_indsets(G, 0.2), lambda: sample_regular_graph(40, 3, seed=3))),
}


@pytest.mark.parametrize("consumer", sorted(BOUND_CONSUMERS))
def test_consumers_read_the_proved_bound(monkeypatch, consumer):
    # with a much wider slack, a consumer that works its bound out again
    # (from its own copy of the slack rule) no longer matches the proof
    factor, side, case = BOUND_CONSUMERS[consumer]
    slack, prove = spectral.eig_slack, spectral.prove_side
    monkeypatch.setattr(spectral, "eig_slack", lambda scale: factor * slack(scale))
    proved = []
    monkeypatch.setattr(spectral, "prove_side", lambda B, claim, t, err=0.0:
                        proved.append((claim, t)) or prove(B, claim, t, err))
    got, expected = case(monkeypatch)
    assert proved[0][0] == side  # "norm" goes on to prove "max" and "min"
    assert got == expected(proved[0][1])


# ---------------------------------------------------------------------------
# proved_extreme: the one step from estimates to a proved value
# ---------------------------------------------------------------------------

def recording_proof(proved: list, holds_from: float):
    """A proof of lambda_max < t that records each t and holds from ``holds_from`` on."""
    def prove(t):
        proved.append(t)
        if t < holds_from:
            raise EigensolverError(f"lambda_max < {t!r} failed")
    return prove


def recording_estimate(calls: list, name: str, lo: float, hi: float):
    return lambda: calls.append(name) or (lo, hi)


def test_proved_extreme_takes_the_first_estimate_that_passes():
    calls, proved = [], []
    estimates = [recording_estimate(calls, name, -1.0, hi)
                 for name, hi in [("low", 3.0), ("passes", 5.0), ("later", 6.0)]]
    assert spectral.proved_extreme("max", recording_proof(proved, 5.0), *estimates) == 5.0
    assert calls == ["low", "passes"]  # tried in order; once one passes, the rest never run
    assert proved == [spectral.proved_bound(3.0, "max", (-1.0, 3.0)),
                      spectral.proved_bound(5.0, "max", (-1.0, 5.0))]
    # "norm" reads the larger magnitude, whichever end it lies at
    calls.clear()
    norm = spectral.proved_extreme("norm", recording_proof([], 0.0),
                                   recording_estimate(calls, "only", -7.0, 2.0))
    assert (norm, calls) == (7.0, ["only"])


def test_proved_extreme_raises_the_last_estimates_error():
    calls, proved = [], []
    estimates = [recording_estimate(calls, name, -1.0, hi) for name, hi in [("a", 3.0), ("b", 4.0)]]
    last = spectral.proved_bound(4.0, "max", (-1.0, 4.0))
    with pytest.raises(EigensolverError, match=re.escape(f"lambda_max < {last!r} failed")):
        spectral.proved_extreme("max", recording_proof(proved, 5.0), *estimates)
    assert calls == ["a", "b"]
    assert proved[-1] == last


def test_proved_extreme_within_clips_and_skips_min_at_the_floor():
    proved = []
    prove = recording_proof(proved, -math.inf)
    # the estimate is clipped to [0, 2]; a "min" at t <= 0 needs no proof
    for lo in (-0.5, 0.0, 1e-9):
        value = spectral.proved_extreme("min", prove, lambda: (lo, 2.5), within=(0.0, 2.0))
        assert value == max(lo, 0.0)
    assert proved == []
    assert spectral.proved_extreme("min", prove, lambda: (0.7, 2.5), within=(0.0, 2.0)) == 0.7
    assert spectral.proved_extreme("max", prove, lambda: (0.7, 2.5), within=(0.0, 2.0)) == 2.0
    # the span is (a, b), not the estimate
    assert proved == [spectral.proved_bound(0.7, "min", (0.0, 2.0)),
                      spectral.proved_bound(2.0, "max", (0.0, 2.0))]


def test_report_builds_adjacency_once_per_quantity(monkeypatch):
    # the package asks a report for one quantity at a time; each quantity
    # builds G's adjacency matrix once, and no copy of it is shared
    G = connected_graph(12, 20, seed=5)
    calls = []
    real = MultiGraph.adjacency
    monkeypatch.setattr(MultiGraph, "adjacency", lambda self: calls.append(1) or real(self))
    for quantities, builds in [({"demeaned": False}, 1), ({"laplacian": False}, 1), ({}, 2)]:
        calls.clear()
        spectral_report(G, **quantities)
        assert len(calls) == builds, quantities


# ---------------------------------------------------------------------------
# Lanczos estimates for graphs with at least ITERATIVE_MIN_N vertices
# ---------------------------------------------------------------------------

N_ITER = spectral.ITERATIVE_MIN_N


def er_lambda2(seed: int):
    """A graph measure at n = N_ITER and its slack: lambda_2 of an ER graph
    in the criterion-3 regime."""
    G = random_graph(N_ITER, int(N_ITER**1.4), seed).simple()
    assert min(G.degrees) > 0
    return lambda: spectral_report(G, demeaned=False).lambda2


def regular_norm(seed: int):
    G = sample_regular_graph(N_ITER, 3, seed)
    return lambda: demeaned_norm(G)


MEASURES = {"er-lambda2": er_lambda2, "regular-norm": regular_norm}


def dense_value(monkeypatch, measure) -> float:
    with monkeypatch.context() as m:
        m.setattr(spectral, "ITERATIVE_MIN_N", 10 * N_ITER)
        return measure()


def count_square_eigvalsh(monkeypatch, n: int = N_ITER) -> list:
    """Record each n x n eigvalsh call on top of whatever eigvalsh is
    installed now."""
    calls = []
    inner = np.linalg.eigvalsh

    def counted(M):
        if np.shape(M) == (n, n):
            calls.append(1)
        return inner(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def skew_lanczos(monkeypatch, name: str) -> None:
    """Make the Lanczos estimate wrong by 10 slacks in the direction its
    consumer must not be wrong in: lambda_2 too high, the norm too low."""
    real = spectral._lanczos_extremes

    def skewed(matvec, n):
        lo, hi = real(matvec, n)
        if name == "er-lambda2":
            return lo + 10 * eig_slack(2.0), hi
        s = 10 * eig_slack(max(-lo, hi))
        return lo + s, hi - s

    monkeypatch.setattr(spectral, "_lanczos_extremes", skewed)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_lanczos_value_agrees_with_eigvalsh(monkeypatch, name, seed):
    measure = MEASURES[name](seed)
    value, dense = measure(), dense_value(monkeypatch, measure)
    assert abs(value - dense) <= eig_slack(dense)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_lanczos_path_makes_no_dense_eigensolve(monkeypatch, name):
    measure = MEASURES[name](0)
    calls = count_square_eigvalsh(monkeypatch)
    measure()
    assert calls == []


@pytest.mark.slow
def test_lanczos_estimate_passes_its_proof_at_scale(monkeypatch):
    # the criterion-3 graphs at n = 2000: every first estimate is proved,
    # so no n x n eigvalsh fallback runs
    n = 2000
    calls = count_square_eigvalsh(monkeypatch, n)
    for seed in range(10):
        spectral_report(random_graph(n, int(n**1.4), seed).simple(), demeaned=False)
        demeaned_norm(sample_regular_graph(n, 3, seed))
        assert calls == [], seed


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_unproved_lanczos_estimate_falls_back_to_eigvalsh(monkeypatch, name):
    measure = MEASURES[name](0)
    dense = dense_value(monkeypatch, measure)
    skew_lanczos(monkeypatch, name)
    calls = count_square_eigvalsh(monkeypatch)
    assert measure() == pytest.approx(dense, abs=1e-12)
    assert calls == [1]


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_skewed_lanczos_and_eigvalsh_are_caught(monkeypatch, name):
    measure = MEASURES[name](0)
    skew_lanczos(monkeypatch, name)

    def edit(vals):
        s = 10 * eig_slack(float(np.max(np.abs(vals))))
        if name == "er-lambda2":
            vals[0] += s  # L + 2 P0 has lambda_2 as its smallest eigenvalue
        else:
            vals[0] += s
            vals[-1] -= s

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError):
        measure()


# ---------------------------------------------------------------------------
# One factorization for the de-meaned norm of a sparse graph
# ---------------------------------------------------------------------------

def clusters_xor_primal(seed: int) -> MultiGraph:
    """The primal multigraph a cluster certificate measures for
    ``gen --kind xor -k 3 -n 14 -m 1960``: 3.4 million neighbour pairs."""
    H = sample_signed_hypergraph(3, 14, 1960, seed).to_xor().hypergraph()
    return primal_graph(H.without_repeats().dedup().without_repeats())


# graph: (Cholesky factorizations, the value demeaned_norm returned when it
# proved every graph on both sides).  A graph with at most n^2 neighbour
# pairs is proved once, on its square; the rest on both sides.
NORM_CASES = {
    "regular-1000": (lambda: sample_regular_graph(N_ITER, 3, 0), 1, "0x1.6a346de7a6b46p+1"),
    "regular-60": (lambda: sample_regular_graph(60, 3, 1), 1, "0x1.5c0daff9c28c3p+1"),
    "petersen": (petersen_graph, 1, "0x1.0000000000000p+1"),
    "cycle-12": (lambda: cycle_graph(12), 1, "0x1.0000000000002p+1"),
    "multigraph-12": (lambda: MultiGraph.build(12, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 2), (2, 3),
                                                    (5, 6)]), 1, "0x1.a0f247a8caf91p+1"),
    "complete-6": (lambda: complete_graph(6), 2, "0x1.0000000000002p+0"),
    "dense-60": (dense_graph, 2, "0x1.424b9e48406b4p+3"),
    "clusters-xor-primal": (lambda: clusters_xor_primal(1), 2, "0x1.d12d928a7de17p+5"),
    "er-1000": (lambda: random_graph(N_ITER, int(N_ITER**1.4), 0).simple(), 2,
                "0x1.6839058f08fcbp+3"),
}


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_demeaned_norm_factorizations_and_value(monkeypatch, name):
    make, factorizations, value = NORM_CASES[name]
    G = make()
    calls = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda B, **kw: calls.append(1) or real(B, **kw))
    assert demeaned_norm(G) == float.fromhex(value)
    assert len(calls) == factorizations


def test_sparse_norm_proof_catches_under_reporting(monkeypatch):
    G = sample_regular_graph(60, 3, seed=1)
    nu = demeaned_norm(G)

    def edit(vals):
        vals[0] += 10 * eig_slack(nu)
        vals[-1] -= 10 * eig_slack(nu)

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError, match="lambda_max"):
        demeaned_norm(G)


SQUARE_GRAPHS = {
    "parallel-edges": lambda: MultiGraph.build(5, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0), (3, 4)]),
    "isolated-vertices": lambda: MultiGraph.build(9, [(1, 4), (4, 7), (7, 1), (4, 6), (6, 4)]),
    "n-1": lambda: MultiGraph.build(1, []),
    "m-0": lambda: MultiGraph.build(6, []),
    "random-multigraph": lambda: random_graph(30, 200, seed=4),
    "clusters-xor-primal": lambda: clusters_xor_primal(2),
}


@pytest.mark.parametrize("name", sorted(SQUARE_GRAPHS))
def test_adjacency_square_is_exact(name):
    G = SQUARE_GRAPHS[name]()
    A = G.adjacency()
    square = spectral._adjacency_square(G)
    assert square.dtype == np.float64
    assert np.array_equal(square, A @ A)


@pytest.mark.parametrize("name", ["parallel-edges", "isolated-vertices", "random-multigraph"])
def test_demeaned_square_error_is_within_err(name):
    # each row of |C - (A - (2m/n^2) J)^2| sums to at most err, in exact arithmetic
    G = SQUARE_GRAPHS[name]()
    n, q = G.n, Fraction(2 * G.m, G.n**2)
    C, err = spectral.demeaned_square(G)
    assert np.array_equal(C, C.T)
    Abar = [[int(a) - q for a in row] for row in G.adjacency()]
    for i in range(n):
        row = sum(abs(Fraction(C[i, j]) - sum(Abar[i][k] * Abar[k][j] for k in range(n)))
                  for j in range(n))
        assert 0 < row <= err
