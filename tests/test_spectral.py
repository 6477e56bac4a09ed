import itertools
import math

import numpy as np
import pytest

from solgeo import spectral
from solgeo.instances import MultiGraph, sample_goe, sample_unsigned_hypergraph
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


@pytest.mark.parametrize("end", [0, -1])
def test_wrong_extreme_eigenvalue_is_caught(monkeypatch, end):
    # lambda_max is consumed as an upper bound, lambda_min as a lower bound
    M = sample_goe(40, seed=3)
    s = eig_slack(float(np.max(np.abs(np.linalg.eigvalsh(M)))))

    def edit(vals):
        vals[end] += 10 * s if end == 0 else -10 * s

    skewed_eigvalsh(monkeypatch, edit)
    with pytest.raises(EigensolverError):
        symmetric_spectrum(M)


def test_proof_margin_on_known_spectrum():
    # I + J has smallest eigenvalue exactly 1 (multiplicity n - 1)
    n = 50
    B = np.eye(n) + np.ones((n, n))
    before = B.copy()
    spectral._prove_min_above(B, 1.0 - 1e-9)
    assert np.array_equal(B, before)
    with pytest.raises(EigensolverError):
        spectral._prove_min_above(B, 1.0 + 1e-9)
    assert np.array_equal(B, before)
    # a true claim closer than the factorization's rounding margin (about
    # 51u tr(B - I) ~ 3e-13 here) is refused, not waved through
    with pytest.raises(EigensolverError):
        spectral._prove_min_above(B, 1.0 - 1e-13)
    # a perturbation of size err must be covered too
    with pytest.raises(EigensolverError):
        spectral._prove_min_above(B, 1.0 - 1e-9, err=2e-9)
    spectral._prove_max_below(B, n + 1.0 + 1e-9)
    with pytest.raises(EigensolverError):
        spectral._prove_max_below(B, n + 1.0 - 1e-9)
    assert np.array_equal(B, before)


def test_nonfinite_matrix_fails_proof():
    B = np.eye(4)
    B[2, 1] = B[1, 2] = np.nan
    with pytest.raises(EigensolverError):
        spectral._prove_min_above(B, 0.5)


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
        symmetric_spectrum(M)
    # asymmetry the check lets through is charged to the proofs, which pass
    M[1, 0] = 10.0 - s / 20
    vals = symmetric_spectrum(M)
    assert vals[-1] + s > np.linalg.eigvalsh((M + M.T) / 2)[-1]
    assert vals[0] - s < np.linalg.eigvalsh((M + M.T) / 2)[0]


def test_report_builds_adjacency_once(monkeypatch):
    G = connected_graph(12, 20, seed=5)
    calls = []
    real = MultiGraph.adjacency
    monkeypatch.setattr(MultiGraph, "adjacency", lambda self: calls.append(1) or real(self))
    spectral_report(G)
    assert len(calls) == 1
