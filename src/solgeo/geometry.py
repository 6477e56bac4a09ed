"""Cluster-count certification for 3XOR/3CSP and refutation of biased
(unbalanced) near-satisfiers for 3CSP and kXOR/kCSP.

The structural engine is the primal multigraph of the hypergraph: its
measured de-meaned operator norm feeds the expander mixing lemma, which
lower-bounds how many hyperedges any lopsided vertex split must place
with two vertices inside (T2) or all three inside (T3) the larger side.
A reduction (3CSP to 3XOR, kCSP to kXOR) runs a private step on the
reduced instance and binds the one certificate to the caller's instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .certificates import BalanceCertificate, CheckRecord, ClusterCertificate
from .instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    clause_split,
    csp_to_ksat,
    distinct_rows,
    primal_graph,
    split_by_sign,
    violation_budget,
)
from .refuter import PolynomialBound, SparsePolynomial, kxor_principle, refute_polynomial
from .spectral import SpectralReport, mixing_interval, spectral_report

# Calibrated constant gating whether the primal norm is in the regime
# where nontrivial cluster/balance bounds are attempted.
PRIMAL_NORM_C0 = 3.0

# balanced_code_bound tries the Hadamard powers k = 1..BALANCED_CODE_K_MAX.
BALANCED_CODE_K_MAX = 200

# Tiny strictness margin for "certified count exceeds budget" comparisons.
_MARGIN = 1e-9


@dataclass(frozen=True)
class PrimalExpansion:
    """Measured primal-graph spectral evidence plus its calibration check."""

    report: SpectralReport
    check: CheckRecord


def certify_primal_expansion(
    H: UnsignedHypergraph, c0: float = PRIMAL_NORM_C0
) -> PrimalExpansion:
    """De-meaned operator norm of the primal multigraph, with a pass/fail
    against the calibration threshold c0 * sqrt(density * ln n)."""
    clean = H.without_repeats()
    G = primal_graph(clean)
    report = spectral_report(G, laplacian=False, demeaned=True)
    density = clean.m / H.n
    threshold = c0 * math.sqrt(density * math.log(max(H.n, 2)))
    check = CheckRecord(
        "primal-norm", report.demeaned_norm, threshold,
        report.demeaned_norm <= threshold,
    )
    return PrimalExpansion(report, check)


def hyperedge_split_bounds(
    H: UnsignedHypergraph, report: SpectralReport, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of T2/T3 lower bounds (lb2, lb3), one per split parameter in
    gamma, from the mixing intervals of the measured primal norm: valid for
    every vertex set S of size s = (1/2 + gamma) n at once, on hyperedges
    with two vertices in S and one outside (lb2) and fully inside S (lb3).

    Crossing edges come from T1 and T2 hyperedges (two each) and edges
    inside the complement from T0 and T1, giving
    |T2| >= e(S, comp)/2 - e(comp, comp)/2; edges inside S come from T3
    (three each) and T2 (one each), giving |T3| >= (e(S,S) - e(S,comp))/6.
    """
    if not np.all((0.0 <= gamma) & (gamma <= 0.5 + 1e-12)):
        raise ValueError("gamma must lie in [0, 1/2]")
    s = (0.5 + gamma) * H.n
    comp = np.maximum(H.n - s, 0.0)  # gamma may pass 1/2 by the rounding allowed above
    e_cross_lb, e_cross_ub = mixing_interval(report, s, comp)
    e_comp_comp_ub = mixing_interval(report, comp, comp)[1]
    e_in_s_lb = mixing_interval(report, s, s)[0]
    lb2 = 0.5 * e_cross_lb - 0.5 * e_comp_comp_ub
    lb3 = (e_in_s_lb - e_cross_ub) / 6.0
    # clamped as Python's max(0.0, x) does; np.maximum(0.0, x) keeps NaN and -0.0
    return np.where(lb2 > 0.0, lb2, 0.0), np.where(lb3 > 0.0, lb3, 0.0)


# ---------------------------------------------------------------------------
# Balanced-code bound
# ---------------------------------------------------------------------------

def balanced_code_bound(eps: float, n: int) -> float:
    """log2 upper bound on the size of any eps-balanced code of length n.

    For code vectors with pairwise inner products at most eps*n in absolute
    value, the k-th Hadamard power of their Gram matrix is PSD with trace
    N n^k and squared Frobenius norm at most N n^2k (1 + N eps^2k), so its
    rank is at least N / (1 + N eps^2k) while also at most C(n+k-1, k).
    Whenever C(n+k-1, k) * eps^2k < 1/2 this yields N <= 2 C(n+k-1, k).
    """
    if not (0.0 <= eps < 0.5):
        raise ValueError("eps must lie in [0, 1/2)")
    if n < 1:
        raise ValueError("n must be positive")
    log_eps = math.log(eps) if eps > 0 else float("-inf")
    for k in range(1, BALANCED_CODE_K_MAX + 1):
        rank_cap = math.comb(n + k - 1, k)
        # the cap grows with k, so the first feasible power gives the least bound
        if math.log(rank_cap) + 2 * k * log_eps < math.log(0.5):
            return min(float(n), math.log2(2 * rank_cap))
    return float(n)


# ---------------------------------------------------------------------------
# Cluster certificates
# ---------------------------------------------------------------------------

def _cluster_step(H: UnsignedHypergraph, eta: float, c0: float) -> tuple[int | None, dict]:
    """The smallest certified theta of H at slack eta, in grid steps of
    1/n (None when none is certified), and the evidence fields of its
    certificate.

    theta is the smallest grid value for which the T2 bound excludes every
    product-vector majority side in ((1/2+theta)n, (1-theta)n) and the T3
    bound excludes every minority side above (1/2+theta)n, both against the
    doubled violation budget.
    """
    if H.k != 3:
        raise ValueError("cluster certification is for 3-uniform hypergraphs")
    n = H.n
    budget = violation_budget(eta, H.m)
    clean = H.without_repeats().dedup()
    primal = certify_primal_expansion(clean, c0)
    density = clean.m / n
    theta_rule = max(
        2 * eta, density ** -0.5 * math.log(max(n, 2)) if density > 0 else 1.0
    )
    transcript = {
        "budget": budget,
        "m_clean": clean.m,
        "density": density,
        "theta_asymptotic_rule": theta_rule,
    }
    evidence = {
        "primal_report": primal.report.to_json_dict(),
        "checks": (primal.check,),
        "transcript": transcript,
    }
    if clean.m == 0 or not primal.check.passed:
        return None, evidence

    need = 2.0 * budget + _MARGIN
    # verdicts by split size s = 0..n; sizes up to n/2 sit at gamma = 0, unread
    lb2, lb3 = hyperedge_split_bounds(
        clean, primal.report, np.maximum(np.arange(n + 1) / n - 0.5, 0.0))
    ok2, ok3 = lb2 > need, lb3 > need
    for t in range((n + 3) // 4):  # t < n/4
        # distances d in (t, n/2 - t) are excluded via T2 at s = n - d
        t2_ok = ok2[n + 1 - math.ceil(n / 2.0 - t) : n - t].all()
        # distances d above n/2 + t are excluded via T3 at s = d
        t3_ok = ok3[math.floor(n / 2.0 + t) + 1 :].all()
        if t2_ok and t3_ok:
            transcript["theta_steps"] = t
            return t, evidence
    return None, evidence


def _cluster_certificate(
    instance, eta: float, theta_steps: int | None, evidence: dict
) -> ClusterCertificate:
    """The cluster certificate of a certified theta, or the trivial one
    when there is none, bound to ``instance``."""
    n = instance.n
    theta, bound, gap = 0.5, float(n), (0.0, float(n))
    if theta_steps is not None:
        theta = theta_steps / n
        bound = min(float(n), balanced_code_bound(min(2 * theta, 0.4999), n))
        gap = ((0.5 - theta) * n, (0.5 + theta) * n)
    return ClusterCertificate(
        n=n, eta=eta, theta=theta, log2_cluster_bound=bound, gap_interval=gap,
        fallback=theta_steps is None, instance_sha256=instance.sha256(), **evidence,
    )


def certify_clusters_3xor(
    H: UnsignedHypergraph, eta: float, c0: float = PRIMAL_NORM_C0
) -> ClusterCertificate:
    """Certify, for every signing of H at once, that (1-eta)-satisfiers
    pairwise sit within theta*n or inside the half-distance gap window,
    and bound the number of radius-(theta*n) clusters."""
    return _cluster_certificate(H, eta, *_cluster_step(H, eta, c0))


def certify_clusters_3csp(
    I: SignedHypergraph, P: Predicate, eta: float, c0: float = PRIMAL_NORM_C0
) -> ClusterCertificate:
    """Cluster certificate for (1-eta)-satisfiers of I under a 3-ary
    predicate: reduce to 3SAT, convert the slack with the XOR principle,
    then certify the underlying hypergraph."""
    if I.k != 3 or P.k != 3:
        raise ValueError("3CSP cluster certification requires arity 3")
    principle = kxor_principle(I, P)
    check = principle.check(eta)
    transcript = {"quasirandom_eps": principle.quasirandomness.eps, "eta_x": check.measured}
    if not check.passed:
        theta_steps, evidence = None, {"primal_report": {}, "checks": (check,)}
    else:
        theta_steps, evidence = _cluster_step(principle.instance.hypergraph(), check.measured, c0)
        transcript.update(evidence["transcript"])
    return _cluster_certificate(I, eta, theta_steps, {**evidence, "transcript": transcript})


# ---------------------------------------------------------------------------
# Balance certificates
# ---------------------------------------------------------------------------

def _lb3_at_bias(
    part: UnsignedHypergraph, rho: float, c0: float
) -> tuple[float, SpectralReport, CheckRecord]:
    """Lower bound on fully-inside hyperedges of ``part``, valid for every
    vertex set of size at least ceil((1+rho)/2 * n): the exact grid scan
    over admissible sizes (the bound need not be monotone once the
    measured norm is large relative to the degrees)."""
    n = part.n
    s_min = math.ceil((1.0 + rho) / 2.0 * n - 1e-9)
    expansion = certify_primal_expansion(part, c0)
    _, lb3 = hyperedge_split_bounds(part, expansion.report, np.arange(s_min, n + 1) / n - 0.5)
    return float(lb3.min()), expansion.report, expansion.check


def certify_balance_3csp(
    I: SignedHypergraph, P: Predicate, rho: float, eta: float, c0: float = PRIMAL_NORM_C0
) -> BalanceCertificate | None:
    """Certify that no rho-biased assignment (1-eta)-satisfies I under a
    3-ary predicate, or decline.

    After reducing to 3SAT, the all-unnegated sub-instance is violated on
    hyperedges fully inside the +1 side and the fully-negated sub-instance
    on hyperedges fully inside the -1 side; either side of a rho-biased
    assignment is large enough for the T3 bound to apply.
    """
    if I.k != 3 or P.k != 3:
        raise ValueError("3CSP balance certification requires arity 3")
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    if I.m == 0:
        raise ValueError("cannot certify an empty instance")
    reduced = csp_to_ksat(I, P)
    part_pos, part_neg = split_by_sign(reduced)
    if part_pos.m == 0 or part_neg.m == 0:
        return None
    h_pos = part_pos.hypergraph().without_repeats().dedup()
    h_neg = part_neg.hypergraph().without_repeats().dedup()
    if h_pos.m == 0 or h_neg.m == 0:
        return None
    v_pos, rep_pos, chk_pos = _lb3_at_bias(h_pos, rho, c0)
    v_neg, rep_neg, chk_neg = _lb3_at_bias(h_neg, rho, c0)
    v_min = min(v_pos, v_neg)
    m = I.m
    if v_min <= eta * m + _MARGIN:
        return None
    transcript = {
        "v_plus": v_pos,
        "v_minus": v_neg,
        "m_plus": h_pos.m,
        "m_minus": h_neg.m,
        "eta_asymptotic_rule": rho / 16.0,
        "primal_report_plus": rep_pos.to_json_dict(),
        "primal_report_minus": rep_neg.to_json_dict(),
    }
    return BalanceCertificate(
        n=I.n,
        rho=rho,
        eta=eta,
        violated_fraction_bound=v_min / m,
        checks=(chk_pos, chk_neg),
        instance_sha256=I.sha256(),
        transcript=transcript,
    )


@dataclass(frozen=True)
class InducedPositiveFraction:
    """Certified eps such that for every assignment to S, the induced 2XOR
    instance is (1/2 + eps)-positive."""

    eps: float
    bound: PolynomialBound


def _positive_fraction(S: Iterable[int], truncated: XorInstance) -> InducedPositiveFraction:
    """The positivity margin of the truncated clauses (rhs, S-part): the
    polynomial sum_U w_U sigma^U over S, refuted, per clause and halved."""
    S = np.unique(np.fromiter(S, np.int64))
    # each variable relabelled to its rank in S
    keys = np.searchsorted(S, truncated.vars)
    bound = refute_polynomial(SparsePolynomial(len(S), keys, truncated.rhs))
    eps = min(0.5, bound.value / (2.0 * truncated.m))
    return InducedPositiveFraction(eps, bound)


def refute_biased_2xor_family(G: MultiGraph, eps: float, rho: float) -> float:
    """Certified lower bound on the violated fraction, for every
    (1/2+eps)-positive 2XOR instance on G and every assignment with bias at
    least rho.

    Edges inside either side of the assignment's split are satisfied only
    if signed positive; the mixing bound forces a gamma fraction of edges
    inside the two sides, of which at most 1/2 + eps can be positive.
    """
    if G.m == 0:
        raise ValueError("the family graph must be nonempty")
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [0, 1]")
    n = G.n
    davg = G.average_degree()
    nu = spectral_report(G, laplacian=False).norm_bound
    gamma_frac = (davg * n / 2.0 * (1.0 + rho**2) - nu * n - davg) / (2.0 * G.m)
    return max(0.0, gamma_frac - (0.5 + eps))


def _balance_kxor_step(I: XorInstance, rho: float) -> dict | None:
    """The fields of the kXOR balance certificate of I, all but n and the
    instance hash, or None to decline.

    The clauses with exactly k-2 variables in a fixed rho*n-sized set S
    form a family of 2XOR instances on the outside variables, one per
    assignment to S, all sharing one multigraph; the family's certified
    positivity margin plus the biased-family refuter exclude every
    assignment whose outside part is rho-biased.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    n, m = I.n, I.m
    s = math.ceil(rho * n)
    if s >= n - 1:
        return None
    # clauses with k-2 variables in S = [0, s), none repeated; the outside
    # pair, shifted past S, is an edge of the family graph
    rows, in_part, out_part = clause_split(I.vars, range(s), I.k - 2)
    family = distinct_rows(I.vars[rows])
    if not family.any():
        return None
    G = MultiGraph.build(n - s, out_part[family] - s)
    truncated = XorInstance(I.k - 2, n, in_part[family], I.rhs[rows[family]])
    induced = _positive_fraction(range(s), truncated)
    v_frac = refute_biased_2xor_family(G, induced.eps, rho)
    if v_frac <= _MARGIN:
        return None
    violated_fraction = v_frac * G.m / m
    return {
        "rho": (rho * (n - s) + s) / n,
        "eta": violated_fraction * (1.0 - 1e-9),
        "violated_fraction_bound": violated_fraction,
        "checks": (CheckRecord("family-violation-positive", v_frac, 0.0, True),),
        "transcript": {
            "set_size": s,
            "selected_clauses": G.m,
            "eps_induced": induced.eps,
            "violated_fraction_induced": v_frac,
            "rho_inner": rho,
            "eta_asymptotic_rule": rho ** (I.k - 2) * rho**2 / 2.0,
            "refuter_branch": induced.bound.branch,
        },
    }


def certify_balance_kxor(I: XorInstance, rho: float) -> BalanceCertificate | None:
    """Certify that no sufficiently biased assignment nearly satisfies the
    kXOR instance, or decline (see ``_balance_kxor_step``)."""
    if I.k < 4:
        raise ValueError("balance certification needs a csp or k>=4 xor instance")
    fields = _balance_kxor_step(I, rho)
    if fields is None:
        return None
    return BalanceCertificate(n=I.n, instance_sha256=I.sha256(), **fields)


def certify_balance_kcsp(
    I: SignedHypergraph, P: Predicate, rho: float
) -> BalanceCertificate | None:
    """Balance refutation for I under an arbitrary predicate with k >= 4:
    reduce to kSAT, certify the XOR-side balance, then convert the XOR
    slack back through the XOR principle."""
    if I.k < 4 or P.k != I.k:
        raise ValueError("kCSP balance certification requires matching k >= 4")
    if I.m == 0:
        raise ValueError("cannot certify an empty instance")
    # the step runs first, on its own composition: a declined run
    # certifies no quasirandomness
    fields = _balance_kxor_step(csp_to_ksat(I, P).to_xor(), rho)
    if fields is None:
        return None
    principle = kxor_principle(I, P)
    eta_xor = fields["eta"]
    eta = principle.max_eta(eta_xor)
    if eta <= 0:
        return None
    fields["transcript"].update(quasirandom_eps=principle.quasirandomness.eps, eta_xor=eta_xor,
                                eta_asymptotic_rule=rho**I.k / 2.0)
    fields.update(eta=eta * (1.0 - 1e-9), violated_fraction_bound=eta)
    return BalanceCertificate(n=I.n, instance_sha256=I.sha256(), **fields)
