"""Certified upper bounds on the number of near-satisfying assignments:
the 2XOR spectral base case, the recursive kXOR certifier, kSAT/kCSP via
the XOR principle, and the refutation-from-counting reduction.

All internal bookkeeping uses absolute violation budgets (integers), so
the floor arithmetic of the block recursion is exact, and Hamming-ball
sizes are summed exactly in integers at every n.  Bounds are capped
at 2^n; a bound that reaches the cap is a fallback.  A certificate is
built once, bound to the caller's instance, whatever reductions led to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import CheckRecord, CountCertificate, RefutationCertificate
from .instances import (
    MultiGraph,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    Predicate,
    clause_split,
    violation_budget,
)
from .refuter import kxor_principle
from .spectral import edge_expansion_lower_bound, spectral_report

# Width multiplier on the degree-concentration gate.  The clean
# density^(-1/3) window only holds once the density beats log^3(n); the
# calibrated widening keeps the gate meaningful at finite sizes without
# touching soundness (it only decides whether a nontrivial bound is
# attempted).
DEGREE_WINDOW_C = 2.5

# The one margin eps, a constant of the method, added to the block-size exponent
# c of the kXOR recursion: blocks of n^c vertices, c = 1 - delta/(k-2) + eps.
EPS_EXPONENT = 0.05


def log2_binomial_tail(n: int, radius: int) -> float:
    """log2 of sum_{l <= radius} C(n, l): the sum exact in integers, each
    term from the last by C(n, l+1) = C(n, l) (n - l) / (l + 1), then one
    log2."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    term = total = 1
    for l in range(min(radius, n)):
        term = term * (n - l) // (l + 1)
        total += term
    return math.log2(total)


def log2_sum_of_powers(exponents: list[float]) -> float:
    """log2(sum_i 2^e_i), overflow-safe."""
    if not exponents:
        raise ValueError("empty sum")
    top = max(exponents)
    return top + math.log2(sum(2.0 ** (e - top) for e in exponents))


def aggregate_partition(
    n: int, block_sizes: list[int], block_log2_bounds: list[float]
) -> float:
    """Combine per-block bounds u_i into log2 of sum_i 2^{|S_i|} * u_i."""
    if len(block_sizes) != len(block_log2_bounds):
        raise ValueError("sizes and bounds must align")
    if not block_sizes or any(s < 1 for s in block_sizes) or sum(block_sizes) != n:
        raise ValueError("block sizes must partition [n]")
    return log2_sum_of_powers(
        [s + u for s, u in zip(block_sizes, block_log2_bounds)]
    )


@dataclass(frozen=True)
class _BoundResult:
    """A bound not yet bound to an instance; a fallback once it reaches n."""

    log2_bound: float
    checks: tuple[CheckRecord, ...]
    trace: tuple[dict, ...]
    transcript: dict


def _fallback(n: int, checks: tuple[CheckRecord, ...], transcript: dict) -> _BoundResult:
    return _BoundResult(float(n), checks, (), transcript)


def _count_certificate(instance, eta: float, res: _BoundResult) -> CountCertificate:
    return CountCertificate(
        kind="count", n=instance.n, log2_bound=res.log2_bound, eta=eta,
        fallback=res.log2_bound >= instance.n, checks=res.checks,
        instance_sha256=instance.sha256(), recursion_trace=res.trace, transcript=res.transcript,
    )


# ---------------------------------------------------------------------------
# 2XOR base case
# ---------------------------------------------------------------------------

def _count_2xor_budget(G: MultiGraph, budget: int) -> _BoundResult:
    """Bound, valid for every signing of G, on assignments violating at
    most ``budget`` edges.

    If x and x' both violate at most ``budget`` constraints, their product
    y violates at most 2*budget constraints of the all-positive instance,
    and the violated set contains the cut around y's minority side.  The
    measured spectral gap turns that cut into a Hamming radius.
    """
    n = G.n
    simple = G.simple()
    transcript: dict = {"m_given": G.m, "m_simple": simple.m, "budget": budget}
    if simple.m == 0:
        checks = (CheckRecord("nonempty", float(simple.m), 1.0, False),)
        return _fallback(n, checks, transcript)

    delta = simple.m / n
    degrees = simple.degrees
    center = 2.0 * delta
    window = center * DEGREE_WINDOW_C * delta ** (-1.0 / 3.0)
    max_dev = max(abs(d - center) for d in degrees)
    degree_check = CheckRecord("degree-window", max_dev, window, max_dev <= window)

    lam2_threshold = 1.0 - delta ** -0.25
    if min(degrees) == 0:
        lam2_check = CheckRecord("lambda2-threshold", 0.0, lam2_threshold, False)
        return _fallback(n, (degree_check, lam2_check), transcript)

    report = spectral_report(simple, demeaned=False)
    lam2_check = CheckRecord(
        "lambda2-threshold", report.lambda2, lam2_threshold,
        report.lambda2 >= lam2_threshold,
    )
    checks = (degree_check, lam2_check)
    transcript["lambda2"] = report.lambda2
    transcript["d_min"] = report.d_min
    if not (degree_check.passed and lam2_check.passed):
        return _fallback(n, checks, transcript)

    # smallest minority-side size whose certified cut exceeds the doubled budget
    s_star = next((s for s in range(1, n + 1)
                   if edge_expansion_lower_bound(report, s) > 2.0 * budget + 1e-9), None)
    if s_star is None:
        return _fallback(n, checks, transcript)

    transcript["s_star"] = s_star
    log2_bound = min(float(n), 1.0 + log2_binomial_tail(n, s_star - 1))
    return _BoundResult(log2_bound, checks, (), transcript)


def certify_count_2xor(G: MultiGraph, eta: float) -> CountCertificate:
    """Certificate on the number of (1-eta)-satisfying assignments of any
    2XOR instance with underlying multigraph G, for all signings at once."""
    return _count_certificate(G, eta, _count_2xor_budget(G, violation_budget(eta, G.m)))


# ---------------------------------------------------------------------------
# kXOR recursion
# ---------------------------------------------------------------------------

def _partition_blocks(n: int, c: float) -> list[range]:
    """Contiguous vertex blocks of size ceil(n^c); the last block holds
    the remainder."""
    size = max(1, math.ceil(n**c))
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _kxor_budget(H: UnsignedHypergraph, budget: int) -> _BoundResult:
    n, k = H.n, H.k
    if k == 2:
        return _count_2xor_budget(MultiGraph.build(n, H.vars), budget)

    clean = H.without_repeats().dedup()
    transcript: dict = {
        "k": k, "m_given": H.m, "m_clean": clean.m, "budget": budget,
    }
    if clean.m == 0:
        checks = (CheckRecord("nonempty", float(clean.m), 1.0, False),)
        return _fallback(n, checks, transcript)

    density = clean.m / n
    delta_exp = math.log(density) / math.log(n)
    if delta_exp >= k - 2:
        c = 0.0
    else:
        c = min(1.0, max(0.0, 1.0 - delta_exp / (k - 2) + EPS_EXPONENT))
    transcript.update({"density": density, "delta_exponent": delta_exp, "c": c})
    blocks = _partition_blocks(n, c)
    ell = len(blocks)
    if ell == 1:
        # a single block covering [n] certifies nothing: the instance is
        # too sparse for the recursion at this size
        checks = (CheckRecord("density-usable", density, float(n), False),)
        return _fallback(n, checks, transcript)
    block_budget = (k * budget) // ell
    transcript.update({"blocks": ell, "block_size": len(blocks[0]), "block_budget": block_budget})

    sizes = []
    bounds = []
    trace = []
    for i, block in enumerate(blocks):
        # hyperedges with one vertex in the block, projected to the rest and
        # relabelled to the complement's index order: a shift past the block
        size = len(block)
        _, _, out_part = clause_split(clean.vars, block, 1)
        sub_H = UnsignedHypergraph(k - 1, n - size,
                                   np.where(out_part < block.start, out_part, out_part - size))
        sub = _kxor_budget(sub_H, block_budget)
        sizes.append(size)
        bounds.append(sub.log2_bound)
        trace.append({
            "block": i,
            "size": size,
            "start": block.start,
            "m_induced": sub_H.m,
            "budget": block_budget,
            "log2_bound": sub.log2_bound,
            "fallback": sub.log2_bound >= sub_H.n,
            "transcript": sub.transcript,
            "checks": [c.to_json_dict() for c in sub.checks],
        })

    log2_bound = min(float(n), aggregate_partition(n, sizes, bounds))
    return _BoundResult(log2_bound, (), tuple(trace), transcript)


def certify_count_kxor(H: UnsignedHypergraph, eta: float) -> CountCertificate:
    """Certificate, valid for every signing, on the number of assignments
    violating at most an eta fraction of the hyperedges of H."""
    if H.k < 2:
        raise ValueError(f"kXOR counting requires k >= 2, got k = {H.k}")
    return _count_certificate(H, eta, _kxor_budget(H, violation_budget(eta, H.m)))


def _ksat_bound(I: SignedHypergraph, P: Predicate, eta: float) -> _BoundResult:
    """The XOR principle step: convert I's slack under P into an XOR
    slack, then bound with the signing-independent kXOR recursion."""
    principle = kxor_principle(I, P)
    check = principle.check(eta)
    transcript = {
        "quasirandom_eps": principle.quasirandomness.eps,
        "eta_x": check.measured,
        "quasirandomness": principle.quasirandomness.to_json_dict(),
    }
    if not check.passed:
        return _fallback(I.n, (check,), transcript)
    res = _kxor_budget(principle.instance.hypergraph(), violation_budget(check.measured, I.m))
    return _BoundResult(res.log2_bound, (check,) + res.checks, res.trace,
                        {**transcript, **res.transcript})


def certify_count_ksat(I: SignedHypergraph, eta: float) -> CountCertificate:
    """Certificate on the number of (1-eta)-satisfying assignments of I as
    a kSAT instance: the XOR principle converts the SAT slack into an XOR
    slack, then the signing-independent kXOR certifier takes over."""
    return _count_certificate(I, eta, _ksat_bound(I, Predicate.ksat(I.k), eta))


def certify_count_kcsp(I: SignedHypergraph, P: Predicate, eta: float) -> CountCertificate:
    """Certificate on (1-eta)-satisfiers of I under an arbitrary predicate,
    via composition with a fixed non-satisfying string of P."""
    res = _ksat_bound(I, P, eta)
    res.transcript["reduction_string"] = list(P.first_unsatisfying())
    return _count_certificate(I, eta, res)


# ---------------------------------------------------------------------------
# Refutation from counting
# ---------------------------------------------------------------------------

def refute_from_count(
    I: XorInstance, count_cert: CountCertificate, eta: float
) -> RefutationCertificate | None:
    """Upgrade a small count bound into a refutation of (1-eta/2)-satisfiers.

    If some x were (1-eta/2)-satisfying, flipping any subset of a variable
    set S touched by few clauses would yield 2^|S| distinct assignments all
    (1-eta)-satisfying; a certified count below 2^|S| rules that out.

    Neither the incidence count nor the count bound depends on the signs,
    so the refutation holds for every signing and, like the count
    certificate it upgrades, binds the hypergraph of I.
    """
    instance_sha256 = I.hypergraph().sha256()
    if count_cert.kind != "count" or count_cert.n != I.n or count_cert.instance_sha256 != instance_sha256:
        raise ValueError("certificate does not match the instance")
    if count_cert.eta < eta - 1e-12:
        raise ValueError("certificate slack is smaller than the requested eta")
    n, m, k = I.n, I.m, I.k
    set_size = int(math.floor(eta * n / (3.0 * k) + 1e-9))
    if set_size < 1:
        return None
    # clauses touching the prefix set [0, set_size)
    incidence = int((I.vars < set_size).any(axis=1).sum())
    incidence_budget = int(math.floor(eta * m / 2.0 + 1e-9))
    if incidence > incidence_budget:
        return None
    if count_cert.log2_bound > set_size - 1e-9:
        return None
    return RefutationCertificate(
        kind="refutation",
        n=n,
        eta_refuted=eta / 2.0,
        evidence={
            "count_certificate": count_cert.to_json_dict(),
            "set_size": set_size,
            "clause_incidence": incidence,
            "incidence_budget": incidence_budget,
        },
        instance_sha256=instance_sha256,
    )
