"""Dimension-based count certification: counting Boolean vectors near a
low-dimensional eigenspace bounds the number of near-optimal hypercube
points of a quadratic form (SK-style) and of large independent sets in a
regular graph.

All spectral thresholds are instantiated from the measured spectrum of
the given matrix, shifted by solver slack in the conservative direction;
the classical asymptotic checks are recorded as informational entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import CheckRecord, CountCertificate, RefutationCertificate
from .instances import MultiGraph, rendered_doc
from .jsonio import sha256_of
from .spectral import demeaned_adjacency, proved_bound, symmetric_spectrum

# Net resolutions below this are floored; a larger radius only grows the
# counted superset, so the floor never costs soundness.
EPS_FLOOR = 0.01


def entropy2(p: float) -> float:
    """Binary entropy in bits, with H2(0) = H2(1) = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def subspace_count_bound(alpha: float, eps: float, n: int) -> float:
    """log2 bound on the number of normalized Boolean vectors within eps of
    any subspace of dimension alpha*n: a (3/eps)-net of the unit ball in
    the subspace plus a Hamming ball per net point."""
    if not (0.0 < eps < 0.25):
        raise ValueError("eps must lie in (0, 1/4)")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    return min(float(n), (entropy2(4.0 * eps * eps) + alpha * math.log2(3.0 / eps)) * n)


@dataclass(frozen=True)
class EigenspaceWindow:
    """The eigenvalue window both counts rest on, below the top eigenvalue
    ``lambda_top`` of a symmetric matrix.

    lambda_max lies in [lam_lo, lam_hi]: ``lam_hi`` is the bound proved
    above it and lam_lo = proved_bound(lambda_top, "min", span), which
    only places the window.  ``count`` eigenvalues lie at or above
    proved_bound(threshold, "min", span), threshold = lam_lo (1 - delta),
    a fraction ``alpha`` of the ``n``.
    """

    delta: float
    alpha: float
    lambda_top: float
    n: int
    count: int
    lam_lo: float
    lam_hi: float
    threshold: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")

    def eps(self, target: float) -> float:
        """A unit vector with Rayleigh quotient at least ``target`` lies
        within eps of the span of the eigenvectors above the threshold,
        eps^2 <= (lambda_max - target) / (lambda_max - threshold), taken at
        the worse end of [lam_lo, lam_hi].  Meaningful when lam_lo > 0."""
        eps_sq = 0.0
        for lam in (self.lam_lo, self.lam_hi):
            if lam > self.threshold:
                eps_sq = max(eps_sq, (lam - target) / (lam - self.threshold))
        return math.sqrt(max(0.0, eps_sq))


def eigenspace_window(M: np.ndarray, delta: float, sign: str = "top",
                      err: float = 0.0) -> EigenspaceWindow:
    """The window below the top eigenvalue of M, or of -M when sign ==
    "bottom", with lambda_max proved below ``lam_hi`` for every symmetric
    matrix within ``err`` of it (``symmetric_spectrum``)."""
    if sign not in ("top", "bottom"):
        raise ValueError("sign must be 'top' or 'bottom'")
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    work = np.asarray(M, dtype=float)
    if sign == "bottom":
        work = -work
    vals, lam_hi = symmetric_spectrum(work, "max", err)
    span = (vals[0], vals[-1])
    lam_lo = proved_bound(vals[-1], "min", span)
    threshold = lam_lo * (1.0 - delta)
    count = int(np.count_nonzero(vals >= proved_bound(threshold, "min", span)))
    return EigenspaceWindow(delta, count / len(vals), float(vals[-1]), len(vals), count,
                            lam_lo, lam_hi, threshold)


# ---------------------------------------------------------------------------
# SK-style counting for quadratic forms
# ---------------------------------------------------------------------------

def certify_count_sk(G: np.ndarray, eta: float) -> CountCertificate:
    """Certificate on the number of x in {-1,1}^n with
    x^T G x >= 2 (1-eta) n^(3/2).

    Any such x, normalized, has Rayleigh quotient at least 2(1-eta)sqrt(n),
    hence sits close to the measured top eigenspace window; the subspace
    counting bound does the rest.  The classical spectral check on
    lambda_1/sqrt(n) is recorded but soundness uses only measured values.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    target = 2.0 * (1.0 - eta) * math.sqrt(n)
    delta = eta ** (2.0 / 5.0)
    win = eigenspace_window(G, delta)
    lam1 = win.lambda_top
    goe_check = CheckRecord(
        "goe-top-eigenvalue", abs(lam1 / math.sqrt(n) - 2.0), n ** -0.25,
        abs(lam1 / math.sqrt(n) - 2.0) < n ** -0.25,
    )
    transcript: dict = {
        "lambda_1": lam1,
        "target_rayleigh": target,
        "delta": delta,
        "eps_asymptotic_rule": math.sqrt(eta / delta),
        "eta0_asymptotic_rule": (1.0 / (4.0 * math.sqrt(2.0))) ** (10.0 / 3.0),
    }

    if win.lam_hi < target:
        # the spectral bound alone excludes every candidate
        transcript["spectral_exclusion"] = True
        log2_bound = 0.0
    elif win.lam_lo <= 0:
        log2_bound = float(n)
    else:
        eps = win.eps(target)
        eps_used = max(2.0 * eps, EPS_FLOOR)
        transcript.update({"eps_measured": eps, "eps_used": eps_used, "alpha": win.alpha})
        log2_bound = subspace_count_bound(win.alpha, eps_used, n) if eps_used < 0.25 else float(n)
    return CountCertificate(
        kind="sk-count", n=n, log2_bound=log2_bound, eta=eta,
        fallback=log2_bound >= n, checks=(goe_check,),
        instance_sha256=sha256_of(rendered_doc(G)), transcript=transcript,
    )


# ---------------------------------------------------------------------------
# Independent sets in regular graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndSetConstants:
    """Spectral constants of a d-regular graph: r_d = 2 sqrt(d-1)/d,
    C_d = r_d/(1+r_d) (independence fraction), C_y = sqrt(r_d)/(1+r_d)."""

    d: int
    r_d: float
    C_d: float
    C_y: float

    @classmethod
    def for_degree(cls, d: int) -> "IndSetConstants":
        if d < 3:
            raise ValueError("d must be >= 3")
        r = 2.0 * math.sqrt(d - 1.0) / d
        return cls(d, r, r / (1.0 + r), math.sqrt(r) / (1.0 + r))

    def threshold_size(self, eta: float, n: int) -> int:
        """The smallest size counted at slack eta: ceil(C_d (1-eta) n)."""
        return math.ceil(self.C_d * (1.0 - eta) * n - 1e-9)

    def __post_init__(self) -> None:
        if self.C_d > 0.5 + 1e-12:
            raise ValueError("C_d must be at most 1/2")
        if self.C_y >= math.sqrt(self.C_d):
            raise ValueError("C_y must be below sqrt(C_d)")


def regular_degree(G: MultiGraph) -> int:
    """The degree d of a d-regular graph G with d >= 1; ValueError otherwise."""
    if G.n < 1 or not G.is_regular() or G.degrees[0] < 1:
        raise ValueError("a d-regular graph with d >= 1 is required")
    return G.degrees[0]


def hoffman_bound(G: MultiGraph) -> int:
    """Certified bound floor(lambda n / (d + lambda)) on the independence
    number, lambda = -lambda_min of the adjacency matrix (measured)."""
    d = regular_degree(G)
    lam = -symmetric_spectrum(G.adjacency(), "min")[1]
    if lam <= 0:
        raise ValueError("nonpositive lambda: graph has no edges?")
    return int(math.floor(lam * G.n / (d + lam) + 1e-9))


def certify_count_indsets(G: MultiGraph, eta: float) -> CountCertificate:
    """Certificate on the number of independent sets of size at least
    C_d (1-eta) n in a d-regular graph.

    Independent sets map to centered indicators whose Rayleigh quotient
    against the negated de-meaned adjacency is an exact rational function
    of their size; large sets land near the measured bottom eigenspace
    window, and a net-plus-Hamming-ball argument counts the candidates.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    d = regular_degree(G)
    if d < 3:
        raise ValueError("certification requires d >= 3")
    n = G.n
    consts = IndSetConstants.for_degree(d)
    delta = eta ** (2.0 / 5.0)
    s_min = consts.threshold_size(eta, n)
    # exact Rayleigh quotient of the centered indicator at the binding size
    rayleigh = (d * s_min / n) / (1.0 - s_min / n)

    Abar, err = demeaned_adjacency(G)
    win = eigenspace_window(np.negative(Abar, out=Abar), delta, err=err)  # (d/n) J - A
    lam1 = win.lambda_top

    friedman_gap = abs(lam1 - 2.0 * math.sqrt(d - 1.0))
    friedman_threshold = math.log(math.log(max(n, 3))) / math.log(max(n, 3))
    friedman_check = CheckRecord(
        "friedman-extremal-eigenvalue", friedman_gap, friedman_threshold,
        friedman_gap < friedman_threshold,
    )

    transcript: dict = {
        "d": d,
        "r_d": consts.r_d,
        "C_d": consts.C_d,
        "C_y": consts.C_y,
        "lambda_1": lam1,
        "delta": delta,
        "threshold_size": s_min,
        "eps_asymptotic_rule": math.sqrt(2.0 * eta / delta),
    }

    log2_bound = float(n)
    if s_min >= 1 and win.lam_lo > 0:
        # Hoffman fraction from the measured spectrum; regular graphs never
        # have independent sets above n/2, so the cap at 1/2 is free.
        c_lam = min(win.lam_hi / (d + win.lam_hi), 0.5)
        transcript["hoffman_fraction"] = c_lam
        if s_min > c_lam * n + 1e-9:
            transcript["hoffman_exclusion"] = True
            log2_bound = 0.0
        else:
            c_y_meas = math.sqrt(c_lam * (1.0 - c_lam))
            eps = win.eps(rayleigh)
            eps_net = max(eps, EPS_FLOOR)
            eps_prime = 2.0 * eps_net * c_y_meas
            transcript.update(
                {
                    "alpha": win.alpha,
                    "eps_measured": eps,
                    "eps_net": eps_net,
                    "eps_prime": eps_prime,
                    "c_y_measured": c_y_meas,
                }
            )
            if eps_prime < 1.0 / (4.0 * math.sqrt(2.0)):
                log2_bound = min(
                    float(n),
                    (32.0 * eps_prime**2 * math.log2(1.0 / eps_prime)
                     + win.alpha * math.log2(3.0 / eps_net)) * n,
                )
    return CountCertificate(
        kind="indset-count", n=n, log2_bound=log2_bound, eta=eta,
        fallback=log2_bound >= n, checks=(friedman_check,), instance_sha256=G.sha256(),
        transcript=transcript,
    )


def refute_indset_from_count(
    G: MultiGraph, count_cert: CountCertificate, eta: float
) -> RefutationCertificate | None:
    """Upgrade a small count of size->=C_d(1-eta)n independent sets into a
    refutation of any independent set of size (1-eta/2) C_d n: every subset
    of a large independent set is independent, so a large set would spawn
    binomially many sets at the counted size."""
    instance_sha256 = G.sha256()
    if (count_cert.kind != "indset-count" or count_cert.n != G.n
            or count_cert.instance_sha256 != instance_sha256):
        raise ValueError("certificate does not match the instance")
    d = regular_degree(G)
    consts = IndSetConstants.for_degree(d)
    s_small = count_cert.transcript.get("threshold_size")
    if s_small is None:
        raise ValueError("certificate transcript lacks the threshold size")
    s_big = math.ceil((1.0 - eta / 2.0) * consts.C_d * G.n - 1e-9)
    if s_big <= s_small:
        return None
    log2_subsets = math.log2(math.comb(s_big, s_big - s_small))
    if count_cert.log2_bound > log2_subsets - 1e-9:
        return None
    return RefutationCertificate(
        kind="indset-refutation",
        n=G.n,
        eta_refuted=eta / 2.0,
        evidence={
            "count_certificate": count_cert.to_json_dict(),
            "refuted_size": s_big,
            "counted_size": s_small,
            "log2_subsets": log2_subsets,
        },
        instance_sha256=instance_sha256,
    )
