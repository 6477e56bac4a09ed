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
from fractions import Fraction

import numpy as np

from .certificates import CheckRecord, CountCertificate, RefutationCertificate
from .instances import MultiGraph, goe_json
from .jsonio import sha256_of
from .spectral import (
    demeaned_adjacency, eig_slack, symmetric_eigenpairs, symmetric_spectrum,
)

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


def boolean_in_ball_bound(eps: float, n: int) -> float:
    """log2 bound on normalized Boolean vectors inside any eps-ball."""
    if not (0.0 < eps < 1.0 / math.sqrt(2.0)):
        raise ValueError("eps must lie in (0, 1/sqrt(2))")
    return entropy2(eps * eps) * n


@dataclass(frozen=True)
class EigenspaceWindow:
    """Measured fraction of eigenvalues within (1-delta) of the extremal
    eigenvalue, with the spanning basis optionally attached."""

    delta: float
    alpha: float
    lambda_top: float
    n: int
    count: int
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


def eigenspace_window(
    M: np.ndarray, delta: float, sign: str = "top", with_basis: bool = False
) -> EigenspaceWindow:
    """Fraction of eigenvalues lambda_i >= lambda_extremal * (1 - delta),
    computed on -M when sign == "bottom"."""
    if sign not in ("top", "bottom"):
        raise ValueError("sign must be 'top' or 'bottom'")
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    work = np.asarray(M, dtype=float)
    if sign == "bottom":
        work = -work
    if with_basis:
        vals, vecs = symmetric_eigenpairs(work)
    else:
        vals = symmetric_spectrum(work)
    n = work.shape[0]
    lam_top = float(vals[-1])
    slack = eig_slack(float(np.max(np.abs(vals))))
    threshold = lam_top * (1.0 - delta)
    counted = vals >= threshold - slack
    count = int(np.count_nonzero(counted))
    basis = vecs[:, counted] if with_basis else None
    return EigenspaceWindow(delta, count / n, lam_top, n, count, basis)


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
    vals = symmetric_spectrum(G)
    lam1 = float(vals[-1])
    slack = eig_slack(float(np.max(np.abs(vals)))) if n else 0.0
    lam_lo, lam_hi = lam1 - slack, lam1 + slack

    target = 2.0 * (1.0 - eta) * math.sqrt(n)
    delta = eta ** (2.0 / 5.0)
    eps_rule = math.sqrt(eta / delta)
    signature = sha256_of(goe_json(G))
    goe_check = CheckRecord(
        "goe-top-eigenvalue", abs(lam1 / math.sqrt(n) - 2.0), n ** -0.25,
        abs(lam1 / math.sqrt(n) - 2.0) < n ** -0.25,
    )
    transcript: dict = {
        "lambda_1": lam1,
        "target_rayleigh": target,
        "delta": delta,
        "eps_asymptotic_rule": eps_rule,
        "eta0_asymptotic_rule": (1.0 / (4.0 * math.sqrt(2.0))) ** (10.0 / 3.0),
    }

    if lam_hi < target:
        # the spectral bound alone excludes every candidate
        transcript["spectral_exclusion"] = True
        return CountCertificate(
            kind="sk-count", n=n, log2_bound=0.0, eta=eta, fallback=False,
            checks=(goe_check,), signature=signature, transcript=transcript,
        )

    if lam_lo <= 0:
        return CountCertificate(
            kind="sk-count", n=n, log2_bound=float(n), eta=eta, fallback=True,
            checks=(goe_check,), signature=signature, transcript=transcript,
        )

    window_threshold = lam_lo * (1.0 - delta)
    eps_sq = 0.0
    for lam in (lam_lo, lam_hi):
        if lam > window_threshold:
            eps_sq = max(eps_sq, (lam - target) / (lam - window_threshold))
    eps_measured = math.sqrt(max(0.0, eps_sq))
    alpha = float(np.count_nonzero(vals >= window_threshold - slack)) / n
    eps_used = max(2.0 * eps_measured, EPS_FLOOR)
    transcript.update(
        {"eps_measured": eps_measured, "eps_used": eps_used, "alpha": alpha}
    )

    if eps_used >= 0.25:
        return CountCertificate(
            kind="sk-count", n=n, log2_bound=float(n), eta=eta, fallback=True,
            checks=(goe_check,), signature=signature, transcript=transcript,
        )
    log2_bound = subspace_count_bound(alpha, eps_used, n)
    return CountCertificate(
        kind="sk-count", n=n, log2_bound=log2_bound, eta=eta,
        fallback=log2_bound >= n, checks=(goe_check,), signature=signature,
        transcript=transcript,
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


@dataclass(frozen=True)
class CenteredIndicator:
    """The all-ones-orthogonal shift of a subset indicator, kept in exact
    rational arithmetic: (1 - |S|/n) on S and -|S|/n off S."""

    n: int
    subset: frozenset[int]

    def values(self) -> list[Fraction]:
        s = Fraction(len(self.subset), self.n)
        return [
            (1 - s) if i in self.subset else -s for i in range(self.n)
        ]

    def inner_with_ones(self) -> Fraction:
        return sum(self.values(), Fraction(0))

    def norm_sq(self) -> Fraction:
        s = len(self.subset)
        return Fraction(s) * (1 - Fraction(s, self.n))

    def to_array(self) -> np.ndarray:
        return np.array([float(v) for v in self.values()])


def _require_regular(G: MultiGraph) -> int:
    if G.n < 1 or not G.is_regular() or G.degrees[0] < 1:
        raise ValueError("a d-regular graph with d >= 1 is required")
    return G.degrees[0]


def hoffman_bound(G: MultiGraph) -> int:
    """Certified bound floor(lambda n / (d + lambda)) on the independence
    number, lambda = -lambda_min of the adjacency matrix (measured)."""
    d = _require_regular(G)
    vals = symmetric_spectrum(G.adjacency())
    lam = -float(vals[0]) + eig_slack(float(np.max(np.abs(vals))))
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
    d = _require_regular(G)
    if d < 3:
        raise ValueError("certification requires d >= 3")
    n = G.n
    consts = IndSetConstants.for_degree(d)
    signature = G.sha256()

    Abar, err = demeaned_adjacency(G)
    vals = symmetric_spectrum(np.negative(Abar, out=Abar), err)  # (d/n) J - A
    lam1 = float(vals[-1])
    slack = eig_slack(float(np.max(np.abs(vals))))
    lam_lo, lam_hi = lam1 - slack, lam1 + slack

    friedman_gap = abs(lam1 - 2.0 * math.sqrt(d - 1.0))
    friedman_threshold = math.log(math.log(max(n, 3))) / math.log(max(n, 3))
    friedman_check = CheckRecord(
        "friedman-extremal-eigenvalue", friedman_gap, friedman_threshold,
        friedman_gap < friedman_threshold,
    )

    delta = eta ** (2.0 / 5.0)
    s_min = consts.threshold_size(eta, n)
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

    def fallback() -> CountCertificate:
        return CountCertificate(
            kind="indset-count", n=n, log2_bound=float(n), eta=eta, fallback=True,
            checks=(friedman_check,), signature=signature, transcript=transcript,
        )

    if s_min < 1 or lam_lo <= 0:
        return fallback()

    # Hoffman fraction from the measured spectrum; regular graphs never
    # have independent sets above n/2, so the cap at 1/2 is free.
    c_lam = min(lam_hi / (d + lam_hi), 0.5)
    transcript["hoffman_fraction"] = c_lam
    if s_min > c_lam * n + 1e-9:
        transcript["hoffman_exclusion"] = True
        return CountCertificate(
            kind="indset-count", n=n, log2_bound=0.0, eta=eta, fallback=False,
            checks=(friedman_check,), signature=signature, transcript=transcript,
        )

    # exact Rayleigh quotient of the centered indicator at the binding size
    rayleigh = (d * s_min / n) / (1.0 - s_min / n)
    window_threshold = lam_lo * (1.0 - delta)
    eps_sq = 0.0
    for lam in (lam_lo, lam_hi):
        if lam > window_threshold:
            eps_sq = max(eps_sq, (lam - rayleigh) / (lam - window_threshold))
    eps_measured = math.sqrt(max(0.0, eps_sq))
    alpha = float(np.count_nonzero(vals >= window_threshold - slack)) / n

    c_y_meas = math.sqrt(c_lam * (1.0 - c_lam))
    eps_net = max(eps_measured, EPS_FLOOR)
    eps_prime = 2.0 * eps_net * c_y_meas
    transcript.update(
        {
            "alpha": alpha,
            "eps_measured": eps_measured,
            "eps_net": eps_net,
            "eps_prime": eps_prime,
            "c_y_measured": c_y_meas,
        }
    )

    if eps_prime >= 1.0 / (4.0 * math.sqrt(2.0)):
        return fallback()
    log2_bound = min(
        float(n),
        (32.0 * eps_prime**2 * math.log2(1.0 / eps_prime)
         + alpha * math.log2(3.0 / eps_net)) * n,
    )
    return CountCertificate(
        kind="indset-count", n=n, log2_bound=log2_bound, eta=eta,
        fallback=log2_bound >= n, checks=(friedman_check,), signature=signature,
        transcript=transcript,
    )


def refute_indset_from_count(
    G: MultiGraph, count_cert: CountCertificate, eta: float
) -> RefutationCertificate | None:
    """Upgrade a small count of size->=C_d(1-eta)n independent sets into a
    refutation of any independent set of size (1-eta/2) C_d n: every subset
    of a large independent set is independent, so a large set would spawn
    binomially many sets at the counted size."""
    if count_cert.kind != "indset-count" or count_cert.n != G.n:
        raise ValueError("certificate does not match the instance")
    d = _require_regular(G)
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
        signature=G.sha256(),
    )
