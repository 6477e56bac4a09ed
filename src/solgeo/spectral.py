"""Eigenvalue computations and graph-spectrum certificates.

Every certificate downstream consumes *measured* spectral quantities from
these routines, never high-probability thresholds; the thresholds only
gate whether a nontrivial bound is attempted.

Each consumed number is computed by ``np.linalg.eigvalsh`` and then
*proved*, shifted by ``eig_slack`` in the direction its consumer uses it:
a Cholesky factorization of the shifted matrix shows it positive definite
(``_prove_min_above``), with a margin that covers the factorization's own
rounding and the rounding made while forming the matrix.  A failed proof
raises ``EigensolverError``; nothing falls back silently.

Consumers and the direction each one consumes:

* ``SpectralReport.lambda2`` (``spectral_report``) is a lower bound:
  lambda_2(L) > lambda2 - eig_slack(2), proved on L + 2 v0 v0^T / |v0|^2
  with v0 = D^(1/2) 1.  Used by ``edge_expansion_lower_bound`` and by the
  2XOR base case of the 2XOR/kXOR/kSAT/kCSP count certificates, which
  calls ``spectral_report(G, demeaned=False)``.
* ``SpectralReport.demeaned_norm`` (``spectral_report``, ``demeaned_norm``)
  is an upper bound: |A - (2m/n^2) J| < nu + eig_slack(nu), proved from
  both sides.  Used by ``mixing_interval`` and the cluster and balance
  certificates.
* ``symmetric_spectrum`` / ``symmetric_eigenpairs`` prove
  lambda_max < vals[-1] + s and lambda_min > vals[0] - s with
  s = eig_slack(max |vals|).  The SK and independent-set counts and
  ``eigenspace_window`` consume the first as an upper bound on the top
  eigenvalue; ``hoffman_bound`` consumes the second.
* ``refuter``'s quadratic-norm branch proves its norm with ``prove_norm_below``.

Not proved:

* the window counts ``alpha`` in ``eigencount`` (how many eigenvalues lie
  above a threshold) are taken from ``eigvalsh`` as computed;
* ``lam_lo`` = vals[-1] - s in the SK and independent-set counts only
  places the window threshold, which the counting argument allows
  anywhere, so no lower bound on lambda_max is consumed;
* interior eigenvalues and the eigenvectors of ``symmetric_eigenpairs``;
* the SVD branch of the refuter's flattening bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import MultiGraph

# EIG_TOL scales the additive slack budgeted into every certified
# inequality (see eig_slack).  The Cholesky proofs spend about
# n^2 u |M| of it, under a thirtieth at n <= MAX_DENSE_N.
EIG_TOL = 1e-8
SLACK_FACTOR = 10.0

# Dense eigensolves only; sizes beyond this are refused rather than
# silently degraded to an uncertified iterative method.
MAX_DENSE_N = 5000

# Unit roundoff of IEEE double precision and the smallest positive normal
# number: the constants of the Cholesky margin.
UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022


class EigensolverError(RuntimeError):
    """Raised when a computed spectral bound fails its Cholesky proof."""


def eig_slack(scale: float) -> float:
    """Additive slack covering eigensolver error at the given norm scale."""
    return SLACK_FACTOR * EIG_TOL * max(scale, 1.0)


@dataclass(frozen=True)
class SpectralReport:
    """Measured spectral evidence for a multigraph.

    ``lambda2`` is the second-smallest eigenvalue of the normalized
    Laplacian (None if not computed), ``demeaned_norm`` the operator norm
    of A - (d_avg/n) J with parallel edges counted (None if not computed).
    """

    n: int
    m: int
    d_min: int
    d_max: int
    d_avg: float
    lambda2: float | None
    demeaned_norm: float | None
    eig_tolerance: float = EIG_TOL

    def __post_init__(self) -> None:
        if not (self.d_min <= self.d_avg + 1e-12 and self.d_avg <= self.d_max + 1e-12):
            raise ValueError("degree statistics out of order")
        if self.lambda2 is not None and not (-1e-9 <= self.lambda2 <= 2 + 1e-9):
            raise ValueError("normalized Laplacian eigenvalue out of [0, 2]")
        if self.demeaned_norm is not None and self.demeaned_norm < 0:
            raise ValueError("operator norm must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d_min": self.d_min,
            "d_max": self.d_max,
            "d_avg": self.d_avg,
            "lambda2": self.lambda2,
            "demeaned_norm": self.demeaned_norm,
            "eig_tolerance": self.eig_tolerance,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpectralReport":
        return cls(
            d["n"], d["m"], d["d_min"], d["d_max"], d["d_avg"],
            d["lambda2"], d["demeaned_norm"], d["eig_tolerance"],
        )


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_N:
        raise ValueError(f"dense eigensolve limited to n <= {MAX_DENSE_N}")


def _prove_min_above(
    B: np.ndarray, mu: float, err: float = 0.0, claim: str | None = None
) -> None:
    """Prove lambda_min(B0) > mu for every symmetric B0 with
    |B0 - B|_2 <= err, or raise EigensolverError naming ``claim``.

    Only the lower triangle of ``B`` is read, as by ``eigvalsh``.  Its
    diagonal is shifted in place and restored exactly before returning.

    Let X = fl(B - mu' I), with mu' exceeding mu + err by more than the
    rounding of that diagonal subtraction, at most u |b_ii - mu'|.  Then
    X > 0 gives lambda_min(B0) >= lambda_min(B) - err > mu.  X > 0 is
    proved by the sufficient shift of S. M. Rump, "Verification of
    positive definiteness", BIT 46 (2006):

        Let X = X^T in F^(n x n) with x_ii >= 0, u = 2^-53 and
        gamma_k = k u / (1 - k u).  If the floating-point Cholesky
        factorization of fl(X - c I) runs to completion with
            c >= gamma_(n+1) / (1 - 2 gamma_(n+1)) * tr(X) + c_eta,
        where c_eta is the paper's allowance for underflow, then X is
        positive definite.

    The code takes c_eta = 4 n (2 (n + 2) + max x_ii) * 2^-1022.  An
    underflow allowance built, as the paper's is, from the subnormal
    spacing 2^-1074 and a polynomial of degree two in n and max x_ii lies
    below it by a factor near 2^50.  c is inflated by 1 + 16u to cover
    the rounding of its own evaluation; both choices only enlarge c.  The
    bound holds for the blocked LAPACK/OpenBLAS factorization behind
    ``np.linalg.cholesky``, which evaluates the same inner products in
    another order.
    """
    n = B.shape[0]
    u = UNIT_ROUNDOFF
    claim = claim or f"lambda_min > {float(mu)!r}"
    diag = B.diagonal().copy()
    # 4u (...) covers the rounding of x below and of forming mu' itself
    shift = mu + (err + 4.0 * u * (float(np.max(np.abs(diag))) + abs(mu) + err))
    x = diag - shift
    if not (math.isfinite(shift) and np.all(x > 0.0)):
        raise EigensolverError(f"Cholesky proof of {claim} failed: shifted diagonal not positive")
    g = (n + 1) * u / (1.0 - (n + 1) * u)
    c = (g / (1.0 - 2.0 * g) * math.fsum(x)
         + 4.0 * n * (2.0 * (n + 2) + float(x.max())) * _TINY) * (1.0 + 16.0 * u)
    idx = np.diag_indices(n)
    try:
        B[idx] = x - c
        R = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        R = None
    finally:
        B[idx] = diag
    # a NaN pivot can slip past the factorization's own positivity test
    if R is None or not np.all(R.diagonal() > 0.0):
        raise EigensolverError(f"Cholesky proof of {claim} failed")


def _prove_max_below(B: np.ndarray, t: float, err: float = 0.0) -> None:
    """Prove lambda_max(B0) < t for every symmetric B0 with |B0 - B|_2 <= err,
    via lambda_min(-B0) > -t; ``B`` is negated in place and back, exactly."""
    np.negative(B, out=B)
    try:
        _prove_min_above(B, -t, err, f"lambda_max < {float(t)!r}")
    finally:
        np.negative(B, out=B)


def prove_norm_below(B: np.ndarray, t: float, err: float = 0.0) -> None:
    """Prove |B0|_2 < t for every symmetric B0 with |B0 - B|_2 <= err, or
    raise EigensolverError; ``B`` is left as it was."""
    _prove_max_below(B, t, err)
    _prove_min_above(B, -t, err)


def _lambda2_value(A: np.ndarray, degrees: np.ndarray) -> float:
    """lambda_2 of the normalized Laplacian, proved from below.  ``A`` is
    the adjacency matrix and is overwritten.

    L is formed in place as 1 on the diagonal and -(a_ij s_i) s_j off it,
    s = 1/sqrt(d); only its lower triangle is read.  Against the exact
    L, each entry is off by at most 6.1u relatively, and
    |D^-1/2 A D^-1/2|_F <= sqrt(n); the entries of 2 w w^T by at most
    7.3u relatively, |2 P0|_F = 2; adding the two rounds by at most
    u (|L|_F + 2) <= u (2 sqrt(n) + 2).  By Weyl's inequality the
    eigenvalues move by at most 16u (sqrt(n) + 2) in all.
    """
    n = A.shape[0]
    inv_sqrt = 1.0 / np.sqrt(degrees)
    L = A
    L *= inv_sqrt[:, None]
    L *= -inv_sqrt[None, :]
    np.fill_diagonal(L, 1.0)  # no self-loops: a_ii = 0
    vals = np.linalg.eigvalsh(L)
    lam2 = float(np.clip(vals[min(1, n - 1)], 0.0, 2.0))
    mu = lam2 - eig_slack(2.0)
    if mu > 0.0:  # otherwise lambda_2 >= 0 > mu holds for every Laplacian
        # v0 = D^(1/2) 1 spans the kernel of L; adding 2 P0 = 2 v0 v0^T/|v0|^2
        # moves its eigenvalue to 2 and keeps lambda_2..lambda_n
        w = np.sqrt(degrees) * math.sqrt(2.0 / float(degrees.sum()))
        L += np.outer(w, w)
        _prove_min_above(L, mu, 16.0 * UNIT_ROUNDOFF * (math.sqrt(n) + 2.0))
    return lam2


def demeaned_adjacency(G: MultiGraph, A: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """A - (d_avg/n) J, formed in place in ``A`` (by default a fresh
    adjacency matrix of G), with a bound on its spectral-norm distance from
    the exact A - (2m/n^2) J.

    The float q = d_avg/n is off by at most 2u q and each entry
    fl(a_ij - q) by at most u |a_ij - q|, so each row of the error sums to
    at most u (d_max + 3 d_avg); for a symmetric error that bounds its
    spectral norm.  fl(a_ij - q) is exactly symmetric.
    """
    if A is None:
        A = G.adjacency()
    A -= G.average_degree() / G.n
    return A, 4.0 * UNIT_ROUNDOFF * (max(G.degrees) + G.average_degree())


def _demeaned_norm_value(G: MultiGraph, A: np.ndarray | None = None) -> float:
    if G.m == 0:
        return 0.0
    _check_dense(G.n)
    Abar, err = demeaned_adjacency(G, A)
    vals = np.linalg.eigvalsh(Abar)
    nu = float(max(abs(vals[0]), abs(vals[-1])))
    prove_norm_below(Abar, nu + eig_slack(nu), err)
    return nu


def spectral_report(
    G: MultiGraph, laplacian: bool = True, demeaned: bool = True
) -> SpectralReport:
    """Measure degree statistics plus the requested spectral quantities."""
    n = G.n
    degrees = np.array(G.degrees, dtype=float)
    d_min = int(degrees.min()) if n else 0
    d_max = int(degrees.max()) if n else 0
    d_avg = G.average_degree()

    lam2: float | None = None
    A = None
    if laplacian:
        if d_min == 0:
            raise ValueError("normalized Laplacian requires no isolated vertices")
        _check_dense(n)
        A = G.adjacency()
        lam2 = _lambda2_value(A.copy() if demeaned else A, degrees)

    norm: float | None = None
    if demeaned:
        norm = _demeaned_norm_value(G, A)

    return SpectralReport(n, G.m, d_min, d_max, d_avg, lam2, norm)


def demeaned_norm(G: MultiGraph) -> float:
    """Operator norm of A - (d_avg/n) J, multiplicities counted."""
    return _demeaned_norm_value(G)


def edge_expansion_lower_bound(report: SpectralReport, s: int) -> float:
    """Certified lower bound on e(S, S-complement) valid for every vertex
    set S with |S| = s whose volume is at most half the total volume,
    via the easy direction of the Cheeger inequality."""
    if report.lambda2 is None:
        raise ValueError("report does not carry lambda2")
    if s < 0:
        raise ValueError("set size must be nonnegative")
    if s == 0:
        return 0.0
    lam2 = max(0.0, report.lambda2 - eig_slack(2.0))
    return 0.5 * lam2 * report.d_min * s


def mixing_interval(report: SpectralReport, s: int, t: int) -> tuple[float, float]:
    """Certified interval for e(S, T) over all |S| = s, |T| = t, from the
    expander mixing lemma with the measured de-meaned norm."""
    if report.demeaned_norm is None:
        raise ValueError("report does not carry the de-meaned norm")
    if s < 0 or t < 0:
        raise ValueError("set sizes must be nonnegative")
    if s == 0 or t == 0:
        return (0.0, 0.0)
    center = report.d_avg / report.n * s * t
    nu = report.demeaned_norm + eig_slack(report.demeaned_norm)
    radius = nu * math.sqrt(s * t)
    return (center - radius, center + radius)


def _symmetric_copy(M: np.ndarray, err: float) -> tuple[np.ndarray, float]:
    """A float copy of M to work in, and err grown by |M - M^T|_F, twice the
    distance from the lower-triangle matrix the solvers read to M's
    symmetric part; the factor 2 covers the rounding of computing it.

    M is refused as not symmetric (ValueError) when |M - M^T|_F exceeds a
    quarter of eig_slack(|M|_F / sqrt(n)).  As |M|_F / sqrt(n) <= |M|_2,
    and the matrix the solvers read is within |M - M^T|_F of M, that is
    at most about a quarter of the slack the extreme eigenvalues are
    proved with, so what passes here the proofs can absorb.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    _check_dense(M.shape[0])
    asym = float(np.linalg.norm(M - M.T))
    limit = eig_slack(float(np.linalg.norm(M)) / math.sqrt(max(M.shape[0], 1))) / 4.0
    if not asym <= limit:
        raise ValueError(f"matrix must be symmetric: |M - M^T|_F = {asym:.3g} exceeds {limit:.3g}")
    return M, err + asym


def _prove_extremes(B: np.ndarray, vals: np.ndarray, err: float) -> None:
    s = eig_slack(float(np.max(np.abs(vals))))
    _prove_max_below(B, vals[-1] + s, err)
    _prove_min_above(B, vals[0] - s, err)


def symmetric_spectrum(M: np.ndarray, err: float = 0.0) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, with the extremes
    proved: lambda_max < vals[-1] + s and lambda_min > vals[0] - s,
    s = eig_slack(max |vals|), for every symmetric matrix within ``err``
    (spectral norm) of M's symmetric part."""
    B, err = _symmetric_copy(M, err)
    vals = np.linalg.eigvalsh(B)
    _prove_extremes(B, vals, err)
    return vals


def symmetric_eigenpairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, extremes proved as in ``symmetric_spectrum``)
    and orthonormal eigenvectors, as columns, from one ``eigh``."""
    B, err = _symmetric_copy(M, 0.0)
    vals, vecs = np.linalg.eigh(B)
    _prove_extremes(B, vals, err)
    return vals, vecs
