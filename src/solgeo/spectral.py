"""Eigenvalue computations and graph-spectrum certificates.

Every certificate downstream consumes *measured* spectral quantities from
these routines, never high-probability thresholds; the thresholds only
gate whether a nontrivial bound is attempted.

Each consumed number is ``proved_bound``: an estimate shifted by
``eig_slack`` in the direction its consumer reads it, then *proved*.
``prove_side`` is the one proof: a Cholesky factorization of the shifted
matrix, with a margin that covers its own rounding and the rounding made
while forming the matrix.  ``proved_extreme`` is the one estimate-and-prove
entry.  The estimate is the caller's or comes from ``np.linalg.eigvalsh``,
except that graphs with at least ``ITERATIVE_MIN_N`` vertices take it from
Lanczos on a sparse matrix-vector product (``_lanczos_extremes``) and fall
back to ``eigvalsh`` only when that estimate fails its proof.  Where an
estimate comes from never decides soundness: the proof does, and only of
the side its consumer reads.  A failed proof of the caller's or the
``eigvalsh`` value raises ``EigensolverError``.

Consumers and the side each one proves:

* ``SpectralReport.lambda2_bound``, "min" within ``LAPLACIAN_RANGE`` on
  L + 2 v0 v0^T / |v0|^2, v0 = D^(1/2) 1: the Cheeger cut bound
  ``edge_expansion_lower_bound`` of the 2XOR count base case;
* ``SpectralReport.norm_bound``, "norm" on A - (2m/n^2) J:
  ``mixing_interval`` (cluster and 3CSP balance certificates) and
  ``geometry.refute_biased_2xor_family`` (kXOR and kCSP balance);
* ``symmetric_spectrum(M, side)``'s bound, "max" for
  ``eigenspace_window``, the window of the SK and independent-set counts,
  "min" for ``hoffman_bound``;
* ``refuter``'s quadratic-norm branch, ``prove_side(W, "norm", ...)`` at
  its own relative margin.

Not proved:

* the window counts ``alpha`` in ``eigencount`` and the extreme on the
  side ``symmetric_spectrum`` leaves unproved are read off ``eigvalsh``;
* ``EigenspaceWindow.lam_lo``, ``proved_bound`` of the top eigenvalue on
  the "min" side, only places the window threshold of the SK and
  independent-set counts, which the counting argument allows anywhere,
  so no lower bound on lambda_max is consumed;
* interior eigenvalues; no eigenvector or Ritz vector is consumed;
* the SVD branch of the refuter's flattening bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import JsonRecord
from .instances import MultiGraph

# EIG_TOL scales the additive slack budgeted into every certified
# inequality (see eig_slack).  The Cholesky proofs spend about
# n^2 u |M| of it, under a thirtieth at n <= MAX_DENSE_N.
EIG_TOL = 1e-8
SLACK_FACTOR = 10.0

# Every proof factors the dense matrix, so sizes beyond this are refused.
MAX_DENSE_N = 5000

# Graphs with at least this many vertices estimate lambda_2 and the
# de-meaned norm by Lanczos instead of eigvalsh.  Chosen by input size:
# at n = 2000 eigvalsh costs about five Cholesky proofs and the Lanczos
# estimate a fraction of one; below n = 1000 every solve is cheap and
# keeps its eigvalsh bytes.
ITERATIVE_MIN_N = 1000
# Lanczos stops once both extreme Ritz residuals are below LANCZOS_TOL
# times eig_slack (so the proofs keep at least half their slack), checked
# every LANCZOS_CHECK_EVERY steps, or after LANCZOS_MAX_STEPS steps; it
# starts from a standard normal vector drawn with seed LANCZOS_SEED.
LANCZOS_TOL = 0.5
LANCZOS_MAX_STEPS = 400
LANCZOS_CHECK_EVERY = 20
LANCZOS_SEED = 0

# Rows per step of the in-place rank-one update in _lambda2_value: a
# temporary of this many rows replaces one of n.
_ROW_BLOCK = 64
LAPLACIAN_RANGE = (0.0, 2.0)  # the spectrum of L + 2 P0 in _lambda2_value

# Unit roundoff of IEEE double precision and the smallest positive normal
# number: the constants of the Cholesky margin.
UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022


class EigensolverError(RuntimeError):
    """Raised when a computed spectral bound fails its Cholesky proof."""


def eig_slack(scale: float) -> float:
    """Additive slack covering eigensolver error at the given norm scale."""
    return SLACK_FACTOR * EIG_TOL * max(scale, 1.0)


def proved_bound(value: float, side: str, span: tuple[float, ...]) -> float:
    """The one slack rule: value - s ("min"), else value + s, s = eig_slack(max |span|)."""
    s = eig_slack(max(map(abs, span)))
    return float(value - s if side == "min" else value + s)


@dataclass(frozen=True)
class SpectralReport(JsonRecord):
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

    @property
    def lambda2_bound(self) -> float:  # floored at 0
        if self.lambda2 is None:
            raise ValueError("report does not carry lambda2")
        return max(0.0, proved_bound(self.lambda2, "min", LAPLACIAN_RANGE))

    @property
    def norm_bound(self) -> float:
        if self.demeaned_norm is None:
            raise ValueError("report does not carry the de-meaned norm")
        return proved_bound(self.demeaned_norm, "norm", (self.demeaned_norm,))


def _check_dense(n: int) -> None:
    if n > MAX_DENSE_N:
        raise ValueError(f"dense eigensolve limited to n <= {MAX_DENSE_N}")


def prove_side(B: np.ndarray, side: str, t: float, err: float = 0.0) -> None:
    """Prove lambda_min(B0) > t (``side`` "min"), lambda_max(B0) < t
    ("max") or |B0|_2 < t ("norm", both of the others at t and -t) for
    every symmetric B0 with |B0 - B|_2 <= err, or raise EigensolverError
    naming the claim.

    Only the lower triangle of ``B`` is read, as by ``eigvalsh``.  "max"
    is "min" on -B at -t; B is negated and its diagonal shifted in place,
    and both are undone exactly before returning.

    For "min", let X = fl(B - mu' I), with mu' exceeding t + err by more
    than the rounding of that diagonal subtraction, at most u |b_ii - mu'|.
    Then X > 0 gives lambda_min(B0) >= lambda_min(B) - err > t.  X > 0 is
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
    if side == "norm":
        prove_side(B, "max", t, err)
        prove_side(B, "min", -t, err)
        return
    sign = {"min": 1.0, "max": -1.0}[side]
    claim = f"lambda_{side} {'>' if sign > 0 else '<'} {float(t)!r}"
    n = B.shape[0]
    u = UNIT_ROUNDOFF
    mu = sign * t
    diag = sign * B.diagonal()  # a copy, of -B's diagonal for "max"
    # 4u (...) covers the rounding of x below and of forming mu' itself
    shift = mu + (err + 4.0 * u * (float(np.max(np.abs(diag))) + abs(mu) + err))
    x = diag - shift
    if not (math.isfinite(shift) and np.all(x > 0.0)):
        raise EigensolverError(f"Cholesky proof of {claim} failed: shifted diagonal not positive")
    g = (n + 1) * u / (1.0 - (n + 1) * u)
    c = (g / (1.0 - 2.0 * g) * math.fsum(x)
         + 4.0 * n * (2.0 * (n + 2) + float(x.max())) * _TINY) * (1.0 + 16.0 * u)
    idx = np.diag_indices(n)
    if sign < 0:
        np.negative(B, out=B)
    try:
        B[idx] = x - c
        R = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        R = None
    finally:
        B[idx] = diag
        if sign < 0:
            np.negative(B, out=B)
    # a NaN pivot can slip past the factorization's own positivity test
    if R is None or not np.all(R.diagonal() > 0.0):
        raise EigensolverError(f"Cholesky proof of {claim} failed")


def eigen_extremes(B: np.ndarray) -> tuple[float, float]:
    """The smallest and largest eigenvalue of B's lower triangle as
    ``eigvalsh`` computes them: estimates, not bounds."""
    vals = np.linalg.eigvalsh(B)
    return float(vals[0]), float(vals[-1])


def _lanczos_extremes(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> tuple[float, float]:
    """Smallest and largest Ritz values of the symmetric operator
    ``matvec`` on R^n: estimates of its extreme eigenvalues, not bounds.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes against
    the whole basis each step) from a fixed start vector, so the result is
    a deterministic function of the operator.  A Ritz pair (theta, y) of
    the k-step tridiagonal T = S diag(theta) S^T has residual
    |B y - theta y| = beta_k |s_kj|, and some eigenvalue of B lies within
    that of theta.  It need not be the extreme one; the consumer's proof
    settles that.
    """
    steps = min(LANCZOS_MAX_STEPS, n)
    Q = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    floor = LANCZOS_TOL * eig_slack(0.0)  # below every stopping tolerance
    for j in range(steps):
        z = matvec(Q[j])
        alpha[j] = Q[j] @ z
        z -= alpha[j] * Q[j]
        if j:
            z -= beta[j - 1] * Q[j - 1]
        for _ in range(2):
            z -= Q[:j + 1].T @ (Q[:j + 1] @ z)
        beta[j] = float(np.linalg.norm(z))
        k = j + 1
        if k % LANCZOS_CHECK_EVERY == 0 or k == steps or beta[j] <= floor:
            off = beta[:k - 1]
            theta, S = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1))
            lo, hi = float(theta[0]), float(theta[-1])
            resid = beta[j] * max(abs(S[-1, 0]), abs(S[-1, -1]))
            if k == steps or resid <= LANCZOS_TOL * eig_slack(max(abs(lo), abs(hi))):
                break
        Q[k] = z / beta[j]
    return lo, hi


def _adjacency_matvec(G: MultiGraph) -> Callable[[np.ndarray], np.ndarray] | None:
    """x -> A x for G's adjacency matrix, parallel edges counted, from its
    edge array; None below ITERATIVE_MIN_N vertices, where every estimate
    comes from eigvalsh."""
    if G.n < ITERATIVE_MIN_N:
        return None
    u, v = G.edge_array.T.copy()  # each endpoint column contiguous
    return lambda x: np.bincount(u, x[v], G.n) + np.bincount(v, x[u], G.n)


def proved_extreme(B: np.ndarray, side: str, err: float = 0.0,
                   matvec: Callable[[np.ndarray], np.ndarray] | None = None,
                   estimate: tuple[float, float] | None = None,
                   within: tuple[float, float] | None = None) -> float:
    """B's lambda_min ("min"), lambda_max ("max") or spectral norm ("norm")
    as estimated, once ``prove_side`` has shown lambda_min > t, lambda_max
    < t or |B|_2 < t for every symmetric matrix within ``err`` of B, t =
    proved_bound(value, side, (lo, hi)).

    (lo, hi) is the caller's ``estimate`` of B's extreme eigenvalues,
    proved as given; without one, Lanczos on ``matvec`` (an operator equal
    to B up to rounding) gives it, and ``eigvalsh(B)`` when there is no
    matvec or that value fails its proof.  ``within`` = (a, b) states that
    B's spectrum lies in [a, b]: (lo, hi) is clipped to it, the span is
    (a, b), and "min" is not proved where t <= a, as lambda_min >= a >= t
    holds there.
    """
    if estimate is None and matvec is not None:
        try:
            return proved_extreme(B, side, err, None, _lanczos_extremes(matvec, B.shape[0]), within)
        except EigensolverError:
            pass
    lo, hi = eigen_extremes(B) if estimate is None else estimate
    if within is not None:
        lo, hi = map(float, np.clip((lo, hi), *within))
    value = {"min": lo, "max": hi, "norm": max(abs(lo), abs(hi))}[side]
    t = proved_bound(value, side, within or (lo, hi))
    if within is None or side != "min" or t > within[0]:
        prove_side(B, side, t, err)
    return float(value)


def _lambda2_value(G: MultiGraph) -> float:
    """lambda_2 of G's normalized Laplacian, proved from below.

    L is formed in place in a fresh adjacency matrix, as 1 on the diagonal
    and -(a_ij s_i) s_j off it, s = 1/sqrt(d); only its lower triangle is
    read.  2 P0 = w w^T is added in place a block of rows at a time, each
    entry as fl(l_ij + fl(w_i w_j)), the rounding an added np.outer(w, w)
    would make, without its n x n temporary.  Against the exact L, each entry is off by at most 6.1u
    relatively, and |D^-1/2 A D^-1/2|_F <= sqrt(n); the entries of 2 w w^T
    by at most 7.3u relatively, |2 P0|_F = 2; adding the two rounds by at
    most u (|L|_F + 2) <= u (2 sqrt(n) + 2).  By Weyl's inequality the
    eigenvalues move by at most 16u (sqrt(n) + 2) in all.

    v0 = D^(1/2) 1 spans the kernel of L; adding 2 P0 = 2 v0 v0^T/|v0|^2
    moves its eigenvalue to 2 and keeps lambda_2..lambda_n <= 2, so the
    spectrum of L + 2 P0 lies in [0, 2] with extremes lambda_2 and 2.
    Without a matvec, lambda_2 is read off eigvalsh(L), second smallest.
    """
    degrees = np.array(G.degrees, dtype=float)
    if degrees.min() == 0:
        raise ValueError("normalized Laplacian requires no isolated vertices")
    n = G.n
    _check_dense(n)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    L = G.adjacency()
    L *= inv_sqrt[:, None]
    L *= -inv_sqrt[None, :]
    np.fill_diagonal(L, 1.0)  # no self-loops: a_ii = 0
    w = np.sqrt(degrees) * math.sqrt(2.0 / float(degrees.sum()))
    adjacency = _adjacency_matvec(G)
    if adjacency is None:
        matvec, estimate = None, (np.linalg.eigvalsh(L)[min(1, n - 1)], 2.0)
    else:
        matvec, estimate = lambda x: x - inv_sqrt * adjacency(inv_sqrt * x) + w * (w @ x), None
    for lo in range(0, n, _ROW_BLOCK):  # L += w w^T
        L[lo:lo + _ROW_BLOCK] += w[lo:lo + _ROW_BLOCK, None] * w
    return proved_extreme(L, "min", 16.0 * UNIT_ROUNDOFF * (math.sqrt(n) + 2.0),
                          matvec, estimate, LAPLACIAN_RANGE)


def demeaned_adjacency(G: MultiGraph) -> tuple[np.ndarray, float]:
    """A - (d_avg/n) J, formed in place in a fresh adjacency matrix of G,
    with a bound on its spectral-norm distance from the exact
    A - (2m/n^2) J.

    The float q = d_avg/n is off by at most 2u q and each entry
    fl(a_ij - q) by at most u |a_ij - q|, so each row of the error sums to
    at most u (d_max + 3 d_avg); for a symmetric error that bounds its
    spectral norm.  fl(a_ij - q) is exactly symmetric.
    """
    A = G.adjacency()
    A -= G.average_degree() / G.n
    return A, 4.0 * UNIT_ROUNDOFF * (max(G.degrees) + G.average_degree())


def demeaned_norm(G: MultiGraph) -> float:
    """Operator norm of A - (d_avg/n) J, multiplicities counted."""
    if G.m == 0:
        return 0.0
    _check_dense(G.n)
    Abar, err = demeaned_adjacency(G)
    adjacency, q = _adjacency_matvec(G), G.average_degree() / G.n
    matvec = None if adjacency is None else lambda x: adjacency(x) - q * x.sum()
    return proved_extreme(Abar, "norm", err, matvec)


def spectral_report(
    G: MultiGraph, laplacian: bool = True, demeaned: bool = True
) -> SpectralReport:
    """Measure degree statistics plus the requested spectral quantities."""
    lam2 = _lambda2_value(G) if laplacian else None
    norm = demeaned_norm(G) if demeaned else None
    return SpectralReport(G.n, G.m, min(G.degrees), max(G.degrees), G.average_degree(), lam2, norm)


def edge_expansion_lower_bound(report: SpectralReport, s: int) -> float:
    """Certified lower bound on e(S, S-complement) valid for every vertex
    set S with |S| = s whose volume is at most half the total volume,
    via the easy direction of the Cheeger inequality."""
    if s < 0:
        raise ValueError("set size must be nonnegative")
    return 0.5 * report.lambda2_bound * report.d_min * s


def mixing_interval(report: SpectralReport, s: float, t: float) -> tuple[float, float]:
    """Certified interval for e(S, T) over all |S| = s, |T| = t, from the
    expander mixing lemma with the measured de-meaned norm."""
    nu = report.norm_bound
    if s < 0 or t < 0:
        raise ValueError("set sizes must be nonnegative")
    if s == 0 or t == 0:
        return (0.0, 0.0)
    center = report.d_avg / report.n * s * t
    radius = nu * math.sqrt(s * t)
    return (center - radius, center + radius)


def symmetric_spectrum(M: np.ndarray, side: str, err: float = 0.0) -> tuple[np.ndarray, float]:
    """All eigenvalues of a symmetric matrix, ascending, and the bound
    ``proved_extreme`` proved on the extreme on ``side``: lambda_max <
    bound ("max") or lambda_min > bound ("min") for every symmetric matrix
    within ``err`` (spectral norm) of M's symmetric part.

    The proof charges |M - M^T|_F more to ``err``: twice the distance from
    the lower triangle the solvers read to M's symmetric part, the factor
    2 covering the rounding of computing it.  M is refused as not
    symmetric (ValueError) when |M - M^T|_F exceeds a quarter of
    eig_slack(|M|_F / sqrt(n)).  As |M|_F / sqrt(n) <= |M|_2, that is at
    most about a quarter of the slack s, so what passes the proof absorbs.
    """
    B = np.array(M, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("matrix must be square")
    _check_dense(B.shape[0])
    asym = float(np.linalg.norm(B - B.T))
    limit = eig_slack(float(np.linalg.norm(B)) / math.sqrt(max(B.shape[0], 1))) / 4.0
    if not asym <= limit:
        raise ValueError(f"matrix must be symmetric: |M - M^T|_F = {asym:.3g} exceeds {limit:.3g}")
    vals = np.linalg.eigvalsh(B)
    span = (vals[0], vals[-1])
    return vals, proved_bound(proved_extreme(B, side, err + asym, estimate=span), side, span)
