"""Eigenvalue computations and graph-spectrum certificates.

Every certificate downstream consumes *measured* spectral quantities from
these routines, never high-probability thresholds; the thresholds only
gate whether a nontrivial bound is attempted.

Each consumed number is ``proved_bound``: an estimate shifted by
``eig_slack`` in the direction its consumer reads it, then *proved*.
``prove_side`` is the one proof: a Cholesky factorization of the shifted
matrix, with a margin that covers its own rounding and the rounding made
while forming the matrix.  ``proved_extreme`` is the one step from an
estimate to a recorded, proved value: it takes the caller's proof and the
estimates to try in order.  An estimate comes from ``np.linalg.eigvalsh``,
except that graphs with at least ``ITERATIVE_MIN_N`` vertices first try
Lanczos on a sparse matrix-vector product (``_lanczos_extremes``) and
fall back to ``eigvalsh`` only when that estimate fails its proof.  The
Lanczos run is the bare three-term recurrence, which keeps two vectors
and no basis: its vectors lose orthogonality in floating point, but its
extreme Ritz values still converge (C. C. Paige, Linear Algebra Appl. 34,
1980), and an estimate they spoil fails its proof.  Where an estimate
comes from never decides soundness: the proof does, and only of the side
its consumer reads.  A failed proof of the last estimate raises
``EigensolverError``.

Consumers and the side each one proves:

* ``SpectralReport.lambda2_bound``, "min" within ``LAPLACIAN_RANGE`` on
  L + 2 v0 v0^T / |v0|^2, v0 = D^(1/2) 1: the Cheeger cut bound
  ``edge_expansion_lower_bound`` of the 2XOR count base case;
* ``SpectralReport.norm_bound`` t, "max" at fl(t t) on (A - (2m/n^2) J)^2
  for a graph with at most n^2 neighbour pairs (the sum of d_v^2), else
  "norm" at t on A - (2m/n^2) J: ``mixing_interval`` (cluster and 3CSP
  balance certificates) and ``geometry.refute_biased_2xor_family`` (kXOR
  and kCSP balance);
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

from .instances import MultiGraph
from .jsonio import JsonRecord

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
        # B.T's upper triangle is B's lower one, read through a contiguous copy
        R = np.linalg.cholesky(B.T, upper=True)
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

    Lanczos by the three-term recurrence beta_j q_(j+1) = B q_j - alpha_j
    q_j - beta_(j-1) q_(j-1), keeping only the last two vectors, from a
    fixed start vector, so the result is a deterministic function of the
    operator.  A Ritz pair (theta, y) of the k-step tridiagonal T = S
    diag(theta) S^T has residual |B y - theta y| = beta_k |s_kj|, and
    some eigenvalue of B lies within that of theta.  It need not be the
    extreme one, and in floating point the q_j lose orthogonality as Ritz
    values converge, which repeats converged values in T but leaves the
    extreme ones accurate (C. C. Paige, "Accuracy and effectiveness of the
    Lanczos algorithm for the symmetric eigenproblem", Linear Algebra
    Appl. 34, 1980).  Neither can make a certificate wrong: the consumer's
    Cholesky proof decides, and a failed proof falls back to eigvalsh.
    """
    steps = min(LANCZOS_MAX_STEPS, n)
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(n)
    floor = LANCZOS_TOL * eig_slack(0.0)  # below every stopping tolerance
    for j in range(steps):
        z = matvec(q)
        alpha[j] = q @ z
        z -= alpha[j] * q
        if j:
            z -= beta[j - 1] * q_prev
        beta[j] = float(np.linalg.norm(z))
        k = j + 1
        if k % LANCZOS_CHECK_EVERY == 0 or k == steps or beta[j] <= floor:
            off = beta[:k - 1]
            theta, S = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1))
            lo, hi = float(theta[0]), float(theta[-1])
            resid = beta[j] * max(abs(S[-1, 0]), abs(S[-1, -1]))
            if k == steps or resid <= LANCZOS_TOL * eig_slack(max(abs(lo), abs(hi))):
                break
        q_prev, q = q, z / beta[j]
    return lo, hi


def _adjacency_matvec(G: MultiGraph) -> Callable[[np.ndarray], np.ndarray] | None:
    """x -> A x for G's adjacency matrix, parallel edges counted, from its
    edge array; None below ITERATIVE_MIN_N vertices, where every estimate
    comes from eigvalsh."""
    if G.n < ITERATIVE_MIN_N:
        return None
    u, v = G.edge_array.T.copy()  # each endpoint column contiguous
    return lambda x: np.bincount(u, x[v], G.n) + np.bincount(v, x[u], G.n)


def proved_extreme(side: str, prove: Callable[[float], None],
                   *estimates: Callable[[], tuple[float, float]],
                   within: tuple[float, float] | None = None) -> float:
    """A lambda_min ("min"), lambda_max ("max") or spectral norm ("norm")
    as estimated, once ``prove(t)`` has shown lambda_min > t, lambda_max <
    t or norm < t, t = proved_bound(value, side, (lo, hi)).

    Each estimate returns (lo, hi), estimates of the extreme eigenvalues;
    they are tried in order until one passes its proof, and the last one's
    EigensolverError propagates.  ``within`` = (a, b) states that the
    spectrum lies in [a, b]: (lo, hi) is clipped to it, the span is (a, b),
    and "min" is not proved where t <= a, as lambda_min >= a >= t holds
    there.
    """
    *fallible, last = estimates
    for estimate in fallible:
        try:
            return proved_extreme(side, prove, estimate, within=within)
        except EigensolverError:
            pass
    lo, hi = last()
    if within is not None:
        lo, hi = map(float, np.clip((lo, hi), *within))
    value = {"min": lo, "max": hi, "norm": max(abs(lo), abs(hi))}[side]
    t = proved_bound(value, side, within or (lo, hi))
    if within is None or side != "min" or t > within[0]:
        prove(t)
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
    Below ITERATIVE_MIN_N vertices, lambda_2 is read off eigvalsh(L), second smallest.
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
        estimate = (np.linalg.eigvalsh(L)[min(1, n - 1)], 2.0)
        estimates = (lambda: estimate,)
    else:
        matvec = lambda x: x - inv_sqrt * adjacency(inv_sqrt * x) + w * (w @ x)
        estimates = (lambda: _lanczos_extremes(matvec, n), lambda: eigen_extremes(L))
    for lo in range(0, n, _ROW_BLOCK):  # L += w w^T
        L[lo:lo + _ROW_BLOCK] += w[lo:lo + _ROW_BLOCK, None] * w
    err = 16.0 * UNIT_ROUNDOFF * (math.sqrt(n) + 2.0)
    return proved_extreme("min", lambda t: prove_side(L, "min", t, err), *estimates,
                          within=LAPLACIAN_RANGE)


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


def _adjacency_square(G: MultiGraph) -> np.ndarray:
    """A^2 for G's adjacency matrix A, parallel edges counted, exactly:
    each vertex v adds a_iv a_vj at (i, j) for every pair (i, j) of its
    distinct neighbours, the multiplicities as integer weights summed
    straight into a float64 matrix."""
    n, E = G.n, G.edge_array
    keys, mult = np.unique(np.concatenate((E[:, 0] * n + E[:, 1], E[:, 1] * n + E[:, 0])),
                           return_counts=True)
    vertex, nbr = np.divmod(keys, n)  # each vertex's distinct neighbours, one run
    k = np.bincount(vertex, minlength=n)
    run, start = k[vertex], (np.cumsum(k) - k)[vertex]  # of each entry's run
    left = np.repeat(np.arange(len(keys)), run)  # entry e once per entry of its run
    right = np.arange(len(left)) - np.repeat(np.cumsum(run) - run - start, run)
    weights = (mult[left] * mult[right]).astype(float)
    # an empty bincount is int64 whatever its weights; no other is copied
    square = np.bincount(nbr[left] * n + nbr[right], weights, n * n).astype(float, copy=False)
    return square.reshape(n, n)


def demeaned_square(G: MultiGraph) -> tuple[np.ndarray, float]:
    """(A - (d_avg/n) J)^2 = A^2 - w 1^T - 1 w^T, w = q (d - d_avg/2),
    q = d_avg/n, with a bound on its spectral-norm distance from the
    exact square at q = 2m/n^2.

    A^2 is exact, and each entry is fl(a2_ij - fl(w_i + w_j)), exactly
    symmetric.  w_i is off by at most 5u q (d_i + d_avg), so with the
    rounding of the sum and the difference each entry is off by at most
    u (a2_ij + 8 q (d_i + d_j + 2 d_avg)).  A row of A^2 sums to
    sum_k a_ik d_k <= d_i d_max, so each row of the error sums to at most
    u (d_i d_max + 8 d_avg (d_i + 3 d_avg)) <= u d_max (d_max + 32 d_avg);
    for a symmetric error that bounds its spectral norm.
    """
    n, d_avg = G.n, G.average_degree()
    degrees = np.array(G.degrees)
    C = _adjacency_square(G)
    w = d_avg / n * (degrees - d_avg / 2.0)
    for lo in range(0, n, _ROW_BLOCK):  # C -= w 1^T + 1 w^T
        C[lo:lo + _ROW_BLOCK] -= w[lo:lo + _ROW_BLOCK, None] + w
    d_max = float(degrees.max())
    return C, UNIT_ROUNDOFF * d_max * (d_max + 32.0 * d_avg)


def demeaned_norm(G: MultiGraph) -> float:
    """Operator norm of A - (d_avg/n) J, multiplicities counted.

    The value is ``proved_extreme``'s for "norm".  A graph with at most
    n^2 neighbour pairs (sum of d_v^2) proves |Abar|_2 < t in one
    factorization, as lambda_max < fl(t t) on ``demeaned_square``, Abar^2
    >= 0 making that one side the whole claim; u fl(t t) more in err covers
    the rounding of t t, and Abar is built only for an eigvalsh estimate.
    Past n^2 pairs, assembling A^2 costs more than the second factorization
    it saves, and the proof is "norm" on Abar.
    """
    if G.m == 0:
        return 0.0
    _check_dense(G.n)
    if sum(d * d for d in G.degrees) > G.n**2:
        Abar, err = demeaned_adjacency(G)
        prove = lambda t: prove_side(Abar, "norm", t, err)
        dense = lambda: eigen_extremes(Abar)
    else:
        C, err = demeaned_square(G)
        prove = lambda t: prove_side(C, "max", t * t, err + UNIT_ROUNDOFF * (t * t))
        dense = lambda: eigen_extremes(demeaned_adjacency(G)[0])
    adjacency, q = _adjacency_matvec(G), G.average_degree() / G.n
    if adjacency is None:
        return proved_extreme("norm", prove, dense)
    lanczos = lambda: _lanczos_extremes(lambda x: adjacency(x) - q * x.sum(), G.n)
    return proved_extreme("norm", prove, lanczos, dense)


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


def mixing_interval(
    report: SpectralReport, s: float | np.ndarray, t: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Certified interval for e(S, T) over all |S| = s, |T| = t, from the
    expander mixing lemma with the measured de-meaned norm; s and t may be
    arrays of sizes, giving arrays of bounds.  An empty S or T gets (0, 0)."""
    nu = report.norm_bound
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("set sizes must be nonnegative")
    center = report.d_avg / report.n * s * t
    radius = nu * np.sqrt(s * t)
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
    value = proved_extreme(side, lambda t: prove_side(B, side, t, err + asym), lambda: span)
    return vals, proved_bound(value, side, span)
