"""Sound upper bounds for sparse multilinear polynomials on the hypercube,
quasirandomness certification of signed hypergraphs, and the certified
implication from near-SAT-satisfaction to near-XOR-satisfaction.

Every bound returned here holds for *every* point of the hypercube; the
branches are elementary (absolute sums, quadratic-form norms, flattened
singular values) so soundness never rests on a probabilistic event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import CheckRecord
from .instances import Predicate, SignedHypergraph, csp_to_ksat, row_groups
from .jsonio import JsonRecord
from .spectral import UNIT_ROUNDOFF, eigen_extremes, prove_side

# Relative inflation applied to spectral branch values so LAPACK rounding
# can never push a reported bound below the true maximum.
SPECTRAL_REL_SLACK = 1e-11

# Dense flattening is used while the full coefficient tensor fits
# comfortably in memory; beyond that a Holder bound on sigma_max applies.
_DENSE_FLATTEN_LIMIT = 4_000_000


@dataclass(frozen=True, eq=False)
class SparsePolynomial:
    """Homogeneous degree-t multilinear polynomial sum_T w_T x^T with
    ordered index rows T in [n]^t (repeated indices allowed).

    ``keys`` is a read-only int64 array of shape (terms, t) and
    ``weights`` a read-only float64 array of one weight per row.  The
    constructor sums repeated rows: one term per distinct row, in order of
    first occurrence, its weights added in row order from 0.0."""

    n: int
    keys: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        keys = np.asarray(self.keys)
        weights = np.asarray(self.weights, dtype=np.float64)
        if keys.ndim != 2 or keys.dtype.kind not in "iu":
            raise ValueError("keys must be an integer array of shape (terms, degree), "
                             f"not {keys.dtype} {keys.shape}")
        if keys.shape[1] < 1:
            raise ValueError("degree must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if weights.shape != keys.shape[:1]:
            raise ValueError(f"{len(keys)} terms need one weight each, not {weights.shape}")
        bad = ((keys < 0) | (keys >= self.n)).any(axis=1)
        if bad.any():
            raise ValueError(f"term {tuple(keys[bad][0].tolist())} has an index out of range")
        if not np.isfinite(weights).all():
            raise ValueError("coefficients must be finite")
        keys = keys.astype(np.int64)
        first, group = row_groups(keys)
        keys, weights = keys[first], np.bincount(group, weights, len(first))
        keys.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "weights", weights)

    @property
    def degree(self) -> int:
        return self.keys.shape[1]


@dataclass(frozen=True)
class PolynomialBound:
    """A certified upper bound on max_x |p(x)|, with the winning branch."""

    value: float
    branch: str
    branches: dict[str, float] = field(compare=False)


def _abs_sum(p: SparsePolynomial) -> float:
    # in order from 0.0: np.sum's pairwise or math.fsum's exact sum would round differently
    return float(np.cumsum(np.abs(p.weights))[-1]) if len(p.weights) else 0.0


def _quadratic_norm_bound(p: SparsePolynomial) -> float:
    """n |W| for the symmetric W with x^T W x = p(x), the norm proved.

    The constructor leaves distinct ordered pairs as keys, so each entry
    off the diagonal sums at most two halves, w_ab/2 + w_ba/2, and rounds
    once; a diagonal entry is w_aa exactly.  So |W - W0|_2 <= |W - W0|_F
    <= 2u |W|_F, plus 2^-1074 for each coefficient below 2^-1021 in
    magnitude, whose halving can underflow.  Without such coefficients an
    all-zero W means the terms cancel exactly, and the bound is 0.

    The relative slack is SPECTRAL_REL_SLACK up to n = 105 and 8n(n+1)u
    beyond.  The norm is proved at half of it, which leaves room for the
    Cholesky proof's own margin of at most about 2n(n+1)u |W| (see
    ``spectral.prove_side``) and for the rounding of the product.
    """
    W = np.zeros((p.n, p.n))
    a, b = p.keys.T
    half = p.weights / 2.0
    np.add.at(W, (a, b), half)
    np.add.at(W, (b, a), half)
    underflows = int(np.count_nonzero((p.weights != 0.0) & (abs(p.weights) < 2.0**-1021)))
    if not underflows and not W.any():
        return 0.0
    u = UNIT_ROUNDOFF
    err = 2.0 * u * float(np.linalg.norm(W)) + underflows * math.ulp(0.0)
    norm = max(map(abs, eigen_extremes(W)))
    slack = max(SPECTRAL_REL_SLACK, 8.0 * p.n * (p.n + 1) * u)
    prove_side(W, "norm", norm * (1.0 + slack / 2.0), err)
    return p.n * norm * (1.0 + slack)


def _flatten_bound(p: SparsePolynomial) -> float:
    """n^(t/2) sigma_max of the flattened coefficient matrix.  The dense
    branch takes sigma_max from an SVD without proving it; the Holder
    branch is exact arithmetic on absolute sums."""
    t = p.degree
    a = (t + 1) // 2
    rows, cols = p.n**a, p.n ** (t - a)
    if not len(p.weights):
        sigma = 0.0
    elif rows * cols <= _DENSE_FLATTEN_LIMIT:
        # a key read as a base-n number is its entry's flat index: the
        # first ceil(t/2) indices give the row, the rest the column
        M = np.zeros(rows * cols)
        M[p.keys @ p.n ** np.arange(t - 1, -1, -1)] = p.weights
        sigma = float(np.linalg.svd(M.reshape(rows, cols), compute_uv=False)[0])
    else:
        # sigma_max <= sqrt(max row 1-norm * max column 1-norm)
        size = np.abs(p.weights)
        _, row = row_groups(p.keys[:, :a])
        _, col = row_groups(p.keys[:, a:])
        sigma = math.sqrt(np.bincount(row, size).max() * np.bincount(col, size).max())
    return p.n ** (t / 2.0) * sigma * (1.0 + SPECTRAL_REL_SLACK)


def refute_polynomial(p: SparsePolynomial) -> PolynomialBound:
    """Certified upper bound on max over the hypercube of |p(x)|, so it
    bounds -p as well as p.

    Always includes the absolute-coefficient-sum branch; degree 2 adds the
    quadratic-form bound n * ||W||, higher degrees add the flattening bound
    n^(t/2) * sigma_max.  Each bounds |p|.  The minimum across branches is
    returned.
    """
    branches = {"abs-sum": _abs_sum(p)}
    if p.degree == 2:
        branches["quadratic-norm"] = _quadratic_norm_bound(p)
    elif p.degree >= 3:
        branches["flatten"] = _flatten_bound(p)
    branch = min(branches, key=lambda name: branches[name])
    return PolynomialBound(branches[branch], branch, branches)


@dataclass(frozen=True)
class QuasirandomnessCertificate(JsonRecord):
    """Certified bounds on |D_hat(T)| of the local distribution, holding
    simultaneously for every assignment, for all nonempty T with |T| <= t.
    Both maps are keyed by T's clause positions joined by commas, as "0,2"."""

    t: int
    eps: float
    per_T_bounds: dict[str, float] = field(compare=False)
    branches: dict[str, str] = field(compare=False)

    def __post_init__(self) -> None:
        if self.per_T_bounds:
            worst = max(self.per_T_bounds.values())
            if abs(worst - self.eps) > 1e-12:
                raise ValueError("eps must equal the worst per-T bound")


def _coefficient_polynomial(
    I: SignedHypergraph, T: tuple[int, ...]
) -> SparsePolynomial:
    """The polynomial x -> D_hat_{I,x}(T), as a function of the assignment."""
    T = list(T)
    sign = I.signs[:, T].prod(axis=1)
    return SparsePolynomial(I.n, I.vars[:, T], sign * (1.0 / I.m))


def certify_quasirandom(I: SignedHypergraph, t: int) -> QuasirandomnessCertificate:
    """Certify that for every assignment x, all Fourier coefficients
    D_hat_{I,x}(T) with 0 < |T| <= t are at most eps in magnitude."""
    if I.m == 0:
        raise ValueError("cannot certify an empty instance")
    if not (1 <= t <= I.k - 1):
        raise ValueError(f"t must be in [1, k-1], got {t}")
    per_T: dict[str, float] = {}
    branches: dict[str, str] = {}
    for mask in range(1, 1 << I.k):
        T = tuple(i for i in range(I.k) if (mask >> i) & 1)
        if len(T) > t:
            continue
        poly = _coefficient_polynomial(I, T)
        bound = refute_polynomial(poly)
        # |D_hat(T)| <= 1 unconditionally, so the trivial bound caps it
        key = ",".join(map(str, T))
        per_T[key] = min(1.0, bound.value)
        branches[key] = bound.branch
    eps = max(per_T.values())
    return QuasirandomnessCertificate(t, eps, per_T, branches)


@dataclass(frozen=True)
class XorPrinciple:
    """Certified implication for a CSP instance I under a predicate P: every
    (1-eta)-satisfier of I under P violates at most an ``eta_x(eta)``
    fraction of the XOR clauses prod(x_S) = -prod(c) of ``instance``, I
    composed with P's first zero, once ``quasirandomness`` bounds the lower
    Fourier coefficients of its local distribution D by eps.

    A clause of ``instance`` is violated under kSAT where c o x_S is
    all-plus, so the violated fraction 2^-k sum_T D_hat(T) is at most eta
    and D_hat([k]) <= 2^k eta - 1 + (2^k - 2) eps.  The clauses with
    prod(c o x_S) = +1 make up (1 + D_hat([k])) / 2 of them.  Flipping
    every rhs changes no certificate that reads the XOR form (the counts
    and clusters hold for every signing, the balance step bounds |p|),
    so the readers take ``instance.to_xor()``.
    """

    instance: SignedHypergraph
    quasirandomness: QuasirandomnessCertificate

    def eta_x(self, eta: float) -> float:
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        scale = 2.0 ** (self.instance.k - 1)
        return scale * eta + (scale - 1.0) * self.quasirandomness.eps

    def max_eta(self, eta_x: float) -> float:
        """The largest eta whose ``eta_x(eta)`` stays at or under ``eta_x``
        in exact arithmetic; negative when the quasirandomness error alone
        exceeds it."""
        scale = 2.0 ** (self.instance.k - 1)
        return (eta_x - (scale - 1.0) * self.quasirandomness.eps) / scale

    def check(self, eta: float) -> CheckRecord:
        eta_x = self.eta_x(eta)
        return CheckRecord("xor-principle-nontrivial", eta_x, 1.0, eta_x < 1.0)


def kxor_principle(I: SignedHypergraph, P: Predicate) -> XorPrinciple:
    """The XOR principle for I under P: compose I with P's first zero and
    certify the composed instance's quasirandomness once."""
    if I.k < 3:
        raise ValueError("the XOR principle requires k >= 3")
    reduced = csp_to_ksat(I, P)
    return XorPrinciple(reduced, certify_quasirandom(reduced, I.k - 1))
