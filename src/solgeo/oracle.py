"""Exact ground-truth computations: exhaustive enumeration, GF(2)
elimination, and independent-set counts by size, meeting in the middle.
These validate certificates and are never on the certification path.

Enumeration encodes an assignment as an integer index whose bit i is set
exactly when x_i == -1, so Hamming distances are popcounts of XORs.  The
oracles read an instance's arrays; every violation profile, of a CSP or
of an XOR instance, is one integer Walsh-Hadamard transform (n <= 24).
Both quadratic-form oracles, SK and subspace, screen the half x_{n-1} = +1
of the hypercube at once, meeting in the middle from two small sign
tables, and recompute with ``math.fsum`` only the x too close to call.

``PAIRINGS`` is the one table of certificate kinds: for each, the record
that reads it, the oracle that checks it, the verdict and the number a
sweep row records; ``certificate_from_json`` reads a file through it.
``SweepRow`` is the record of a sweep's output line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np

from .certificates import (BalanceCertificate, ClusterCertificate, CountCertificate,
                           DeclinedBalance, RefutationCertificate)
from .instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    XorInstance,
    rendered_doc,
    row_groups,
    violation_budget,
)
from .jsonio import JsonRecord, decode, decode_field, sha256_of

# ``violation_profile`` adds blocks of < 2^_TERMS_BITS Fourier terms (one T if m is larger)
_TERMS_BITS = 18


@dataclass(frozen=True)
class OracleResult(JsonRecord):
    """Exact value of an oracle computation plus bookkeeping: the hash of
    the instance, computed the way the matching certificates bind it, and
    the parameters the value depends on.  A bookkeeping field left None
    is left out of the JSON; ``runtime_ms`` is set only by a timed run."""

    kind: str
    exact_value: object
    enumeration_size: int
    runtime_ms: float | None = field(default=None, compare=False)
    instance_sha256: str | None = None
    eta: float | None = None
    theta: float | None = None
    threshold_size: int | None = None


def clause_masks(V: np.ndarray) -> list[int]:
    """For each row of ``V``, the bits of the variables it holds an odd
    number of times (a repeated pair cancels), as exact Python ints: a
    fixed-width mask would wrap past n = 64."""
    return np.bitwise_xor.reduce(1 << V.astype(object), axis=1).tolist()


def _enumerable(n: int) -> int:
    """The number 2^n of assignments of n variables, if n <= 24."""
    if n > 24:
        raise ValueError("enumeration limited to n <= 24")
    return 1 << n


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Transform the contiguous length-2^k array ``a`` in place to
    sum_x a[x] * (-1)^|x & T| at each index T, and return it; exact on an
    integer array."""
    h = 1
    while h < len(a):
        pairs = a.reshape(-1, 2, h)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
        h *= 2
    return a


def violation_profile(
    I: SignedHypergraph | XorInstance, P: Predicate | None = None
) -> np.ndarray:
    """Exact per-assignment violation counts (a 2^n int32 array) of a CSP
    instance under P, or of an XOR instance as its signed embedding under
    the parity predicate (P is then ignored).

    With F the integer transform of 1 - P, 2^k (1 - P(z)) is the sum of
    F(T) chi_T(z); a clause (c, S) puts F(T) chi_T(c) at the mask of S
    restricted to T, and one transform of the sums is 2^k times the
    profile.  The masks and sign products of all T over the low columns
    are built by doubling, once; each block of T shares its high columns'
    mask and product."""
    if isinstance(I, XorInstance):
        I, P = I.to_signed(), Predicate.parity(I.k)
    elif P is None:
        raise ValueError("a predicate is required for signed instances")
    if P.k != I.k:
        raise ValueError("predicate arity does not match instance")
    F = _walsh_hadamard(1 - np.array(P.table, dtype=np.int64))
    terms = np.zeros(_enumerable(I.n), dtype=np.int64)
    bits, signs = np.left_shift(1, I.vars, dtype=np.int64), I.signs.astype(np.int64)
    low = min(I.k, max(0, _TERMS_BITS - I.m.bit_length()))
    masks, products = np.zeros((1, I.m), dtype=np.int64), np.ones((1, I.m), dtype=np.int64)
    for i in range(low):
        masks = np.concatenate((masks, masks ^ bits[:, i]))
        products = np.concatenate((products, products * signs[:, i]))
    for block in range(1 << (I.k - low)):
        high = [low + i for i in range(I.k - low) if block >> i & 1]
        f = F[block << low:(block + 1) << low]
        T = np.flatnonzero(f)
        weights = f[T, None] * products[T] * signs[:, high].prod(axis=1)
        np.add.at(terms, masks[T] ^ np.bitwise_xor.reduce(bits[:, high], axis=1), weights)
    return np.right_shift(_walsh_hadamard(terms), I.k, out=terms).astype(np.int32)


def _satisfiers(I: SignedHypergraph | XorInstance, P: Predicate | None, eta: float) -> np.ndarray:
    """The ascending uint64 indices of the assignments violating at most
    ``violation_budget(eta, I.m)`` clauses."""
    within = violation_profile(I, P) <= violation_budget(eta, I.m)
    return np.flatnonzero(within).astype(np.uint64)


def gaussian_count(I: XorInstance) -> int:
    """Exact count of exactly-satisfying assignments over GF(2):
    0 if inconsistent, else 2^(n - rank)."""
    pivots: dict[int, tuple[int, bool]] = {}
    for mask, odd in zip(clause_masks(I.vars), (I.rhs == -1).tolist()):
        while mask and (top := mask.bit_length() - 1) in pivots:
            pmask, podd = pivots[top]
            mask ^= pmask
            odd ^= podd
        if mask:
            pivots[top] = (mask, odd)
        elif odd:
            return 0
    return 1 << (I.n - len(pivots))


def brute_count(I: SignedHypergraph | XorInstance, P: Predicate | None, eta: float) -> OracleResult:
    """Exact count of (1-eta)-satisfying assignments: by GF(2) elimination,
    at any n, for an XOR instance, or a CSP instance under the parity
    predicate (clause (c, S) demanding prod(x[S]) == prod(c)), none of
    whose clauses may be violated; by full enumeration otherwise.  The
    count of an XOR instance binds its hypergraph, as count certificates,
    which hold for every signing, do; a CSP instance's binds itself."""
    if I.m == 0:
        raise ValueError("cannot count satisfiers of an empty instance")
    if violation_budget(eta, I.m) == 0 and (
            isinstance(I, XorInstance) or P == Predicate.parity(I.k)):
        count = gaussian_count(I if isinstance(I, XorInstance) else I.to_xor())
    else:
        count = len(_satisfiers(I, P, eta))
    bound = I.hypergraph() if isinstance(I, XorInstance) else I
    return OracleResult("count", count, 1 << I.n, instance_sha256=bound.sha256(), eta=float(eta))


def _pairwise_distance_histogram(solutions: np.ndarray) -> dict[str, int]:
    """Number of solution pairs at each Hamming distance, keyed by the
    distance in decimal, in increasing order."""
    hist = np.zeros(65, dtype=np.int64)  # an int64 word differs in at most 64 bits
    for i in range(len(solutions)):
        hist += np.bincount(np.bitwise_count(solutions[i + 1:] ^ solutions[i]), minlength=65)
    return {str(dist): int(hist[dist]) for dist in np.flatnonzero(hist)}


def _greedy_cover(solutions: np.ndarray, radius: float) -> int:
    remaining = solutions
    covers = 0
    while len(remaining):
        rep = remaining[0]
        covers += 1
        dist = np.bitwise_count(remaining ^ rep)
        remaining = remaining[dist > radius + 1e-9]
    return covers


def brute_clusters(I: XorInstance, eta: float, theta: float) -> OracleResult:
    """Exact pairwise-distance profile of the (1-eta)-satisfiers plus the
    greedy count of radius-(theta n) balls needed to cover them."""
    if I.n > 14:
        raise ValueError("cluster enumeration limited to n <= 14")
    if not 0.0 <= theta <= 0.5:
        raise ValueError(f"theta must lie in [0, 1/2], got {theta!r}")
    solutions = _satisfiers(I, None, eta)
    profile = {
        "n": I.n,
        "num_solutions": int(len(solutions)),
        "distance_histogram": _pairwise_distance_histogram(solutions),
        "cover_count": _greedy_cover(solutions, theta * I.n),
    }
    return OracleResult("clusters", profile, 1 << I.n, instance_sha256=I.hypergraph().sha256(),
                        eta=float(eta), theta=float(theta))


def brute_max_bias(
    I: SignedHypergraph | XorInstance, P: Predicate | None, eta: float
) -> OracleResult:
    """Maximum bias over all (1-eta)-satisfiers; None if there are none."""
    if I.m == 0:
        raise ValueError("cannot scan satisfiers of an empty instance")
    solutions = _satisfiers(I, P, eta)
    if len(solutions) == 0:
        value = None
    else:
        ones = np.bitwise_count(solutions).astype(np.int64)
        value = float(np.max(np.abs(I.n - 2 * ones)) / I.n)
    return OracleResult("max-bias", value, 1 << I.n, instance_sha256=I.sha256(), eta=float(eta))


def _signs(index: np.ndarray, cols: int) -> np.ndarray:
    """The rows x_j = 1 - 2 (bit j of each index), j < cols, as floats."""
    return 1.0 - 2.0 * ((index[:, None] >> np.arange(cols)) & 1)


def _grid_parts(G: np.ndarray) -> list[np.ndarray]:
    """G as a sum of parts, each of multiples of one power of two 2^e whose
    |entries| sum below 2^(e+53), so that any signed sum of a part's
    entries, added in any order, is exact.  Each part rounds what is left
    of G to multiples of 2^e, about 2^-52 sum|rest|; the remainder is exact
    and at most 2^(e-1) an entry, so a part adds about 43 bits at n = 18.
    One part suffices when G is itself such a grid (an integer G with
    sum|G_ij| < 2^52, say); a GOE matrix takes two."""
    parts, rest = [], G
    while not parts or rest.any():
        e = max(math.frexp(float(np.abs(rest).sum()))[1] - 52, -1074)
        parts.append(np.ldexp(np.rint(np.ldexp(rest, -e)), e))
        rest = rest - parts[-1]
    return parts


def _screen(G: np.ndarray) -> tuple[np.ndarray, float, Callable[..., np.ndarray]]:
    """A screen V of x^T G x over the half-cube x_{n-1} = +1 (G finite,
    n >= 1), its error bound w, and ``exact(index, shift)``: each indexed
    x's correctly rounded x^T G x + shift, in the order of ``index``.

    V meets in the middle: with A the low p = (n-1)//2 variables and B the
    rest (x_{n-1} among them), V[a, b] = a^T G_AA a + b^T G_BB b
    + a^T (G_AB + G_BA^T) b for all 2^(n-1) x at once, from two sign tables,
    four small matrix products and two broadcast adds; x's index is
    a + (b << p).

    The bound w.  V adds the n^2 terms +-G_ij through a tree of float
    additions, in whatever order BLAS takes (a product with +-1 is exact,
    fused or not).  A term meets at most d = n + 2 roundings: a sum of k
    values meets at most k - 1, so at most 2(n-p-1) <= n inside a
    quadratic form (n - 2 inside the cross term, plus one forming
    G_AB + G_BA^T), and two adding the three forms.  Each rounding is a
    factor (1 + delta), |delta| <= u = 2^-53, so |V - x^T G x| <= gamma_d
    sum|G_ij| with gamma_d = d u / (1 - d u) (Higham, Lemma 3.1).
    w = 2^-52 (n+2) sum|G_ij| is about twice that; the spare half covers
    the rounding of the sum, of w, and of a level L +- w (|opt| <=
    sum|G_ij|, and an L beyond 2 sum|G_ij| is far from every V).  So an x
    with V <= opt - w cannot beat opt, and the sign of x^T G x - L is V's
    outside [L - w, L + w].  When G is one grid part (``_grid_parts``; an
    integer G, say) no addition rounds and w = 0.

    The recheck.  x^T P x of each grid part P is computed exactly, so the
    ``math.fsum`` of the parts' values is the correctly rounded x^T G x.
    The x with equal part values share one fsum: x tied by G's structure
    (every x under a diagonal G) cost one fsum together."""
    n = G.shape[0]
    parts = _grid_parts(G)
    w = 0.0 if len(parts) == 1 else 2.0**-52 * (n + 2) * float(np.abs(G).sum())
    p = (n - 1) // 2
    SA, SB = _signs(np.arange(1 << p), p), _signs(np.arange(1 << (n - 1 - p)), n - p)
    GAA, GAB, GBA, GBB = G[:p, :p], G[:p, p:], G[p:, :p], G[p:, p:]
    qa = np.einsum("ij,ij->i", SA @ GAA, SA)
    qb = np.einsum("ij,ij->i", SB @ GBB, SB)
    V = (SB @ (GAB.T + GBA)) @ SA.T
    V += qb[:, None]  # in place: a fresh 2^(n-1) temporary costs more than the product
    V += qa

    def exact(index: np.ndarray, shift: float = 0.0) -> np.ndarray:
        X = _signs(index, n)
        values = np.stack([np.einsum("ij,ij->i", X @ P, X) for P in parts], axis=1)
        first, group = row_groups(values)
        sums = [math.fsum([*row, shift]) for row in values[first].tolist()]
        return np.array(sums)[group]

    return V.ravel(), w, exact


def _count_at_least(V: np.ndarray, w: float, exact: Callable[..., np.ndarray], L: float) -> int:
    """The exact number of half-cube x with x^T G x >= L, from ``_screen(G)``."""
    above = V > L + w
    near = np.flatnonzero((V >= L - w) & ~above)
    return int(np.count_nonzero(above)) + int(np.count_nonzero(exact(near, -L) >= 0.0))


def brute_sk_opt_and_count(G: np.ndarray, eta: float) -> OracleResult:
    """The max of x^T G x over the hypercube and the exact number of x with
    x^T G x >= T = 2 (1-eta) n^(3/2) - 1e-9: the half-cube's, x_{n-1} = +1,
    whose count is doubled, as x^T G x of -x equals that of x.  ``opt`` is
    the correctly rounded maximum of x^T G x; neither value depends on how
    a BLAS kernel orders its sums (``_screen``)."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if not 1 <= n <= 18:
        raise ValueError("SK enumeration limited to 1 <= n <= 18")
    if not math.isfinite(float(np.abs(G).sum())):
        raise ValueError("SK enumeration needs finite entries")
    V, w, exact = _screen(G)
    best = float(exact(V.argmax(keepdims=True))[0])
    best = max(best, float(exact(np.flatnonzero(V > best - w)).max(initial=best)))
    count = _count_at_least(V, w, exact, 2.0 * (1.0 - eta) * n**1.5 - 1e-9)
    return OracleResult("sk", {"opt": best, "count": 2 * count}, 1 << n,
                        instance_sha256=sha256_of(rendered_doc(G)), eta=float(eta))


def _subsets(nbr: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every subset S of the vertices lo..hi-1, indexed by its bits
    shifted down by lo: whether S is independent, |S|, and the union of
    its members' neighbour masks ``nbr``; built by doubling."""
    independent, size, union = np.ones(1, bool), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for v in range(lo, hi):
        independent = np.concatenate((independent, independent & (union >> v & 1 == 0)))
        size = np.concatenate((size, size + 1))
        union = np.concatenate((union, union | nbr[v]))
    return independent, size, union


def _size_distribution(G: MultiGraph) -> np.ndarray:
    """The number of independent sets of G of each size 0..n, by meeting in
    the middle: with f[M, s] the number of independent s-subsets of the
    upper half inside M (one subset-sum transform), each independent S of
    the lower half adds f[upper half minus N(S)], shifted by |S|.  A
    repeated edge is one adjacency (``MultiGraph`` holds no loops)."""
    n = G.n
    if n > 26:
        raise ValueError("independent-set enumeration limited to n <= 26")
    u, v = G.edge_array.T
    nbr = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(nbr, np.concatenate((u, v)), np.left_shift(1, np.concatenate((v, u))))
    a, b = n // 2, n - n // 2
    low, low_size, low_nbr = _subsets(nbr, 0, a)
    high, high_size, _ = _subsets(nbr, a, n)
    f = np.zeros((1 << b, b + 1), dtype=np.int64)
    f[np.flatnonzero(high), high_size[high]] = 1
    for i in range(b):
        pairs = f.reshape(-1, 2, 1 << i, b + 1)
        pairs[:, 1] += pairs[:, 0]
    rows = f[(~low_nbr[low] >> a) & ((1 << b) - 1)]  # the upper half minus N(S)
    dist = np.zeros(n + 1, dtype=np.int64)
    np.add.at(dist, low_size[low, None] + np.arange(b + 1), rows)
    return dist


def brute_independent_sets(G: MultiGraph, size_threshold: int) -> OracleResult:
    """Independence number plus the exact count of independent sets of size
    at least ``size_threshold``."""
    if size_threshold <= 0:
        raise ValueError("size threshold must be positive")
    dist = _size_distribution(G)
    value = {"alpha": int(np.flatnonzero(dist)[-1]), "count": int(dist[size_threshold:].sum())}
    return OracleResult("indset", value, 1 << G.n, instance_sha256=G.sha256(),
                        threshold_size=size_threshold)


def brute_subspace_count(basis: np.ndarray, eps: float) -> int:
    """Exact count of the y = x / sqrt(n), x in {-1, 1}^n, at squared
    distance at most eps^2 + 2e-12 from the span of the basis columns:
    with Q an orthonormal basis of it (a rank-revealing SVD), the x with
    x^T P x >= n (1 - eps^2) - 2e-12 n for P = fl(Q Q^T), by ``_screen``
    over the half-cube, doubled.  The tolerance was once 1e-12 on the
    distance, 2e-12 eps + 1e-24 squared; for every eps >= 0 this set holds
    that one in exact arithmetic, the safe side for an upper bound (and a
    float square root had made 1e-16 of rounding 1e-8: 0 of 256 at eps = 0)."""
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    if not 1 <= n <= 20:
        raise ValueError("subspace enumeration limited to 1 <= n <= 20")
    if not eps >= 0:
        raise ValueError(f"eps must be a distance, at least 0, got {eps!r}")
    if basis.size == 0 or basis.shape[1] == 0:
        Q = np.zeros((n, 0))
    else:
        # rank-revealing orthonormalization: plain QR would silently widen
        # the span of a rank-deficient basis
        U, s, _ = np.linalg.svd(basis, full_matrices=False)
        Q = U[:, s > 1e-10 * s.max()]
    return 2 * _count_at_least(*_screen(Q @ Q.T), n * (1.0 - eps * eps) - 2e-12 * n)


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

SOUND = "sound"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"


def _exact(value, hint, key: str | None = None, where: str = "oracle exact_value"):
    """``value``, the field named ``where`` (its entry ``key``, if given),
    read as ``hint``; ValueError naming it otherwise."""
    return decode(value, hint, where) if key is None else decode_field(value, key, hint, where)


def _count_verdict(key: str | None = None) -> Callable[[object, object], str]:
    """The verdict on a count bound: sound unless the oracle's count (its
    entry ``key``) exceeds 2^log2_bound."""
    def verdict(cert, value) -> str:
        count = _exact(value, int, key)
        return SOUND if count <= 0 or math.log2(count) <= cert.log2_bound + 1e-9 else VIOLATED
    return verdict


def _cluster_verdict(cert, data) -> str:
    histogram = _exact(data, dict[str, int], "distance_histogram")
    if not all(map(str.isdecimal, histogram)):
        raise ValueError(f"oracle exact_value field 'distance_histogram' holds "
                         f"{histogram!r:.40}, not counts keyed by distance")
    cover_count = _exact(data, int, "cover_count")
    if cert.fallback:
        return SOUND
    theta_n = cert.theta * cert.n
    lo, hi = cert.gap_interval
    for dist_str, cnt in histogram.items():
        d = int(dist_str)
        if cnt and not (d <= theta_n + 1e-9 or (lo - 1e-9 <= d <= hi + 1e-9)):
            return VIOLATED
    if cover_count > 2.0**cert.log2_cluster_bound * (1 + 1e-9):
        return VIOLATED
    return SOUND


def _balance_verdict(cert, max_bias) -> str:
    max_bias = _exact(max_bias, float | None)
    if max_bias is None:
        return SOUND
    return SOUND if max_bias < cert.rho - 1e-12 else VIOLATED


@dataclass(frozen=True)
class Pairing:
    """One certificate kind: the record that reads it, the kind of oracle
    result that holds its ground truth (None for a kind that carries no
    claim), the parameters the two must share, the verdict on the
    oracle's exact value, and the number a sweep row records from it."""

    record: type
    oracle_kind: str | None = None
    parameters: Callable[[object], dict] = lambda cert: {}
    verdict: Callable[[object, object], str] | None = None
    value: Callable[[object], object] = lambda exact_value: exact_value


def _eta(cert) -> dict:
    return {"eta": cert.eta}


PAIRINGS = {
    "count": Pairing(CountCertificate, "count", _eta, _count_verdict()),
    "sk-count": Pairing(CountCertificate, "sk", _eta, _count_verdict("count"), itemgetter("count")),
    "indset-count": Pairing(
        CountCertificate, "indset",
        lambda c: {"threshold_size": _exact(c.transcript, int, "threshold_size",
                                            "certificate transcript")},
        _count_verdict("count"), itemgetter("count"),
    ),
    "clusters": Pairing(ClusterCertificate, "clusters", lambda c: {"eta": c.eta, "theta": c.theta},
                        _cluster_verdict, itemgetter("num_solutions")),
    "balance": Pairing(BalanceCertificate, "max-bias", _eta, _balance_verdict),
    DeclinedBalance.kind: Pairing(DeclinedBalance),
    "refutation": Pairing(
        RefutationCertificate, "count", lambda c: {"eta": c.eta_refuted},
        lambda c, v: SOUND if _exact(v, int) == 0 else VIOLATED,
    ),
    "indset-refutation": Pairing(
        RefutationCertificate, "indset", lambda c: {},
        lambda c, v: SOUND if _exact(v, int, "alpha") < _exact(
            c.evidence, int, "refuted_size", "certificate evidence") else VIOLATED,
    ),
}


@dataclass(frozen=True)
class SweepRow(JsonRecord):
    """One line of a sweep's rows file: the grid cell and seed, the
    certificate's summary, the number its pairing records from the oracle
    and whether the verdict was sound (both None where no oracle ran), and
    the cell's resume key.  Every field is required; ``sweep --csv`` reads
    the rows through it and ``schemas.SWEEP_ROW`` is derived from it."""

    cell: dict
    seed: int
    result: dict
    oracle: object
    sound: object
    cell_hash: str


def certificate_from_json(d: dict):
    """Load any certificate JSON dict into the record of its kind."""
    kind = d.get("kind")
    pairing = PAIRINGS.get(kind) if isinstance(kind, str) else None
    if pairing is None:
        raise ValueError(f"unrecognized certificate kind {kind!r}")
    return pairing.record.from_json_dict(d)


def verify_certificate(cert, oracle: OracleResult) -> str:
    """Compare a certificate against an exact oracle result.

    Returns "sound", "violated" (must never happen), or "inapplicable"
    when the kinds do not match.  Whether the two describe the same
    instance and parameters is ``binding_mismatch``'s question.
    """
    pairing = PAIRINGS.get(cert.kind)
    if pairing is None or pairing.oracle_kind != oracle.kind:
        return INAPPLICABLE
    return pairing.verdict(cert, oracle.exact_value)


def binding_mismatch(cert, oracle: OracleResult) -> str | None:
    """Why ``oracle`` is not ground truth for the instance and parameters
    ``cert`` is bound to, or None when it is."""
    if oracle.instance_sha256 is None:
        return "the oracle result names no instance_sha256; rerun `solgeo oracle`"
    if oracle.instance_sha256 != cert.instance_sha256:
        return (f"the oracle ran on instance {oracle.instance_sha256}, "
                f"the certificate is bound to {cert.instance_sha256}")
    pairing = PAIRINGS.get(cert.kind)
    for name, value in (pairing.parameters(cert) if pairing else {}).items():
        if getattr(oracle, name) != value:
            return (f"the oracle ran at {name} = {getattr(oracle, name)!r}, "
                    f"the certificate is for {name} = {value!r}")
    return None
