"""Instance types for random CSPs: signed hypergraphs, XOR instances,
predicates, local distributions, multigraphs, and their samplers.

Conventions used throughout the package:

* variables are 0-based indices into ``[0, n)``;
* assignments are numpy arrays with entries in ``{-1, +1}``;
* a length-k sign vector ``z`` is encoded as an integer whose bit ``i``
  is 1 exactly when ``z[i] == -1`` (so index 0 is the all-plus-one string).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .jsonio import sha256_of

# Samplers refuse parameter combinations whose index space exceeds this,
# so that uniform index draws stay within exact int64 arithmetic.
_MAX_INDEX_SPACE = 1 << 62


class SamplerError(RuntimeError):
    """Raised when a rejection sampler exhausts its attempt budget."""


# Assignments are plain numpy vectors with entries in {-1, +1}.
Assignment = np.ndarray


def bias(x: Sequence[int] | np.ndarray) -> float:
    """|sum(x)| / n for a +-1 assignment."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("bias of an empty assignment is undefined")
    return abs(int(x.sum())) / x.size


def random_assignment(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=n).astype(int)


def violation_budget(eta: float, m: int) -> int:
    """Largest integer number of violated clauses an assignment may have
    while still being (1-eta)-satisfying: floor(eta * m), with a small
    nudge so exact integer products do not round down.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    return int(math.floor(eta * m + 1e-9))


def _check_index_tuple(S: tuple[int, ...], n: int) -> None:
    for v in S:
        if not (0 <= v < n):
            raise ValueError(f"variable index {v} out of range [0, {n})")


def _check_signs(c: tuple[int, ...]) -> None:
    for s in c:
        if s not in (-1, 1):
            raise ValueError(f"sign entries must be +-1, got {s}")


# ---------------------------------------------------------------------------
# Fourier analysis over the k-dimensional hypercube
# ---------------------------------------------------------------------------

def signs_to_index(z: Sequence[int]) -> int:
    idx = 0
    for i, zi in enumerate(z):
        if zi == -1:
            idx |= 1 << i
        elif zi != 1:
            raise ValueError(f"sign entries must be +-1, got {zi}")
    return idx


def index_to_signs(idx: int, k: int) -> tuple[int, ...]:
    return tuple(-1 if (idx >> i) & 1 else 1 for i in range(k))


def fourier_transform(table: Sequence[float], k: int) -> dict[tuple[int, ...], float]:
    """Fourier coefficients f_hat(T) = E_z[f(z) * prod_{i in T} z_i] of a
    function given as a table indexed by the sign-vector encoding."""
    if len(table) != 1 << k:
        raise ValueError("table length must be 2^k")
    coeffs: dict[tuple[int, ...], float] = {}
    for mask in range(1 << k):
        T = tuple(i for i in range(k) if (mask >> i) & 1)
        acc = 0.0
        for idx in range(1 << k):
            chi = -1.0 if bin(idx & mask).count("1") % 2 else 1.0
            acc += table[idx] * chi
        coeffs[T] = acc / (1 << k)
    return coeffs


@dataclass(frozen=True)
class Predicate:
    """A k-ary Boolean predicate, not identically 1, with its Fourier table."""

    k: int
    table: tuple[int, ...]
    fourier: dict[tuple[int, ...], float] = field(compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("predicate arity must be >= 1")
        if len(self.table) != 1 << self.k:
            raise ValueError("truth table must have 2^k entries")
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("truth table entries must be 0/1")
        if all(v == 1 for v in self.table):
            raise ValueError("the constant-1 predicate is not allowed")
        if self.fourier is None:
            object.__setattr__(self, "fourier", fourier_transform(self.table, self.k))

    def value(self, z: Sequence[int]) -> int:
        return self.table[signs_to_index(z)]

    def first_unsatisfying(self) -> tuple[int, ...]:
        """The first string (in index order) on which the predicate is 0."""
        for idx in range(1 << self.k):
            if self.table[idx] == 0:
                return index_to_signs(idx, self.k)
        raise AssertionError("unreachable: constant-1 rejected at construction")

    @classmethod
    def ksat(cls, k: int) -> "Predicate":
        """OR-style predicate: 0 only on the all-plus-one string."""
        return cls(k, tuple(0 if idx == 0 else 1 for idx in range(1 << k)))

    @classmethod
    def parity(cls, k: int, rhs: int = 1) -> "Predicate":
        """XOR predicate: 1 exactly when prod(z) == rhs."""
        if rhs not in (-1, 1):
            raise ValueError("rhs must be +-1")
        table = []
        for idx in range(1 << k):
            prod = -1 if bin(idx).count("1") % 2 else 1
            table.append(1 if prod == rhs else 0)
        return cls(k, tuple(table))


def ksat_fourier(k: int) -> Predicate:
    """The k-SAT predicate; constant coefficient 1 - 2^-k, all others -2^-k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Predicate.ksat(k)


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedHypergraph:
    """A k-uniform signed hypergraph: ordered clauses (c, S) with c a +-1
    sign tuple and S a variable tuple, the carrier of a k-CSP instance."""

    k: int
    n: int
    clauses: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")
        for c, S in self.clauses:
            if len(c) != self.k or len(S) != self.k:
                raise ValueError("clause arity mismatch")
            _check_signs(c)
            _check_index_tuple(S, self.n)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def to_xor(self) -> "XorInstance":
        """Collapse each sign tuple to its product, yielding an XOR instance."""
        return XorInstance(
            self.k,
            self.n,
            tuple((int(np.prod(c)), S) for c, S in self.clauses),
        )

    def hypergraph(self) -> "UnsignedHypergraph":
        return UnsignedHypergraph(self.k, self.n, tuple(S for _, S in self.clauses))

    def to_json_dict(self) -> dict:
        return {
            "kind": "csp",
            "k": self.k,
            "n": self.n,
            "index_base": 0,
            "clauses": [{"vars": list(S), "signs": list(c)} for c, S in self.clauses],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SignedHypergraph":
        if d.get("kind") != "csp":
            raise ValueError("not a csp instance file")
        clauses = tuple(
            (tuple(cl["signs"]), tuple(cl["vars"])) for cl in d["clauses"]
        )
        return cls(d["k"], d["n"], clauses)

    def sha256(self) -> str:
        return sha256_of(self.to_json_dict())


@dataclass(frozen=True)
class XorInstance:
    """A kXOR instance: clauses (b, S) demanding prod(x[S]) == b."""

    k: int
    n: int
    clauses: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")
        for b, S in self.clauses:
            if b not in (-1, 1):
                raise ValueError("rhs must be +-1")
            if len(S) != self.k:
                raise ValueError("clause arity mismatch")
            _check_index_tuple(S, self.n)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def hypergraph(self) -> "UnsignedHypergraph":
        return UnsignedHypergraph(self.k, self.n, tuple(S for _, S in self.clauses))

    def to_signed(self) -> SignedHypergraph:
        """Embed as a signed hypergraph with the rhs on the first literal."""
        return SignedHypergraph(
            self.k,
            self.n,
            tuple(((b,) + (1,) * (self.k - 1), S) for b, S in self.clauses),
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": "xor",
            "k": self.k,
            "n": self.n,
            "index_base": 0,
            "clauses": [{"vars": list(S), "rhs": b} for b, S in self.clauses],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "XorInstance":
        if d.get("kind") != "xor":
            raise ValueError("not an xor instance file")
        clauses = tuple((cl["rhs"], tuple(cl["vars"])) for cl in d["clauses"])
        return cls(d["k"], d["n"], clauses)

    def sha256(self) -> str:
        return sha256_of(self.to_json_dict())


@dataclass(frozen=True)
class UnsignedHypergraph:
    """A k-uniform hypergraph as an ordered list of variable tuples."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")
        for S in self.edges:
            if len(S) != self.k:
                raise ValueError("hyperedge arity mismatch")
            _check_index_tuple(S, self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def without_repeats(self) -> "UnsignedHypergraph":
        """Drop hyperedges containing a repeated vertex."""
        kept = tuple(S for S in self.edges if len(set(S)) == self.k)
        return UnsignedHypergraph(self.k, self.n, kept)

    def dedup(self) -> "UnsignedHypergraph":
        """Keep the first occurrence of each tuple."""
        seen: set[tuple[int, ...]] = set()
        kept = []
        for S in self.edges:
            if S not in seen:
                seen.add(S)
                kept.append(S)
        return UnsignedHypergraph(self.k, self.n, tuple(kept))

    def to_json_dict(self) -> dict:
        return {
            "kind": "hypergraph",
            "k": self.k,
            "n": self.n,
            "index_base": 0,
            "edges": [list(S) for S in self.edges],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "UnsignedHypergraph":
        if d.get("kind") != "hypergraph":
            raise ValueError("not a hypergraph file")
        return cls(d["k"], d["n"], tuple(tuple(e) for e in d["edges"]))

    def sha256(self) -> str:
        return sha256_of(self.to_json_dict())


@dataclass(frozen=True)
class MultiGraph:
    """An undirected multigraph without self-loops; parallel edges kept.

    ``edges`` stores normalized (u <= v) pairs in construction order and
    ``degrees`` caches per-vertex degrees, validated on construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        deg = [0] * self.n
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops must be removed before construction")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            if u > v:
                raise ValueError("edges must be normalized u <= v")
            deg[u] += 1
            deg[v] += 1
        if tuple(deg) != self.degrees:
            raise ValueError("degree cache does not match edge list")

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "MultiGraph":
        """Cleaning constructor: drops self-loops, normalizes orientation."""
        norm = []
        deg = [0] * n
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            if u > v:
                u, v = v, u
            norm.append((u, v))
            deg[u] += 1
            deg[v] += 1
        return cls(n, tuple(norm), tuple(deg))

    @property
    def m(self) -> int:
        return len(self.edges)

    def simple(self) -> "MultiGraph":
        """Collapse parallel edges (first occurrence kept)."""
        seen: set[tuple[int, int]] = set()
        kept = []
        for e in self.edges:
            if e not in seen:
                seen.add(e)
                kept.append(e)
        return MultiGraph.build(self.n, kept)

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix with parallel-edge multiplicities."""
        A = np.zeros((self.n, self.n))
        E = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        np.add.at(A, (E[:, 0], E[:, 1]), 1.0)
        np.add.at(A, (E[:, 1], E[:, 0]), 1.0)
        return A

    def average_degree(self) -> float:
        return 2.0 * self.m / self.n

    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultiGraph":
        return cls.build(d["n"], [tuple(e) for e in d["edges"]])

    def sha256(self) -> str:
        return sha256_of(self.to_json_dict())


@dataclass(frozen=True)
class DensityTable:
    """The local distribution of sign patterns c o x_S over the clauses of
    an instance, scaled by 2^k, together with its Fourier coefficients."""

    k: int
    values: dict[tuple[int, ...], float]
    fourier: dict[tuple[int, ...], float]


# ---------------------------------------------------------------------------
# Random samplers (pure functions of parameters and seed)
# ---------------------------------------------------------------------------

def _sample_distinct_indices(rng: np.random.Generator, count: int, space: int) -> list[int]:
    """Uniformly sample ``count`` distinct integers from [0, space)."""
    if count > space:
        raise ValueError("cannot sample more distinct indices than the space size")
    chosen: set[int] = set()
    order: list[int] = []
    while len(order) < count:
        batch = rng.integers(0, space, size=max(64, 2 * (count - len(order))))
        for v in batch:
            v = int(v)
            if v not in chosen:
                chosen.add(v)
                order.append(v)
                if len(order) == count:
                    break
    return order


def sample_signed_hypergraph(k: int, n: int, m: int, seed: int) -> SignedHypergraph:
    """Include each of the 2^k * n^k potential (c, S) pairs independently
    with probability m / (2^k * n^k)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    space = (1 << k) * n**k
    if space >= _MAX_INDEX_SPACE:
        raise ValueError("2^k * n^k too large for exact index sampling")
    p = m / space
    if p > 1:
        raise ValueError("m exceeds the number of potential hyperedges")
    rng = np.random.default_rng(seed)
    count = int(rng.binomial(space, p)) if p > 0 else 0
    clauses = []
    for idx in _sample_distinct_indices(rng, count, space):
        c_bits, s_idx = divmod(idx, n**k)
        c = index_to_signs(c_bits, k)
        S = []
        for _ in range(k):
            s_idx, digit = divmod(s_idx, n)
            S.append(digit)
        clauses.append((c, tuple(S)))
    clauses.sort(key=lambda cs: (cs[1], cs[0]))
    return SignedHypergraph(k, n, tuple(clauses))


def sample_unsigned_hypergraph(k: int, n: int, m: int, seed: int) -> UnsignedHypergraph:
    """Include each of the n^k variable tuples independently with
    probability m / n^k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    space = n**k
    if space >= _MAX_INDEX_SPACE:
        raise ValueError("n^k too large for exact index sampling")
    p = m / space
    if p > 1:
        raise ValueError("m exceeds the number of potential hyperedges")
    rng = np.random.default_rng(seed)
    count = int(rng.binomial(space, p)) if p > 0 else 0
    edges = []
    for s_idx in _sample_distinct_indices(rng, count, space):
        S = []
        for _ in range(k):
            s_idx, digit = divmod(s_idx, n)
            S.append(digit)
        edges.append(tuple(S))
    edges.sort()
    return UnsignedHypergraph(k, n, tuple(edges))


def sample_goe(n: int, seed: int) -> np.ndarray:
    """Gaussian symmetric matrix (W + W^T)/sqrt(2): off-diagonal variance 1,
    diagonal variance 2, exactly symmetric."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n, n))
    return (W + W.T) / math.sqrt(2.0)


def goe_json(M: np.ndarray) -> dict:
    """The JSON document of a matrix file; SK certificates and oracle
    results bind the matrix by its hash."""
    return {"kind": "goe", "n": int(M.shape[0]), "matrix": M.tolist()}


def sample_regular_graph(n: int, d: int, seed: int, max_attempts: int = 5000) -> MultiGraph:
    """Simple d-regular graph via the configuration model, rejecting
    pairings with self-loops or parallel edges."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if n <= d:
        raise ValueError(f"n must exceed d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_attempts):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        u = np.minimum(pairs[:, 0], pairs[:, 1])
        v = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(u == v):
            continue
        edge_ids = u.astype(np.int64) * n + v.astype(np.int64)
        if len(np.unique(edge_ids)) != len(edge_ids):
            continue
        order = np.lexsort((v, u))
        return MultiGraph.build(n, list(zip(u[order].tolist(), v[order].tolist())))
    raise SamplerError(
        f"configuration model failed after {max_attempts} attempts (n={n}, d={d})"
    )


# ---------------------------------------------------------------------------
# Evaluation and local Fourier data
# ---------------------------------------------------------------------------

def evaluate(I: SignedHypergraph, P: Predicate, x: Sequence[int] | np.ndarray) -> float:
    """Fraction of clauses of I satisfied by x under predicate P."""
    if I.m == 0:
        raise ValueError("cannot evaluate an empty instance")
    if P.k != I.k:
        raise ValueError("predicate arity does not match instance")
    x = np.asarray(x)
    sat = 0
    for c, S in I.clauses:
        z = tuple(int(ci * x[si]) for ci, si in zip(c, S))
        sat += P.value(z)
    return sat / I.m


def density_table(I: SignedHypergraph, x: Sequence[int] | np.ndarray) -> DensityTable:
    """Local distribution D_{I,x} (density scaled by 2^k) and its Fourier
    coefficients; D_hat(empty) == 1 by normalization."""
    if I.m == 0:
        raise ValueError("cannot build the density table of an empty instance")
    x = np.asarray(x)
    k = I.k
    counts = np.zeros(1 << k)
    for c, S in I.clauses:
        idx = 0
        for i, (ci, si) in enumerate(zip(c, S)):
            if ci * int(x[si]) == -1:
                idx |= 1 << i
        counts[idx] += 1
    table = counts * ((1 << k) / I.m)
    values = {index_to_signs(idx, k): float(table[idx]) for idx in range(1 << k)}
    fourier = fourier_transform(table.tolist(), k)
    return DensityTable(k, values, fourier)


def xor_violations(I: XorInstance, x: Sequence[int] | np.ndarray) -> int:
    """Number of clauses of an XOR instance violated by x."""
    x = np.asarray(x)
    bad = 0
    for b, S in I.clauses:
        prod = 1
        for si in S:
            prod *= int(x[si])
        if prod != b:
            bad += 1
    return bad


def xor_satisfied_fraction(I: XorInstance, x: Sequence[int] | np.ndarray) -> float:
    if I.m == 0:
        raise ValueError("cannot evaluate an empty instance")
    return 1.0 - xor_violations(I, x) / I.m


# ---------------------------------------------------------------------------
# Induced / truncated / primal constructions
# ---------------------------------------------------------------------------

def clause_split(
    tuples: Iterable[tuple[int, ...]], S: Iterable[int], inside: int
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """For each variable tuple with exactly ``inside`` of its positions in
    S, in order: its index, its S-part and its outside part, each part in
    tuple order.  Every induced and truncated instance is built from this
    one selection."""
    S = frozenset(S)
    for i, U in enumerate(tuples):
        in_part = [u for u in U if u in S]
        if len(in_part) == inside:
            yield i, tuple(in_part), tuple([u for u in U if u not in S])


def induced_xor(
    I: XorInstance, S: Iterable[int], sigma: Mapping[int, int], t: int
) -> XorInstance:
    """The induced tXOR instance: clauses with exactly k-t variables in S
    are projected onto their non-S variables, with the rhs multiplied by
    the sigma-values of the dropped S-variables."""
    if not (1 <= t <= I.k - 1):
        raise ValueError(f"t must be in [1, k-1], got {t}")
    clauses = tuple(
        (I.clauses[i][0] * math.prod(sigma[u] for u in in_part), out_part)
        for i, in_part, out_part in clause_split((U for _, U in I.clauses), S, I.k - t)
    )
    return XorInstance(t, I.n, clauses)


def truncated_xor(I: XorInstance, S: Iterable[int], arity: int) -> XorInstance:
    """The truncated (k-t)XOR instance on S: same clause selection as the
    induced instance, but keeping the S-variables and the original rhs."""
    if not (1 <= arity <= I.k - 1):
        raise ValueError(f"truncated arity must be in [1, k-1], got {arity}")
    clauses = tuple(
        (I.clauses[i][0], in_part)
        for i, in_part, _ in clause_split((U for _, U in I.clauses), S, arity)
    )
    return XorInstance(arity, I.n, clauses)


def primal_graph(H: UnsignedHypergraph) -> MultiGraph:
    """One edge per pair of vertices inside each hyperedge (a triangle per
    3-uniform hyperedge); parallel edges kept."""
    edges = []
    for S in H.edges:
        if len(set(S)) != len(S):
            raise ValueError("hyperedges with repeated vertices must be removed first")
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                edges.append((S[i], S[j]))
    return MultiGraph.build(H.n, edges)


def csp_to_ksat(I: SignedHypergraph, P: Predicate) -> SignedHypergraph:
    """Compose each clause's signs with a fixed non-satisfying string of P,
    so near-satisfiers of I under P are near-satisfiers of the result
    under kSAT."""
    if P.k != I.k:
        raise ValueError("predicate arity does not match instance")
    z = P.first_unsatisfying()
    clauses = tuple(
        (tuple(ci * zi for ci, zi in zip(c, z)), S) for c, S in I.clauses
    )
    return SignedHypergraph(I.k, I.n, clauses)


def split_by_sign(I: SignedHypergraph) -> tuple[SignedHypergraph, SignedHypergraph]:
    """Extract the all-unnegated and fully-negated sub-instances."""
    pos = tuple((c, S) for c, S in I.clauses if all(ci == 1 for ci in c))
    neg = tuple((c, S) for c, S in I.clauses if all(ci == -1 for ci in c))
    return (
        SignedHypergraph(I.k, I.n, pos),
        SignedHypergraph(I.k, I.n, neg),
    )


def load_instance(d: dict):
    """Dispatch a parsed instance JSON dict to the right type."""
    kind = d.get("kind")
    if kind == "csp":
        return SignedHypergraph.from_json_dict(d)
    if kind == "xor":
        return XorInstance.from_json_dict(d)
    if kind == "hypergraph":
        return UnsignedHypergraph.from_json_dict(d)
    if kind is None and "edges" in d and "n" in d:
        return MultiGraph.from_json_dict(d)
    raise ValueError(f"unrecognized instance kind {kind!r}")
