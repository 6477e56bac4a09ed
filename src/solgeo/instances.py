"""Instance types for random CSPs: signed hypergraphs, XOR instances,
predicates, multigraphs, and their samplers.

Conventions used throughout the package:

* variables are 0-based indices into ``[0, n)``;
* assignments are numpy arrays with entries in ``{-1, +1}``;
* a length-k sign vector ``z`` is encoded as an integer whose bit ``i``
  is 1 exactly when ``z[i] == -1`` (so index 0 is the all-plus-one string).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .jsonio import canonical_json, decode, decode_field, read_json, render, sha256_of

# Samplers refuse parameter combinations whose index space exceeds this,
# so that uniform index draws stay within exact int64 arithmetic.
_MAX_INDEX_SPACE = 1 << 62


class SamplerError(RuntimeError):
    """Raised when a rejection sampler exhausts its attempt budget."""


def violation_budget(eta: float, m: int) -> int:
    """Largest integer number of violated clauses an assignment may have
    while still being (1-eta)-satisfying: floor(eta * m), with a small
    nudge so exact integer products do not round down.
    """
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    if not math.isfinite(eta * m):
        raise ValueError(f"eta = {eta:g} times {m} clauses is beyond a float")
    return int(math.floor(eta * m + 1e-9))


# ---------------------------------------------------------------------------
# Sign vectors
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


@dataclass(frozen=True)
class Predicate:
    """A k-ary Boolean predicate, not identically 1, given by its truth table."""

    k: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("predicate arity must be >= 1")
        if len(self.table) != 1 << self.k:
            raise ValueError("truth table must have 2^k entries")
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("truth table entries must be 0/1")
        if all(v == 1 for v in self.table):
            raise ValueError("the constant-1 predicate is not allowed")

    def value(self, z: Sequence[int]) -> int:
        return self.table[signs_to_index(z)]

    def first_unsatisfying(self) -> tuple[int, ...]:
        """The first string (in index order) on which the predicate is 0."""
        return index_to_signs(self.table.index(0), self.k)

    @classmethod
    def ksat(cls, k: int) -> "Predicate":
        """OR-style predicate: 0 only on the all-plus-one string."""
        return cls(k, tuple(0 if idx == 0 else 1 for idx in range(1 << k)))

    @classmethod
    def parity(cls, k: int, rhs: int = 1) -> "Predicate":
        """XOR predicate: 1 exactly when prod(z) == rhs."""
        if rhs not in (-1, 1):
            raise ValueError("rhs must be +-1")
        odd = np.bitwise_count(np.arange(1 << k)) & 1
        return cls(k, tuple((odd == (rhs == -1)).astype(int).tolist()))


# ---------------------------------------------------------------------------
# Instance types
# ---------------------------------------------------------------------------

def _int_rows(rows: np.ndarray | Iterable[tuple[int, ...]], width: int, what: str) -> np.ndarray:
    """``rows`` as a fresh int64 array of shape (len(rows), width), from an
    integer array or from a sequence of integer tuples; ValueError naming
    ``what`` for a row of another width or an entry that is not an
    integer."""
    if isinstance(rows, np.ndarray):
        if rows.size == 0:
            return np.empty((0, width), dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != width or rows.dtype.kind not in "iu":
            raise ValueError(f"{what} must be an integer array of shape (m, {width}), "
                             f"not {rows.dtype} {rows.shape}")
        if rows.dtype.kind == "u" and rows.max() >= 1 << 63:
            # would wrap to a negative int64, and 2^64 - 1 to a valid sign -1
            raise ValueError(f"{what} must hold integers within int64")
        return rows.astype(np.int64)
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    if set(map(len, rows)) - {width}:
        raise ValueError(f"{what} must have {width} entries each")
    if any(t is bool or not issubclass(t, (int, np.integer))
           for t in set(map(type, chain.from_iterable(rows)))):
        raise ValueError(f"{what} must hold integers")
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, width * len(rows))
    except OverflowError:
        raise ValueError(f"{what} must hold integers within int64") from None
    return flat.reshape(-1, width)


def _sign_rows(values, width: int, m: int, what: str) -> np.ndarray:
    """``values`` as a read-only int8 array of shape (m, width) with +-1
    entries; ValueError naming ``what`` otherwise."""
    A = _int_rows(values, width, what)
    if len(A) != m:
        raise ValueError(f"{what} must have one row per clause, not {len(A)} for {m}")
    bad = np.abs(A) != 1
    if bad.any():
        raise ValueError(f"{what} entries must be +-1, got {A[bad][0]}")
    A = A.astype(np.int8)
    A.flags.writeable = False
    return A


def _tuples(A: np.ndarray) -> Iterable[tuple[int, ...]]:
    """The rows of a 2-d integer array as tuples of Python ints."""
    return zip(*A.T.tolist())


@dataclass(frozen=True, eq=False)
class _KUniform:
    """What the three k-uniform kinds share: k, n >= 1, and ``vars``, the
    variable tuple of each clause or edge as one row of a read-only int64
    array of shape (m, k) with entries in [0, n); the file header and
    body, the hash and equality.  Each kind adds its payload arrays, and
    reads its tuples off the arrays on each access."""

    KIND: ClassVar[str]
    BODY: ClassVar[str] = "clauses"
    # a clause record's fields beside "vars", each with the ndim of its
    # array: 1 for a number per clause, 2 for k of them; with none, bare tuples
    PAYLOAD: ClassVar[dict[str, int]] = {}

    k: int
    n: int
    vars: np.ndarray

    def __post_init__(self) -> None:
        k, n = self.k, self.n
        if k < 1 or n < 1:
            raise ValueError("k and n must be positive")
        V = _int_rows(self.vars, k, f"{self.KIND} variable tuples")
        bad = (V < 0) | (V >= n)
        if bad.any():
            raise ValueError(f"variable index {V[bad][0]} out of range [0, {n})")
        V.flags.writeable = False
        object.__setattr__(self, "vars", V)
        self._check_payload()

    def _check_payload(self) -> None:
        pass

    @property
    def m(self) -> int:
        return len(self.vars)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None  # type: ignore[assignment]

    def hypergraph(self) -> "UnsignedHypergraph":
        return UnsignedHypergraph(self.k, self.n, self.vars)

    @classmethod
    def decode_header(cls, d: dict) -> tuple[int, int]:
        """k and n of a file document of this kind; ValueError for another
        kind, a mistyped field or variable indices that are not 0-based."""
        if d.get("kind") != cls.KIND:
            raise ValueError(f"not a {cls.KIND} instance file")
        k, n = (decode_field(d, key, int, "instance file") for key in ("k", "n"))
        base = decode(d.get("index_base", 0), int, "instance file field 'index_base'")
        if base != 0:
            raise ValueError(f"variable indices must be 0-based, not index_base {base}")
        return k, n

    @classmethod
    def from_json_dict(cls, d: dict):
        k, n = cls.decode_header(d)
        body, names = d[cls.BODY], ("vars", *cls.PAYLOAD)
        columns = [[cl[name] for cl in body] for name in names] if cls.PAYLOAD else [body]
        return cls(k, n, *columns)

    @classmethod
    def from_rendered_body(cls, d: dict, body: str):
        """The instance of the document ``d`` whose body has the text
        ``body``, read as integers whatever separates them, and the text
        ``render`` writes of those integers.  The numbers of a record are
        its fields' in sorted-key order."""
        k, n = cls.decode_header(d)
        ndims = {"vars": 2, **cls.PAYLOAD}
        names = sorted(ndims)
        widths = [k if ndims[name] == 2 else 1 for name in names]
        table = _int_table(body, sum(widths))
        parts = np.split(table, np.cumsum(widths)[:-1], axis=1)
        columns = {name: part if ndims[name] == 2 else part[:, 0]
                   for name, part in zip(names, parts)}
        return (cls(k, n, *(columns[name] for name in ndims)),
                render(columns if cls.PAYLOAD else table))

    def sha256(self) -> str:
        return sha256_of(rendered_doc(self))


@dataclass(frozen=True, eq=False)
class SignedHypergraph(_KUniform):
    """A k-uniform signed hypergraph, the carrier of a k-CSP instance:
    clause i is (c, S) with S = ``vars[i]`` and the +-1 sign tuple
    c = ``signs[i]``, a row of a read-only int8 array of shape (m, k)."""

    KIND = "csp"
    PAYLOAD = {"signs": 2}
    signs: np.ndarray

    def _check_payload(self) -> None:
        object.__setattr__(self, "signs", _sign_rows(self.signs, self.k, self.m, "signs"))

    @property
    def clauses(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        return tuple(zip(_tuples(self.signs), _tuples(self.vars)))

    def to_xor(self) -> "XorInstance":
        """Collapse each sign tuple to its product, yielding an XOR instance."""
        return XorInstance(self.k, self.n, self.vars, self.signs.prod(axis=1))


@dataclass(frozen=True, eq=False)
class XorInstance(_KUniform):
    """A kXOR instance: clauses (b, S) demanding prod(x[S]) == b, with
    S = ``vars[i]`` and b = ``rhs[i]``, an entry of a read-only int8
    array of shape (m,)."""

    KIND = "xor"
    PAYLOAD = {"rhs": 1}
    rhs: np.ndarray

    def _check_payload(self) -> None:
        # entries of a sequence are type-checked one by one: a bool is no sign
        rhs = self.rhs
        rhs = np.reshape(rhs, (-1, 1)) if isinstance(rhs, np.ndarray) else [(b,) for b in rhs]
        object.__setattr__(self, "rhs", _sign_rows(rhs, 1, self.m, "rhs")[:, 0])

    @property
    def clauses(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple(zip(self.rhs.tolist(), _tuples(self.vars)))

    def to_signed(self) -> SignedHypergraph:
        """Embed as a signed hypergraph with the rhs on the first literal."""
        signs = np.ones((self.m, self.k), dtype=np.int8)
        signs[:, 0] = self.rhs
        return SignedHypergraph(self.k, self.n, self.vars, signs)


@dataclass(frozen=True, eq=False)
class UnsignedHypergraph(_KUniform):
    """A k-uniform hypergraph: its ordered hyperedges are the rows of
    ``vars``."""

    KIND = "hypergraph"
    BODY = "edges"

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_tuples(self.vars))

    def without_repeats(self) -> "UnsignedHypergraph":
        """Drop hyperedges containing a repeated vertex."""
        return UnsignedHypergraph(self.k, self.n, self.vars[distinct_rows(self.vars)])

    def dedup(self) -> "UnsignedHypergraph":
        """Keep the first occurrence of each tuple."""
        return UnsignedHypergraph(self.k, self.n, self.vars[row_groups(self.vars)[0]])


def row_groups(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The equal rows of the 2-d array ``A`` as groups: ``first``, the
    ascending indices of each group's first row, and ``group``, each row's
    index into ``first``.  One stable lexsort; ``np.unique(axis=0)`` sorts
    the rows as void records, several times slower."""
    order = np.lexsort(A.T)  # stable: each group's rows in row order
    rows = A[order]
    new = np.ones(len(A), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    head = np.empty(len(A), dtype=np.intp)
    head[order] = order[new][np.cumsum(new) - 1]  # each row's group's first row
    is_first = head == np.arange(len(A))
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[head]


_INT_BYTES = bytes(b if chr(b) in "-0123456789" else 32 for b in range(256))


def _int_table(body: str, width: int) -> np.ndarray:
    """The integers in the text ``body``, whatever separates them, as the
    rows of an int64 array of ``width`` columns; an exception if the text
    does not read that way.  What is read from text that ``render`` would
    not write, such as "01", "-0" or a number beyond int64, is undefined:
    callers keep the table only if writing it back gives the file's text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 2.0 warns on text where 2.4 raises
        numbers = np.fromstring(body.encode("ascii").translate(_INT_BYTES).strip(),
                                dtype=np.int64, sep=" ")
    return numbers.reshape(-1, width)


def distinct_rows(V: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of V whose entries are pairwise distinct."""
    V = np.sort(V, axis=1)
    return (V[:, 1:] != V[:, :-1]).all(axis=1)


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """An undirected multigraph without self-loops; parallel edges kept.

    ``edge_array`` holds the pairs u < v in construction order, one row
    each, as a read-only int64 array of shape (m, 2): the graph's one
    stored form.  ``degrees`` is counted from it on construction, and
    ``edges`` is read off it as a tuple of pairs on each access.
    """

    BODY: ClassVar[str] = "edges"

    n: int
    edge_array: np.ndarray
    degrees: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("n must be positive")
        E = _int_rows(self.edge_array, 2, "edges")
        u, v = E[:, 0], E[:, 1]
        bad = (u < 0) | (u >= v) | (v >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({u[i]}, {v[i]}) is not a loop-free pair 0 <= u < v < {n}")
        E.flags.writeable = False
        object.__setattr__(self, "edge_array", E)
        object.__setattr__(self, "degrees", tuple(np.bincount(E.ravel(), minlength=n).tolist()))

    @classmethod
    def build(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "MultiGraph":
        """Cleaning constructor: drops self-loops, orients each edge u < v."""
        E = _int_rows(edges, 2, "edges")
        E = E[E[:, 0] != E[:, 1]]
        E.sort(axis=1)
        return cls(n, E)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_tuples(self.edge_array))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    __hash__ = None  # type: ignore[assignment]

    def simple(self) -> "MultiGraph":
        """Collapse parallel edges (first occurrence kept)."""
        E = self.edge_array
        _, first = np.unique(E[:, 0] * self.n + E[:, 1], return_index=True)
        first.sort()
        return MultiGraph(self.n, E[first])

    def adjacency(self) -> np.ndarray:
        """Dense adjacency matrix with parallel-edge multiplicities."""
        n, E = self.n, self.edge_array
        A = np.zeros((n, n))
        np.add.at(A.reshape(-1), np.concatenate((E[:, 0] * n + E[:, 1], E[:, 1] * n + E[:, 0])), 1.0)
        return A

    def average_degree(self) -> float:
        return 2.0 * self.m / self.n

    def is_regular(self) -> bool:
        return len(set(self.degrees)) <= 1

    @staticmethod
    def decode_header(d: dict) -> int:
        """n of a graph file document; ValueError for a document with a
        kind or a mistyped n."""
        if "kind" in d:
            raise ValueError("not a graph file")
        return decode_field(d, "n", int, "instance file")

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultiGraph":
        return cls.build(cls.decode_header(d), d["edges"])

    @classmethod
    def from_rendered_body(cls, d: dict, body: str):
        """As ``_KUniform.from_rendered_body``, for a graph."""
        table = _int_table(body, 2)
        return cls.build(cls.decode_header(d), table), render(table)

    def sha256(self) -> str:
        return sha256_of(rendered_doc(self))


# ---------------------------------------------------------------------------
# Random samplers (pure functions of parameters and seed)
# ---------------------------------------------------------------------------

def _sample_distinct_indices(rng: np.random.Generator, count: int, space: int) -> np.ndarray:
    """Uniformly sample ``count`` distinct integers from [0, space), in
    the order of their first draw."""
    if count > space:
        raise ValueError("cannot sample more distinct indices than the space size")
    order = np.empty(0, dtype=np.int64)
    while len(order) < count:
        batch = rng.integers(0, space, size=max(64, 2 * (count - len(order))))
        # the first draw of each value not drawn before, in draw order
        values, first = np.unique(batch, return_index=True)
        fresh = batch[np.sort(first[~np.isin(values, order)])]
        order = np.concatenate((order, fresh[:count - len(order)]))
    return order


def _sample_tuples(k: int, n: int, m: int, seed: int, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Include each of the (2^k if signed, else 1) * n^k index tuples
    independently with probability m / that space.  Returns the drawn
    tuples in draw order: their sign bits, and their variable tuples as
    the rows of a (count, k) array, which the samplers sort and hand to
    the instance as its ``vars``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    tuples = n**k
    space = (1 << k if signed else 1) * tuples
    if space >= _MAX_INDEX_SPACE:
        raise ValueError(f"{'2^k * ' if signed else ''}n^k too large for exact index sampling")
    p = m / space
    if p > 1:
        raise ValueError("m exceeds the number of potential hyperedges")
    rng = np.random.default_rng(seed)
    count = int(rng.binomial(space, p)) if p > 0 else 0
    # exact in int64, since space < 2^62; digit i of the tuple index is S[i]
    c_bits, s_idx = np.divmod(_sample_distinct_indices(rng, count, space), tuples)
    S = np.empty((count, k), dtype=np.int64)
    for i in range(k):
        s_idx, S[:, i] = np.divmod(s_idx, n)
    return c_bits, S


def _digits_key(columns: np.ndarray, base: int, key: np.ndarray | int = 0) -> np.ndarray:
    """``key`` followed by the rows of ``columns`` as base-``base`` digits,
    most significant first: rows in lexicographic order get increasing
    keys, exact while the result stays below 2^63."""
    for column in columns.T:
        key = key * base + column
    return key


def sample_signed_hypergraph(k: int, n: int, m: int, seed: int) -> SignedHypergraph:
    """Include each of the 2^k * n^k potential (c, S) pairs independently
    with probability m / (2^k * n^k)."""
    c_bits, S = _sample_tuples(k, n, m, seed, True)
    signs = 1 - 2 * ((c_bits[:, None] >> np.arange(k)) & 1)
    # clauses sorted by variable tuple, then by sign tuple, -1 before +1:
    # the pairs are distinct, and the key is below 2^k * n^k < 2^62
    order = np.argsort(_digits_key(signs > 0, 2, _digits_key(S, n)), kind="stable")
    return SignedHypergraph(k, n, S[order], signs[order])


def sample_unsigned_hypergraph(k: int, n: int, m: int, seed: int) -> UnsignedHypergraph:
    """Include each of the n^k variable tuples independently with
    probability m / n^k."""
    _, S = _sample_tuples(k, n, m, seed, False)
    return UnsignedHypergraph(k, n, S[np.argsort(_digits_key(S, n), kind="stable")])


def sample_goe(n: int, seed: int) -> np.ndarray:
    """Gaussian symmetric matrix (W + W^T)/sqrt(2): off-diagonal variance 1,
    diagonal variance 2, exactly symmetric."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n, n))
    return (W + W.T) / math.sqrt(2.0)


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
        return MultiGraph(n, np.column_stack((u[order], v[order])))
    raise SamplerError(
        f"configuration model failed after {max_attempts} attempts (n={n}, d={d})"
    )


# ---------------------------------------------------------------------------
# Clause splits, primal graphs and reductions
# ---------------------------------------------------------------------------

def clause_split(
    V: np.ndarray, S: Iterable[int], inside: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of V with exactly ``inside`` of their entries in S: their
    indices, their S-parts as an (r, inside) array and their outside
    parts as an (r, k - inside) array, each part in row order.  Every
    induced and truncated instance is built from this one selection."""
    member = np.isin(V, np.fromiter(S, np.int64))
    rows = np.flatnonzero(member.sum(axis=1) == inside)
    # a stable sort moves each row's S-positions to the front, in row order
    order = np.argsort(~member[rows], axis=1, kind="stable")
    parts = np.take_along_axis(V[rows], order, axis=1)
    return rows, parts[:, :inside], parts[:, inside:]


def primal_graph(H: UnsignedHypergraph) -> MultiGraph:
    """One edge per pair of vertices inside each hyperedge (a triangle per
    3-uniform hyperedge); parallel edges kept, in hyperedge order."""
    V = H.vars
    if not distinct_rows(V).all():
        raise ValueError("hyperedges with repeated vertices must be removed first")
    i, j = np.triu_indices(H.k, 1)
    # row r holds hyperedge r's pairs (S[i], S[j]) for i < j, in that order
    return MultiGraph.build(H.n, np.stack((V[:, i], V[:, j]), axis=2).reshape(-1, 2))


def csp_to_ksat(I: SignedHypergraph, P: Predicate) -> SignedHypergraph:
    """Compose each clause's signs with a fixed non-satisfying string of P,
    so near-satisfiers of I under P are near-satisfiers of the result
    under kSAT."""
    if P.k != I.k:
        raise ValueError("predicate arity does not match instance")
    z = np.array(P.first_unsatisfying(), dtype=np.int8)
    return SignedHypergraph(I.k, I.n, I.vars, I.signs * z)


def split_by_sign(I: SignedHypergraph) -> tuple[SignedHypergraph, SignedHypergraph]:
    """Extract the all-unnegated and fully-negated sub-instances."""
    pos, neg = ((I.signs == s).all(axis=1) for s in (1, -1))
    return (
        SignedHypergraph(I.k, I.n, I.vars[pos], I.signs[pos]),
        SignedHypergraph(I.k, I.n, I.vars[neg], I.signs[neg]),
    )


def _goe_from_json_dict(d: dict) -> np.ndarray:
    n, rows = decode_field(d, "n", int, "instance file"), d["matrix"]
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n} x {n}")
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError("matrix entries must be JSON numbers")
    M = np.array(rows, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def rendered_doc(instance) -> dict:
    """The file document of any instance, a matrix included, its body
    rendered from the arrays: what ``gen`` writes and every instance
    hash reads."""
    if isinstance(instance, np.ndarray):
        return {"kind": "goe", "n": int(instance.shape[0]), "matrix": render(instance)}
    if isinstance(instance, MultiGraph):
        return {"n": instance.n, "edges": render(instance.edge_array)}
    records = {name: getattr(instance, name) for name in ("vars", *instance.PAYLOAD)}
    return {"kind": instance.KIND, "k": instance.k, "n": instance.n, "index_base": 0,
            instance.BODY: render(records if instance.PAYLOAD else instance.vars)}


def instance_doc(instance) -> dict:
    """The file document of any instance, as plain JSON values."""
    return json.loads(canonical_json(rendered_doc(instance)))


# Every instance file kind by its document's "kind", with the type it
# loads as.  A graph document is the one without a kind.
FILE_KINDS = {"csp": SignedHypergraph, "xor": XorInstance, "hypergraph": UnsignedHypergraph,
              "goe": np.ndarray, None: MultiGraph}


def _read_rendered(text: str):
    """The instance in the text of an instance file whose first key is its
    body, if the text is exactly what ``write_json`` writes of its header
    and the body's numbers, as in every file ``gen`` writes of any kind
    but goe; None, or an exception, for any other text.  Such a text is
    canonical JSON, which ``read_json`` reads as that same document."""
    for key, last in (("clauses", "}]"), ("edges", "]]")):
        if text.startswith(f'{{"{key}":['):
            break
    else:
        return None
    start = len(key) + 4  # the body's "[", after '{"key":'
    stop = start + 2 if text.startswith("[]", start) else text.find(last, start) + 2
    header = json.loads("{" + text[stop + 1:])
    cls = FILE_KINDS[header.get("kind")]
    if cls is np.ndarray:
        return None
    instance, body = cls.from_rendered_body(header, text[start:stop])
    return instance if text.removesuffix("\n") == canonical_json({**header, cls.BODY: body}) else None


def read_instance(path: str):
    """The instance in the file at ``path``, as ``load_instance(read_json(
    path))`` gives it, with the same error for a file that is not one.
    A file whose body is exactly as ``render`` writes it, as ``gen``
    writes it, is read without building a JSON value per record."""
    try:
        with open(path, encoding="utf-8") as fh:
            instance = _read_rendered(fh.read())
    except Exception:  # the JSON path raises the file's error, or reads what this cannot
        instance = None
    return load_instance(read_json(path)) if instance is None else instance


def load_instance(d: dict):
    """The instance a parsed instance document describes; ValueError for
    a document of no known kind or a malformed one."""
    try:
        cls = FILE_KINDS[d.get("kind")]
    except (KeyError, TypeError):
        raise ValueError(f"unrecognized instance kind {d.get('kind')!r}") from None
    try:
        return _goe_from_json_dict(d) if cls is np.ndarray else cls.from_json_dict(d)
    except KeyError as exc:
        raise ValueError(f"instance file lacks the field {exc}") from None
    except (TypeError, OverflowError) as exc:  # OverflowError: an int beyond a float
        raise ValueError(f"malformed instance file: {exc}") from None
