import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest

from solgeo.cli import _worker_count
from solgeo.instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    clause_split,
    index_to_signs,
    sample_signed_hypergraph,
)
from solgeo.oracle import _walsh_hadamard, clause_masks
from solgeo.refuter import SparsePolynomial


def thread_map(fn, items):
    """Map across seeds/cells on a small thread pool; numpy eigensolves
    release the GIL so this parallelizes the heavy sweeps.  The pool size
    is `solgeo sweep`'s (``SOLGEO_THREADS``, ValueError if malformed)."""
    workers = _worker_count()
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def petersen_graph() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return MultiGraph.build(10, outer + inner + spokes)


def from_clauses(cls, k: int, n: int, clauses):
    """A SignedHypergraph or XorInstance from its clause list: the
    (signs, vars) or (rhs, vars) pairs its ``clauses`` property reads
    back."""
    return cls(k, n, [S for _, S in clauses], [payload for payload, _ in clauses])


def poly_from_terms(n: int, degree: int, terms: dict) -> SparsePolynomial:
    """The polynomial sum_T terms[T] x^T, from a {key tuple: weight} dict."""
    keys = np.array(list(terms), dtype=np.int64).reshape(-1, degree)
    return SparsePolynomial(n, keys, np.array(list(terms.values()), dtype=float))


def brute_poly_max(p: SparsePolynomial) -> float:
    """max over the hypercube of p(x), by evaluating every point."""
    idx = np.arange(1 << p.n, dtype=np.uint64)
    total = np.zeros(1 << p.n)
    for T, w in zip(p.keys.tolist(), p.weights.tolist()):
        mask = 0
        for v in T:
            mask ^= 1 << v
        parity = (np.bitwise_count(idx & np.uint64(mask)) & 1).astype(np.float64)
        total += w * (1.0 - 2.0 * parity)
    return float(total.max())


def xor_sign_table(H: UnsignedHypergraph) -> np.ndarray:
    """(2^n x m) matrix of prod(x[S]) over all assignments, as int8."""
    idx = np.arange(1 << H.n, dtype=np.uint64)
    table = np.empty((len(idx), H.m), dtype=np.int8)
    for j, mask in enumerate(np.array(clause_masks(H.vars), dtype=np.uint64)):
        table[:, j] = 1 - 2 * (np.bitwise_count(idx & mask).astype(np.int8) & 1)
    return table


def batch_xor_counts(table: np.ndarray, signings: np.ndarray, budget: int) -> np.ndarray:
    """Number of assignments violating at most ``budget`` clauses, for each
    signing (rows of ``signings``, entries +-1)."""
    m = table.shape[1]
    sat = (table.astype(np.float32) @ signings.astype(np.float32).T + m) / 2.0
    violations = m - np.rint(sat)
    return (violations <= budget).sum(axis=0).astype(np.int64)


def xor_violations(I: XorInstance, x) -> int:
    """Number of clauses of an XOR instance violated by x."""
    return int((np.asarray(x)[I.vars].prod(axis=1) != I.rhs).sum())


def fourier_transform(table: Sequence[float], k: int) -> dict[tuple[int, ...], float]:
    """Fourier coefficients f_hat(T) = E_z[f(z) * prod_{i in T} z_i] of a
    function given as a table indexed by the sign-vector encoding."""
    if len(table) != 1 << k:
        raise ValueError("table length must be 2^k")
    coeffs = _walsh_hadamard(np.array(table, dtype=float)) / (1 << k)
    return {tuple(i for i in range(k) if (mask >> i) & 1): c
            for mask, c in enumerate(coeffs.tolist())}


def _pattern_indices(I: SignedHypergraph, x: Sequence[int] | np.ndarray) -> np.ndarray:
    """For each clause (c, S) of I, the index of the sign vector c o x_S."""
    z = I.signs * np.asarray(x)[I.vars]
    if (np.abs(z) != 1).any():
        raise ValueError("assignment entries must be +-1")
    return (z == -1) @ (1 << np.arange(I.k))


def evaluate(I: SignedHypergraph, P: Predicate, x: Sequence[int] | np.ndarray) -> float:
    """Fraction of clauses of I satisfied by x under predicate P."""
    if I.m == 0:
        raise ValueError("cannot evaluate an empty instance")
    if P.k != I.k:
        raise ValueError("predicate arity does not match instance")
    return int(np.asarray(P.table)[_pattern_indices(I, x)].sum()) / I.m


@dataclass(frozen=True)
class DensityTable:
    """The local distribution of sign patterns c o x_S over the clauses of
    an instance, scaled by 2^k, together with its Fourier coefficients."""

    k: int
    values: dict[tuple[int, ...], float]
    fourier: dict[tuple[int, ...], float]


def density_table(I: SignedHypergraph, x: Sequence[int] | np.ndarray) -> DensityTable:
    """Local distribution D_{I,x} (density scaled by 2^k) and its Fourier
    coefficients; D_hat(empty) == 1 by normalization."""
    if I.m == 0:
        raise ValueError("cannot build the density table of an empty instance")
    k = I.k
    counts = np.bincount(_pattern_indices(I, x), minlength=1 << k).astype(float)
    table = counts * ((1 << k) / I.m)
    values = {index_to_signs(idx, k): float(table[idx]) for idx in range(1 << k)}
    fourier = fourier_transform(table.tolist(), k)
    return DensityTable(k, values, fourier)


def induced_xor(
    I: XorInstance, S: Iterable[int], sigma: Mapping[int, int], t: int
) -> XorInstance:
    """The induced tXOR instance: clauses with exactly k-t variables in S
    are projected onto their non-S variables, with the rhs multiplied by
    the sigma-values of the dropped S-variables."""
    if not (1 <= t <= I.k - 1):
        raise ValueError(f"t must be in [1, k-1], got {t}")
    rows, in_part, out_part = clause_split(I.vars, S, I.k - t)
    # a variable of S without a sigma-value leaves a 0 rhs, which is refused
    values = np.zeros(I.n, dtype=np.int64)
    values[list(sigma)] = list(sigma.values())
    return XorInstance(t, I.n, out_part, I.rhs[rows] * values[in_part].prod(axis=1))


def truncated_xor(I: XorInstance, S: Iterable[int], arity: int) -> XorInstance:
    """The truncated (k-t)XOR instance on S: same clause selection as the
    induced instance, but keeping the S-variables and the original rhs."""
    if not (1 <= arity <= I.k - 1):
        raise ValueError(f"truncated arity must be in [1, k-1], got {arity}")
    rows, in_part, _ = clause_split(I.vars, S, arity)
    return XorInstance(arity, I.n, in_part, I.rhs[rows])


def planted_xor_signs(table: np.ndarray, indices) -> np.ndarray:
    """Signings under which the given assignment indices satisfy exactly."""
    return np.stack([table[i] for i in indices]).astype(np.int8)


@pytest.fixture
def petersen() -> MultiGraph:
    return petersen_graph()


def planted_3sat(n: int, m: int, plus_count: int, seed: int) -> tuple[SignedHypergraph, np.ndarray]:
    """Random 3SAT instance with signs repaired so a planted assignment
    with the given number of +1 entries satisfies every clause."""
    rng = np.random.default_rng(seed)
    xstar = np.array([1] * plus_count + [-1] * (n - plus_count))
    rng.shuffle(xstar)
    base = sample_signed_hypergraph(3, n, m, seed)
    signs = base.signs.copy()
    signs[(signs * xstar[base.vars] == 1).all(axis=1), 0] *= -1
    return SignedHypergraph(3, n, base.vars, signs), xstar


def synthetic_balanced_k4(n: int = 64, mu: int = 100, seed: int = 42) -> XorInstance:
    """Every outside pair carries exactly mu clauses whose S-part is a
    random pair, making the family graph a perfect complete multigraph."""
    rng = np.random.default_rng(seed)
    s = n // 2
    clauses = []
    for u in range(s, n):
        for v in range(u + 1, n):
            for _ in range(mu):
                a = int(rng.integers(0, s))
                b = int(rng.integers(0, s))
                while b == a:
                    b = int(rng.integers(0, s))
                clauses.append((int(rng.choice([-1, 1])), (a, b, u, v)))
    return from_clauses(XorInstance, 4, n, clauses)


def sign_cube_k4(n: int = 64, tuples_per_pair: int = 6, seed: int = 9) -> SignedHypergraph:
    """Structured 4CSP carrying the full sign cube over each tuple, so every
    local Fourier coefficient polynomial vanishes identically (eps = 0)."""
    rng = np.random.default_rng(seed)
    s = n // 2
    patterns = list(itertools.product([-1, 1], repeat=4))
    clauses = []
    for u in range(s, n):
        for v in range(u + 1, n):
            for _ in range(tuples_per_pair):
                a = int(rng.integers(0, s))
                b = int(rng.integers(0, s))
                while b == a:
                    b = int(rng.integers(0, s))
                for c in patterns:
                    clauses.append((c, (a, b, u, v)))
    return from_clauses(SignedHypergraph, 4, n, clauses)
