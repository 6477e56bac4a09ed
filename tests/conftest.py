import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from solgeo.instances import (
    MultiGraph,
    SignedHypergraph,
    XorInstance,
    sample_signed_hypergraph,
)


def thread_map(fn, items):
    """Map across seeds/cells on a small thread pool; numpy eigensolves
    release the GIL so this parallelizes the heavy sweeps."""
    cap = os.environ.get("SOLGEO_THREADS")
    workers = max(1, min(int(cap) if cap else (os.cpu_count() or 1), 8))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def petersen_graph() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return MultiGraph.build(10, outer + inner + spokes)


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
    clauses = []
    for c, S in base.clauses:
        pattern = tuple(ci * xstar[si] for ci, si in zip(c, S))
        if all(p == 1 for p in pattern):
            c = (-c[0],) + c[1:]
        clauses.append((c, S))
    return SignedHypergraph(3, n, tuple(clauses)), xstar

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
    return XorInstance(4, n, tuple(clauses))

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
    return SignedHypergraph(4, n, tuple(clauses))
