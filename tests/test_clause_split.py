"""``clause_split`` against frozen copies of the projections it replaced:
the kXOR block projection of the count recursion and the family-graph
loop of the kXOR balance certificate."""

import pytest

from solgeo.counting import _partition_blocks
from solgeo.instances import (
    UnsignedHypergraph,
    XorInstance,
    clause_split,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
)


def frozen_induced_block_hypergraph(H, block):
    """The block projection as the count recursion computed it before."""
    inside = set(block)
    remap = {}
    idx = 0
    for v in range(H.n):
        if v not in inside:
            remap[v] = idx
            idx += 1
    out = []
    for S in H.edges:
        hits = sum(1 for v in S if v in inside)
        if hits != 1:
            continue
        out.append(tuple(remap[v] for v in S if v not in inside))
    return UnsignedHypergraph(H.k - 1, H.n - len(block), tuple(out))


def frozen_balance_family(I, s):
    """The family graph edges and truncated clauses as the kXOR balance
    certificate computed them before."""
    clean = XorInstance(I.k, I.n, tuple((b, U) for b, U in I.clauses if len(set(U)) == I.k))
    Sset = set(range(s))
    remap = {v: i for i, v in enumerate(range(s, I.n))}
    edges = []
    for b, U in clean.clauses:
        outside = [v for v in U if v not in Sset]
        if len(outside) != 2:
            continue
        edges.append((remap[outside[0]], remap[outside[1]]))
    truncated = [
        (b, tuple(u for u in U if u in Sset))
        for b, U in clean.clauses
        if sum(u in Sset for u in U) == I.k - 2
    ]
    return edges, truncated


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_block_projection_matches_frozen(k, seed):
    n = 9 + 4 * seed
    H = sample_unsigned_hypergraph(k, n, 6 * n, seed=seed)
    assert any(len(set(S)) < k for S in H.edges)
    for c in (0.2, 0.35, 0.5, 0.75):
        for block in _partition_blocks(n, c):
            size = len(block)
            edges = tuple(
                tuple(v if v < block.start else v - size for v in out_part)
                for _, _, out_part in clause_split(H.edges, block, 1)
            )
            got = UnsignedHypergraph(k - 1, n - size, edges)
            want = frozen_induced_block_hypergraph(H, list(block))
            assert got.n == want.n
            assert got.edges == want.edges


@pytest.mark.parametrize("seed", range(4))
def test_balance_family_matches_frozen(seed):
    n = 10 + 3 * seed
    I = sample_signed_hypergraph(4, n, 8 * n, seed=seed).to_xor()
    assert any(len(set(U)) < 4 for _, U in I.clauses)
    for s in range(1, n - 1):
        family = [
            (I.clauses[i][0], in_part, out_part)
            for i, in_part, out_part in clause_split((U for _, U in I.clauses), range(s), 2)
            if len(set(in_part + out_part)) == 4
        ]
        edges, truncated = frozen_balance_family(I, s)
        assert [(u - s, v - s) for _, _, (u, v) in family] == edges
        assert [(b, in_part) for b, in_part, _ in family] == truncated


def test_split_parts_keep_tuple_order():
    tuples = [(5, 0, 7, 1), (0, 0, 2, 3), (4, 5, 6, 7)]
    assert list(clause_split(tuples, {0, 1}, 2)) == [(0, (0, 1), (5, 7)), (1, (0, 0), (2, 3))]
    assert list(clause_split(tuples, {0, 1}, 0)) == [(2, (), (4, 5, 6, 7))]
