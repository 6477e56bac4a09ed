import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import batch_xor_counts, from_clauses, induced_xor, xor_sign_table
from solgeo.certificates import CountCertificate
from solgeo.counting import (
    aggregate_partition,
    certify_count_2xor,
    certify_count_kcsp,
    certify_count_ksat,
    certify_count_kxor,
    log2_binomial_tail,
    refute_from_count,
)
from solgeo.instances import (
    MultiGraph,
    Predicate,
    SignedHypergraph,
    UnsignedHypergraph,
    XorInstance,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    violation_budget,
)
from solgeo.jsonio import canonical_json
from solgeo.oracle import (
    binding_mismatch,
    brute_count,
    gaussian_count,
    verify_certificate,
    violation_profile,
)


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_log2_binomial_tail_small_exact():
    assert log2_binomial_tail(4, 0) == 0.0
    assert log2_binomial_tail(4, 1) == pytest.approx(math.log2(5))
    assert log2_binomial_tail(4, 4) == pytest.approx(4.0)
    assert log2_binomial_tail(10, 20) == pytest.approx(10.0)


def test_log2_binomial_tail_large_matches_exact():
    # the log-gamma path agrees with exact integer arithmetic
    n, r = 80, 13
    exact = math.log2(sum(math.comb(n, l) for l in range(r + 1)))
    assert log2_binomial_tail(n, r) == pytest.approx(exact, rel=1e-12)


def test_aggregate_partition_single_block():
    assert aggregate_partition(8, [8], [0.0]) == pytest.approx(8.0)


def test_aggregate_partition_equal_blocks():
    # l blocks of size s with equal bounds u: log2(l) + s + log2(u)
    log2_u = 2.5
    got = aggregate_partition(12, [3, 3, 3, 3], [log2_u] * 4)
    assert got == pytest.approx(math.log2(4) + 3 + log2_u)


def test_aggregate_partition_rejects_non_partition():
    with pytest.raises(ValueError):
        aggregate_partition(10, [3, 3], [0.0, 0.0])
    with pytest.raises(ValueError):
        aggregate_partition(6, [3, 3], [0.0])


@pytest.mark.parametrize("seed", range(4))
def test_average_partition_lemma_exhaustive(seed):
    # direct check of the block-aggregation lemma with exact per-block
    # counts: u_i = worst case over assignments to the block
    n, k = 10, 3
    I = sample_signed_hypergraph(k, n, 40, seed=seed).to_xor()
    if I.m == 0:
        pytest.skip("empty sample")
    blocks = [(0, 5), (5, 10)]
    ell = len(blocks)
    t = violation_budget(0.1, I.m)
    block_budget = (k * t) // ell
    total = 0.0
    for lo, hi in blocks:
        S = list(range(lo, hi))
        worst = 0
        for sigma_bits in itertools.product([-1, 1], repeat=len(S)):
            sigma = dict(zip(S, sigma_bits))
            ind = induced_xor(I, S, sigma, k - 1)
            if ind.m == 0:
                worst = 1 << (n - len(S))
                break
            viol = violation_profile(ind)
            # clauses avoid S, so the count factorizes over the block
            worst = max(worst, int((viol <= block_budget).sum()) >> len(S))
        total += (1 << len(S)) * worst
    exact = int((violation_profile(I) <= t).sum())
    assert total >= exact


# ---------------------------------------------------------------------------
# 2XOR
# ---------------------------------------------------------------------------

def test_2xor_failed_checks_fall_back():
    # two disjoint K4s: dense enough for a meaningful lambda2 threshold,
    # which the zero spectral gap then fails
    blocks = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges = blocks + [(i + 4, j + 4) for i, j in blocks]
    cert = certify_count_2xor(MultiGraph.build(8, edges), 0.0)
    assert cert.fallback and cert.log2_bound == 8.0
    assert any(c.name == "lambda2-threshold" and not c.passed for c in cert.checks)
    # a sparse disconnected graph falls back through the radius search
    sparse = certify_count_2xor(MultiGraph.build(6, [(0, 1), (2, 3), (4, 5)]), 0.0)
    assert sparse.fallback and sparse.log2_bound == 6.0


def test_2xor_eta_zero_bound_two():
    cert = certify_count_2xor(complete_graph(6), 0.0)
    assert not cert.fallback
    assert cert.log2_bound == pytest.approx(1.0)


def test_2xor_all_signings_of_k5():
    G = complete_graph(5)
    cert = certify_count_2xor(G, 0.0)
    table = xor_sign_table(UnsignedHypergraph(2, 5, G.edge_array))
    signings = np.array(list(itertools.product([-1, 1], repeat=G.m)), dtype=np.int8)
    counts = batch_xor_counts(table, signings, 0)
    assert counts.max() <= 2.0**cert.log2_bound + 1e-9
    # cross-check a sample against GF(2) elimination
    for row in range(0, len(signings), 97):
        I = XorInstance(2, 5, G.edge_array, signings[row])
        assert gaussian_count(I) == counts[row]


def test_2xor_empty_graph_falls_back():
    cert = certify_count_2xor(MultiGraph.build(4, []), 0.5)
    assert cert.fallback and cert.log2_bound == 4.0


# ---------------------------------------------------------------------------
# kXOR
# ---------------------------------------------------------------------------

def test_kxor_k2_delegates_to_2xor():
    G = complete_graph(6)
    H = UnsignedHypergraph(2, 6, G.edge_array)
    a = certify_count_kxor(H, 0.0)
    b = certify_count_2xor(G, 0.0)
    assert a.log2_bound == b.log2_bound
    assert a.fallback == b.fallback
    assert [c.name for c in a.checks] == [c.name for c in b.checks]


def test_kxor_partition_arithmetic_in_trace():
    H = sample_unsigned_hypergraph(3, 16, 64, seed=2)
    cert = certify_count_kxor(H, 0.05)
    c = cert.transcript["c"]
    size = cert.transcript["block_size"]
    blocks = cert.transcript["blocks"]
    assert size == max(1, math.ceil(16**c))
    assert blocks == math.ceil(16 ** (1 - c)) or blocks == math.ceil(16 / size)
    assert sum(entry["size"] for entry in cert.recursion_trace) == 16
    assert len(cert.recursion_trace) == blocks


def test_kxor_empty_hypergraph_falls_back():
    cert = certify_count_kxor(UnsignedHypergraph(3, 8, ()), 0.1)
    assert cert.fallback and cert.log2_bound == 8.0


@pytest.mark.parametrize("delta", [4, 8])
@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_kxor_soundness_sweep_small(delta, eta):
    n = 10
    rng = np.random.default_rng(17)
    for seed in range(10):
        H = sample_unsigned_hypergraph(3, n, delta * n, seed=seed)
        if H.m == 0:
            continue
        cert = certify_count_kxor(H, eta)
        table = xor_sign_table(H)
        random_signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(25, H.m))
        planted = np.stack(
            [table[i] for i in rng.integers(0, 1 << n, size=25)]
        ).astype(np.int8)
        counts = batch_xor_counts(
            table, np.concatenate([random_signs, planted]),
            violation_budget(eta, H.m),
        )
        assert counts.max() <= 2.0**cert.log2_bound + 1e-6


@pytest.mark.parametrize("k, n, m", [(5, 12, 3000), (6, 14, 1000)])
def test_kxor_recursion_past_half_the_arity_is_sound(k, n, m):
    # the recursion reaches 2XOR at depth k - 2, more than half the arity
    rng = np.random.default_rng(k)
    for seed in range(2):
        H = sample_unsigned_hypergraph(k, n, m, seed=seed)
        planted = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        signings = [*rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, H.m)),
                    planted[H.vars].prod(axis=1)]
        for eta in (0.0, 0.05):
            cert = certify_count_kxor(H, eta)
            for rhs in signings:
                count = brute_count(XorInstance(k, n, H.vars, rhs), None, eta).exact_value
                assert count <= 2.0**cert.log2_bound


# ---------------------------------------------------------------------------
# kSAT / kCSP
# ---------------------------------------------------------------------------

def test_ksat_slack_conversion_recorded():
    I = sample_signed_hypergraph(3, 12, 96, seed=3)
    eta = 0.05
    cert = certify_count_ksat(I, eta)
    eps = cert.transcript["quasirandom_eps"]
    assert cert.transcript["eta_x"] == pytest.approx(4 * eta + 3 * eps)


def test_ksat_fallback_on_hard_quasirandom_failure():
    I = SignedHypergraph(3, 6, [(0, 1, 2)], [(1, 1, 1)])  # eps = 1
    cert = certify_count_ksat(I, 0.1)
    assert cert.fallback and cert.log2_bound == 6.0
    assert any(c.name == "xor-principle-nontrivial" and not c.passed for c in cert.checks)


@pytest.mark.parametrize("seed", range(6))
def test_ksat_soundness_small(seed):
    n = 10
    I = sample_signed_hypergraph(3, n, 60, seed=seed)
    if I.m == 0:
        pytest.skip("empty sample")
    eta = 0.05
    cert = certify_count_ksat(I, eta)
    res = brute_count(I, Predicate.ksat(3), eta)
    assert verify_certificate(cert, res) == "sound"


def test_kcsp_identity_predicate_matches_ksat():
    I = sample_signed_hypergraph(3, 10, 50, seed=5)
    eta = 0.05
    via_csp = certify_count_kcsp(I, Predicate.ksat(3), eta)
    direct = certify_count_ksat(I, eta)
    assert via_csp.log2_bound == direct.log2_bound
    assert via_csp.fallback == direct.fallback
    assert via_csp.instance_sha256 == I.sha256()


@pytest.mark.parametrize("seed", range(4))
def test_kcsp_soundness_parity_predicate(seed):
    n = 10
    P = Predicate.parity(3)
    I = sample_signed_hypergraph(3, n, 70, seed=seed)
    if I.m == 0:
        pytest.skip("empty sample")
    eta = 0.05
    cert = certify_count_kcsp(I, P, eta)
    res = brute_count(I.to_xor(), None, eta)  # parity objective == xor objective
    assert verify_certificate(cert, res) == "sound"


def test_kcsp_fallback_propagates():
    I = SignedHypergraph(3, 6, [(0, 1, 2)], [(1, 1, 1)])
    cert = certify_count_kcsp(I, Predicate.parity(3), 0.0)
    assert cert.fallback


# ---------------------------------------------------------------------------
# refutation from counting
# ---------------------------------------------------------------------------

def _mock_count_cert(I: XorInstance, eta: float, log2_bound: float) -> CountCertificate:
    return CountCertificate(
        kind="count", n=I.n, log2_bound=log2_bound, eta=eta,
        fallback=log2_bound >= I.n, checks=(), instance_sha256=I.hypergraph().sha256(),
    )


def contradictory_instance(n: int = 12, pairs: int = 10) -> XorInstance:
    # clauses avoid variable 0 entirely; every assignment violates half
    clauses = []
    for i in range(pairs):
        S = (1 + i % (n - 3), 1 + (i + 1) % (n - 3), 1 + (i + 2) % (n - 3))
        clauses.append((1, S))
        clauses.append((-1, S))
    return from_clauses(XorInstance, 3, n, clauses)


def test_refute_from_count_trivial_bound_gives_nothing():
    I = contradictory_instance()
    cert = _mock_count_cert(I, 0.75, float(I.n))
    assert refute_from_count(I, cert, 0.75) is None


def test_refute_from_count_incidence_guard():
    # clauses touching the prefix set exceed the incidence budget
    I = XorInstance(3, 12, [(0, 1, 2)] * 12, [1] * 12)
    cert = _mock_count_cert(I, 0.9, 0.0)
    assert refute_from_count(I, cert, 0.9) is None


def test_refute_from_count_emission_logic():
    # synthetic premises: a tiny certified count over an instance whose
    # clauses avoid the flip set; the emitted conclusion is confirmed by
    # direct enumeration at the halved slack
    I = contradictory_instance()
    eta = 0.75
    cert = _mock_count_cert(I, eta, 0.5)
    ref = refute_from_count(I, cert, eta)
    assert ref is not None
    assert ref.eta_refuted == pytest.approx(0.375)
    assert ref.evidence["clause_incidence"] == 0
    res = brute_count(I, None, ref.eta_refuted)
    assert res.exact_value == 0
    assert verify_certificate(ref, res) == "sound"
    assert binding_mismatch(ref, res) is None
    assert ref.instance_sha256 == I.hypergraph().sha256()


def test_refute_from_count_validates_inputs():
    I = contradictory_instance()
    cert = _mock_count_cert(I, 0.2, 0.0)
    with pytest.raises(ValueError):
        refute_from_count(I, cert, 0.75)  # certificate slack too small


def test_refute_from_count_refuses_certificate_of_another_instance():
    I = contradictory_instance()
    other = contradictory_instance(pairs=9)
    assert other.n == I.n
    with pytest.raises(ValueError):
        refute_from_count(I, _mock_count_cert(other, 0.75, 0.5), 0.75)
    sk_kind = dataclasses.replace(_mock_count_cert(I, 0.75, 0.5), kind="sk-count")
    with pytest.raises(ValueError):
        refute_from_count(I, sk_kind, 0.75)


def test_certificates_deterministic_bytes():
    H = sample_unsigned_hypergraph(3, 12, 60, seed=4)
    a = canonical_json(certify_count_kxor(H, 0.05).to_json_dict())
    b = canonical_json(certify_count_kxor(H, 0.05).to_json_dict())
    assert a == b


def test_default_partition_is_contiguous_and_sound():
    H = sample_unsigned_hypergraph(3, 12, 12 * 8, seed=6)
    default = certify_count_kxor(H, 0.0)
    starts = [entry["start"] for entry in default.recursion_trace]
    sizes = [entry["size"] for entry in default.recursion_trace]
    assert len(sizes) > 1
    assert starts == [sum(sizes[:i]) for i in range(len(sizes))]
    assert sum(sizes) == 12
    table = xor_sign_table(H)
    rng = np.random.default_rng(0)
    signs = np.stack([table[i] for i in rng.integers(0, 1 << 12, size=40)]).astype(np.int8)
    counts = batch_xor_counts(table, signs, 0)
    assert counts.max() <= 2.0**default.log2_bound + 1e-9
