"""Acceptance gate: soundness sweeps, exhaustive structural checks, and
statistical checks of the spectral facts the certifiers rely on.

Each criterion prints one PASS/FAIL line (run pytest with -s to stream
them); the asserts make the gate binding.  Heavy seed loops fan out on a
small thread pool (numpy eigensolves release the GIL).
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import (brute_poly_max, petersen_graph, planted_3sat, poly_from_terms, thread_map,
                      xor_sign_table)
from solgeo.counting import (
    certify_count_2xor,
    certify_count_ksat,
    certify_count_kxor,
    refute_from_count,
)
from solgeo.eigencount import (
    certify_count_indsets,
    certify_count_sk,
    eigenspace_window,
    hoffman_bound,
    refute_indset_from_count,
    subspace_count_bound,
)
from solgeo.geometry import (
    balanced_code_bound,
    certify_balance_3csp,
    certify_balance_kxor,
    certify_clusters_3xor,
    certify_primal_expansion,
    hyperedge_split_bounds,
)
from solgeo.instances import (
    MultiGraph,
    Predicate,
    UnsignedHypergraph,
    XorInstance,
    sample_goe,
    sample_regular_graph,
    sample_signed_hypergraph,
    sample_unsigned_hypergraph,
    violation_budget,
)
from solgeo.oracle import (
    brute_independent_sets,
    brute_subspace_count,
    certificate_from_json,
    gaussian_count,
    violation_profile,
)
from solgeo.refuter import refute_polynomial
from solgeo.spectral import demeaned_norm

pytestmark = pytest.mark.acceptance

# reduction calls harvested by criteria 1 and 8, re-checked by criterion 10
REDUCTION_LOG: dict[str, list] = {"count": [], "indset": []}


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def violation_matrix(H: UnsignedHypergraph, signings: np.ndarray) -> np.ndarray:
    """(2^n x num_signings) violation counts for XOR instances on H."""
    table = xor_sign_table(H)
    sat = (table.astype(np.float32) @ signings.astype(np.float32).T + H.m) / 2.0
    return H.m - np.rint(sat).astype(np.int32)


def mixed_signings(table: np.ndarray, m: int, num: int, seed: int) -> np.ndarray:
    """Half uniformly random signings, half planted around random centers."""
    rng = np.random.default_rng(seed)
    random_part = rng.choice(np.array([-1, 1], dtype=np.int8), size=(num // 2, m))
    centers = rng.integers(0, table.shape[0], size=num - num // 2)
    planted = np.stack([table[i] for i in centers]).astype(np.int8)
    return np.concatenate([random_part, planted])


# ---------------------------------------------------------------------------
# 1. count soundness sweep
# ---------------------------------------------------------------------------

def test_criterion_1_count_soundness_sweep():
    etas = [0.0, 0.05, 0.1]
    checks = 0
    violations = 0

    def run_cell(job):
        n, delta, seed = job
        cell_checks, cell_violations = 0, 0
        H = sample_unsigned_hypergraph(3, n, delta * n, seed=seed)
        if H.m > 0:
            table = xor_sign_table(H)
            signings = mixed_signings(table, H.m, 200, seed + 777)
            sat = (table.astype(np.float32) @ signings.astype(np.float32).T + H.m) / 2
            viol = H.m - np.rint(sat).astype(np.int32)
            for eta in etas:
                cert = certify_count_kxor(H, eta)
                counts = (viol <= violation_budget(eta, H.m)).sum(axis=0)
                cell_checks += len(counts)
                cell_violations += int((counts > 2.0**cert.log2_bound + 1e-6).sum())
                xor_inst = XorInstance(3, n, H.vars, signings[0])
                ref = refute_from_count(xor_inst, cert, eta)
                REDUCTION_LOG["count"].append((xor_inst, ref, eta, int(counts[0])))
        I = sample_signed_hypergraph(3, n, delta * n, seed=seed + 50_000)
        if I.m > 0:
            profile = violation_profile(I, Predicate.ksat(3))
            for eta in etas:
                cert = certify_count_ksat(I, eta)
                count = int((profile <= violation_budget(eta, I.m)).sum())
                cell_checks += 1
                if count > 2.0**cert.log2_bound + 1e-6:
                    cell_violations += 1
        return cell_checks, cell_violations

    jobs = [
        (n, delta, 10_000 * n + 100 * delta + i)
        for n in (12, 14)
        for delta in (2, 4, 8)
        for i in range(100)
    ]
    for c, v in thread_map(run_cell, jobs):
        checks += c
        violations += v

    report(
        1, "count soundness sweep", violations == 0,
        f"{violations} violations in {checks} certificate/oracle comparisons",
    )


# ---------------------------------------------------------------------------
# 2. 2XOR simultaneity on near-complete graphs
# ---------------------------------------------------------------------------

def test_criterion_2_2xor_all_signings():
    full = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    graphs = [full, full[:-1], full[:-2], full[:-3]]
    violations = 0
    signings_checked = 0
    for edges in graphs:
        G = MultiGraph.build(6, edges)
        cert = certify_count_2xor(G, 0.0)
        cap = 2.0**cert.log2_bound
        assert cert.fallback or cert.log2_bound == pytest.approx(1.0)
        table = xor_sign_table(UnsignedHypergraph(2, 6, G.edge_array))
        signings = np.array(
            list(itertools.product([-1, 1], repeat=G.m)), dtype=np.int8
        )
        sat = (table.astype(np.float32) @ signings.astype(np.float32).T + G.m) / 2
        counts = (np.rint(sat).astype(np.int32) == G.m).sum(axis=0)
        signings_checked += len(counts)
        violations += int((counts > cap + 1e-9).sum())
        # gaussian elimination agrees with the enumeration: every signing for
        # the smaller graphs, a stride sample for the largest
        stride = 1 if G.m <= 13 else 127
        for row in range(0, len(signings), stride):
            I = XorInstance(2, 6, G.edge_array, signings[row])
            assert gaussian_count(I) == counts[row]
    report(
        2, "2xor simultaneity", violations == 0,
        f"{violations} violations over {signings_checked} exhaustive signings",
    )


# ---------------------------------------------------------------------------
# 3. spectral statistics at scale
# ---------------------------------------------------------------------------

def test_criterion_3_spectral_statistics():
    n_er = 2000
    delta = n_er**0.4
    m_er = int(delta * n_er)

    def er_checks(seed):
        H = sample_unsigned_hypergraph(2, n_er, m_er, seed=seed)
        G = MultiGraph.build(n_er, [tuple(S) for S in H.edges])
        cert = certify_count_2xor(G, 0.0)
        return all(c.passed for c in cert.checks)

    er_pass = sum(thread_map(er_checks, range(100)))

    def goe_checks(seed):
        G = sample_goe(1000, seed=seed)
        win = eigenspace_window(G, 0.5, "top")
        ratio = win.lambda_top / math.sqrt(1000)
        semicircle = 0.5**1.5 / math.pi
        return (
            1.9 <= ratio <= 2.1,
            semicircle / 2 <= win.alpha <= 2 * semicircle,
        )

    goe = thread_map(goe_checks, range(100))
    goe_ratio_pass = sum(1 for a, _ in goe if a)
    goe_window_pass = sum(1 for _, b in goe if b)

    def regular_checks(seed):
        G = sample_regular_graph(2000, 3, seed=seed)
        nu = demeaned_norm(G)
        return abs(nu - 2 * math.sqrt(2)) <= 0.5

    reg_pass = sum(thread_map(regular_checks, range(100)))

    ok = er_pass >= 90 and goe_ratio_pass >= 95 and goe_window_pass >= 90 and reg_pass >= 95
    report(
        3, "spectral statistics", ok,
        f"ER checks {er_pass}/100 (need 90), GOE ratio {goe_ratio_pass}/100 (need 95), "
        f"GOE window {goe_window_pass}/100 (need 90), 3-regular norm {reg_pass}/100 (need 95)",
    )


# ---------------------------------------------------------------------------
# 4. polynomial refuter soundness
# ---------------------------------------------------------------------------

def test_criterion_4_refuter_soundness():
    rng = np.random.default_rng(404)
    violations = 0
    exactness_failures = 0
    for degree in (1, 2, 3, 4):
        for trial in range(1000):
            n = int(rng.choice([8, 10, 12, 16]))
            terms = {}
            for _ in range(int(rng.integers(1, 14))):
                T = tuple(int(v) for v in rng.integers(0, n, size=degree))
                terms[T] = terms.get(T, 0.0) + float(rng.normal())
            p = poly_from_terms(n, degree, terms)
            bound = refute_polynomial(p).value
            exact = brute_poly_max(p)
            if bound < exact - 1e-9:
                violations += 1
            if degree == 1 and abs(bound - exact) > 1e-9 * max(1, abs(exact)):
                exactness_failures += 1
    # the two-variable quadratic case with distinct indices is exact
    for trial in range(1000):
        w = {(0, 1): float(rng.normal()), (1, 0): float(rng.normal())}
        p = poly_from_terms(2, 2, w)
        bound = refute_polynomial(p).value
        exact = brute_poly_max(p)
        if abs(bound - exact) > 1e-9 * max(1.0, abs(exact)):
            exactness_failures += 1
    ok = violations == 0 and exactness_failures == 0
    report(
        4, "refuter soundness", ok,
        f"{violations} soundness violations, {exactness_failures} exactness failures "
        f"over 5000 polynomials",
    )


# ---------------------------------------------------------------------------
# 5. structural lemmas, exhaustively over every subset
# ---------------------------------------------------------------------------

def test_criterion_5_structural_exhaustive():
    n = 12
    violations = 0
    bits = np.array(
        [[(mask >> v) & 1 for v in range(n)] for mask in range(1 << n)], dtype=np.float64
    )
    sizes = bits.sum(axis=1).astype(int)

    def run_instance(seed):
        local = 0
        H = (
            sample_unsigned_hypergraph(3, n, (2 + 2 * (seed % 3)) * n, seed=seed)
            .without_repeats()
            .dedup()
        )
        if H.m == 0:
            return 0
        expansion = certify_primal_expansion(H)
        rep = expansion.report
        G = None
        from solgeo.instances import primal_graph
        from solgeo.spectral import (
            edge_expansion_lower_bound,
            mixing_interval,
            spectral_report,
        )

        G = primal_graph(H)
        A = G.adjacency()
        degrees = np.array(G.degrees, dtype=float)
        full_report = (
            spectral_report(G) if min(G.degrees) > 0 else rep
        )

        # exact T2/T3 per subset
        in_counts = np.zeros((1 << n, H.m), dtype=np.int8)
        for j, S in enumerate(H.edges):
            in_counts[:, j] = (bits[:, S[0]] + bits[:, S[1]] + bits[:, S[2]]).astype(np.int8)
        t2 = (in_counts == 2).sum(axis=1)
        t3 = (in_counts == 3).sum(axis=1)
        split_by_size = {
            s: hyperedge_split_bounds(H, rep, s / n - 0.5)
            for s in range(n // 2 + 1, n + 1)
        }
        for mask in range(1 << n):
            s = sizes[mask]
            if s <= n / 2:
                continue
            lb2, lb3 = split_by_size[s]
            if t2[mask] < lb2 - 1e-9 or t3[mask] < lb3 - 1e-9:
                local += 1

        # mixing over every ordered pair of subsets, in row blocks
        mix = {
            (s, t): mixing_interval(rep, s, t)
            for s in range(n + 1)
            for t in range(n + 1)
        }
        lows = np.array([[mix[(s, t)][0] for t in range(n + 1)] for s in range(n + 1)])
        highs = np.array([[mix[(s, t)][1] for t in range(n + 1)] for s in range(n + 1)])
        for start in range(0, 1 << n, 512):
            block = bits[start : start + 512]
            e_block = block @ A @ bits.T
            lo = lows[sizes[start : start + 512]][:, sizes]
            hi = highs[sizes[start : start + 512]][:, sizes]
            local += int((e_block < lo - 1e-9).sum())
            local += int((e_block > hi + 1e-9).sum())

        # Cheeger expansion bound per size, for volume-minority subsets
        if min(G.degrees) > 0:
            cut = np.einsum("ij,ij->i", bits @ A, 1.0 - bits)
            volumes = bits @ degrees
            total_volume = degrees.sum()
            for s in range(1, n):
                bound = edge_expansion_lower_bound(full_report, s)
                eligible = (sizes == s) & (volumes <= total_volume / 2)
                if eligible.any() and cut[eligible].min() < bound - 1e-9:
                    local += 1
        return local

    for v in thread_map(run_instance, range(50)):
        violations += v
    report(
        5, "structural lemma exhaustiveness", violations == 0,
        f"{violations} violations over 50 instances x 2^12 subsets",
    )


# ---------------------------------------------------------------------------
# 6. cluster certificates
# ---------------------------------------------------------------------------

def test_criterion_6_cluster_certificates():
    n, delta, eta = 14, 140, 0.05
    stats = {"non_fallback": 0, "violations": 0, "signings": 0}

    def run_instance(seed):
        H = sample_unsigned_hypergraph(3, n, delta * n, seed=seed)
        cert = certify_clusters_3xor(H, eta, c0=6.0)
        if cert.fallback:
            return (0, 0, 0)
        budget = violation_budget(eta, H.m)
        table = xor_sign_table(H)
        signings = mixed_signings(table, H.m, 200, seed + 999)
        sat = (table.astype(np.float32) @ signings.astype(np.float32).T + H.m) / 2
        viol = H.m - np.rint(sat).astype(np.int32)
        theta_n = cert.theta * n
        lo, hi = cert.gap_interval
        cap = 2.0**cert.log2_cluster_bound
        bad = 0
        for col in range(viol.shape[1]):
            sols = np.nonzero(viol[:, col] <= budget)[0].astype(np.uint64)
            if len(sols) == 0:
                continue
            for i in range(len(sols)):
                d = np.bitwise_count(sols[i + 1 :] ^ sols[i])
                outside = (d > theta_n + 1e-9) & ((d < lo - 1e-9) | (d > hi + 1e-9))
                bad += int(outside.sum())
            remaining = sols
            covers = 0
            while len(remaining):
                covers += 1
                dist = np.bitwise_count(remaining ^ remaining[0])
                remaining = remaining[dist > theta_n + 1e-9]
            if covers > cap + 1e-9:
                bad += 1
        return (1, bad, viol.shape[1])

    for nf, bad, signings in thread_map(run_instance, range(50)):
        stats["non_fallback"] += nf
        stats["violations"] += bad
        stats["signings"] += signings

    ok = stats["violations"] == 0 and stats["non_fallback"] > 0
    report(
        6, "cluster certificates", ok,
        f"{stats['non_fallback']}/50 non-fallback, {stats['violations']} violations "
        f"over {stats['signings']} signings",
    )


# ---------------------------------------------------------------------------
# 7. balance certificates
# ---------------------------------------------------------------------------

def test_criterion_7_balance_certificates():
    n = 14
    P = Predicate.ksat(3)
    emitted = 0
    violations = 0
    declined = 0

    def run_k3(seed):
        nonlocal_stats = [0, 0, 0]
        I, _ = planted_3sat(n, 140 * n, 9, seed=seed)
        profile = violation_profile(I, P)
        ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
        biases = np.abs(n - 2 * ones) / n
        for rho in (0.7, 0.85):
            cert = certify_balance_3csp(I, P, rho=rho, eta=0.02)
            if cert is None:
                nonlocal_stats[2] += 1
                continue
            nonlocal_stats[0] += 1
            budget = violation_budget(cert.eta, I.m)
            sols = profile <= budget
            if sols.any() and biases[sols].max() >= cert.rho - 1e-12:
                nonlocal_stats[1] += 1
        return nonlocal_stats

    for e, v, d in thread_map(run_k3, range(25)):
        emitted += e
        violations += v
        declined += d

    k4_emitted = 0
    for seed in range(15):
        I = sample_signed_hypergraph(4, n, 60 * n, seed=seed).to_xor()
        if I.m == 0:
            continue
        cert = certify_balance_kxor(I, rho=0.5)
        if cert is None:
            declined += 1
            continue
        k4_emitted += 1
        profile = violation_profile(I)
        budget = violation_budget(cert.eta, I.m)
        sols = np.nonzero(profile <= budget)[0].astype(np.uint64)
        if len(sols):
            ones = np.bitwise_count(sols).astype(np.int64)
            if (np.abs(n - 2 * ones) / n).max() >= cert.rho - 1e-12:
                violations += 1

    ok = violations == 0 and emitted > 0
    report(
        7, "balance certificates", ok,
        f"k=3 emitted {emitted}, k=4 emitted {k4_emitted}, declined {declined}, "
        f"{violations} oracle contradictions",
    )


# ---------------------------------------------------------------------------
# 8. SK and independent sets
# ---------------------------------------------------------------------------

def test_criterion_8_sk_and_independent_sets():
    sk_violations = 0

    def run_sk(seed):
        n = 18
        G = sample_goe(n, seed=seed)
        vals = np.empty(1 << n)
        for start in range(0, 1 << n, 1 << 15):
            idx = np.arange(start, start + (1 << 15), dtype=np.uint32)
            X = 1.0 - 2.0 * np.stack(
                [((idx >> v) & 1).astype(np.float64) for v in range(n)], axis=1
            )
            vals[start : start + (1 << 15)] = np.einsum("ij,ij->i", X @ G, X)
        bad = 0
        for eta in (0.05, 0.1):
            cert = certify_count_sk(G, eta)
            count = int((vals >= 2 * (1 - eta) * n**1.5 - 1e-9).sum())
            if count > 2.0**cert.log2_bound + 1e-6:
                bad += 1
        return bad

    for b in thread_map(run_sk, range(50)):
        sk_violations += b

    ind_violations = 0
    hoffman_failures = 0

    def run_indset(seed):
        n = 26 if seed % 2 == 0 else 20
        G = sample_regular_graph(n, 3, seed=seed)
        cert = certify_count_indsets(G, eta=0.2)
        threshold = max(int(cert.transcript["threshold_size"]), 1)
        res = brute_independent_sets(G, threshold)
        bad = 0
        if res.exact_value["count"] > 2.0**cert.log2_bound + 1e-6:
            bad += 1
        hoffman_bad = 1 if hoffman_bound(G) < res.exact_value["alpha"] else 0
        ref = refute_indset_from_count(G, cert, 0.2)
        REDUCTION_LOG["indset"].append((res.exact_value["alpha"], ref))
        return bad, hoffman_bad

    for b, h in thread_map(run_indset, range(50)):
        ind_violations += b
        hoffman_failures += h

    pet = petersen_graph()
    petersen_ok = hoffman_bound(pet) == 4 == brute_independent_sets(pet, 1).exact_value["alpha"]

    ok = sk_violations == 0 and ind_violations == 0 and hoffman_failures == 0 and petersen_ok
    report(
        8, "SK and independent sets", ok,
        f"SK violations {sk_violations}/100, indset violations {ind_violations}/50, "
        f"hoffman failures {hoffman_failures}/50, petersen tight: {petersen_ok}",
    )


# ---------------------------------------------------------------------------
# 9. subspace counting theorem
# ---------------------------------------------------------------------------

def test_criterion_9_subspace_theorem():
    n = 16
    violations = 0
    rng = np.random.default_rng(909)
    for eps in (0.1, 0.2):
        for seed in range(100):
            dim = int(rng.integers(1, 5))
            basis = np.random.default_rng(seed).normal(size=(n, dim))
            count = brute_subspace_count(basis, eps)
            bound = subspace_count_bound(dim / n, eps, n)
            if math.log2(max(count, 1)) > bound + 1e-9:
                violations += 1

    # subcube stress case: near-tight family spanned by a fixed prefix
    alpha_n = 4
    words = np.array(
        list(itertools.product([-1.0, 1.0], repeat=alpha_n)), dtype=float
    )
    subcube = np.hstack([np.ones((len(words), n - alpha_n)), words]) / math.sqrt(n)
    basis = subcube.T  # spans a subspace of dimension alpha_n + 1
    eps = 0.2
    count = brute_subspace_count(basis, eps)
    bound = subspace_count_bound((alpha_n + 1) / n, eps, n)
    subcube_ok = count >= len(words) and math.log2(max(count, 1)) <= bound + 1e-9
    if not subcube_ok:
        violations += 1

    report(
        9, "subspace counting", violations == 0,
        f"{violations} violations over 200 random subspaces plus the subcube stress case",
    )


# ---------------------------------------------------------------------------
# 10. reductions and the code bound
# ---------------------------------------------------------------------------

def test_criterion_10_reductions_and_code_bound():
    contradiction = 0

    count_log = REDUCTION_LOG["count"]
    if not count_log:
        # standalone run: rebuild a small corpus
        for seed in range(40):
            H = sample_unsigned_hypergraph(3, 12, 48, seed=seed)
            if H.m == 0:
                continue
            eta = 0.1
            cert = certify_count_kxor(H, eta)
            table = xor_sign_table(H)
            signs = table[seed % (1 << 12)]
            I = XorInstance(3, 12, H.vars, signs)
            count = int(
                (violation_profile(I) <= violation_budget(eta, I.m)).sum()
            )
            count_log.append((I, refute_from_count(I, cert, eta), eta, count))
    emitted_count = 0
    for I, ref, eta, _count in count_log:
        if ref is None:
            continue
        emitted_count += 1
        half_count = int(
            (violation_profile(I) <= violation_budget(ref.eta_refuted, I.m)).sum()
        )
        if half_count > 0:
            contradiction += 1

    indset_log = REDUCTION_LOG["indset"]
    if not indset_log:
        for seed in range(20):
            G = sample_regular_graph(16, 3, seed=seed)
            cert = certify_count_indsets(G, eta=0.2)
            alpha = brute_independent_sets(G, 1).exact_value["alpha"]
            indset_log.append((alpha, refute_indset_from_count(G, cert, 0.2)))
    emitted_indset = 0
    for alpha, ref in indset_log:
        if ref is None:
            continue
        emitted_indset += 1
        if alpha >= ref.evidence["refuted_size"]:
            contradiction += 1

    # a genuinely emitting instance keeps the reduction path honest
    block = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    cliques = MultiGraph.build(8, block + [(u + 4, v + 4) for u, v in block])
    cert = certify_count_indsets(cliques, eta=0.4)
    ref = refute_indset_from_count(cliques, cert, 0.4)
    cliques_alpha = brute_independent_sets(cliques, 1).exact_value["alpha"]
    hand_emitted = ref is not None and cliques_alpha < ref.evidence["refuted_size"]

    # code bound dominates every greedy balanced-code witness
    rng = np.random.default_rng(10)
    n_code, eps_code = 14, 0.15
    lo = (1 - eps_code) / 2 * n_code
    hi = (1 + eps_code) / 2 * n_code
    best = 0
    for _ in range(1000):
        code: list[int] = []
        for cand in rng.integers(0, 1 << n_code, size=60):
            cand = int(cand)
            if all(lo <= bin(cand ^ w).count("1") <= hi for w in code):
                code.append(cand)
        best = max(best, len(code))
    code_ok = balanced_code_bound(eps_code, n_code) >= math.log2(max(best, 1))

    ok = contradiction == 0 and hand_emitted and code_ok
    report(
        10, "reductions and code bound", ok,
        f"{contradiction} contradictions ({emitted_count} count-refutations, "
        f"{emitted_indset} indset-refutations, hand-built emission: {hand_emitted}), "
        f"code witness {best} within bound: {code_ok}",
    )


# ---------------------------------------------------------------------------
# 11. determinism and schema conformance
# ---------------------------------------------------------------------------

def test_criterion_11_determinism_and_schema(tmp_path):
    import jsonschema

    from solgeo import schemas
    from solgeo.cli import main
    from solgeo.jsonio import read_json

    def run(*argv):
        assert main(list(argv)) in (0,)

    produced = []

    def twice(name, *argv):
        paths = []
        for rep in ("x", "y"):
            out = tmp_path / f"{rep}_{name}"
            run(*argv, "--out", str(out))
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes(), name
        produced.append(paths[0])
        return paths[0]

    xor = twice("xor.json", "gen", "--kind", "xor", "-k", "3", "-n", "12", "-m", "96", "--seed", "5")
    csp = twice("csp.json", "gen", "--kind", "csp", "-k", "3", "-n", "12", "-m", "96", "--seed", "5")
    reg = twice("reg.json", "gen", "--kind", "regular", "-n", "14", "-d", "3", "--seed", "5")
    goe = twice("goe.json", "gen", "--kind", "goe", "-n", "12", "--seed", "5")

    twice("count.json", "certify", "--kind", "count", "--instance", str(xor), "--eta", "0.05")
    twice("clusters.json", "certify", "--kind", "clusters", "--instance", str(xor),
          "--eta", "0.05", "--c0", "6.0")
    twice("balance.json", "certify", "--kind", "balance", "--instance", str(csp),
          "--rho", "0.6", "--eta", "0.02")
    sk = twice("sk.json", "certify", "--kind", "sk", "--instance", str(goe), "--eta", "0.1")
    ind = twice("ind.json", "certify", "--kind", "indset", "--instance", str(reg), "--eta", "0.2")

    twice("o_count.json", "oracle", "--kind", "count", "--instance", str(xor), "--eta", "0.05")
    twice("o_count_exact.json", "oracle", "--kind", "count", "--instance", str(xor))
    o_sk = twice("o_sk.json", "oracle", "--kind", "sk", "--instance", str(goe), "--eta", "0.1")
    o_ind = twice("o_ind.json", "oracle", "--kind", "indset", "--instance", str(reg), "--eta", "0.2")

    assert main(["verify", "--certificate", str(sk), "--oracle", str(o_sk)]) == 0
    assert main(["verify", "--certificate", str(ind), "--oracle", str(o_ind)]) == 0

    config = {
        "kind": "count", "instance": "xor",
        "grid": {"n": [10], "k": [3], "delta": [4], "eta": [0.0, 0.1]},
        "seeds": 2, "oracle_max_n": 10,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rows_a, rows_b = tmp_path / "rows_a.jsonl", tmp_path / "rows_b.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(rows_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(rows_b)]) == 0
    assert rows_a.read_bytes() == rows_b.read_bytes()
    for line in rows_a.read_text().splitlines():
        jsonschema.validate(json.loads(line), schemas.SWEEP_ROW)

    schema_failures = 0
    for path in produced:
        doc = read_json(str(path))
        try:
            jsonschema.validate(doc, schemas.schema_for(doc))
        except jsonschema.ValidationError:
            schema_failures += 1
    # loading any certificate back through the typed layer round-trips
    for name in ("x_count.json", "x_clusters.json", "x_sk.json", "x_ind.json"):
        doc = read_json(str(tmp_path / name))
        cert = certificate_from_json(doc)
        assert cert.to_json_dict() == doc

    report(
        11, "determinism and schema", schema_failures == 0,
        f"{len(produced)} artifact kinds byte-identical on rerun, "
        f"{schema_failures} schema failures",
    )
