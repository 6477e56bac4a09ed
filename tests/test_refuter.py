import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_poly_max, density_table, poly_from_terms
from solgeo.instances import (
    Predicate,
    SignedHypergraph,
    XorInstance,
    index_to_signs,
    sample_signed_hypergraph,
    violation_budget,
)
from solgeo import refuter
from solgeo.certificates import CheckRecord
from solgeo.oracle import violation_profile
from solgeo.refuter import (
    SparsePolynomial,
    certify_quasirandom,
    kxor_principle,
    refute_polynomial,
)
from solgeo.spectral import UNIT_ROUNDOFF, EigensolverError, prove_side


def random_poly(n: int, degree: int, terms: int, seed: int) -> SparsePolynomial:
    rng = np.random.default_rng(seed)
    coeffs = {}
    for _ in range(terms):
        T = tuple(int(v) for v in rng.integers(0, n, size=degree))
        coeffs[T] = coeffs.get(T, 0.0) + float(rng.normal())
    return poly_from_terms(n, degree, coeffs)


def test_linear_is_exact():
    p = poly_from_terms(3, 1, {(0,): 1.0, (1,): -2.0, (2,): 3.0})
    res = refute_polynomial(p)
    assert res.value == pytest.approx(6.0)
    assert res.value == pytest.approx(brute_poly_max(p))


def test_quadratic_two_variable_exact():
    p = poly_from_terms(2, 2, {(0, 1): 1.0, (1, 0): 1.0})
    res = refute_polynomial(p)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert brute_poly_max(p) == pytest.approx(2.0)


def test_quadratic_norm_is_proved(monkeypatch):
    p = random_poly(12, 2, 30, seed=5)
    assert refute_polynomial(p).branches["quadratic-norm"] >= brute_poly_max(p)
    true_eigvalsh = np.linalg.eigvalsh

    def shrunk(M):
        return true_eigvalsh(M) * (1.0 - 1e-9)

    monkeypatch.setattr(np.linalg, "eigvalsh", shrunk)
    with pytest.raises(EigensolverError):
        refute_polynomial(p)


def test_quadratic_norm_value_unchanged_at_desk_scale():
    # up to n = 105 the bound is n |W| (1 + SPECTRAL_REL_SLACK), as before
    p = random_poly(12, 2, 30, seed=6)
    W = np.zeros((12, 12))
    for (a, b), w in zip(p.keys.tolist(), p.weights.tolist()):
        W[a, b] += w / 2.0
        W[b, a] += w / 2.0
    norm = float(np.max(np.abs(np.linalg.eigvalsh(W))))
    assert refute_polynomial(p).branches["quadratic-norm"] == 12 * norm * (1.0 + 1e-11)


def test_cancelling_quadratic_has_zero_norm():
    p = poly_from_terms(3, 2, {(0, 1): 1.5, (1, 0): -1.5})
    assert refute_polynomial(p).branches["quadratic-norm"] == 0.0


def test_single_cubic_term():
    p = poly_from_terms(8, 3, {(0, 1, 2): 1.0})
    res = refute_polynomial(p)
    assert res.value == pytest.approx(1.0)
    assert res.branch == "abs-sum"


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_soundness_random_polynomials(degree):
    for seed in range(60):
        p = random_poly(8, degree, 12, seed * 4 + degree)
        res = refute_polynomial(p)
        assert res.value >= brute_poly_max(p) - 1e-9


def test_scaling_property():
    p = random_poly(6, 2, 10, seed=0)
    base = refute_polynomial(p).value
    for c in (0.5, 2.0, 7.25):
        scaled = SparsePolynomial(6, p.keys, c * p.weights)
        got = refute_polynomial(scaled).value
        assert got == pytest.approx(c * base, rel=1e-9)


def negated(p: SparsePolynomial) -> SparsePolynomial:
    return SparsePolynomial(p.n, p.keys, -p.weights)


def test_negation_gives_min_side():
    p = random_poly(6, 3, 8, seed=5)
    res_neg = refute_polynomial(negated(p))
    assert res_neg.value >= -min(
        -brute_poly_max(negated(p)), 0
    ) - 1e-9  # sound on the negated side too
    assert res_neg.value >= brute_poly_max(negated(p)) - 1e-9


def test_flatten_holder_branch_bounds_the_maximum(monkeypatch):
    polys = [random_poly(6, 3, 12, seed) for seed in range(20)]
    dense = [refuter._flatten_bound(p) for p in polys]
    # every flattening is now above the limit: sqrt(max row sum * max column sum)
    monkeypatch.setattr(refuter, "_DENSE_FLATTEN_LIMIT", 0)
    holder = [refuter._flatten_bound(p) for p in polys]
    for p, h, d in zip(polys, holder, dense):
        assert h >= max(brute_poly_max(p), brute_poly_max(negated(p)))
        assert h >= d
    assert holder != dense


# ---------------------------------------------------------------------------
# quasirandomness
# ---------------------------------------------------------------------------

def brute_max_coefficient(I: SignedHypergraph, T: tuple[int, ...]) -> float:
    worst = 0.0
    n = I.n
    for mask in range(1 << n):
        x = np.array([1 if not (mask >> v) & 1 else -1 for v in range(n)])
        table = density_table(I, x)
        worst = max(worst, abs(table.fourier[T]))
    return worst


def test_quasirandom_all_plus_single_variable():
    # all signs +1: the T={0} coefficient polynomial has every weight
    # positive, so the absolute-sum branch equals the exhaustive maximum;
    # the singletons' bounds sit inside the certificate of every order below k
    I = SignedHypergraph(3, 6, [(i % 6, (i + 1) % 6, (i + 2) % 6) for i in range(9)],
                         [(1, 1, 1)] * 9)
    cert = certify_quasirandom(I)
    assert cert.t == 2 and list(cert.per_T_bounds) == ["0", "1", "0,1", "2", "0,2", "1,2"]
    for i in range(3):
        assert cert.per_T_bounds[str(i)] == pytest.approx(brute_max_coefficient(I, (i,)), abs=1e-9)


def test_quasirandom_single_clause_is_fully_biased():
    I = SignedHypergraph(3, 5, [(0, 1, 2)], [(1, -1, 1)])
    cert = certify_quasirandom(I)
    # every singleton coefficient of the one clause is +-1, and so is every pair's
    for key in ("0", "1", "2"):
        assert cert.per_T_bounds[key] == pytest.approx(1.0)
    assert cert.eps == pytest.approx(1.0)


def test_quasirandom_bounds_hold_exhaustively():
    for seed in range(5):
        I = sample_signed_hypergraph(3, 8, 30, seed=seed)
        if I.m == 0:
            continue
        cert = certify_quasirandom(I)
        for key, bound in cert.per_T_bounds.items():
            T = tuple(map(int, key.split(",")))
            assert bound >= brute_max_coefficient(I, T) - 1e-9


def test_quasirandom_rejects_bad_input():
    with pytest.raises(ValueError):
        certify_quasirandom(SignedHypergraph(3, 8, [], []))


@pytest.mark.slow
def test_quasirandom_eps_at_scale():
    # threshold frozen from a pilot at these parameters (measured ~0.146)
    n = 2000
    m = int(n**1.6)
    good = 0
    for seed in range(10):
        I = sample_signed_hypergraph(3, n, m, seed)
        cert = certify_quasirandom(I)
        if cert.eps <= 0.2:
            good += 1
    assert good >= 9


# ---------------------------------------------------------------------------
# XOR principle
# ---------------------------------------------------------------------------

# kSAT, parity, and at-least-two-plus, whose first zero (-1, -1, 1) is neither's
PREDICATES = (Predicate.ksat(3), Predicate.parity(3),
              Predicate(3, tuple(int(bin(idx).count("1") <= 1) for idx in range(8))))


def test_xor_principle_formula_arithmetic():
    I = sample_signed_hypergraph(3, 10, 60, seed=1)
    eta = 0.01
    res = kxor_principle(I, Predicate.ksat(3))
    eps = res.quasirandomness.eps
    assert res.instance == I  # kSAT's zero is the all-plus string
    assert res.eta_x(eta) == pytest.approx(4 * eta + 3 * eps)
    # with eta=0 and eps=0 the bound would be exactly 1
    assert res.eta_x(0.0) == pytest.approx(3 * eps)
    assert res.check(eta) == CheckRecord("xor-principle-nontrivial", res.eta_x(eta), 1.0,
                                         res.eta_x(eta) < 1.0)


def test_xor_principle_requires_k3():
    I = sample_signed_hypergraph(2, 6, 10, seed=0)
    with pytest.raises(ValueError, match="the XOR principle requires k >= 3"):
        kxor_principle(I, Predicate.ksat(2))
    res = kxor_principle(sample_signed_hypergraph(3, 8, 20, seed=0), Predicate.ksat(3))
    with pytest.raises(ValueError, match="eta must be nonnegative"):
        res.eta_x(-0.1)


def principle_xor(res) -> XorInstance:
    """The XOR clauses the principle bounds: prod(x_S) = -prod(c) of the
    composed instance, since a kSAT near-satisfier has D_hat([k]) near -1."""
    J = res.instance
    return XorInstance(J.k, J.n, J.vars, -J.signs.prod(axis=1))


@pytest.mark.parametrize("seed", range(6))
def test_xor_principle_sound_by_enumeration(seed):
    # x is planted: each clause's c o x_S is a uniform satisfying string of
    # P.  At m = 1000 eta_x(0.1) is below 1 for parity and, at most seeds,
    # for kSAT; not for the third predicate, whose zero leaves its lower
    # coefficients large.
    n = 10
    base = sample_signed_hypergraph(3, n, 1000, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.choice([-1, 1], n)
    eta = 0.1
    budget = violation_budget(eta, base.m)
    for P in PREDICATES:
        ones = np.array([index_to_signs(idx, 3) for idx, v in enumerate(P.table) if v])
        signs = ones[rng.integers(0, len(ones), base.m)] * x[base.vars]
        I = SignedHypergraph(3, n, base.vars, signs)
        res = kxor_principle(I, P)
        xor_viol = violation_profile(principle_xor(res))
        satisfiers = np.flatnonzero(violation_profile(I, P) <= budget)
        assert len(satisfiers) >= 1
        assert res.eta_x(eta) < 1.0 or P is not PREDICATES[1]
        for idx in satisfiers:
            assert xor_viol[idx] / I.m <= res.eta_x(eta) + 1e-9, (P, idx)


@pytest.mark.parametrize("P", PREDICATES[:2], ids=["ksat", "parity"])
def test_xor_principle_sign_on_a_sign_cube(P):
    # the composition carries on each triple the four sign patterns of
    # product -prod(x[S]): every lower coefficient vanishes (eps = 0), and
    # x satisfies every clause under kSAT, and under P too
    rng = np.random.default_rng(0)
    n = 10
    x = rng.choice([-1, 1], n)
    odd = np.array([z for z in itertools.product([-1, 1], repeat=3) if np.prod(z) == -1])
    triples = [rng.choice(n, 3, replace=False) for _ in range(40)]
    signs = np.concatenate([odd * x[S] for S in triples]) * P.first_unsatisfying()
    I = SignedHypergraph(3, n, np.repeat(triples, 4, axis=0), signs)
    res = kxor_principle(I, P)
    assert res.eta_x(0.0) == 0.0
    satisfiers = np.flatnonzero(violation_profile(I, P) == 0)
    assert len(satisfiers) >= 1
    assert (violation_profile(principle_xor(res))[satisfiers] == 0).all()
    assert (violation_profile(res.instance.to_xor())[satisfiers] == I.m).all()


@pytest.mark.parametrize("k", [3, 4, 5])
def test_xor_principle_inverse(k):
    res = kxor_principle(sample_signed_hypergraph(k, 12, 200, seed=k), Predicate.ksat(k))
    floor = res.eta_x(0.0)
    for target in (floor, floor + 1e-6, floor + 0.01, floor + 0.5, floor + 3.0):
        assert res.eta_x(res.max_eta(target)) == pytest.approx(target, rel=1e-12)
    assert res.max_eta(floor / 2) < 0


def test_only_the_refuter_builds_the_principle_check():
    builders = sorted(
        path.name for path in Path(refuter.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Constant) and node.value == "xor-principle-nontrivial"
               for node in ast.walk(ast.parse(path.read_text())))
    )
    assert builders == ["refuter.py"]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_bound_covers_absolute_value_exhaustively(degree):
    # every branch bounds max |p|, so one refutation covers p and -p
    for seed in range(40):
        terms = (3, 12, 40)[seed % 3]
        p = random_poly(8, degree, terms, seed * 3 + degree)
        neg = negated(p)
        res = refute_polynomial(p)
        assert res.value >= max(brute_poly_max(p), brute_poly_max(neg)) - 1e-9
        for value in res.branches.values():
            assert value >= brute_poly_max(neg) - 1e-9


# ---------------------------------------------------------------------------
# the array polynomial against the dict code it replaced
# ---------------------------------------------------------------------------

def _reference_summed(keys: np.ndarray, weights: np.ndarray) -> dict:
    """One term per distinct row, weights added in row order from 0.0."""
    terms: dict = {}
    for T, w in zip(map(tuple, keys.tolist()), weights.tolist()):
        terms[T] = terms.get(T, 0.0) + w
    return terms


def _reference_abs_sum(terms: dict) -> float:
    # what sum() computed up to Python 3.11, which compensates from 3.12 on
    total = 0.0
    for w in terms.values():
        total += abs(w)
    return total


def _reference_quadratic_norm_bound(n: int, terms: dict) -> float:
    W = np.zeros((n, n))
    for (a, b), w in terms.items():
        W[a, b] += w / 2.0
        W[b, a] += w / 2.0
    underflows = sum(1 for w in terms.values() if 0.0 < abs(w) < 2.0**-1021)
    if not underflows and not W.any():
        return 0.0
    u = UNIT_ROUNDOFF
    err = 2.0 * u * float(np.linalg.norm(W)) + underflows * math.ulp(0.0)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(W))))
    slack = max(refuter.SPECTRAL_REL_SLACK, 8.0 * n * (n + 1) * u)
    prove_side(W, "norm", norm * (1.0 + slack / 2.0), err)
    return n * norm * (1.0 + slack)


def _reference_flatten_bound(n: int, t: int, terms: dict) -> float:
    a = (t + 1) // 2
    b = t - a

    def row_index(T: tuple[int, ...]) -> tuple[int, int]:
        r = 0
        for i in T[:a]:
            r = r * n + i
        c = 0
        for i in T[a:]:
            c = c * n + i
        return r, c

    rows, cols = n**a, n**b
    if rows * cols <= refuter._DENSE_FLATTEN_LIMIT:
        M = np.zeros((rows, cols))
        for T, w in terms.items():
            r, c = row_index(T)
            M[r, c] += w
        sigma = float(np.linalg.svd(M, compute_uv=False)[0]) if terms else 0.0
    else:
        row_sums: dict[int, float] = {}
        col_sums: dict[int, float] = {}
        for T, w in terms.items():
            r, c = row_index(T)
            row_sums[r] = row_sums.get(r, 0.0) + abs(w)
            col_sums[c] = col_sums.get(c, 0.0) + abs(w)
        if not row_sums:
            sigma = 0.0
        else:
            sigma = math.sqrt(max(row_sums.values()) * max(col_sums.values()))
    return n ** (t / 2.0) * sigma * (1.0 + refuter.SPECTRAL_REL_SLACK)


def _reference_refutation(n: int, keys: np.ndarray, weights: np.ndarray):
    """(value, branch, branches) as the dict code computed them, or the
    message of the EigensolverError it raised."""
    t = keys.shape[1]
    terms = _reference_summed(keys, weights)
    try:
        branches = {"abs-sum": _reference_abs_sum(terms)}
        if t == 2:
            branches["quadratic-norm"] = _reference_quadratic_norm_bound(n, terms)
        elif t >= 3:
            branches["flatten"] = _reference_flatten_bound(n, t, terms)
    except EigensolverError as e:
        return str(e)
    branch = min(branches, key=lambda name: branches[name])
    return branches[branch], branch, branches


def _refutation(n: int, keys: np.ndarray, weights: np.ndarray):
    p = SparsePolynomial(n, keys, weights)
    got = list(zip(map(tuple, p.keys.tolist()), map(float.hex, p.weights.tolist())))
    want = [(T, float.hex(w)) for T, w in _reference_summed(keys, weights).items()]
    assert got == want
    try:
        bound = refute_polynomial(p)
    except EigensolverError as e:
        return str(e)
    return bound.value, bound.branch, bound.branches


def _reference_cases(seed: int):
    """(n, keys, weights): every degree 1-4, rows drawn from few enough
    indices that they repeat, at weight scales down to where the halved
    quadratic weights underflow and the Cholesky proof fails."""
    rng = np.random.default_rng(seed)
    for trial in range(60):
        t = 1 + trial % 4
        # n = 200 flattens a cubic past _DENSE_FLATTEN_LIMIT; a quartic
        # stays below n = 14, where its dense SVD is cheap
        n = int(rng.choice([3, 5, 8, 13] + ([40, 200] if t < 4 else [])))
        m = int(rng.integers(0, 50))
        keys = rng.integers(0, min(n, int(rng.choice([2, 4, n]))), size=(m, t))
        scale = float(rng.choice([1.0, 1e-3, 1e150, 1e-300, 1e-310]))
        yield n, keys, rng.normal(size=m) * scale
    # cancelling pairs: (a, b) and (b, a), or a row and its negation
    for n in (3, 9):
        pairs = rng.integers(0, n, size=(6, 2))
        w = rng.normal(size=6)
        yield n, np.concatenate([pairs, pairs[:, ::-1]]), np.concatenate([w, -w])
        yield n, np.concatenate([pairs, pairs]), np.concatenate([w, -w])
    for t in (1, 2, 3, 4):
        yield 7, np.empty((0, t), dtype=np.int64), np.empty(0)


@pytest.mark.parametrize("holder", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_bounds_match_the_dict_code(monkeypatch, seed, holder):
    if holder:
        # every flattening now takes the Holder branch, which no golden
        # certificate reaches
        monkeypatch.setattr(refuter, "_DENSE_FLATTEN_LIMIT", 0)
    outcomes = set()
    for n, keys, weights in _reference_cases(seed):
        got = _refutation(n, keys, weights)
        assert got == _reference_refutation(n, keys, weights)
        outcomes.update([got] if isinstance(got, str) else got[2])
    assert {"abs-sum", "quadratic-norm", "flatten"} <= outcomes
    assert any(o.startswith("Cholesky proof") for o in outcomes)


@pytest.mark.parametrize("n, keys, weights, match", [
    (3, np.zeros((2, 0), dtype=np.int64), [1.0, 2.0], "degree must be >= 1"),
    (0, [[0]], [1.0], "n must be >= 1"),
    (3, [[0, 1], [1, 2]], [1.0], "one weight each"),
    (3, [[0, 1]], [[1.0]], "one weight each"),
    (3, [[0, 3]], [1.0], r"term \(0, 3\) has an index out of range"),
    (3, [[0, 1], [-1, 2]], [1.0, 1.0], r"term \(-1, 2\) has an index out of range"),
    (3, np.array([[0, 2**64 - 1]], dtype=np.uint64), [1.0], "index out of range"),
    (3, [[0, 1]], [float("nan")], "coefficients must be finite"),
    (3, [[0, 1]], [float("inf")], "coefficients must be finite"),
    (3, [[0.0, 1.0]], [1.0], "integer array"),
    (3, [[True, False]], [1.0], "integer array"),
    (3, [0, 1], [1.0, 1.0], "integer array"),
])
def test_polynomial_refuses_malformed_terms(n, keys, weights, match):
    with pytest.raises(ValueError, match=match):
        SparsePolynomial(n, keys, weights)


def test_polynomial_sums_repeated_rows_into_read_only_arrays():
    p = SparsePolynomial(4, np.array([[1, 2], [0, 3], [1, 2]], dtype=np.int32), [1, 2, 3])
    assert p.degree == 2 and p.keys.dtype == np.int64 and p.weights.dtype == np.float64
    assert p.keys.tolist() == [[1, 2], [0, 3]] and p.weights.tolist() == [4.0, 2.0]
    for A in (p.keys, p.weights):
        with pytest.raises(ValueError):
            A[0] = 0
