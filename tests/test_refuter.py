import numpy as np
import pytest

from solgeo.instances import (
    Predicate,
    SignedHypergraph,
    density_table,
    sample_signed_hypergraph,
    violation_budget,
)
from solgeo import refuter
from solgeo.oracle import violation_profile
from solgeo.refuter import (
    SparsePolynomial,
    certify_quasirandom,
    kxor_principle,
    refute_polynomial,
)
from solgeo.spectral import EigensolverError


def brute_poly_max(p: SparsePolynomial) -> float:
    idx = np.arange(1 << p.n, dtype=np.uint64)
    total = np.zeros(1 << p.n)
    for T, w in p.terms.items():
        mask = 0
        for v in T:
            mask ^= 1 << v
        parity = (np.bitwise_count(idx & np.uint64(mask)) & 1).astype(np.float64)
        total += w * (1.0 - 2.0 * parity)
    return float(total.max())


def random_poly(n: int, degree: int, terms: int, seed: int) -> SparsePolynomial:
    rng = np.random.default_rng(seed)
    coeffs = {}
    for _ in range(terms):
        T = tuple(int(v) for v in rng.integers(0, n, size=degree))
        coeffs[T] = coeffs.get(T, 0.0) + float(rng.normal())
    return SparsePolynomial(n, degree, coeffs)


def test_linear_is_exact():
    p = SparsePolynomial(3, 1, {(0,): 1.0, (1,): -2.0, (2,): 3.0})
    res = refute_polynomial(p)
    assert res.value == pytest.approx(6.0)
    assert res.value == pytest.approx(brute_poly_max(p))


def test_quadratic_two_variable_exact():
    p = SparsePolynomial(2, 2, {(0, 1): 1.0, (1, 0): 1.0})
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
    for (a, b), w in p.terms.items():
        W[a, b] += w / 2.0
        W[b, a] += w / 2.0
    norm = float(np.max(np.abs(np.linalg.eigvalsh(W))))
    assert refute_polynomial(p).branches["quadratic-norm"] == 12 * norm * (1.0 + 1e-11)


def test_cancelling_quadratic_has_zero_norm():
    p = SparsePolynomial(3, 2, {(0, 1): 1.5, (1, 0): -1.5})
    assert refute_polynomial(p).branches["quadratic-norm"] == 0.0


def test_single_cubic_term():
    p = SparsePolynomial(8, 3, {(0, 1, 2): 1.0})
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
        scaled = SparsePolynomial(6, 2, {T: c * w for T, w in p.terms.items()})
        got = refute_polynomial(scaled).value
        assert got == pytest.approx(c * base, rel=1e-9)


def negated(p: SparsePolynomial) -> SparsePolynomial:
    return SparsePolynomial(p.n, p.degree, {T: -w for T, w in p.terms.items()})


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
    # positive, so the absolute-sum branch equals the exhaustive maximum
    I = SignedHypergraph(3, 6, [(i % 6, (i + 1) % 6, (i + 2) % 6) for i in range(9)],
                         [(1, 1, 1)] * 9)
    cert = certify_quasirandom(I, 1)
    for T in [(0,), (1,), (2,)]:
        assert cert.per_T_bounds[T] == pytest.approx(brute_max_coefficient(I, T), abs=1e-9)


def test_quasirandom_single_clause_is_fully_biased():
    I = SignedHypergraph(3, 5, [(0, 1, 2)], [(1, -1, 1)])
    cert = certify_quasirandom(I, 1)
    assert cert.eps == pytest.approx(1.0)


def test_quasirandom_bounds_hold_exhaustively():
    for seed in range(5):
        I = sample_signed_hypergraph(3, 8, 30, seed=seed)
        if I.m == 0:
            continue
        cert = certify_quasirandom(I, 2)
        for T, bound in cert.per_T_bounds.items():
            assert bound >= brute_max_coefficient(I, T) - 1e-9


def test_quasirandom_rejects_bad_input():
    I = sample_signed_hypergraph(3, 8, 20, seed=0)
    with pytest.raises(ValueError):
        certify_quasirandom(I, 3)
    with pytest.raises(ValueError):
        certify_quasirandom(SignedHypergraph(3, 8, [], []), 1)


@pytest.mark.slow
def test_quasirandom_eps_at_scale():
    # threshold frozen from a pilot at these parameters (measured ~0.146)
    n = 2000
    m = int(n**1.6)
    good = 0
    for seed in range(10):
        I = sample_signed_hypergraph(3, n, m, seed)
        cert = certify_quasirandom(I, 2)
        if cert.eps <= 0.2:
            good += 1
    assert good >= 9


# ---------------------------------------------------------------------------
# XOR principle
# ---------------------------------------------------------------------------

def test_xor_principle_formula_arithmetic():
    I = sample_signed_hypergraph(3, 10, 60, seed=1)
    eta = 0.01
    res = kxor_principle(I, eta)
    assert res.eta_x == pytest.approx(4 * eta + 3 * res.eps)
    assert res.fraction_lower_bound == pytest.approx(
        min(1.0, max(0.0, 1 - res.eta_x))
    )
    # with eta=0 and eps=0 the bound would be exactly 1
    assert kxor_principle(I, 0.0).eta_x == pytest.approx(3 * res.eps)


def test_xor_principle_requires_k3():
    I = sample_signed_hypergraph(2, 6, 10, seed=0)
    with pytest.raises(ValueError):
        kxor_principle(I, 0.1)


@pytest.mark.parametrize("seed", range(6))
def test_xor_principle_sound_by_enumeration(seed):
    n = 10
    I = sample_signed_hypergraph(3, n, 50, seed=seed)
    if I.m == 0:
        pytest.skip("empty sample")
    eta = 0.1
    res = kxor_principle(I, eta)
    ksat = Predicate.ksat(3)
    sat_viol = violation_profile(I, ksat)
    xor_viol = violation_profile(I.to_xor())
    budget = violation_budget(eta, I.m)
    satisfiers = np.nonzero(sat_viol <= budget)[0]
    for idx in satisfiers:
        xor_frac = 1.0 - xor_viol[idx] / I.m
        assert xor_frac >= res.fraction_lower_bound - 1e-9


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
