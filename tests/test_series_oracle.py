"""Rational truncated series and the generating-function oracle."""

import random
from fractions import Fraction
from math import exp, factorial, sqrt

import pytest
from hypothesis import given, settings, strategies as st

import aurifeuille.numthy as numthy
import aurifeuille.series_oracle as series_oracle
from aurifeuille.cyclotomic import phi_moebius
from aurifeuille.errors import (
    BadConstantTerm,
    InternalInconsistency,
    NonIntegralOracle,
    NotOddSquareFree,
    NotSquareFree,
)
from aurifeuille.gauss import algorithm_d
from aurifeuille.lucas import algorithm_l
from aurifeuille.numthy import jacobi
from aurifeuille.series_oracle import (
    RationalSeries,
    f_series,
    g_series,
    gauss_via_series,
    lucas_via_series,
    series_exp_like,
    series_sqrt,
)

from _counting import count_calls
from _oracles import (
    cyclotomic_power_sums,
    euler_phi,
    horner,
    series_exp_like_fractions,
    series_mul_fractions,
    series_sqrt_fractions,
    squarefree_range,
)


def add(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Test-local sum, truncated to the smaller order."""
    return RationalSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])


def sub(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    return add(a, b * -1)


def one(order: int) -> RationalSeries:
    return RationalSeries([1], order=order)


def series_exp(f: RationalSeries) -> RationalSeries:
    """Test-local plain exponential of a zero-constant-term series."""
    assert f[0] == 0
    acc = one(f.order)
    term = one(f.order)
    k = 0
    while any(term.coeffs):
        k += 1
        term = term * f * Fraction(1, k)
        acc = add(acc, term)
    return acc


def rand_series(rng, order, zero_constant=False):
    coeffs = [
        Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        for _ in range(order + 1)
    ]
    if zero_constant:
        coeffs[0] = Fraction(0)
    return RationalSeries(coeffs)


# --- RationalSeries mechanics -------------------------------------------


def test_construction_order_handling():
    s = RationalSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert RationalSeries([1, 2, 3, 4], order=1).coeffs == (1, 2)
    assert RationalSeries([], order=3).coeffs == (0, 0, 0, 0)
    assert RationalSeries([1], order=2).coeffs == (1, 0, 0)
    with pytest.raises(ValueError):
        RationalSeries([])
    with pytest.raises(ValueError):
        RationalSeries([1], order=-1)


def test_equality_is_order_sensitive():
    assert RationalSeries([1, 2]) == RationalSeries([1, 2])
    assert RationalSeries([1, 2]) != RationalSeries([1, 2, 0])
    assert (RationalSeries([1]) == 1) is False
    assert hash(RationalSeries([1, 2])) == hash(RationalSeries([1, 2]))


def test_arithmetic_takes_min_order():
    a = RationalSeries([1, 1, 1, 1])
    b = RationalSeries([1, 2])
    assert add(a, b).order == 1
    assert (a * b).order == 1
    assert sub(a, b).coeffs == (0, -1)
    assert (a * b).coeffs == (1, 3)
    assert (3 * b).coeffs == (3, 6)
    assert (b * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)


# --- sqrt and hyperbolic expansions -------------------------------------


def test_sqrt_squares_back():
    rng = random.Random(314159)
    for _ in range(20):
        s = rand_series(rng, rng.randrange(1, 12))
        s = RationalSeries([1] + list(s.coeffs[1:]))
        root = series_sqrt(s)
        assert root * root == s
        assert root[0] == 1


def test_sqrt_of_cyclotomic_15():
    root = series_sqrt(RationalSeries(phi_moebius(15).coeffs, order=4))
    assert root.coeffs == (
        1,
        Fraction(-1, 2),
        Fraction(-1, 8),
        Fraction(7, 16),
        Fraction(-37, 128),
    )


def test_sqrt_rejects_bad_constant():
    with pytest.raises(BadConstantTerm):
        series_sqrt(RationalSeries([4, 1, 1]))


def test_exp_like_matches_plain_exponential():
    # With t = 1 the pair is (cosh(f/2), sinh(f/2)) literally; with t = 4
    # it is (cosh(f), sinh(f)/2).  Compare against an independent
    # term-by-term exponential.
    rng = random.Random(2718)
    for _ in range(10):
        f = rand_series(rng, rng.randrange(2, 10), zero_constant=True)
        half = f * Fraction(1, 2)
        ch = add(series_exp(half), series_exp(half * -1)) * Fraction(1, 2)
        sh = sub(series_exp(half), series_exp(half * -1)) * Fraction(1, 2)
        assert series_exp_like(f, 1) == (ch, sh)
        full_ch = add(series_exp(f), series_exp(f * -1)) * Fraction(1, 2)
        full_sh = sub(series_exp(f), series_exp(f * -1)) * Fraction(1, 2)
        assert series_exp_like(f, 4) == (full_ch, full_sh * Fraction(1, 2))


def test_exp_like_hyperbolic_pythagoras():
    # cosh(u)^2 - sinh(u)^2 = 1 with u = sqrt(t)*f/2, so U^2 - t*V^2 = 1
    # for the pair (U, V) = (cosh(u), sinh(u)/sqrt(t)) and every sign of t.
    rng = random.Random(577)
    for t in (1, 4, -3, 15, Fraction(2, 3), -7):
        f = rand_series(rng, 8, zero_constant=True)
        ch, sr = series_exp_like(f, t)
        assert sub(ch * ch, Fraction(t) * (sr * sr)) == one(8)


def test_exp_like_rejections():
    with pytest.raises(ValueError):
        series_exp_like(RationalSeries([1, 1]), 1)


def test_generating_identity_for_cyclotomics():
    # exp(-sum p_j x^j / j) with p_j the Ramanujan power sums reproduces
    # the reversed (= own, by palindromy) coefficients of Phi_n.
    for n in (5, 7, 12, 15, 30):
        d = euler_phi(n)
        sums = cyclotomic_power_sums(n, d)
        log_part = RationalSeries(
            [0] + [Fraction(-sums[j - 1], j) for j in range(1, d + 1)]
        )
        assert series_exp(log_part).coeffs == tuple(
            Fraction(c) for c in phi_moebius(n).coeffs
        )


# --- integer numerators against the per-coefficient Fraction loops ------

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
series_coeffs = st.lists(rationals, min_size=1, max_size=41)
exponents = st.sampled_from([1, 4, -3, 15, Fraction(2, 3), -7]) | rationals


@settings(max_examples=40)
@given(series_coeffs, series_coeffs, rationals)
def test_product_matches_fraction_reference(a, b, c):
    a, b = RationalSeries(a), RationalSeries(b)
    product = a * b
    assert product.coeffs == series_mul_fractions(a, b).coeffs
    assert product == b * a
    assert (a * c).coeffs == tuple(x * c for x in a.coeffs)
    assert (a * c.numerator) == c.numerator * a


@settings(max_examples=40)
@given(series_coeffs)
def test_sqrt_matches_fraction_reference(tail):
    s = RationalSeries([1] + tail[1:])
    assert series_sqrt(s).coeffs == series_sqrt_fractions(s).coeffs


@settings(max_examples=40)
@given(series_coeffs, exponents)
def test_exp_like_matches_fraction_reference(tail, t):
    # Each draw also runs on its odd part, which takes the odd-slope sums.
    odd = [c if i % 2 else 0 for i, c in enumerate(tail)]
    for f in (RationalSeries([0] + tail[1:]), RationalSeries([0] + odd[1:])):
        got = series_exp_like(f, t)
        want = series_exp_like_fractions(f, t)
        assert [s.coeffs for s in got] == [s.coeffs for s in want]


def test_series_are_stored_canonically():
    # One positive denominator with no factor common to all numerators,
    # so equal values compare and hash equal whatever built them.
    s = RationalSeries([Fraction(1, 6), Fraction(-1, 4), 0])
    assert (s._num, s._den) == ((2, -3, 0), 12)
    assert (s * 6)._den == 2 and (s * 12)._den == 1
    zero = s * 0
    assert (zero._num, zero._den) == ((0, 0, 0), 1)
    assert zero == RationalSeries([], order=2)
    assert hash(s * Fraction(6, 5) * Fraction(5, 6)) == hash(s)


def test_inexact_scaled_division_raises(monkeypatch):
    # D = K! (2eq)^K is the scale that makes every step of series_exp_like
    # one exact division; with one factor of 2 less, cosh(x/2) = 1 + x^2/8
    # fails at k = 2 instead of flooring.
    assert series_exp_like(RationalSeries([0, 1, 0]), 1)[0].coeffs == (
        1,
        0,
        Fraction(1, 8),
    )
    monkeypatch.setattr(series_oracle, "factorial", lambda k: factorial(k) // 2)
    with pytest.raises(InternalInconsistency, match="U at k=2: 4 does not divide 2"):
        series_exp_like(RationalSeries([0, 1, 0]), 1)
    with pytest.raises(InternalInconsistency):
        gauss_via_series(15)


# --- the Dirichlet-like logarithms --------------------------------------


def test_f_series_values():
    f15 = f_series(15, 8)
    assert f15.coeffs == (
        0,
        1,
        Fraction(1, 2),
        0,
        Fraction(1, 4),
        0,
        0,
        Fraction(-1, 7),
        Fraction(1, 8),
    )
    f5 = f_series(5, 5)
    assert f5.coeffs == (0, 1, Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 4), 0)


def test_f_series_general_term():
    for n in (3, 7, 33):
        s = f_series(n, 30)
        for j in range(1, 31):
            assert s[j] == Fraction(jacobi(j, n), j)


def test_g_series_values():
    g2 = g_series(2, 7)
    assert g2.coeffs == (
        0,
        1,
        0,
        Fraction(-1, 3),
        0,
        Fraction(-1, 5),
        0,
        Fraction(1, 7),
    )
    for n in (2, 7, 15):
        s = g_series(n, 20)
        assert all(s[j] == 0 for j in range(0, 21, 2))
        for j in range(1, 21, 2):
            assert s[j] == Fraction(jacobi(n, j), j)


def test_series_inputs_validated():
    with pytest.raises(NotOddSquareFree):
        f_series(14, 5)
    with pytest.raises(NotSquareFree):
        f_series(9, 5)
    with pytest.raises(NotSquareFree):
        g_series(12, 5)


# --- the oracle routes agree with the recurrences -----------------------


def test_gauss_series_route_equals_recurrence():
    for n in squarefree_range(5, 120):
        if n % 2 == 0:
            continue
        assert gauss_via_series(n) == algorithm_d(n)


def test_lucas_series_route_equals_recurrence():
    for n in squarefree_range(2, 120):
        assert lucas_via_series(n) == algorithm_l(n)


@settings(max_examples=10)
@given(n=st.sampled_from(squarefree_range(2, 301)))
def test_series_routes_equal_recurrences_up_to_301(n):
    assert lucas_via_series(n) == algorithm_l(n)
    if n % 2 and n > 3:
        assert gauss_via_series(n) == algorithm_d(n)


def test_gauss_series_route_factorization_count(monkeypatch):
    # make_context, f_series and phi_moebius factor n once each.
    calls = count_calls(monkeypatch, numthy, "factorize")
    gauss_via_series(15)
    assert calls == [(15,), (15,), (15,)]


def test_series_route_rejects_stray_and_fractional_coefficients(monkeypatch):
    true_exp_like = series_oracle.series_exp_like

    def stray_constant(f, t):
        u, v = true_exp_like(f, t)
        return u, add(v, one(v.order))

    monkeypatch.setattr(series_oracle, "series_exp_like", stray_constant)
    with pytest.raises(NonIntegralOracle, match=r"D_15: stray even power y\^0"):
        lucas_via_series(15)

    def quarter_at_x2(f, t):
        u, v = true_exp_like(f, t)
        return add(u, RationalSeries([0, 0, Fraction(1, 4)], order=u.order)), v

    monkeypatch.setattr(series_oracle, "series_exp_like", quarter_at_x2)
    with pytest.raises(NonIntegralOracle, match=r"A_15: coefficient of x\^2 "):
        gauss_via_series(15)


def test_series_route_rejections():
    for bad in (2, 3, 9, 14):
        with pytest.raises(NotOddSquareFree):
            gauss_via_series(bad)
    with pytest.raises(NotSquareFree):
        lucas_via_series(12)


# --- numerical ratio identity -------------------------------------------


def check_ratio_identity(
    n: int, x0: Fraction | int, order: int = 60, tol: float = 1e-12
) -> bool:
    """Numerical spot-check of the exponential ratio identity.

    With s' = -1 when n = 5 (mod 8), else +1,
    L(x) = C_n(x^2) - s'*x*sqrt(n)*D_n(x^2) and its mirror
    L~(x) = L(-x), the identity L~(x)/L(x) = exp(2*s'*sqrt(n)*g_n(x))
    holds for |x| < 1.  Both sides are evaluated in double precision,
    g_n truncated at `order`; returns True when they agree within `tol`
    (relative to the larger magnitude, floored at 1).  x0 = 0 is allowed
    and trivially true.
    """
    x0 = Fraction(x0)
    if abs(x0) >= 1:
        raise ValueError(f"need |x0| < 1, got {x0}")
    pair = algorithm_l(n)
    sp = -1 if n % 8 == 5 else 1
    root_n = sqrt(n)
    x2 = x0 * x0
    c_val = float(horner(pair.poly_c().coeffs, x2))
    d_val = float(horner(pair.poly_d().coeffs, x2))
    wing = sp * float(x0) * root_n * d_val
    denom = c_val - wing
    if denom == 0.0:
        return False
    lhs = (c_val + wing) / denom
    g_val = g_series(n, order).coeffs
    g_at = float(sum(c * x0**j for j, c in enumerate(g_val) if c))
    rhs = exp(2 * sp * root_n * g_at)
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= tol * scale


def test_ratio_identity_inside_unit_disc():
    assert check_ratio_identity(15, Fraction(1, 10))
    assert check_ratio_identity(7, Fraction(1, 3))
    assert check_ratio_identity(2, Fraction(-1, 2))
    assert check_ratio_identity(15, 0)


def test_ratio_identity_detects_short_truncation():
    assert not check_ratio_identity(15, Fraction(9, 10), order=5)
    assert check_ratio_identity(15, Fraction(9, 10), order=2000)


def test_ratio_identity_domain():
    with pytest.raises(ValueError):
        check_ratio_identity(15, 1)
    with pytest.raises(ValueError):
        check_ratio_identity(15, Fraction(-3, 2))
