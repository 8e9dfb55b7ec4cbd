"""Aurifeuillian factorization: estimates, rounding, assembly, ratios."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import aurifeuille.cyclotomic as cyclotomic
import aurifeuille.factorizer as factorizer
import aurifeuille.numthy as numthy
import aurifeuille.poly as poly
from aurifeuille.errors import (
    InternalInconsistency,
    NegativeTarget,
    NotSquareFree,
    RoundingFailed,
)
from aurifeuille.lucas import algorithm_l
from aurifeuille.numthy import factorize, jacobi
from aurifeuille.factorizer import (
    factor_by_polynomials,
    factor_by_rounding,
    full_factorization,
    hat_f,
    is_probable_prime,
)

from _counting import count_calls
from _oracles import (
    divisors,
    factor_list_product,
    horner,
    lambda_sum_fixed_point,
    pm1_powers_by_prime_powers,
    pm1_stage2_prime_by_prime,
    primes_up_to,
    ratio_estimate,
    squarefree_range,
)


# --- the truncated-series estimate --------------------------------------


def test_hat_printed_decimals():
    # The reference values end in an ellipsis, i.e. they are truncations:
    # check the estimate falls in the corresponding half-open window.
    windows = (
        (2, 2, "4.89"),
        (2, 32, "1984.98"),
        (5, 3, "1470.99924"),
        (15, 1, "19231.00217"),
    )
    for n, m, printed in windows:
        lo = float(printed)
        step = 10.0 ** -len(printed.split(".")[1])
        assert lo <= float(hat_f(n, m)) < lo + step


def test_hat_degenerate_small_points():
    # F_2(2) = 5 and F_3(3) = 7 have unit smaller factors; the estimate
    # still lands strictly between 1/2 and 3/2 so rounding gives 1.
    for n in (2, 3):
        h = hat_f(n, 1)
        assert 0.5 < float(h) < 1.5
        res = factor_by_rounding(n, 1)
        assert res.F_minus == 1
        f_val = cyclotomic.f_poly(n).evaluate_homogeneous(n, 1)
        assert res.F_minus * res.F_plus == f_val


def test_hat_matches_the_exact_series_sum():
    # The fixed-point sum is short of the exact one by less than
    # lambda * 2^-P; the estimate stays within 2^-60 of the same formula
    # summed in Fractions, well inside the 1/2 rounding window.
    for n, m in ((2, 1), (5, 3), (15, 1), (30, 2), (101, 7), (1001, 1)):
        fn = cyclotomic.f_poly(n)
        x = m * m * n
        f_val, lam = horner(fn.coeffs, x), fn.degree // 2
        arg = -Fraction(1, m) * sum(
            Fraction(jacobi(n, 2 * j + 1), (2 * j + 1) * x**j)
            for j in range(lam)
        )
        bits = f_val.bit_length() // 2 + 64
        with mpmath.workprec(bits + 64):
            exact = mpmath.sqrt(f_val) * mpmath.exp(
                mpmath.mpf(arg.numerator) / arg.denominator
            )
            assert abs(hat_f(n, m) - exact) < mpmath.mpf(2) ** -60


def test_hat_input_validation():
    with pytest.raises(NotSquareFree):
        hat_f(12, 1)
    with pytest.raises(ValueError):
        hat_f(5, 0)
    with pytest.raises(ValueError):
        hat_f(5, -2)
    # hat_f checks m as factor_by_rounding does: an integral Fraction is
    # still not an int.
    with pytest.raises(TypeError):
        hat_f(5, Fraction(2))


# --- rounding route -----------------------------------------------------


def test_rounding_reproduces_classical_splits():
    for n, m, lo, hi in (
        (15, 1, 19231, 142111),
        (2, 32, 1985, 2113),
        (5, 3, 1471, 2851),
    ):
        res = factor_by_rounding(n, m)
        assert (res.F_minus, res.F_plus) == (lo, hi)
        f_val = cyclotomic.f_poly(n).evaluate_homogeneous(m * m * n, 1)
        assert res.F_minus * res.F_plus == f_val
        assert res.F_minus <= res.F_plus
        assert res.residual is not None and res.residual < 0.5
        assert res.int_minus == lo and res.int_plus == hi
        assert res.x == m * m * n and res.x.denominator == 1
        assert res.hat_F == hat_f(n, m)


def _frac_bits(n, m):
    """The fraction bits `_estimate` sums the series with at x = m^2 * n."""
    f_val = cyclotomic.f_poly(n).evaluate_homogeneous(m * m * n, 1)
    return f_val.bit_length() // 2 + 128


def primes_of(n):
    return tuple(p for p, _ in factorize(n))


def test_lambda_sum_is_the_floor_of_the_exact_sum():
    # The pairing sums lambda terms as one fraction and floors it once;
    # lambda runs from 1 to 99 here, past three leaves of _EVAL_LEAF.
    for n in squarefree_range(2, 200):
        lam = cyclotomic.f_poly(n).degree // 2
        for m in (1, 2, 7):
            x = m * m * n
            for frac_bits in (0, 61, _frac_bits(n, m)):
                exact = sum(
                    Fraction(jacobi(n, 2 * j + 1), (2 * j + 1) * x**j)
                    for j in range(lam)
                )
                expected = math.floor(exact * 2**frac_bits)
                assert factorizer._lambda_sum(primes_of(n), x, lam, frac_bits) == expected


_LEAF = poly._EVAL_LEAF


@pytest.mark.parametrize(
    "lam", [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 33 * _LEAF + 1]
)
@pytest.mark.parametrize("m", [1, 7])
def test_lambda_sum_is_the_floor_of_the_exact_sum_across_leaves(lam, m):
    # One block one term short of a leaf, one full leaf, a full leaf and
    # a trailing block of one term, three blocks with one carried up a
    # level, and 34 blocks over six levels, the last of one term.  At
    # the widest fraction bits the floor sees the last term, which for
    # n = 22 is nonzero at every lambda here.
    n = 22
    x = m * m * n
    exact = sum(
        Fraction(jacobi(n, 2 * j + 1), (2 * j + 1) * x**j) for j in range(lam)
    )
    for frac_bits in (0, 61, lam * x.bit_length() + 64):
        expected = math.floor(exact * 2**frac_bits)
        assert factorizer._lambda_sum(primes_of(n), x, lam, frac_bits) == expected


@pytest.mark.parametrize("n", [1001, 1501, 2002, 2003, 3001])
@pytest.mark.parametrize("m", [1, 7])
def test_lambda_sum_is_within_lambda_of_the_fixed_point_loop(n, m):
    lam = cyclotomic.f_poly(n).degree // 2
    frac_bits = _frac_bits(n, m)
    fast = factorizer._lambda_sum(primes_of(n), m * m * n, lam, frac_bits)
    assert abs(fast - lambda_sum_fixed_point(n, m * m * n, lam, frac_bits)) <= lam


def test_rounding_rejects_rational_m():
    with pytest.raises(TypeError):
        factor_by_rounding(7, Fraction(2, 5))


def test_rounding_guard_detects_corrupted_estimate(monkeypatch):
    # factor_by_rounding computes the estimate through the helper that
    # hat_f wraps, from the F_n(x) it already holds.
    true_estimate = factorizer._estimate

    def corrupted(*args):
        hat, bits = true_estimate(*args)
        return hat + 10, bits

    monkeypatch.setattr(factorizer, "_estimate", corrupted)
    with pytest.raises(RoundingFailed):
        factorizer.factor_by_rounding(15, 1)


def test_rounding_factors_n_once(monkeypatch):
    # Checking n gives the primes of the lambda sum; F_15 = Phi_30, and
    # lambda is half its degree.
    calls = count_calls(monkeypatch, numthy, "factorize")
    assert factor_by_rounding(15, 1).F_minus == 19231
    assert calls == [(15,), (30,)]


@settings(max_examples=20)
@given(
    n=st.sampled_from(squarefree_range(2, 3001)),
    m=st.integers(min_value=1, max_value=9),
)
@example(n=3001, m=9)
@example(n=2990, m=1)
def test_rounding_equals_polynomials_with_margin(n, m):
    rounded = factor_by_rounding(n, m)
    exact = factor_by_polynomials(n, m)
    assert (rounded.F_minus, rounded.F_plus) == (exact.F_minus, exact.F_plus)
    assert 0.5 - rounded.residual > 0


def test_rounding_builds_f_n_once(monkeypatch):
    # F_15 = Phi_30, built once; it serves the value, lambda and the division.
    calls = count_calls(monkeypatch, cyclotomic, "phi_moebius")
    assert factor_by_rounding(15, 1).F_minus == 19231
    assert calls == [(30,)]


# --- exact polynomial route ---------------------------------------------


def test_polynomials_factor_n_once_per_use(monkeypatch):
    # algorithm_l factors n once; F_n is phi_moebius at the pair's
    # n' = 30, which factors n' once.
    calls = count_calls(monkeypatch, numthy, "factorize")
    assert factor_by_polynomials(15, 1).F_minus == 19231
    assert calls == [(15,), (30,)]


def test_polynomials_integer_points():
    res = factor_by_polynomials(15, 1)
    assert (res.F_minus, res.F_plus) == (19231, 142111)
    assert res.hat_F is None and res.residual is None
    assert factor_by_polynomials(2, 1).F_minus == 1
    assert factor_by_polynomials(2, 1).F_plus == 5
    assert factor_by_polynomials(3, 1).F_plus == 7


def test_polynomials_rational_point():
    res = factor_by_polynomials(7, Fraction(2, 5))
    assert res.F_minus == Fraction(1247, 15625)
    assert res.F_plus == Fraction(296507, 15625)
    assert (res.int_minus, res.int_plus) == (1247, 296507)
    assert res.x == Fraction(4, 25) * 7
    assert res.int_minus * res.int_plus == (25**7 + 28**7) // 53


@settings(max_examples=30)
@given(
    n=st.sampled_from(squarefree_range(2, 500)),
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=12),
)
def test_polynomials_match_fraction_horner(n, p, q):
    # A Horner evaluation of C_n and D_n in Fractions, independent of the
    # integer homogeneous one the route uses.
    m = Fraction(p, q)
    pair = algorithm_l(n)
    x = m * m * n
    c_val = d_val = Fraction(0)
    for g in pair.gamma:
        c_val = c_val * x + g
    for g in pair.delta:
        d_val = d_val * x + g
    root = m * n  # sqrt(n * x)
    lo, hi = sorted((c_val - root * d_val, c_val + root * d_val))
    res = factor_by_polynomials(n, m)
    assert (res.F_minus, res.F_plus) == (lo, hi)
    scale = m.denominator ** (2 * pair.d)
    assert (res.int_minus, res.int_plus) == (lo * scale, hi * scale)
    fn = cyclotomic.f_poly(n)
    assert res.F_minus * res.F_plus == Fraction(
        fn.evaluate_homogeneous(p * p * n, q * q), (q * q) ** fn.degree
    )


def test_polynomials_agree_with_rounding():
    # full_factorization takes the split from the rounding route for
    # integer m; the polynomial route checks it here on a grid that holds
    # every integer target of the benchmark's `factor` workload.
    for n in squarefree_range(2, 200):
        for m in range(1, 10):
            exact = factor_by_polynomials(n, m)
            rounded = factor_by_rounding(n, m)
            assert (exact.int_minus, exact.int_plus) == (
                rounded.int_minus,
                rounded.int_plus,
            ), (n, m)
            assert 0.5 - rounded.residual > 0, (n, m)


def test_polynomials_input_validation():
    with pytest.raises(ValueError):
        factor_by_polynomials(15, 0)
    with pytest.raises(ValueError):
        factor_by_polynomials(15, Fraction(-1, 2))
    with pytest.raises(NotSquareFree):
        factor_by_polynomials(12, 1)


# --- targets and full assembly ------------------------------------------


def test_target_value_signs():
    target = factorizer._target
    assert target(5, Fraction(1)) == 5**5 - 1
    assert target(13, Fraction(1)) == 13**13 - 1
    assert target(15, Fraction(1)) == 15**15 + 1
    assert target(2, Fraction(32)) == 2**22 + 1
    assert target(6, Fraction(1)) == 6**6 + 1
    assert target(7, Fraction(2, 5)) == 25**7 + 28**7


def test_full_factorization_classical_examples():
    split, flist = full_factorization(2, 32)
    assert flist.target == 2**22 + 1
    assert flist.factors == ((5, 1), (397, 1), (2113, 1))
    assert flist.complete and factor_list_product(flist) == flist.target
    assert (split.int_minus, split.int_plus) == (1985, 2113)

    split, flist = full_factorization(15, 1)
    assert flist.target == 15**15 + 1
    assert flist.factors == (
        (2, 4),
        (31, 1),
        (211, 1),
        (1531, 1),
        (19231, 1),
        (142111, 1),
    )
    assert flist.complete and factor_list_product(flist) == flist.target

    split, flist = full_factorization(5, 1)
    assert flist.target == 5**5 - 1
    assert flist.factors == ((2, 2), (11, 1), (71, 1))
    assert flist.complete
    assert (split.int_minus, split.int_plus) == (11, 71)

    split, flist = full_factorization(7, Fraction(2, 5))
    assert flist.target == 25**7 + 28**7
    assert flist.factors == ((29, 1), (43, 1), (53, 1), (296507, 1))
    assert flist.complete and factor_list_product(flist) == flist.target


def test_cyclotomic_indices_are_the_divisors_of_n_prime_below_2000():
    # Built from the primes of n, they are the divisors of n' for
    # n = 1 (mod 4), else those of 2n that do not divide n.
    for n in squarefree_range(2, 1999):
        n_prime = n if n % 4 == 1 else 2 * n
        expected = [e for e in divisors(n_prime) if n_prime == n or n % e]
        assert factorizer._cyclotomic_indices(numthy.make_context(n)) == expected, n


def test_full_factorization_factors_each_index_once(monkeypatch):
    # Validating n factors it, and its primes serve the primes of 2n; the
    # pieces Phi_2, Phi_6 and Phi_10 factor their index once each and take
    # their degree from the polynomial; the top piece F_15 = Phi_30, built
    # like them, factors n' = 30 and is handed to the rounding split.
    calls = count_calls(monkeypatch, numthy, "factorize")
    full_factorization(15, 1)
    assert calls == [(15,), (2,), (6,), (10,), (30,)]


def test_full_factorization_product_checks_hold_broadly():
    for n in squarefree_range(2, 22):
        for m in (1, Fraction(3, 2)):
            _split, flist = full_factorization(n, m)
            assert factor_list_product(flist) == flist.target
            assert flist.target == factorizer._target(n, Fraction(m))


def test_full_factorization_incomplete_is_flagged(monkeypatch):
    # With no rho steps the composite piece Phi_10(15) = 31 * 1531
    # survives undivided and fails the probable-prime test.
    monkeypatch.setattr(factorizer, "RHO_STEP_LIMIT", 0)
    _split, flist = full_factorization(15, 1)
    assert not flist.complete
    assert (47461, 1) in flist.factors
    assert factor_list_product(flist) == flist.target


def test_full_factorization_rho_finds_primes_past_a_million():
    # F- of 23^46 + 1 holds 1641281 * 1522029233, both past 10^6.
    _split, flist = full_factorization(23, 1)
    assert flist.complete and factor_list_product(flist) == flist.target
    assert (1641281, 1) in flist.factors
    assert (1522029233, 1) in flist.factors


def test_full_factorization_splits_the_smallest_survivor_first(monkeypatch):
    # Rho splits a piece of 5^86 * 43^43 + 1 into 178709 = 173 * 1033 and
    # a cofactor that 3000 steps do not split.  Taken smallest first,
    # 178709 is split before the cofactor spends the piece's budget.
    monkeypatch.setattr(factorizer, "RHO_STEP_LIMIT", 3000)
    _split, flist = full_factorization(43, 5)
    assert not flist.complete
    assert (173, 1) in flist.factors and (1033, 1) in flist.factors
    assert all(base != 178709 for base, _e in flist.factors)
    assert factor_list_product(flist) == flist.target


def test_rho_budget_is_shared_by_the_survivors_of_a_piece(monkeypatch):
    # RHO_STEP_LIMIT caps the rho steps of one piece, summed over all of
    # its survivors; a piece that runs out spends exactly the cap.
    monkeypatch.setattr(factorizer, "RHO_STEP_LIMIT", 3000)
    accumulate, rho = factorizer._accumulate_factors, factorizer._brent_rho
    spent = []

    def one_piece(*args):
        spent.append(0)
        return accumulate(*args)

    def counted_rho(n, k, budget):
        divisor, used = rho(n, k, budget)
        spent[-1] += used
        return divisor, used

    monkeypatch.setattr(factorizer, "_accumulate_factors", one_piece)
    monkeypatch.setattr(factorizer, "_brent_rho", counted_rho)
    for n, m in ((43, 5), (37, Fraction(3, 2)), (43, Fraction(2, 3))):
        full_factorization(n, m)
    assert max(spent) == 3000
    assert all(steps <= 3000 for steps in spent)


def test_full_factorization_strips_common_primes_of_rational_m():
    # At m = 2/3, X = p^2 * n = 60 and Y = q^2 = 9 share the prime 3, so
    # Phi_10(X, Y) holds 3^4 although 3 does not divide 10.
    target = 2**30 * 15**15 + 3**30
    power = 0
    while target % 3 ** (power + 1) == 0:
        power += 1
    _split, flist = full_factorization(15, Fraction(2, 3))
    assert flist.complete and factor_list_product(flist) == flist.target
    assert (3, power) in flist.factors
    assert all(_prime_by_trial(base) for base, _e in flist.factors)


def test_full_factorization_separates_probable_primes():
    # The 29 3 leftover lies between psi_12 and psi_13: proven prime.
    _split, flist = full_factorization(29, 3)
    assert flist.complete and flist.probable == ()
    assert (405878031619175205677519, 1) in flist.factors
    # Past 3.3 * 10^24 a base is only a probable prime.
    _split, flist = full_factorization(23, Fraction(3, 2))
    assert flist.complete
    assert flist.probable == (15271241147628528180233497,)
    assert (15271241147628528180233497, 1) in flist.factors


@settings(max_examples=60)
@given(
    n=st.sampled_from(squarefree_range(2, 30)),
    m=st.sampled_from([1, 2, 3, Fraction(2, 3), Fraction(3, 2)]),
)
def test_full_factorization_bases_pass_trial_division(n, m):
    _split, flist = full_factorization(n, m)
    assert flist.complete
    assert factor_list_product(flist) == flist.target == factorizer._target(n, Fraction(m))
    for base, _e in flist.factors:
        if base < 10**12:
            assert _prime_by_trial(base), (n, m, base)


def test_full_factorization_rejects_a_split_off_by_one(monkeypatch):
    # The top piece comes from the split, by rounding for integer m (the
    # helper that takes the F_n(x) of the pieces) and by polynomials for
    # rational m; the product check against the target still catches a
    # split that does not multiply to F_n(x).
    for route, n, m in (
        ("_rounding_split", 15, 1),
        ("factor_by_polynomials", 7, Fraction(2, 5)),
    ):
        true_split = getattr(factorizer, route)

        def corrupted(*args, true_split=true_split):
            split = true_split(*args)
            return split._replace(int_minus=split.int_minus + 1)

        monkeypatch.setattr(factorizer, route, corrupted)
        with pytest.raises(InternalInconsistency):
            full_factorization(n, m)


def test_negative_target_refused_before_any_piece(monkeypatch):
    # n = 1 (mod 4) with m^2 * n < 1 makes p^(2n) * n^n - q^(2n) negative.
    pieces = count_calls(monkeypatch, cyclotomic, "phi_moebius")
    with pytest.raises(NegativeTarget):
        full_factorization(5, Fraction(2, 5))
    with pytest.raises(NegativeTarget):
        factorizer._target(13, Fraction(1, 4))
    assert pieces == []
    # The plus-sign targets stay positive for every m.
    assert factorizer._target(7, Fraction(1, 9)) > 0


def test_full_factorization_input_validation():
    with pytest.raises(ValueError):
        full_factorization(15, 0)
    with pytest.raises(NotSquareFree):
        full_factorization(20, 1)


@pytest.mark.parametrize(
    "route", [factor_by_rounding, factor_by_polynomials, full_factorization]
)
@pytest.mark.parametrize("m", [0, -2])
def test_every_route_checks_the_sign_of_m_alike(route, m):
    with pytest.raises(ValueError, match=f"need m > 0, got {m}$"):
        route(7, m)


@pytest.mark.parametrize("route", [factor_by_polynomials, full_factorization])
@pytest.mark.parametrize("m", [0.1, 0.5, 2.0, Decimal("0.5")])
def test_rational_routes_take_only_int_or_fraction_m(route, m):
    # A float or a Decimal is refused, not read as the binary or decimal
    # fraction it holds: 0.1 would be 3602879701896397/2^55.
    with pytest.raises(TypeError, match="int or a Fraction"):
        route(7, m)


# --- ratio law ----------------------------------------------------------


def test_ratio_examples_within_two_over_n():
    for n, m, lo, hi in (
        (2, 32, 1985, 2113),
        (15, 1, 19231, 142111),
        (5, 3, 1471, 2851),
    ):
        observed, predicted = ratio_estimate(n, m)
        assert observed == pytest.approx(hi / lo, rel=1e-12)
        assert predicted == pytest.approx(math.exp(2 / m), rel=1e-12)
        assert abs(observed - predicted) <= (2 / n) * predicted


def test_ratio_convergence_trend():
    # For m = 1 the observed ratio tends to e^2 like O(1/n); the measured
    # worst case of n * |observed - e^2| over square-free n in [10, 200]
    # is 5.17 (at n = 19), so 5.5 is a safe frozen envelope.  As a trend
    # check, the worst case over the second half must not exceed the
    # worst case over the first half.
    e2 = math.exp(2.0)
    scaled = {}
    for n in squarefree_range(10, 200):
        observed, _ = ratio_estimate(n, 1)
        scaled[n] = n * abs(observed - e2)
    assert max(scaled.values()) <= 5.5
    first = max(v for n, v in scaled.items() if n <= 105)
    second = max(v for n, v in scaled.items() if n > 105)
    assert second <= first


# --- primality helper ---------------------------------------------------


def test_probable_prime_known_cases():
    primes = [2, 3, 5, 7, 31, 97, 211, 1531, 19231, 142111, 296507, 2**61 - 1]
    for p in primes:
        assert is_probable_prime(p)
    composites = [0, 1, 4, 9, 91, 561, 3215031751, 2**61 + 1, 19231 * 142111]
    # psi_12, the smallest strong pseudoprime to the twelve primes up to
    # 37, is caught by the witness 41.
    composites.append(318665857834031151167461)
    for c in composites:
        assert not is_probable_prime(c)


def test_probable_prime_agrees_with_trial_division_small():
    for k in range(0, 2000):
        assert is_probable_prime(k) == _prime_by_trial(k)


# --- Brent's rho --------------------------------------------------------


def test_rho_splits_primes_one_mod_62():
    p, q = 1000001969, 3000000077
    assert p % 62 == q % 62 == 1
    assert _prime_by_trial(p) and _prime_by_trial(q)
    budget = 1 << 16
    divisor, steps = factorizer._brent_rho(p * q, 62, budget)
    assert divisor in (p, q)
    assert 0 < steps <= budget
    assert factorizer._brent_rho(p * q, 62, 0) == (None, 0)



# --- Pollard p-1 between the legs of rho ---------------------------------

# 4148291909 * 3275225476073: both primes are 1 (mod 62) and each p - 1
# has a prime above B2, so both stages of p-1 fail; rho's c = 1 walk
# closes on the smaller prime after 12542 steps, past its long leg.
_HARD_62 = 4148291909 * 3275225476073

# Moduli L = lcm(2, e) of pieces of n <= 43, and of pieces of n = 2003
# and 3001, whose prime lies above B1 so that only the seed of the
# exponent holds it.
_PM1_MODULI = (2, 4, 6, 12, 20, 58, 62, 84, 86, 4006, 6002)

_PRIMES_BELOW_B1 = [p for p in range(2, factorizer._PM1_B1) if is_probable_prime(p)]

# The primes in (B1, B2] that stage 2 covers.
_STAGE_2_PRIMES = [
    p for p in primes_up_to(factorizer._PM1_B2) if p > factorizer._PM1_B1
]


def _prime_one_mod(modulus, rng, big=None):
    """A prime 1 + modulus * s * b: s is a product of one to three
    distinct primes below B1, and b is a prime drawn from range(*big), or
    1 when `big` is None."""
    while True:
        s = math.prod(rng.sample(_PRIMES_BELOW_B1, rng.randint(1, 3)))
        b = 1 if big is None else rng.randrange(*big)
        p = 1 + modulus * s * b
        if (big is None or is_probable_prime(b)) and is_probable_prime(p):
            return p


def _prime_at_most(x):
    while not is_probable_prime(x):
        x -= 1
    return x


def _pollard_pm1(n, k):
    """Both stages of p-1 back to back, as `_brent_rho` runs them."""
    divisor, power = factorizer._pm1_stage1(n, k)
    return divisor if power is None else factorizer._pm1_stage2(n, power)[0]


@settings(max_examples=10)
@given(modulus=st.sampled_from(_PM1_MODULI), seed=st.integers(0, 2**32 - 1))
@example(modulus=62, seed=0)
@example(modulus=4006, seed=0)
def test_pm1_finds_the_prime_whose_p_minus_1_is_b2_smooth(modulus, seed):
    # p - 1 = L * s * b with b in (B1, B2] needs the seed and stage 2;
    # q - 1 has a prime above B2, so q stays out of the gcd.
    rng = random.Random(seed)
    b1, b2 = factorizer._PM1_B1, factorizer._PM1_B2
    p = _prime_one_mod(modulus, rng, (b1 + 1, b2 + 1))
    q = _prime_one_mod(modulus, rng, (b2 + 1, 10 * b2))
    assert _pollard_pm1(p * q, modulus) == p


@settings(max_examples=10)
@given(modulus=st.sampled_from(_PM1_MODULI), seed=st.integers(0, 2**32 - 1))
def test_pm1_never_returns_a_trivial_divisor(modulus, seed):
    # Both p - 1 and q - 1 divide the stage-1 exponent, so the stage-1
    # gcd is p * q itself: a failure, not a factor.
    rng = random.Random(seed)
    p = q = _prime_one_mod(modulus, rng)
    while q == p:
        q = _prime_one_mod(modulus, rng)
    divisor = _pollard_pm1(p * q, modulus)
    assert divisor is None or (1 < divisor < p * q and p * q % divisor == 0)


@settings(max_examples=6)
@given(modulus=st.sampled_from(_PM1_MODULI), seed=st.integers(0, 2**32 - 1))
@example(modulus=62, seed=0)
def test_pm1_stage_2_stops_at_its_first_factor(modulus, seed):
    # p - 1 and q - 1 are both B2-smooth, but p's stage-2 prime is among
    # the first block of primes past B1 and q's lies two blocks later or
    # more.  The plan's first 912 products cover the first block of
    # primes, and the primes two blocks on come from its 1473rd product
    # on, so the first gcd, after 1024 products, holds p alone; one gcd
    # at the end would hold p * q, a failure.
    rng = random.Random(seed)
    block = factorizer._PM1_GCD_EVERY
    primes = _STAGE_2_PRIMES
    while True:
        p = _prime_one_mod(modulus, rng, (primes[0], primes[block - 1] + 1))
        q = _prime_one_mod(modulus, rng, (primes[2 * block], primes[-1] + 1))
        divisor, power = factorizer._pm1_stage1(p * q, modulus)
        if divisor is None and power is not None:
            break
    assert factorizer._pm1_stage2(p * q, power)[0] == p
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factorizer, "_PM1_GCD_EVERY", len(primes))
        assert factorizer._pm1_stage2(p * q, power)[0] is None


@settings(max_examples=10)
@given(
    modulus=st.sampled_from(_PM1_MODULI),
    b=st.integers(factorizer._PM1_B1, factorizer._PM1_B2)
    .map(_prime_at_most)
    .filter(lambda b: b > factorizer._PM1_B1),
    seed=st.integers(0, 2**32 - 1),
)
@example(modulus=62, b=2311, seed=0)  # D + 1
@example(modulus=62, b=2309, seed=0)  # D - 1, in the same product as D + 1
@example(modulus=4006, b=11549, seed=0)  # 5D - 1
@example(modulus=6002, b=999983, seed=0)  # 433D - 247, the last prime
def test_pm1_stage_2_matches_the_prime_by_prime_reference(modulus, b, seed):
    # p - 1 = L * s * b with b a prime in (B1, B2] and s below B1, so stage
    # 2 must find p on either side v*D -+ u of its pairing, as the
    # reference does one prime at a time; q - 1 has a prime above B2.
    rng = random.Random(seed)
    b2 = factorizer._PM1_B2
    while True:
        p = _prime_one_mod(modulus, rng, (b, b + 1))
        q = _prime_one_mod(modulus, rng, (b2 + 1, 10 * b2))
        divisor, power = factorizer._pm1_stage1(p * q, modulus)
        if power is not None:
            break
    assert divisor is None
    assert factorizer._pm1_stage2(p * q, power)[0] == p
    assert pm1_stage2_prime_by_prime(p * q, power) == p


def test_pm1_powers_is_lcm_of_one_to_b1():
    # Stage 1's exponent over k, lcm(1..B1), is the product of the largest
    # power of each prime up to B1.
    assert pm1_powers_by_prime_powers(10) == 2520
    assert factorizer._pm1_powers() == pm1_powers_by_prime_powers(factorizer._PM1_B1)


def test_pm1_plan_pairs_every_prime_of_stage_2_once():
    # Each prime in (B1, B2] is v*D -+ u for exactly one listed pair (v, u)
    # and every listed pair covers a prime, so no product is wasted.
    babies, first, rows = factorizer._pm1_plan()
    d = factorizer._PM1_D
    assert babies == tuple(u for u in range(1, d // 2, 2) if math.gcd(u, d) == 1)
    assert len(babies) == 240
    primes = set(_STAGE_2_PRIMES)
    covered = []
    for v, row in enumerate(rows, first):
        for u in map(babies.__getitem__, row):
            pair = [s for s in (v * d - u, v * d + u) if s in primes]
            assert pair, (v, u)
            covered += pair
    assert len(covered) == len(primes) == 78195
    assert set(covered) == primes
    assert sum(map(len, rows)) == 63466


def test_full_factorization_completes_where_rho_alone_ran_out():
    # Rho alone leaves a piece of each composite after 2^20 steps.
    for n, m, primes in (
        (37, 3, (119480892606491743, 3576005633803707374119)),
        (39, 4, (10753900272961, 4095685046827999327)),
    ):
        _split, flist = full_factorization(n, m)
        assert flist.complete and factor_list_product(flist) == flist.target
        for p in primes:
            assert (p, 1) in flist.factors


def test_pm1_stage_1_splits_29_2_after_the_short_leg(monkeypatch):
    # 15491408791 - 1 = 2 * 3 * 5 * 11 * 13 * 29 * 239 * 521, so stage 1
    # finds it in the 97-bit survivor of the top piece (L = 58) as soon
    # as rho has walked its short leg of 510 steps.
    pieces = _record_pieces(monkeypatch)
    _split, flist = full_factorization(29, 2)
    assert flist.complete and (15491408791, 1) in flist.factors
    [piece] = [p for p in pieces if p["value"] % 15491408791 == 0]
    assert piece["stage1"] == [15491408791] and piece["stage2"] == []
    [held] = [used for n, used in piece["rho"] if n % 15491408791 == 0]
    # Stage 1's charge at k = 58 is 321 steps.
    assert held == 510 + 321


def test_pm1_splits_31_2_after_one_leg_of_rho(monkeypatch):
    # Rho's c = 1 walk modulo 980949714209 runs 497150 steps, while
    # 980949714209 - 1 = 2^5 * 31^2 * 101 * 315829 is smooth enough for
    # p-1's stage 2, though not for stage 1.
    pieces = _record_pieces(monkeypatch)
    _split, flist = full_factorization(31, 2)
    assert flist.complete and (980949714209, 1) in flist.factors
    [piece] = [p for p in pieces if p["value"] % 980949714209 == 0]
    assert piece["stage1"] == [None] and piece["stage2"] == [980949714209]
    # One survivor walks the long leg of rho, 8190 steps, paying for both
    # stages (289 and 8000 steps at k = 62), and stage 2 splits it; the
    # piece's other survivors split within a few steps each.
    *quick, held = sorted(used for _n, used in piece["rho"])
    assert held == 8190 + 289 + 8000
    assert sum(quick) < 100


def test_rho_resumes_the_walk_it_paused_for_pm1(monkeypatch):
    # A budget with room for both charges: both stages fail and rho takes
    # exactly the steps of one walk that never paused, on the budget less
    # the charges.  A budget without room for stage 2 runs stage 1 only,
    # and one that ends before the short leg is paid for runs neither.
    charge1, charge2 = 289, 8000  # the charges of the two stages at k = 62
    stage1 = count_calls(monkeypatch, factorizer, "_pm1_stage1")
    stage2 = count_calls(monkeypatch, factorizer, "_pm1_stage2")
    budgets = (1 << 20, 20000, 16000, 600)
    staged = []
    for budget in budgets:
        del stage1[:], stage2[:]
        divisor = factorizer._brent_rho(_HARD_62, 62, budget)
        staged.append((divisor, len(stage1), len(stage2)))
    monkeypatch.setattr(factorizer, "_RHO_SHORT_LEG", 1 << 62)
    monkeypatch.setattr(factorizer, "_RHO_LEG", 1 << 62)
    walk = factorizer._brent_rho
    assert staged == [
        ((4148291909, 12542 + charge1 + charge2), 1, 1),
        ((None, 20000), 1, 1),
        ((4148291909, 12542 + charge1), 1, 0),
        ((None, 600), 0, 0),
    ]
    assert walk(_HARD_62, 62, (1 << 20) - charge1 - charge2) == (4148291909, 12542)
    assert walk(_HARD_62, 62, 20000 - charge1 - charge2) == (
        None,
        20000 - charge1 - charge2,
    )
    assert walk(_HARD_62, 62, 16000 - charge1) == (4148291909, 12542)
    assert walk(_HARD_62, 62, 600) == (None, 600)


def test_a_stage_that_hands_on_nothing_ends_the_schedule(monkeypatch):
    # With the long leg just past the short one, stage 2 is due at the
    # gcd point after stage 1.  Both p - 1 = 62 * 1021 * 1361 * 1627 * 1663
    # and q - 1 = 62 * 461 * 617 * 1489 * 1913 divide the stage-1
    # exponent, so stage 1's gcd is p * q and it hands on nothing: stage 2
    # never runs.  On _HARD_62 stage 1 hands on its power and stage 2 runs
    # once.  Rho splits neither within the budget.
    stage1 = count_calls(monkeypatch, factorizer, "_pm1_stage1")
    stage2 = count_calls(monkeypatch, factorizer, "_pm1_stage2")
    monkeypatch.setattr(factorizer, "_RHO_LEG", factorizer._RHO_SHORT_LEG + 1)
    staged = []
    for n in (233107023479423 * 50232806949959, _HARD_62):
        del stage1[:], stage2[:]
        divisor = factorizer._brent_rho(n, 62, 20000)
        staged.append((divisor, len(stage1), len(stage2)))
    assert staged == [((None, 20000), 1, 0), ((None, 20000), 1, 1)]


def test_pm1_charge_stays_inside_the_piece_budget(monkeypatch):
    # Each piece spends at most RHO_STEP_LIMIT in rho steps and p-1
    # charges; a piece whose p-1 run failed spends exactly that.
    monkeypatch.setattr(factorizer, "RHO_STEP_LIMIT", 20000)
    pieces = _record_pieces(monkeypatch)
    for n, m in ((43, 5), (37, Fraction(3, 2)), (31, 2)):
        full_factorization(n, m)
    spent = [sum(used for _n, used in p["rho"]) for p in pieces]
    assert all(steps <= 20000 for steps in spent)
    assert any(p["stage2"] == [None] and s == 20000 for p, s in zip(pieces, spent))
    assert any(p["stage2"] == [980949714209] for p in pieces)


def _record_pieces(monkeypatch):
    """Record, per piece that `full_factorization` factors, its value,
    each `_brent_rho` call as (survivor, steps spent with p-1's charges)
    and the divisor or None that each stage of p-1 returned."""
    accumulate = factorizer._accumulate_factors
    rho = factorizer._brent_rho
    stage1, stage2 = factorizer._pm1_stage1, factorizer._pm1_stage2
    pieces = []

    def one_piece(value, *args):
        pieces.append({"value": value, "rho": [], "stage1": [], "stage2": []})
        return accumulate(value, *args)

    def counted_rho(n, k, budget):
        divisor, used = rho(n, k, budget)
        assert used <= budget
        pieces[-1]["rho"].append((n, used))
        return divisor, used

    def counted_stage1(n, k):
        divisor, power = stage1(n, k)
        pieces[-1]["stage1"].append(divisor)
        return divisor, power

    def counted_stage2(n, a):
        divisor, handed = stage2(n, a)
        pieces[-1]["stage2"].append(divisor)
        return divisor, handed

    monkeypatch.setattr(factorizer, "_accumulate_factors", one_piece)
    monkeypatch.setattr(factorizer, "_brent_rho", counted_rho)
    monkeypatch.setattr(factorizer, "_pm1_stage1", counted_stage1)
    monkeypatch.setattr(factorizer, "_pm1_stage2", counted_stage2)
    return pieces


def _prime_by_trial(k):
    if k < 2:
        return False
    return all(k % d for d in range(2, math.isqrt(k) + 1))
