"""Cyclotomic polynomials, Ramanujan sums, F_n and the growth bounds.

`phi_moebius` is checked against the reference routes in `_oracles`:
complex roots, prime-at-a-time recursion, Newton's identities, and the
Moebius product of x^d - 1 evaluated modulo 2^61 - 1.
"""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import aurifeuille.numthy as numthy
import aurifeuille.poly as poly
from aurifeuille.cyclotomic import f_poly, phi_moebius
from aurifeuille.errors import NotSquareFree
from aurifeuille.numthy import make_context
from aurifeuille.poly import IntPolynomial

from _counting import count_calls
from _oracles import (
    MERSENNE_61,
    cyclotomic_by_roots,
    cyclotomic_power_sums,
    euler_phi,
    f_by_substitution,
    horner,
    monomial,
    newton_from_power_sums,
    phi_bound,
    phi_moebius_loop,
    phi_newton,
    phi_recursive,
    phi_value_mod,
    ramanujan_by_roots,
    ramanujan_sum,
    schoolbook_mul,
    squarefree_range,
    sub_coeffs,
    symmetry_class,
    value_mod,
)


KNOWN_PHI = {
    1: IntPolynomial([-1, 1]),
    2: IntPolynomial([1, 1]),
    3: IntPolynomial([1, 1, 1]),
    4: IntPolynomial([1, 0, 1]),
    6: IntPolynomial([1, -1, 1]),
    12: IntPolynomial([1, 0, -1, 0, 1]),
    15: IntPolynomial.from_descending([1, -1, 0, 1, -1, 1, 0, -1, 1]),
    30: IntPolynomial.from_descending([1, 1, 0, -1, -1, -1, 0, 1, 1]),
}


def test_phi_known_values():
    for n, expected in KNOWN_PHI.items():
        assert phi_moebius(n) == expected


def test_phi_degree_and_monic():
    for n in range(1, 80):
        p = phi_moebius(n)
        assert p.degree == euler_phi(n)
        assert p.coeffs[-1] == 1
        if n > 1:
            assert p.coeffs[0] == 1


def test_phi_against_complex_roots():
    for n in range(1, 31):
        assert phi_moebius(n) == cyclotomic_by_roots(n)


def test_phi_divisor_product_is_x_pow_n_minus_1():
    for n in (1, 2, 6, 12, 15, 28, 30, 36):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = schoolbook_mul(prod, phi_moebius(d).coeffs)
        assert IntPolynomial(prod) == IntPolynomial(sub_coeffs(monomial(n).coeffs, [1]))


def test_phi_recursive_matches_moebius():
    for n in squarefree_range(1, 120):
        assert phi_recursive(n) == phi_moebius(n)
    with pytest.raises(NotSquareFree):
        phi_recursive(12)


def test_phi_newton_matches_moebius():
    # phi_newton works for all n, not just square-free ones.
    for n in range(1, 90):
        assert phi_newton(n) == phi_moebius(n)


def test_phi_slices_match_the_loop_up_to_3000():
    # Every n: each k > phi(n) skipped, every division both by residue
    # classes and block by block, and every short last block.
    for n in range(1, 3001):
        assert phi_moebius(n) == phi_moebius_loop(n), n


@settings(max_examples=12)
@given(
    st.tuples(
        st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), min_size=4, max_size=6),
        st.sampled_from([1, 2, 4]),
    )
    .map(lambda drawn: math.prod(drawn[0]) * drawn[1])
    .filter(lambda n: n <= 60060)
)
@example(30030)
@example(60060)
def test_phi_slices_match_the_loop_at_many_primes(n):
    # Four to six distinct primes, some times 2 or 4.
    assert phi_moebius(n) == phi_moebius_loop(n)


def _assert_matches_divisor_product(n, p, seed):
    rng = random.Random(seed)
    for _ in range(3):
        x = rng.randrange(2, MERSENNE_61 - 1)
        expected = phi_value_mod(n, x)
        if expected is not None:
            assert value_mod(p, x) == expected, (n, x)


@pytest.mark.parametrize("n", [15015, 30030])
def test_phi_in_place_at_many_primes(n):
    p = phi_moebius(n)
    assert p.degree == euler_phi(n)
    assert p.coeffs[-1] == 1
    assert symmetry_class(p) == "palindromic"
    _assert_matches_divisor_product(n, p, seed=n)


@settings(max_examples=40)
@given(n=st.integers(min_value=1, max_value=3000))
def test_phi_matches_divisor_product_mod_prime(n):
    # Every n, square-free or not: the in-place build against the Moebius
    # product of x^d - 1 at seeded points modulo 2^61 - 1.
    _assert_matches_divisor_product(n, phi_moebius(n), seed=n)


def test_phi_factors_n_once_and_multiplies_nothing(monkeypatch):
    # Every polynomial product the library makes is packed through
    # `poly._layout`, so no layout means no product.
    factorizations = count_calls(monkeypatch, numthy, "factorize")
    products = count_calls(monkeypatch, poly, "_layout")
    ns = (2, 12, 15, 105, 2310, 4900)
    for n in ns:
        phi_moebius(n)
    assert factorizations == [(n,) for n in ns]
    assert products == []


def test_first_coefficient_of_height_two():
    # Phi_105 is the first cyclotomic polynomial with a coefficient of
    # magnitude 2.
    p = phi_moebius(105)
    assert max(abs(c) for c in p.coeffs) == 2
    for n in range(1, 105):
        assert max(abs(c) for c in phi_moebius(n).coeffs) == 1


def test_ramanujan_known_values():
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(2, 1) == -1
    assert ramanujan_sum(2, 2) == 1
    assert ramanujan_sum(5, 5) == 4  # phi(5)
    assert ramanujan_sum(6, 3) == -2
    assert ramanujan_sum(9, 3) == -3
    assert ramanujan_sum(10, 4) == -1


def test_ramanujan_against_complex_roots():
    for n in range(1, 25):
        for k in range(1, 2 * n + 1):
            assert ramanujan_sum(n, k) == ramanujan_by_roots(n, k)


def test_ramanujan_periodic_and_bounded():
    for n in range(1, 60):
        for k in range(1, n + 1):
            c = ramanujan_sum(n, k)
            assert c == ramanujan_sum(n, k + n) == ramanujan_sum(n, k + 7 * n)
            assert abs(c) <= min(k, n)


def test_ramanujan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)
    with pytest.raises(ValueError):
        ramanujan_sum(5, 0)


def test_power_sums_default_length():
    assert len(cyclotomic_power_sums(15)) == euler_phi(15)
    assert cyclotomic_power_sums(15, 3) == [1, 1, -2]


def test_newton_reconstruction_random_integer_roots():
    # Build a polynomial from known integer roots, feed its true power
    # sums to the Newton solver, and require the product form back.
    rng = random.Random(405)
    for _ in range(25):
        roots = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))]
        d = len(roots)
        prod = [1]
        for r in roots:
            prod = schoolbook_mul(prod, [-r, 1])
        sums = [sum(r**k for r in roots) for k in range(1, d + 1)]
        assert newton_from_power_sums(sums, d) == IntPolynomial(prod)


def test_newton_error_paths():
    with pytest.raises(ArithmeticError):
        newton_from_power_sums([1, 2], 2)  # forces a_2 = -1/2
    with pytest.raises(ValueError):
        newton_from_power_sums([1], 2)  # too few power sums
    with pytest.raises(ValueError):
        newton_from_power_sums([], -1)
    assert newton_from_power_sums([], 0) == IntPolynomial([1])


def test_f_poly_small_cases():
    assert f_poly(2) == IntPolynomial([1, 0, 1])  # x^2 + 1
    assert f_poly(3) == IntPolynomial([1, -1, 1])  # Phi_3(-x)
    assert f_poly(5) == phi_moebius(5)
    assert f_poly(14) == IntPolynomial.from_descending(
        [1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1]
    )
    assert f_poly(15) == IntPolynomial.from_descending(
        [1, 1, 0, -1, -1, -1, 0, 1, 1]
    )


def test_f_poly_is_phi_of_n_prime():
    for n in squarefree_range(2, 120):
        n_prime = n if n % 4 == 1 else 2 * n
        assert f_poly(n) == phi_moebius(n_prime) == f_by_substitution(n)
        assert f_poly(n).degree == euler_phi(2 * n)


def test_f_poly_rejects_non_squarefree():
    with pytest.raises(NotSquareFree):
        f_poly(12)


def test_bounds_hold_on_circle():
    rng = random.Random(99)
    for n in (7, 15, 30, 101):
        p = phi_moebius(n)
        f = f_poly(n) if n != 101 else None
        for radius in (1.1, 2.0, 10.0):
            cap = phi_bound(n, radius)
            fcap = phi_bound(make_context(n).n_prime, radius)
            for _ in range(25):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                z = radius * cmath.exp(1j * theta)
                assert abs(horner(p.coeffs, z)) < cap
                if f is not None:
                    assert abs(horner(f.coeffs, z)) < fcap


def test_bounds_are_reasonably_tight_at_large_radius():
    # At radius far beyond the unit circle the polynomial is dominated by
    # its leading term, so the bound should be within a small factor.
    n, radius = 15, 100.0
    value = abs(horner(phi_moebius(n).coeffs, complex(radius, 0.0)))
    assert value < phi_bound(n, radius) < 1.05 * value
