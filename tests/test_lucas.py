"""The Lucas factor pair (C_n, D_n) with F_n = C^2 - n*x*D^2."""

import math
from fractions import Fraction

import pytest

from aurifeuille import lucas, numthy
from aurifeuille.cyclotomic import f_poly
from aurifeuille.errors import NotSquareFree, NTooSmall
from aurifeuille.lucas import algorithm_l, verify_lucas
from aurifeuille.numthy import jacobi, make_context
from aurifeuille.poly import IntPolynomial

from _counting import count_calls
from _oracles import (
    divisors,
    euler_phi,
    expand_classes,
    horner,
    kernel_call,
    moebius,
    schoolbook_mul,
    squarefree_range,
    sub_coeffs,
    symmetry_class,
)


def test_known_pairs():
    for n, c, d in (
        (2, [1, 1], [1]),
        (3, [1, 1], [1]),
        (5, [1, 3, 1], [1, 1]),
        (6, [1, 3, 1], [1, 1]),
        (7, [1, 3, 3, 1], [1, 1, 1]),
    ):
        pair = algorithm_l(n)
        assert pair.poly_c() == IntPolynomial.from_descending(c)
        assert pair.poly_d() == IntPolynomial.from_descending(d)


def test_shapes_and_palindromes():
    for n in squarefree_range(2, 100):
        pair = algorithm_l(n)
        d = euler_phi(2 * n) // 2
        assert pair.d == d
        assert pair.gamma[0] == 1 and pair.delta[0] == 1
        assert len(pair.gamma) == d + 1 and len(pair.delta) == d
        c_poly, d_poly = pair.poly_c(), pair.poly_d()
        assert c_poly.degree == d and c_poly.coeffs[-1] == 1
        assert d_poly.degree == d - 1 and d_poly.coeffs[-1] == 1
        assert symmetry_class(c_poly) == "palindromic"
        assert symmetry_class(d_poly) == "palindromic"


def test_defining_identity():
    for n in squarefree_range(2, 152):
        assert verify_lucas(n)


def test_defining_identity_at_15015():
    assert verify_lucas(15015)


@pytest.mark.parametrize("n", [1155, 3001])
def test_identity_fails_on_one_corrupt_coefficient(n):
    pair = algorithm_l(n)
    big = 1 << max(c.bit_length() for c in pair.gamma + pair.delta)
    for field in ("gamma", "delta"):
        coeffs = getattr(pair, field)
        j = len(coeffs) // 2
        corruptions = [(delta, {j: delta}) for delta in (1, -1, big)]
        # Coefficients k and len - 1 - k changed together, by the
        # polynomial's own mirror sign: the input stays reciprocal, so the
        # check runs at the reduced width.
        k = len(coeffs) // 4
        sign = 1 if coeffs == coeffs[::-1] else -1
        corruptions.append(("mirrored", {k: 1, len(coeffs) - 1 - k: sign}))
        for label, change in corruptions:
            corrupt = tuple(c + change.get(i, 0) for i, c in enumerate(coeffs))
            bad = pair._replace(**{field: corrupt})
            assert not bad.identity_holds(), (field, label)


def test_identity_expanded_for_15():
    pair = algorithm_l(15)
    c, dd = pair.poly_c().coeffs, pair.poly_d().coeffs
    x = [0, 1]
    n_x_dd_dd = [15 * v for v in schoolbook_mul(x, schoolbook_mul(dd, dd))]
    assert f_poly(15) == IntPolynomial(sub_coeffs(schoolbook_mul(c, c), n_x_dd_dd))
    assert pair.poly_c() == IntPolynomial.from_descending([1, 8, 13, 8, 1])
    assert pair.poly_d() == IntPolynomial.from_descending([1, 3, 3, 1])


def test_lucas_q_odd_is_jacobi():
    # The odd-index power sums reach the kernel as its characters p_i =
    # q_{2i-1}, and as r_i = p_{i+1} = q_{2i+1}.
    for n in squarefree_range(2, 40):
        p = kernel_call(lucas, n)[4]
        for k in range(1, 2 * len(p) - 2, 2):
            assert p[(k + 1) // 2] == jacobi(n, k)


def test_lucas_q_even_matches_float_cosine():
    # The even-index values come from residue classes with a twist; check
    # them against the transcendental definition
    # mu(n'/g) * phi(g) * cos((n-1)*(k/2)*pi/2) with g = gcd(k, n').
    for n in squarefree_range(2, 40):
        n_prime = n if n % 4 == 1 else 2 * n
        q = expand_classes(*lucas._classes(make_context(n), 12), 12)
        for k in range(2, 25, 2):
            g = math.gcd(k, n_prime)
            c = math.cos((n - 1) * (k // 2) * math.pi / 2.0)
            expected = round(moebius(n_prime // g) * euler_phi(g) * c)
            assert q[k // 2] == expected


def _rational_split(n, m):
    """The split at x = m^2 * n as exact rationals: split_at / q^(2d)."""
    m = Fraction(m)
    pair = algorithm_l(n)
    scale = m.denominator ** (2 * pair.d)
    lo, hi = pair.split_at(m.numerator, m.denominator)
    return Fraction(lo, scale), Fraction(hi, scale)


def test_eval_split_known_values():
    assert _rational_split(15, 1) == (19231, 142111)  # x = 15
    assert _rational_split(2, 2) == (5, 13)  # x = 8
    assert _rational_split(7, Fraction(2, 5)) == (  # x = 28/25
        Fraction(1247, 15625),
        Fraction(296507, 15625),
    )


def test_eval_split_multiplies_back():
    for n in (2, 3, 6, 10, 15, 21):
        f = f_poly(n)
        for m in (1, 2, 3, Fraction(3, 2), Fraction(2, 5)):
            x = m * m * n
            lo, hi = _rational_split(n, m)
            assert lo * hi == horner(f.coeffs, Fraction(x))
            assert lo <= hi


def test_split_at_is_the_scaled_split():
    # At m = p/q the integer factors are C_h -+ p*n*q*D_h at X = p^2*n,
    # Y = q^2: the rational split times q^(2d).
    assert algorithm_l(7).split_at(2, 5) == (1247, 296507)
    assert algorithm_l(15).split_at(1, 1) == (19231, 142111)
    for n in (2, 3, 6, 10, 15, 21):
        pair = algorithm_l(n)
        for p, q in ((1, 1), (3, 2), (2, 5), (1, 4)):
            lo, hi = pair.split_at(p, q)
            assert lo <= hi
            assert lo * hi == f_poly(n).evaluate_homogeneous(p * p * n, q * q)
            # C_n(x) -+ sqrt(n*x) * D_n(x) at x = (p/q)^2 * n, where
            # sqrt(n*x) = p*n/q.
            x = Fraction(p * p * n, q * q)
            c_val = horner(pair.poly_c().coeffs, x)
            d_val = horner(pair.poly_d().coeffs, x)
            root = Fraction(p * n, q)
            scale = q ** (2 * pair.d)
            assert (Fraction(lo, scale), Fraction(hi, scale)) == (
                c_val - root * d_val,
                c_val + root * d_val,
            )


def test_rejections():
    with pytest.raises(NTooSmall):
        algorithm_l(1)
    with pytest.raises(NotSquareFree):
        algorithm_l(12)


def test_one_factorization_per_pair(monkeypatch):
    calls = count_calls(monkeypatch, numthy, "factorize")
    pair = algorithm_l(15)
    assert len(calls) <= 2
    calls.clear()
    # The identity check builds F_n from the pair's n' = 30 and does not
    # factor n again.
    assert pair.identity_holds()
    assert calls == [(30,)]
    assert pair.split_at(1, 1) == (19231, 142111)


def test_context_fields_carried():
    pair = algorithm_l(15)
    assert pair.n_prime == 30
    pair = algorithm_l(13)
    assert pair.n_prime == 13


def test_values_at_zero_and_one():
    # F_n(1) = Phi_{n'}(1), which is p when n' is a prime power and 1
    # otherwise; n' is square-free times at most one 2, so the prime-power
    # cases are n' prime and n' = 4 (i.e. n = 2).
    for n in squarefree_range(2, 60):
        pair = algorithm_l(n)
        c, d = pair.poly_c().coeffs, pair.poly_d().coeffs
        assert horner(c, 0) == 1 and horner(d, 0) == 1
        n_prime = n if n % 4 == 1 else 2 * n
        if n == 2:
            expected = 2
        elif len(divisors(n_prime)) == 2:
            expected = n_prime
        else:
            expected = 1
        c1, d1 = horner(c, 1), horner(d, 1)
        assert c1 * c1 - n * d1 * d1 == expected
