"""Binary fixed point: `_exp_neg` within its error bound and the
estimate's 20-digit `str`, each against mpmath."""

import math
from fractions import Fraction

import mpmath
import pytest

import aurifeuille.fixedpoint as fixedpoint


def _exp_neg_bound(a, w, h):
    """`_exp_neg`'s error bound 2^h * (4w * (2 + 1/z) + 2), z = a / 2^(w+h)."""
    return 2**h * (4 * w * (2 + Fraction(2 ** (w + h), a)) + 2)


@pytest.mark.parametrize("w", [64, 200, 1000, 5000])
def test_exp_neg_within_its_error_bound(w):
    # z = y / 2^h from 2^-40 to 2/3, with and without halvings.
    for h in (0, 1, 3, 8, 20):
        for z in (Fraction(2, 3), Fraction(1, 2), Fraction(1, 7), Fraction(1, 1000), Fraction(1, 2**40)):
            a = math.floor(z * 2 ** (w + h))
            got = fixedpoint._exp_neg(a, w, h)
            with mpmath.workprec(w + 64):
                exact = mpmath.exp(-mpmath.ldexp(a, -w)) * mpmath.mpf(2) ** w
                error = abs(got - exact)
            assert error < math.floor(_exp_neg_bound(a, w, h)), (w, h, z)


@pytest.mark.parametrize(
    "man, exp",
    [
        (0, 0),
        (1, 0),
        (3, -1),
        (1, -30),
        (1, -19),  # 1.9e-6: the exponent layout
        (1, -16),  # 1.5e-5: the smallest in the fixed-point layout
        (2**64 - 1, -64),
        (10**19, 0),
        (10**20 - 1, 0),  # 20 nines, the last fixed-point layout
        (2 * 10**20 - 1, -1),  # 20 nines and a half: rounds up to 1.0e+20
        (10**20, 0),
        (2**200 + 12345, -7),
        (7**300, -900),
        (123456789012345678901234567890, -200),
    ],
)
def test_fixed_point_str_is_mpmath_nstr_20(man, exp):
    with mpmath.workprec(max(man.bit_length(), 1) + 10):
        expected = mpmath.nstr(mpmath.ldexp(man, exp), 20)
    assert str(fixedpoint._FixedPoint(man, exp)) == expected
