"""Binary fixed point on plain ints, for the rounding route's estimate.

A number is an int scaled by a power of two: `_exp_neg` gives
2^w * exp(-y) at w fraction bits, and `_FixedPoint` holds the estimate
man * 2^exp that `factorizer._estimate` builds from it.  The error
budget of both is in the `factorizer` module docstring.
"""

from __future__ import annotations

from math import floor, isqrt, log10
from typing import NamedTuple


class _FixedPoint(NamedTuple):
    """The number man * 2^exp, exp <= 0: the rounding route's estimate.

    `man_exp` is the pair under the name that mpmath numbers give it.
    `str` gives 20 significant digits, rounded half up, in the layout of
    mpmath's `nstr(value, 20)`; it divides once for a 20-digit quotient
    and never converts the whole mantissa to decimal.
    """

    man: int
    exp: int

    @property
    def man_exp(self) -> tuple[int, int]:
        return self.man, self.exp

    def __float__(self) -> float:
        return self.man / (1 << -self.exp)

    def __str__(self) -> str:
        man, shift = self.man, -self.exp
        if not man:
            return "0.0"
        # 10^e <= value, from the bit length; raised until 20 digits fit.
        e = floor((man.bit_length() - shift - 1) * log10(2))
        while True:
            scale = 19 - e
            num = man * 10 ** max(scale, 0)
            den = 10 ** max(-scale, 0) << shift
            digits = (2 * num + den) // (2 * den)
            if digits < 10**20:
                break
            e += 1
        digits = str(digits)
        if -6 < e < 20:
            if e < 0:
                text = "0." + "0" * (-e - 1) + digits
            else:
                text = digits[: e + 1] + "." + digits[e + 1 :]
            return _strip_zeros(text)
        return f"{_strip_zeros(digits[0] + '.' + digits[1:])}e{e:+d}"


def _strip_zeros(text: str) -> str:
    """A decimal's trailing zeros after the point, keeping one digit."""
    text = text.rstrip("0")
    return text + "0" if text.endswith(".") else text


def _exp_neg(a: int, w: int, h: int) -> int:
    """About 2^w * exp(-y) for y = a / 2^w, by h halvings of y, for
    z = y / 2^h in (0, 2/3].

    The scheme of mpmath's `exponential_series` (D. M. Smith, Math.
    Comp. 52, 1989) in plain ints at w fraction bits: the Taylor series
    of cosh z, split into u concurrent sums over the powers of z^2, each
    multiplied by its power once at the end; sinh z from one isqrt; then
    exp(-y) = (cosh z - sinh z)^(2^h) by h squarings.  The result is off
    by less than 2^h * (4w * (2 + 1/z) + 2) units.
    """
    one = 1 << w
    z2 = a * a >> (w + 2 * h)
    # mpmath's count of concurrent sums.
    u = max(1, int(0.3 * w**0.35))
    powers = [one, z2]
    for _ in range(u - 1):
        powers.append(powers[-1] * z2 >> w)
    sums = [0] * u
    term, j = z2, 2
    while term:
        for i in range(u):
            term //= (j - 1) * j
            sums[i] += term
            j += 2
        term = term * powers[u] >> w
    cosh = one + sums[0] + sum(s * p >> w for s, p in zip(sums[1:], powers[1:]))
    v = cosh - isqrt(cosh * cosh - (one << w))
    for _ in range(h):
        v = v * v >> w
    return v
