"""Truncated rational power series, and the generating-function route to
the Gauss and Lucas pairs — an oracle that is independent of the
coefficient recurrences.

The route rests on the exponential generating identity for a monic P of
degree d with root power sums p_j:

    x^d * P(1/x) = exp( - sum_{j>=1} p_j x^j / j ),

applied to Phi_n and F_n.  Splitting the power sums into rational and
sqrt-of-n parts turns the exponentials into hyperbolic ones:

    A_n = 2 sqrt(Phi_n) cosh( sqrt(s*n)/2 * f_n ),
    B_n = 2 sqrt(Phi_n) * [ sinh( sqrt(s*n)/2 * f_n ) / sqrt(s*n) ],
    C_n(x)          = sqrt(F_n(x)) cosh( sqrt(n) * g_n(sqrt(x)) ),
    sqrt(x) D_n(x)  = sqrt(F_n(x)) * [ sinh( sqrt(n) * g_n(sqrt(x)) ) / sqrt(n) ],

with the Dirichlet-series-like logarithms

    f_n(x) = sum_{j>=1} (j|n) x^j / j        (odd square-free n),
    g_n(x) = sum_{j>=0} (n|2j+1) x^(2j+1) / (2j+1).

Both hyperbolic factors come from one pass: with exp(sqrt(t)*f/2) =
U + sqrt(t)*V, differentiating gives the linear system

    U' = (t/2) f' V,      V' = (1/2) f' U,      U(0) = 1, V(0) = 0,

so U = cosh(sqrt(t)*f/2) and V = sinh(sqrt(t)*f/2)/sqrt(t) are built
coefficient by coefficient in O(K^2) operations for order K.  Only t
enters, never sqrt(t), so every coefficient is rational.  The half-integer
powers of the C_n/D_n case are handled by working in y = sqrt(x): all
series there are built to order 2K in y and the x-coefficients read off
the even (resp. odd) positions, with the complementary positions checked
to vanish.  sqrt(F_n(y^2)) is sqrt(F_n) at order K in x, spread to the
even powers of y, and g_n is odd, so its (U, V) pass sums only its odd
slopes.

The arithmetic is on integers.  A series is a tuple of integer
numerators over one positive denominator, and each recurrence runs on
numerators times one integer scale:

  * the square root of c = a/e on B_k = (4e)^k b_k.  B_1 = 2 a_1, and if
    B_1..B_(k-1) are even then 2 B_k = 4^k e^(k-1) a_k - sum B_j B_(k-j)
    is a multiple of 4, so every B_k is an even integer;
  * the pair (U, V) on D U_k and D V_k with D = K! (2eq)^K, for
    k f_k = G_k / e and t = p/q.  S_k = k! (2eq)^k makes S_k U_k equal
    p sum_i G_i (k-1)!/(k-i)! (2eq)^(i-1) S_(k-i) V_(k-i), an integer
    when the earlier ones are (likewise S_k V_k, with q for p), and S_k
    divides D.

Every division these steps make is checked: a remainder raises
`InternalInconsistency` rather than rounding.  Truncation orders are
explicit and never silently extended: combining two series truncates to
the shorter order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Union

from .errors import (
    BadConstantTerm,
    InternalInconsistency,
    NonIntegralOracle,
    NotOddSquareFree,
)
from .numthy import _require_squarefree, jacobi, make_context
from .cyclotomic import f_poly, phi_moebius
from .gauss import GaussPair, _odd_context
from .lucas import LucasPair

_Coeff = Union[int, Fraction]


class RationalSeries:
    """A power series over Q truncated at a fixed order K.

    Holds exactly K+1 coefficients (constant term first) as integer
    numerators over one positive denominator, with no common factor, so
    equal series have equal numerators and denominators.  `coeffs` and
    indexing read the coefficients as `Fraction`s.  The only arithmetic
    is the product, which keeps track of truncation: the product of two
    series has the smaller of the two orders, and nothing ever extends an
    order implicitly.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[_Coeff], order: int | None = None):
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            del cs[order + 1 :]
            cs.extend([0] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty series needs an explicit order")
        # Over the lcm of reduced denominators the numerators share no
        # factor with it: a prime's highest power there is some c's own.
        den = lcm(*(c.denominator for c in cs))
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    def __getitem__(self, j: int) -> Fraction:
        return Fraction(self._num[j], self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalSeries):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalSeries", self._num, self._den))

    def __repr__(self) -> str:
        return f"RationalSeries({list(self.coeffs)!r})"

    def __mul__(self, other: "RationalSeries | int | Fraction"):
        if isinstance(other, (int, Fraction)):
            top = other.numerator
            return _series(
                [a * top for a in self._num], self._den * other.denominator
            )
        if not isinstance(other, RationalSeries):
            return NotImplemented
        k = min(self.order, other.order)
        right = [(j, b) for j, b in enumerate(other._num[: k + 1]) if b]
        out = [0] * (k + 1)
        for i, a in enumerate(self._num[: k + 1]):
            if not a:
                continue
            room = k - i
            for j, b in right:
                if j > room:
                    break
                out[i + j] += a * b
        return _series(out, self._den * other._den)

    __rmul__ = __mul__


def _series(num: list[int], den: int) -> RationalSeries:
    """The series num[j] / den (den > 0), reduced to no common factor."""
    g = gcd(den, *num)
    if g > 1:
        num = [a // g for a in num]
        den //= g
    out = RationalSeries.__new__(RationalSeries)
    out._num = tuple(num)
    out._den = den
    return out


def _exact(num: int, den: int, name: str, k: int) -> int:
    """num / den at step k of `name`, which the scaling makes an integer;
    a remainder is a bug."""
    q, r = divmod(num, den)
    if r:
        raise InternalInconsistency(
            f"{name} at k={k}: {den} does not divide {num}"
        )
    return q


def f_series(n: int, order: int) -> RationalSeries:
    """f_n truncated at `order`: coefficient of x^j is (j|n)/j, j >= 1."""
    _require_squarefree(n)
    if n % 2 == 0:
        raise NotOddSquareFree(f"f_series needs odd n, got {n}")
    den = lcm(*range(1, order + 1))
    return _series(
        [0] + [jacobi(j, n) * (den // j) for j in range(1, order + 1)], den
    )


def g_series(n: int, order: int) -> RationalSeries:
    """g_n truncated at `order`: odd series with (n|2j+1)/(2j+1) at x^(2j+1)."""
    _require_squarefree(n)
    den = lcm(*range(1, order + 1, 2))
    num = [0] * (order + 1)
    for k in range(1, order + 1, 2):
        num[k] = jacobi(n, k) * (den // k)
    return _series(num, den)


def series_sqrt(series: RationalSeries) -> RationalSeries:
    """The square root with constant term 1, by the standard recurrence
    2 b_k = c_k - sum_{0<j<k} b_j b_(k-j).

    For c = a / e it runs on the even integers B_k = (4e)^k b_k (see the
    module docstring), pairing the terms j and k - j:

        B_k = 2^(2k-1) e^(k-1) a_k - sum_{0<j<k/2} B_j B_(k-j)
              - [k even] B_(k/2)^2 / 2.

    The result is B_k (4e)^(K-k) over (4e)^K.  Requires the input's
    constant term to be exactly 1 (`BadConstantTerm` otherwise).
    """
    a, e = series._num, series._den
    if a[0] != e:
        raise BadConstantTerm(
            f"series sqrt needs constant term 1, got {series[0]}"
        )
    big = [1]
    scale = 2  # 2^(2k-1) e^(k-1)
    for k in range(1, len(a)):
        acc = scale * a[k] - sum(
            map(mul, big[1 : (k + 1) // 2], big[k - 1 : k // 2 : -1])
        )
        if k % 2 == 0:
            acc -= _exact(big[k // 2] ** 2, 2, "B", k)
        big.append(acc)
        scale *= 4 * e
    step, num, power = 4 * e, [], 1
    for b in reversed(big):
        num.append(b * power)
        power *= step
    num.reverse()
    return _series(num, power // step)


def series_exp_like(
    f: RationalSeries, t: _Coeff
) -> tuple[RationalSeries, RationalSeries]:
    """The pair (U, V) with exp(sqrt(t)*f/2) = U + sqrt(t)*V.

    U = cosh(sqrt(t)*f/2) and V = sinh(sqrt(t)*f/2)/sqrt(t) for any sign
    of t (V = f/2 at t = 0).  Both are rational: they come from
    U' = (t/2) f' V and V' = (1/2) f' U, coefficient by coefficient,

        k U_k = t * sum_i i (f_i/2) V_(k-i),   k V_k = sum_i i (f_i/2) U_(k-i).

    With i f_i = G_i / e over the derivative's own denominator (e = 1
    for f_n and 2 g_n) and t = p/q, both run on the integers D U_k and
    D V_k, D = K! (2eq)^K (see the module docstring), so each step is one
    exact division by 2eqk; for an odd f, such as 2 g_n, each sum takes
    only the odd i.  `f` must have zero constant term.
    """
    if f._num[0]:
        raise ValueError("series_exp_like needs a zero constant term")
    t = Fraction(t)
    top, bottom = t.numerator, t.denominator
    order = f.order
    slope = [i * a for i, a in enumerate(f._num)]
    g = gcd(f._den, *slope)
    slope = [a // g for a in slope]
    step = 2 * (f._den // g) * bottom
    scale = factorial(order) * step**order
    # An odd f (as 2 g_n) has slopes at odd i only, so each sum takes
    # every second term, the first at the largest odd i <= k.
    stride = 1 if any(slope[::2]) else 2
    u, v = [scale], [0]
    for k in range(1, order + 1):
        skip = (k + 1) % stride
        head = slope[k - skip : 0 : -stride]
        u.append(_exact(top * sum(map(mul, head, v[skip::stride])), step * k, "U", k))
        v.append(_exact(bottom * sum(map(mul, head, u[skip::stride])), step * k, "V", k))
    return _series(u, scale), _series(v, scale)


def gauss_via_series(n: int) -> GaussPair:
    """The Gauss pair by the generating-function route (odd square-free n > 3).

    Expands 2*sqrt(Phi_n)*cosh and 2*sqrt(Phi_n)*sinh/sqrt(s*n) to order
    d = phi(n)/2.  The expansion is the coefficient reversal x^d * A(1/x),
    so the coefficient of x^j is alpha_j (the multiplier of x^(d-j) in A)
    as-is; likewise for B.  All of them must be integers
    (`NonIntegralOracle` otherwise).
    """
    if n <= 3:
        raise NotOddSquareFree(
            f"gauss_via_series needs odd square-free n > 3, got {n}"
        )
    ctx = _odd_context(n)
    d = ctx.d
    root = series_sqrt(RationalSeries(phi_moebius(n).coeffs, order=d))
    cosh, sinh_over_root = series_exp_like(f_series(n, d), ctx.s * n)
    alpha = _integer_coeffs(2 * (root * cosh), 0, 1, "A", n)
    beta = _integer_coeffs(2 * (root * sinh_over_root), 0, 1, "B", n)
    return GaussPair(n=n, s=ctx.s, alpha=alpha, beta=beta)


def lucas_via_series(n: int) -> LucasPair:
    """The Lucas pair by the generating-function route (square-free n >= 2).

    Works in y = sqrt(x): every series is expanded to order 2d in y, the
    even positions of sqrt(F_n(y^2))*cosh(sqrt(n)*g_n(y)) give C_n, and
    the odd positions of sqrt(F_n(y^2))*sinh(sqrt(n)*g_n(y))/sqrt(n) give
    D_n (shifted by the explicit factor y).  The complementary positions
    must vanish and all survivors must be integers.  The square root of
    F_n(y^2) is that of F_n in x, at order d, with x = y^2.
    """
    ctx = make_context(n)
    d = ctx.d
    order = 2 * d
    root = series_sqrt(RationalSeries(f_poly(n).coeffs[: d + 1]))
    spread = [0] * (order + 1)
    spread[::2] = root._num
    root_f = _series(spread, root._den)
    cosh, sinh_over_root = series_exp_like(2 * g_series(n, order), n)
    c_asc = _integer_coeffs(root_f * cosh, 0, 2, "C", n)
    d_asc = _integer_coeffs(root_f * sinh_over_root, 1, 2, "D", n)
    return LucasPair(
        n=n,
        n_prime=ctx.n_prime,
        gamma=tuple(reversed(c_asc)),
        delta=tuple(reversed(d_asc)),
        d=d,
    )


def _integer_coeffs(series, first, step, label, n):
    """The coefficients at positions first, first + step, ... up to the
    series order, as ints; every other position must vanish (a stray
    parity in y)."""
    num, den = series._num, series._den
    kept = range(first, len(num), step)
    for j, c in enumerate(num):
        if c and j not in kept:
            parity = "odd" if j % 2 else "even"
            raise NonIntegralOracle(
                f"{label}_{n}: stray {parity} power y^{j} = {Fraction(c, den)}"
            )
    out = []
    for i, j in enumerate(kept):
        c = num[j]
        if c % den:
            raise NonIntegralOracle(
                f"{label}_{n}: coefficient of x^{i} is non-integer "
                f"{Fraction(c, den)}"
            )
        out.append(c // den)
    return tuple(out)


__all__ = [
    "RationalSeries",
    "f_series",
    "g_series",
    "gauss_via_series",
    "lucas_via_series",
    "series_exp_like",
    "series_sqrt",
]
