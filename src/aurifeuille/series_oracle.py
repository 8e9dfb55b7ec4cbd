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
enters, never sqrt(t), so every coefficient is rational and the whole
computation runs in exact `Fraction` arithmetic.  The half-integer powers
of the C_n/D_n case are handled by working in y = sqrt(x): all series
there are built to order 2K in y and the x-coefficients read off the even
(resp. odd) positions, with the complementary positions checked to vanish.

Truncation orders are explicit and never silently extended: combining two
series truncates to the shorter order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import BadConstantTerm, NonIntegralOracle, NotOddSquareFree
from .numthy import _require_squarefree, jacobi, make_context
from .cyclotomic import f_poly, phi_moebius
from .gauss import GaussPair, _odd_context
from .lucas import LucasPair

_Coeff = Union[int, Fraction]


class RationalSeries:
    """A power series over Q truncated at a fixed order K.

    Stores exactly K+1 coefficients (constant term first).  The only
    arithmetic is the product, which keeps track of truncation: the
    product of two series has the smaller of the two orders, and nothing
    ever extends an order implicitly.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[_Coeff], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            del cs[order + 1 :]
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty series needs an explicit order")
        object.__setattr__(self, "_coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, j: int) -> Fraction:
        return self._coeffs[j]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalSeries", self._coeffs))

    def __repr__(self) -> str:
        return f"RationalSeries({list(self._coeffs)!r})"

    def __mul__(self, other: "RationalSeries | int | Fraction"):
        if isinstance(other, (int, Fraction)):
            return RationalSeries([c * other for c in self._coeffs])
        if not isinstance(other, RationalSeries):
            return NotImplemented
        k = min(self.order, other.order)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self._coeffs[: k + 1]):
            if not a:
                continue
            for j in range(k + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out)

    __rmul__ = __mul__


def f_series(n: int, order: int) -> RationalSeries:
    """f_n truncated at `order`: coefficient of x^j is (j|n)/j, j >= 1."""
    _require_squarefree(n)
    if n % 2 == 0:
        raise NotOddSquareFree(f"f_series needs odd n, got {n}")
    return RationalSeries(
        [0] + [Fraction(jacobi(j, n), j) for j in range(1, order + 1)]
    )


def g_series(n: int, order: int) -> RationalSeries:
    """g_n truncated at `order`: odd series with (n|2j+1)/(2j+1) at x^(2j+1)."""
    _require_squarefree(n)
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1, 2):
        coeffs[k] = Fraction(jacobi(n, k), k)
    return RationalSeries(coeffs)


def series_sqrt(series: RationalSeries) -> RationalSeries:
    """The square root with constant term 1, by the standard recurrence.

    Requires the input's constant term to be exactly 1
    (`BadConstantTerm` otherwise).
    """
    c = series.coeffs
    if c[0] != 1:
        raise BadConstantTerm(
            f"series sqrt needs constant term 1, got {c[0]}"
        )
    b = [Fraction(1)]
    for k in range(1, series.order + 1):
        acc = c[k] - sum(
            b[j] * b[k - j] for j in range(1, k) if b[j] and b[k - j]
        )
        b.append(acc / 2)
    return RationalSeries(b)


def series_exp_like(
    f: RationalSeries, t: _Coeff
) -> tuple[RationalSeries, RationalSeries]:
    """The pair (U, V) with exp(sqrt(t)*f/2) = U + sqrt(t)*V.

    U = cosh(sqrt(t)*f/2) and V = sinh(sqrt(t)*f/2)/sqrt(t) for any sign
    of t (V = f/2 at t = 0).  Both are rational: they come from
    U' = (t/2) f' V and V' = (1/2) f' U, coefficient by coefficient,

        k U_k = t * sum_i i (f_i/2) V_(k-i),   k V_k = sum_i i (f_i/2) U_(k-i),

    skipping the zero terms.  `f` must have zero constant term.
    """
    if f[0] != 0:
        raise ValueError("series_exp_like needs a zero constant term")
    half_df = [(i, i * c / 2) for i, c in enumerate(f.coeffs) if c]
    u = [Fraction(1)]
    v = [Fraction(0)]
    for k in range(1, f.order + 1):
        su = sv = Fraction(0)
        for i, h in half_df:
            if i > k:
                break
            if v[k - i]:
                su += h * v[k - i]
            if u[k - i]:
                sv += h * u[k - i]
        u.append(t * su / k)
        v.append(sv / k)
    return RationalSeries(u), RationalSeries(v)


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
    d = ctx.d_gauss
    root = series_sqrt(RationalSeries(phi_moebius(n).coeffs, order=d))
    cosh, sinh_over_root = series_exp_like(f_series(n, d), ctx.s * n)
    alpha = _integer_coeffs(2 * (root * cosh), 0, 1, "A", n)
    beta = _integer_coeffs(2 * (root * sinh_over_root), 0, 1, "B", n)
    return GaussPair(n=n, s=ctx.s, alpha=alpha, beta=beta, d=d)


def lucas_via_series(n: int) -> LucasPair:
    """The Lucas pair by the generating-function route (square-free n >= 2).

    Works in y = sqrt(x): every series is expanded to order 2d in y, the
    even positions of sqrt(F_n(y^2))*cosh(sqrt(n)*g_n(y)) give C_n, and
    the odd positions of sqrt(F_n(y^2))*sinh(sqrt(n)*g_n(y))/sqrt(n) give
    D_n (shifted by the explicit factor y).  The complementary positions
    must vanish and all survivors must be integers.
    """
    ctx = make_context(n)
    d = ctx.d_lucas
    order = 2 * d
    fn = f_poly(n)
    spread = [Fraction(0)] * (order + 1)
    for i in range(d + 1):
        spread[2 * i] = Fraction(fn.coefficient(i))
    root_f = series_sqrt(RationalSeries(spread))
    cosh, sinh_over_root = series_exp_like(2 * g_series(n, order), n)
    c_asc = _integer_coeffs(root_f * cosh, 0, 2, "C", n)
    d_asc = _integer_coeffs(root_f * sinh_over_root, 1, 2, "D", n)
    return LucasPair(
        n=n,
        n_prime=ctx.n_prime,
        s_prime=ctx.s_prime,
        gamma=tuple(reversed(c_asc)),
        delta=tuple(reversed(d_asc)),
        d=d,
    )


def _integer_coeffs(series, first, step, label, n):
    """The coefficients at positions first, first + step, ... up to the
    series order, as ints; every other position must vanish (a stray
    parity in y)."""
    kept = range(first, series.order + 1, step)
    for j, c in enumerate(series.coeffs):
        if c and j not in kept:
            parity = "odd" if j % 2 else "even"
            raise NonIntegralOracle(
                f"{label}_{n}: stray {parity} power y^{j} = {c}"
            )
    out = []
    for i, j in enumerate(kept):
        c = series[j]
        if c.denominator != 1:
            raise NonIntegralOracle(
                f"{label}_{n}: coefficient of x^{i} is non-integer {c}"
            )
        out.append(int(c))
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
