"""Aurifeuillian factorization of m^(2n) * n^n +- 1 at desk scale.

With x = m^2 * n the number m^(2n) * n^n - 1 (for n = 1 mod 4; plus one
otherwise) is x^n -+ 1, which splits into cyclotomic pieces Phi_e(x); the
top piece equals F_n(x) and splits further into the Aurifeuillian pair
F_n(x) = F- * F+ with F-+ = C_n(x) -+ sqrt(n*x) * D_n(x).

Two independent routes to the pair are provided:

  * `factor_by_polynomials` — evaluate C_n and D_n exactly (works for
    rational m = p/q too, clearing denominators to integer factors of
    p^(2n) * n^n +- q^(2n));
  * `factor_by_rounding` — skip the polynomials entirely: a short
    truncated series gives a floating-point estimate F^ of F- that is
    provably within 1/2 of it, so F- is recovered by rounding and F+ by
    exact division.  Integer m only.

The estimate is

    F^ = sqrt(F_n(x)) * exp( -(1/m) * sum_{j=0}^{lambda-1} (n|2j+1) / ((2j+1) x^j) ),

with lambda = phi(2n)/2, computed with mpmath at a working precision of
bitlength(F_n(x))/2 + 64 bits, derived from the one evaluation of F_n(x)
that also serves the exact division.

`full_factorization` assembles the whole integer: every cyclotomic piece
below the top one, the Aurifeuillian split in place of the top one, then
trial division of each piece with probable-prime flagging of whatever
survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp

import mpmath

from .errors import InternalInconsistency, NegativeTarget, RoundingFailed
from .numthy import _require_squarefree, divisors, euler_phi, jacobi
from .cyclotomic import f_poly, phi_moebius
from .lucas import aurifeuillian_polys_eval

TRIAL_LIMIT = 10**6

# Strong-pseudoprime witnesses: deterministic below 3.3 * 10^24, a
# probable-prime verdict above.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class AurifeuilleResult:
    """One Aurifeuillian split F_n(x) = F- * F+ at x = (m_num/m_den)^2 * n.

    `F_value`, `F_minus`, `F_plus` are exact (integers when m is an
    integer); `int_minus`/`int_plus` are the denominator-cleared integer
    factors (equal to F_minus/F_plus for integer m).  `hat_F` and
    `residual` = |hat_F - F_minus| are only set on the rounding route.
    """

    n: int
    m_num: int
    m_den: int
    x: Fraction
    F_value: Fraction | int
    F_minus: Fraction | int
    F_plus: Fraction | int
    int_minus: int
    int_plus: int
    hat_F: object | None = None
    residual: float | None = None


@dataclass(frozen=True)
class FactorList:
    """A factorization target = prod base^exp, ascending bases.

    Bases are primes or strong probable primes when `complete` is True;
    a leftover composite beyond the trial-division budget is kept as its
    own entry with `complete` False.
    """

    target: int
    factors: tuple[tuple[int, int], ...]
    complete: bool

    def product(self) -> int:
        out = 1
        for base, e in self.factors:
            out *= base**e
        return out


def hat_f(n: int, m: int):
    """Floating estimate of the smaller Aurifeuillian factor at x = m^2 * n.

    Returns an mpmath float, computed at bitlength(F_n(x))/2 + 64 bits.
    """
    return _estimate(n, m, _f_value_int(n, m))[0]


def factor_by_rounding(n: int, m: int) -> AurifeuilleResult:
    """Recover F- by rounding `hat_f` and F+ by exact division.

    Integer m only.  F_n(x) is evaluated once and serves the estimate,
    its working precision and the division.  Raises `RoundingFailed` when
    the rounded value does not divide F_n(x), which the underlying bound
    rules out for sound inputs.
    """
    if not isinstance(m, int):
        raise TypeError(
            f"factor_by_rounding needs an integer m, got {m!r}; "
            "use factor_by_polynomials for rational m"
        )
    f_val = _f_value_int(n, m)
    hat, bits = _estimate(n, m, f_val)
    # The rounding must run at full precision too: mpmath rounds every
    # operation to the *current* working precision, not the operands'.
    with mpmath.workprec(bits):
        f_minus = int(mpmath.floor(hat + mpmath.mpf(1) / 2))
        if f_minus < 1 or f_val % f_minus:
            raise RoundingFailed(
                f"rounded estimate {f_minus} does not divide "
                f"F_{n}({m * m * n})"
            )
        residual = float(abs(hat - f_minus))
    f_plus = f_val // f_minus
    return AurifeuilleResult(
        n=n,
        m_num=m,
        m_den=1,
        x=Fraction(m * m * n),
        F_value=f_val,
        F_minus=f_minus,
        F_plus=f_plus,
        int_minus=f_minus,
        int_plus=f_plus,
        hat_F=hat,
        residual=residual,
    )


def factor_by_polynomials(n: int, m: Fraction | int) -> AurifeuilleResult:
    """The Aurifeuillian pair by exact evaluation of C_n and D_n.

    Accepts any rational m = p/q > 0.  The exact rational factors
    F-+ = C_n(x) -+ (p*n/q) * D_n(x) multiply to F_n(x); scaling each by
    q^(2d) clears the denominators to integer factors of
    p^(2n) * n^n +- q^(2n).
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError(f"need m > 0, got {m}")
    _require_squarefree(n)
    x = m * m * n
    f_minus, f_plus = aurifeuillian_polys_eval(n, x)
    f_val = f_poly(n).evaluate(x)
    if f_minus * f_plus != f_val:
        raise InternalInconsistency(
            f"split product mismatch at n={n}, m={m}"
        )
    d = euler_phi(2 * n) // 2
    scale = m.denominator ** (2 * d)
    int_minus = f_minus * scale
    int_plus = f_plus * scale
    if int_minus.denominator != 1 or int_plus.denominator != 1:
        raise InternalInconsistency(
            f"denominator clearing failed at n={n}, m={m}"
        )
    return AurifeuilleResult(
        n=n,
        m_num=m.numerator,
        m_den=m.denominator,
        x=x,
        F_value=_as_int_if_possible(f_val),
        F_minus=_as_int_if_possible(f_minus),
        F_plus=_as_int_if_possible(f_plus),
        int_minus=int(int_minus),
        int_plus=int(int_plus),
    )


def target_value(n: int, m: Fraction | int) -> tuple[int, str]:
    """The integer p^(2n) * n^n +- q^(2n) and its sign as "-" or "+".

    The sign is minus exactly when n = 1 (mod 4); then x^n - 1 is the
    number that factors through the cyclotomic pieces, else x^n + 1.
    A minus-sign target below 1, which happens when x = m^2 * n < 1,
    raises `NegativeTarget`.
    """
    m = Fraction(m)
    _require_squarefree(n)
    sign = "-" if n % 4 == 1 else "+"
    p, q = m.numerator, m.denominator
    value = p ** (2 * n) * n**n + (-1 if sign == "-" else 1) * q ** (2 * n)
    if value < 1:
        raise NegativeTarget(
            f"p^(2n)*n^n - q^(2n) = {value} at n={n}, m={m}: "
            "x = m^2 * n must exceed 1 when n = 1 (mod 4)"
        )
    return value, sign


def full_factorization(
    n: int, m: Fraction | int, trial_limit: int = TRIAL_LIMIT
) -> tuple[AurifeuilleResult, FactorList]:
    """Factor m^(2n) * n^n +- 1 (denominator-cleared for rational m).

    Splits the target into its cyclotomic pieces, replaces the top piece
    by its Aurifeuillian halves, then factors every piece by trial
    division up to `trial_limit` with a probable-prime test on whatever
    remains.  Returns the split and the combined factor list; a surviving
    composite leaves `complete` False.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError(f"need m > 0, got {m}")
    target, _sign = target_value(n, m)
    x = m * m * n
    q = m.denominator
    pieces = []
    for e in _cyclotomic_indices(n)[:-1]:
        val = phi_moebius(e).evaluate(x) * q ** (2 * euler_phi(e))
        if val.denominator != 1:
            raise InternalInconsistency(
                f"piece Phi_{e} did not clear denominators at n={n}, m={m}"
            )
        pieces.append(int(val))
    # The top piece F_n(x) is the product of the split; since
    # x^n -+ 1 = prod Phi_e(x), the product check below also rejects a
    # split that does not multiply to it.
    split = factor_by_polynomials(n, m)
    pieces.extend([split.int_minus, split.int_plus])
    check = 1
    for piece in pieces:
        check *= piece
    if check != target:
        raise InternalInconsistency(
            f"piece product {check} != target {target} at n={n}, m={m}"
        )
    counts: dict[int, int] = {}
    complete = True
    for piece in pieces:
        piece_complete = _accumulate_factors(piece, trial_limit, counts)
        complete = complete and piece_complete
    factors = tuple(sorted(counts.items()))
    return split, FactorList(target=target, factors=factors, complete=complete)


def ratio_estimate(n: int, m: Fraction | int) -> tuple[float, float]:
    """(observed F+/F-, predicted exp(2/m)) for the split at x = m^2 * n.

    The observed ratio tends to the prediction as n grows, at rate 1/n.
    """
    split = factor_by_polynomials(n, m)
    observed = float(Fraction(split.int_plus, split.int_minus))
    predicted = exp(float(Fraction(2) / Fraction(m)))
    return observed, predicted


def is_probable_prime(n: int) -> bool:
    """Strong-pseudoprime test; deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _cyclotomic_indices(n: int) -> list[int]:
    """The indices e with x^n -+ 1 = prod Phi_e(x), top (F_n) piece last.

    n = 1 (mod 4): x^n - 1 and e runs over the divisors of n.
    n = 3 (mod 4): x^n + 1 and e = 2*d over the divisors d of n.
    n = 2 (mod 4): x^n + 1 and e = 4*d over the divisors d of n/2.
    The last index is n' or 2n as appropriate and its piece is F_n(x).
    """
    if n % 4 == 1:
        return divisors(n)
    if n % 2:
        return [2 * d for d in divisors(n)]
    return [4 * d for d in divisors(n // 2)]


def _accumulate_factors(value: int, trial_limit: int, counts: dict) -> bool:
    """Trial-divide `value` into `counts`; True when fully resolved."""
    if value < 1:
        raise ValueError(f"cannot factor nonpositive piece {value}")
    if value == 1:
        return True
    rem = value
    d = 2
    while d <= trial_limit and d * d <= rem:
        while rem % d == 0:
            counts[d] = counts.get(d, 0) + 1
            rem //= d
        d += 1 if d == 2 else 2
    if rem == 1:
        return True
    counts[rem] = counts.get(rem, 0) + 1
    # Below trial_limit^2 a survivor is necessarily prime.
    if rem <= trial_limit * trial_limit or is_probable_prime(rem):
        return True
    return False


def _estimate(n: int, m: int, f_val: int):
    """`hat_f` from F_n(x) = f_val, and the working precision it used."""
    bits = f_val.bit_length() // 2 + 64
    x = m * m * n
    lam = euler_phi(2 * n) // 2
    arg = -Fraction(1, m) * sum(
        Fraction(jacobi(n, 2 * j + 1), (2 * j + 1) * x**j) for j in range(lam)
    )
    with mpmath.workprec(bits):
        root = mpmath.sqrt(mpmath.mpf(f_val))
        expo = mpmath.exp(
            mpmath.mpf(arg.numerator) / mpmath.mpf(arg.denominator)
        )
        return root * expo, bits


def _f_value_int(n: int, m: int) -> int:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"need a positive integer m, got {m!r}")
    _require_squarefree(n)
    return f_poly(n).evaluate(m * m * n)


def _as_int_if_possible(value: Fraction):
    return int(value) if value.denominator == 1 else value


__all__ = [
    "AurifeuilleResult",
    "FactorList",
    "TRIAL_LIMIT",
    "factor_by_polynomials",
    "factor_by_rounding",
    "full_factorization",
    "hat_f",
    "is_probable_prime",
    "ratio_estimate",
    "target_value",
]
