"""Aurifeuillian factorization of m^(2n) * n^n +- 1 at desk scale.

With x = m^2 * n the number m^(2n) * n^n - 1 (for n = 1 mod 4; plus one
otherwise) is x^n -+ 1, which splits into cyclotomic pieces Phi_e(x); the
top piece equals F_n(x) and splits further into the Aurifeuillian pair
F_n(x) = F- * F+ with F-+ = C_n(x) -+ sqrt(n*x) * D_n(x).

Two independent routes to the pair are provided, both over the integers:

  * `factor_by_polynomials` — evaluate C_n, D_n and F_n exactly, each by
    the homogeneous product tree of `IntPolynomial.evaluate_homogeneous`
    at X = p^2 * n, Y = q^2 (works for
    rational m = p/q too, giving integer factors C_h -+ p*n*q * D_h of
    p^(2n) * n^n +- q^(2n) whose product must be F_h = Y^(2d) * F_n(x));
  * `factor_by_rounding` — skip the polynomials entirely: a short
    truncated series gives a floating-point estimate F^ of F- that is
    provably within 1/2 of it, so F- is recovered by rounding and F+ by
    exact division.  Integer m only.

`full_factorization` takes the split from the rounding route for integer
m and from the polynomial route for rational m; at integer m the tests
hold the two routes against each other.

The estimate is

    F^ = sqrt(F_n(x)) * exp( -(1/m) * sum_{j=0}^{lambda-1} (n|2j+1) / ((2j+1) x^j) ),

with lambda = deg F_n / 2 = phi(2n)/2, computed with mpmath at a working
precision of bits = bitlength(F_n(x))/2 + 64, derived from the one
evaluation of F_n(x) that also serves the exact division.  The sum
S = sum_{j<lambda} (n|2j+1) / ((2j+1) x^j) is taken exactly, as one
fraction: S * x^(lambda-1) = sum_j (n|2j+1)/(2j+1) * x^(lambda-1-j) is a
homogeneous sum at the point (1, x), and `poly._pair_blocks` sums it by
binary splitting, each block carrying the product of its odd
denominators.  That costs O(M(N) log lambda) for the N-bit result, in
place of lambda sequential divisions of a number as wide as the result.
One division then gives s = floor(2^P * S) with P = bits + 64 fraction
bits, so |s - 2^P * S| < 1, and -s / (m * 2^P) goes to mpmath's exp.

The error budget, with S > 0, so F^ < sqrt(F_n(x)) < 2^(bits - 63),
and |S| < 5/4:

  * the floor moves the argument of exp by less than 2^-P, and F^ by
    less than 2^-127;
  * mpmath.mpf(-s) rounds s to bits bits, dropping the 64 extra
    fraction bits, and the division by m, exp, sqrt and the final
    product round to bits bits as well (so does mpf(F_n(x)) once F_n(x)
    is wider than that).  Each of these six roundings is off by at most
    about 2^-bits relative, that of the argument scaled by |S/m| < 5/4,
    so each moves F^ by at most about 2^-63: about 2^-62 for the
    conversion of s, exp and sqrt together, and below 2^-60 for all six,
    the tolerance that the tests pin against the exact series.

That is far inside the 1/2 rounding window.  Rounding F^ and dividing
F_n(x) exactly by the result remain the proof.

`full_factorization` assembles the whole integer: every cyclotomic piece
below the top one, then the Aurifeuillian split in place of the top one.
Each piece is a value Phi_e(X, Y) of a homogenised cyclotomic polynomial
at X = p^2 * n, Y = q^2, and both halves of the split divide the top
one.  A prime of such a value divides 2n (2, the primes of e, or a
common prime of X and Y) or is 1 (mod L) with L = lcm(2, e).  So each
piece is factored by:

  1. dividing out the primes of 2n;
  2. on each composite survivor, smallest survivor first, Brent's rho
     over y -> y^L + c (Brent & Pollard, 1981).  A prime p = 1 (mod L)
     closes the cycle after about sqrt(p/L) steps;
  3. Pollard's p-1 method, by a schedule of pauses in that walk.  After
     510 steps, stage 1 (Pollard 1974) with the exponent
     E = L * lcm(1, ..., 2000), seeded by L, which divides p - 1.  It
     finds p when p - 1 is L times a divisor of lcm(1, ..., 2000),
     however large p is, at the cost of about 300 rho steps, and hands
     its power 2^E on to stage 2;
  4. after 8190 steps, stage 2 (Montgomery 1987), which finds p when
     p - 1 needs one more prime s up to 10^6.  Baby and giant steps pair
     the primes s = v*D -+ u (D = 2310), so one modular product covers
     both primes of a pair: 63466 products for the 78195 primes, against
     two per prime one at a time.  It takes a gcd every 1024 products and
     stops at the first factor;
  5. the rest of the same rho walk once the schedule ends: after stage
     2, or after a stage that did not fit in the budget or left nothing
     to hand on.

All survivors of a piece share one budget of `RHO_STEP_LIMIT` rho
steps, and each stage of p-1 is charged its modular products as the rho
steps that take as long (`_rho_steps`).

A base below 3.3 * 10^24 that passes the strong-pseudoprime test is
proven prime; a larger one is only a probable prime and is listed in
`FactorList.probable`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import compress
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalInconsistency, NegativeTarget, RoundingFailed
from .numthy import NumTheoryContext, _symbols_n_over_odd_k, make_context
from .cyclotomic import phi_moebius
from .lucas import algorithm_l
from .poly import _pair_blocks

RHO_STEP_LIMIT = 1 << 20
"""Most steps of Brent's rho for one cyclotomic piece, summed over its
survivors and all restarts of c.  Each stage of p-1 counts as the
number of rho steps that take as long (`_rho_steps`).  A survivor that
is still composite when they run out stays in the factor list and
leaves the factorization incomplete.  Spending the whole cap with
L = 62 took 3.6 s on a 41-digit survivor and 7.5 s on an 81-digit one,
on a shared 2-core Xeon with Python 3.11."""

# Strong-pseudoprime witnesses: the first 13 primes.  The smallest
# composite passing all of them is psi_13 = 3317044064679887385961981,
# so the test is a proof below it and a probable-prime verdict above.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981

# Steps of rho between two gcds.
_RHO_BATCH = 128

# Steps of rho before p-1's stage 1 and before its stage 2: the blocks
# of length 1, 2, ..., 2^7 and 1, 2, ..., 2^11 of the walk for c = 1,
# so each pause falls where that walk takes a gcd anyway.  Stage 1 costs
# about 300 steps, so it runs early; with L = 62 the long leg takes about
# as long as a stage 2 that fails, which is charged 8000 steps there.
_RHO_SHORT_LEG = (1 << 9) - 2
_RHO_LEG = (1 << 13) - 2

# Pollard p-1 bounds: stage 1 takes every prime power up to _PM1_B1,
# stage 2 one more prime up to _PM1_B2.
_PM1_B1 = 2000
_PM1_B2 = 10**6

# Stage 2's giant step: each prime in (B1, B2] is v*_PM1_D -+ u with u one
# of the 240 odd u < _PM1_D/2 prime to it (`_pm1_plan`).
_PM1_D = 2310

# Stage 2 takes a gcd after every _PM1_GCD_EVERY products, of the 63466
# that cover the 78195 primes in (B1, B2].
_PM1_GCD_EVERY = 1024

# A stage 2 that fails takes as long as this many of the modular products
# that rho makes, and stage 1 as long as one per bit of its exponent; see
# `_rho_steps`.  Measured against `_brent_rho` on 54 semiprimes of 20 to
# 150 digits with k from 2 to 86: a failed stage 2 took 57000 to 114000,
# median about 80700, and stage 1 took 0.76 to 1.77 per bit, median 1.05
# (shared 2-core Xeon, Python 3.11).
_PM1_STAGE2_PRODUCTS = 80_000


class AurifeuilleResult(NamedTuple):
    """One Aurifeuillian split F_n(x) = F- * F+ at x = m^2 * n.

    `x` is that point, a `Fraction`; n is the caller's own, and the
    record does not repeat it.  `F_minus`, `F_plus` are exact (integers
    when m is an integer), and their product is F_n(x);
    `int_minus`/`int_plus` are the denominator-cleared integer factors
    (equal to F_minus/F_plus for integer m).  `hat_F` and
    `residual` = |hat_F - F_minus| are only set on the rounding route.
    """

    x: Fraction
    F_minus: Fraction | int
    F_plus: Fraction | int
    int_minus: int
    int_plus: int
    hat_F: object | None = None
    residual: float | None = None


class FactorList(NamedTuple):
    """A factorization target = prod base^exp, ascending bases.

    When `complete` is True every base is prime: proven, except the
    bases in `probable`, which lie above 3.3 * 10^24 and only passed the
    strong-pseudoprime test.  A composite that rho did not split within
    its step cap is kept as its own entry with `complete` False.
    """

    target: int
    factors: tuple[tuple[int, int], ...]
    complete: bool
    probable: tuple[int, ...] = ()


def hat_f(n: int, m: int):
    """Floating estimate of the smaller Aurifeuillian factor at x = m^2 * n.

    Returns an mpmath float, computed at bitlength(F_n(x))/2 + 64 bits:
    the `hat_F` of `factor_by_rounding`, whose checks it shares.
    """
    return factor_by_rounding(n, m).hat_F


def factor_by_rounding(n: int, m: int) -> AurifeuilleResult:
    """Recover F- by rounding `hat_f` and F+ by exact division.

    Integer m >= 1 only: another type raises `TypeError`, m < 1
    `ValueError` (`_rational_m`).  Raises `RoundingFailed` when the
    rounded value does not divide F_n(x), which the underlying bound
    rules out for sound inputs.
    """
    if not isinstance(m, int):
        raise TypeError(
            f"factor_by_rounding needs an integer m, got {m!r}; "
            "use factor_by_polynomials for rational m"
        )
    return _rounding_split(make_context(n), _rational_m(m).numerator)


def _rounding_split(ctx: NumTheoryContext, m: int) -> AurifeuilleResult:
    """`factor_by_rounding` for the context of n and a checked m.

    F_n(x) = Phi_n'(x) at x = m^2 * n is evaluated once, and serves the
    estimate, its working precision and the division; `full_factorization`
    passes the context of its own check of n.
    """
    import mpmath  # loaded only by the routes that round

    n, x = ctx.n, m * m * ctx.n
    f_val = phi_moebius(ctx.n_prime).evaluate_homogeneous(x, 1)
    hat, bits = _estimate(ctx, m, f_val)
    # The rounding must run at full precision too: mpmath rounds every
    # operation to the *current* working precision, not the operands'.
    with mpmath.workprec(bits):
        f_minus = int(mpmath.floor(hat + mpmath.mpf(1) / 2))
        f_plus, rest = divmod(f_val, max(f_minus, 1))
        if f_minus < 1 or rest:
            raise RoundingFailed(
                f"rounded estimate {f_minus} does not divide F_{n}({x})"
            )
        residual = float(abs(hat - f_minus))
    return AurifeuilleResult(
        x=Fraction(x),
        F_minus=f_minus,
        F_plus=f_plus,
        int_minus=f_minus,
        int_plus=f_plus,
        hat_F=hat,
        residual=residual,
    )


def factor_by_polynomials(n: int, m: Fraction | int) -> AurifeuilleResult:
    """The Aurifeuillian pair by exact evaluation of C_n and D_n.

    Accepts any rational m = p/q > 0 given as an `int` or a `Fraction`
    (`_rational_m`).  C_n, D_n and F_n are evaluated homogeneously in
    integers at X = p^2 * n, Y = q^2, which gives the integer factors
    int-+ = C_h -+ p*n*q * D_h of p^(2n) * n^n +- q^(2n); their product
    must equal F_h = Y^(2d) * F_n(x).  The exact rational factors
    F-+ = C_n(x) -+ (p*n/q) * D_n(x) are int-+ / q^(2d).
    """
    m = _rational_m(m)
    p, q = m.numerator, m.denominator
    pair = algorithm_l(n)
    int_minus, int_plus = pair.split_at(p, q)
    fn = phi_moebius(pair.n_prime)
    f_h = fn.evaluate_homogeneous(p * p * n, q * q)
    if int_minus * int_plus != f_h:
        raise InternalInconsistency(
            f"split product mismatch at n={n}, m={m}"
        )
    scale = q**fn.degree  # q^(2d)
    return AurifeuilleResult(
        x=m * m * n,
        F_minus=_as_int_if_possible(Fraction(int_minus, scale)),
        F_plus=_as_int_if_possible(Fraction(int_plus, scale)),
        int_minus=int_minus,
        int_plus=int_plus,
    )


def _rational_m(m: Fraction | int) -> Fraction:
    """m as a `Fraction`, for an `int` or a `Fraction` m > 0.

    Another type raises `TypeError`: a float or a `Decimal` would stand
    for the binary or decimal fraction it holds, not for the number the
    caller wrote (0.1 is 3602879701896397/2^55).  m <= 0 raises
    `ValueError`: the one check of m's sign, for both routes,
    `full_factorization` and the CLI.
    """
    if not isinstance(m, (int, Fraction)):
        raise TypeError(f"need an int or a Fraction m, got {m!r}")
    m = Fraction(m)
    if m <= 0:
        raise ValueError(f"need m > 0, got {m}")
    return m


def _target(n: int, m: Fraction) -> int:
    """The integer p^(2n) * n^n +- q^(2n) that `full_factorization`
    factors, for a square-free n that the caller has checked.

    The sign is minus exactly when n = 1 (mod 4); then x^n - 1 is the
    number that factors through the cyclotomic pieces, else x^n + 1.
    A minus-sign target below 1, which happens when x = m^2 * n < 1,
    raises `NegativeTarget`.
    """
    p, q = m.numerator, m.denominator
    value = p ** (2 * n) * n**n + (-1 if n % 4 == 1 else 1) * q ** (2 * n)
    if value < 1:
        raise NegativeTarget(
            f"p^(2n)*n^n - q^(2n) = {value} at n={n}, m={m}: "
            "x = m^2 * n must exceed 1 when n = 1 (mod 4)"
        )
    return value


def full_factorization(
    n: int, m: Fraction | int
) -> tuple[AurifeuilleResult, FactorList]:
    """Factor m^(2n) * n^n +- 1 (denominator-cleared for rational m).

    Splits the target into its cyclotomic pieces, replaces the top piece
    by its Aurifeuillian halves, then factors every piece as the module
    docstring describes: the primes of 2n, then rho.  The halves come from
    `factor_by_rounding` for integer m and from `factor_by_polynomials`
    for rational m.  Returns the split and the combined factor list; a
    composite left by rho leaves `complete` False.  m is checked as in
    `factor_by_polynomials`.
    """
    m = _rational_m(m)
    ctx = make_context(n)
    target = _target(n, m)
    big_x, big_y = m.numerator**2 * n, m.denominator**2
    indices = _cyclotomic_indices(ctx)
    pieces = [
        (phi_moebius(e).evaluate_homogeneous(big_x, big_y), e)
        for e in indices[:-1]
    ]
    # The top piece F_n(x) is the product of the split; since
    # x^n -+ 1 = prod Phi_e(x), the product check below also rejects a
    # split that does not multiply to it.
    if m.denominator == 1:
        split = _rounding_split(ctx, m.numerator)
    else:
        split = factor_by_polynomials(n, m)
    pieces += [(split.int_minus, ctx.n_prime), (split.int_plus, ctx.n_prime)]
    check = 1
    for piece, _e in pieces:
        check *= piece
    if check != target:
        raise InternalInconsistency(
            f"piece product {check} != target {target} at n={n}, m={m}"
        )
    primes_2n = sorted({2, *ctx.primes})
    counts: dict[int, int] = {}
    probable: set[int] = set()
    complete = True
    for piece, e in pieces:
        piece_complete = _accumulate_factors(
            piece, e, primes_2n, counts, probable
        )
        complete = complete and piece_complete
    return split, FactorList(
        target=target,
        factors=tuple(sorted(counts.items())),
        complete=complete,
        probable=tuple(sorted(probable)),
    )


def is_probable_prime(n: int) -> bool:
    """Strong-pseudoprime test; a proof of primality below 3.3e24."""
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


def _cyclotomic_indices(ctx: NumTheoryContext) -> list[int]:
    """The indices e with x^n -+ 1 = prod Phi_e(x), ascending, so that
    the top piece F_n(x) = Phi_n'(x) comes last.

    They are c * d over the divisors d of the odd part h of n, with
    c = n'/h.  For n = 1 (mod 4), c = 1: the number is x^n - 1 and e runs
    over the divisors of n' = n.  Otherwise it is
    x^n + 1 = (x^(2n) - 1) / (x^n - 1), and e runs over the divisors of
    n' = 2n that do not divide n: those are 2d for odd n (c = 2) and 4d
    for even n = 2h (c = 4).  The divisors d are built from the primes
    of n as products of subsets, as `numthy._ramanujan_classes` builds
    its divisors.
    """
    odd = [1]
    for p in ctx.primes:
        if p != 2:
            odd += [d * p for d in odd]
    # The last divisor built is the product of every odd prime, h.
    c = ctx.n_prime // odd[-1]
    return sorted(c * d for d in odd)


def _accumulate_factors(
    value: int, e: int, primes_2n: list[int], counts: dict, probable: set
) -> bool:
    """Factor the piece `value` of index `e` into `counts`; True when
    every base found is prime.  Bases above the proven bound of the
    strong-pseudoprime test go into `probable` as well."""
    if value < 1:
        raise ValueError(f"cannot factor nonpositive piece {value}")
    rem = value
    for p in primes_2n:
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    # Every other prime of the piece is 1 (mod step).
    step = e if e % 2 == 0 else 2 * e
    complete = True
    budget = RHO_STEP_LIMIT
    # The piece shares one rho budget: the smallest survivor goes first,
    # so a small composite is split before a hard cofactor spends it all.
    survivors = [rem]
    while survivors:
        rem = heappop(survivors)
        if rem == 1:
            continue
        if is_probable_prime(rem):
            counts[rem] = counts.get(rem, 0) + 1
            if rem >= _MR_PROVEN_BOUND:
                probable.add(rem)
            continue
        divisor, used = _brent_rho(rem, step, budget)
        budget -= used
        if divisor is None:
            counts[rem] = counts.get(rem, 0) + 1
            complete = False
        else:
            heappush(survivors, divisor)
            heappush(survivors, rem // divisor)
    return complete


def _brent_rho(n: int, k: int, budget: int) -> tuple[int | None, int]:
    """A proper divisor of the composite odd n, or None, and the steps
    spent, p-1's charges included, at most `budget`.

    Brent's cycle search over y -> y^k + c (mod n) for c = 1, 2, ...: the
    differences x - y are multiplied together and one gcd with n is taken
    per batch.  When every prime p of n is 1 (mod k), y^k takes about p/k
    values modulo p, so the walk repeats modulo p after about sqrt(p/k)
    steps instead of sqrt(p).

    The walk pauses for Pollard's p-1 method by one schedule of rows:
    `_pm1_stage1` after its first `_RHO_SHORT_LEG` = 510 steps, then
    `_pm1_stage2` after `_RHO_LEG` = 8190, about the charge of stage 2 at
    k = 62, so a survivor that only stage 2 splits waits for it about as
    long as the stage takes.  At the first gcd point past its pause, a row
    runs when its charge, its modular products in rho steps
    (`_rho_steps`), fits in what is left of the budget; at most one row
    runs per gcd point.  A stage returns a divisor or None and what it
    hands on to the next: stage 1 takes k and hands on its power a,
    stage 2 takes a and hands on None.  A stage skipped for its charge,
    or one that hands on None, ends the schedule.  After a failed stage
    the walk resumes with the same c, y and block length, so it takes the
    same steps as a walk that never paused.
    """
    steps = 0
    c = 0
    # p-1's pauses in order: (rho steps before the pause, modular products
    # it is charged, stage).  Each stage takes what the one before handed
    # on, k for the first.
    pauses = iter((
        (_RHO_SHORT_LEG, (k * _pm1_powers()).bit_length(), _pm1_stage1),
        (_RHO_LEG, _PM1_STAGE2_PRODUCTS, _pm1_stage2),
    ))
    pause, handed = next(pauses), k
    while steps < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            advance = min(r, budget - steps)
            for _ in range(advance):
                y = (pow(y, k, n) + c) % n
            steps += advance
            j = 0
            while j < r and g == 1 and steps < budget:
                ys = y
                batch = min(_RHO_BATCH, r - j, budget - steps)
                for _ in range(batch):
                    y = (pow(y, k, n) + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                j += batch
                steps += batch
            r *= 2
            if g == 1 and pause and steps >= pause[0]:
                _at, products, stage = pause
                charge = _rho_steps(products, k)
                pause = None
                if budget - steps > charge:
                    steps += charge
                    divisor, handed = stage(n, handed)
                    if divisor is not None:
                        return divisor, steps
                    if handed is not None:
                        pause = next(pauses, None)
        if g == n:
            # The last batch closed the walk modulo every prime of n at
            # once: retrace it one step at a time.
            g = 1
            while g == 1:
                ys = (pow(ys, k, n) + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, steps
    return None, steps


def _pm1_stage1(n: int, k: int) -> tuple[int | None, int | None]:
    """Stage 1 of Pollard's p-1 method on the composite odd n, with its
    exponent seeded by k: a proper divisor of n or None, and the power
    a = 2^E mod n it hands on to stage 2, or None when stage 2 has
    nothing to find.

    Every prime p of n is 1 (mod k), so k divides p - 1.  E is
    k * lcm(1, ..., `_PM1_B1`), and the stage finds p when the order of
    2 modulo p divides E.  A gcd of n, every prime found at
    once, is a failure, and one that stage 2 cannot mend.
    """
    a = pow(2, k * _pm1_powers(), n)
    g = gcd(a - 1, n)
    if g == 1:
        return None, a
    return (g if g < n else None), None


def _pm1_stage2(n: int, a: int) -> tuple[int | None, None]:
    """Stage 2 of Pollard's p-1 method (Montgomery 1987, section 4) from
    stage 1's power a = 2^E mod n: a proper divisor of n or None, and
    None, as no stage follows it.

    It finds a prime p of n when the order of 2 modulo p divides E times
    one prime s in (`_PM1_B1`, `_PM1_B2`].  Each such s is v*D -+ u for
    one giant step v and one baby step u of `_pm1_plan`, and

        a^(v*D) * (g_v - b_u) = (a^(v*D) - a^u) * (a^(v*D) - a^-u)

    with g_v = a^(v*D) + a^(-v*D) and b_u = a^u + a^-u, so p divides
    g_v - b_u exactly when a^(v*D-u) or a^(v*D+u) is 1 modulo p.  One
    product thus serves both primes when v*D - u and v*D + u are prime.
    The stage multiplies the g_v - b_u of the plan together, stepping
    a^(-+v*D) by a^(-+D) from one giant step to the next, and takes a gcd
    with n after every `_PM1_GCD_EVERY` products.  The first gcd above 1
    ends the stage: a prime that divides the product stays in it, so a
    later gcd could only hold more primes of n.  A gcd of n is a failure.

    n is odd, so a is a unit modulo n and `pow(a, -1, n)` exists.
    """
    babies, first, rows = _pm1_plan()
    inverse = pow(a, -1, n)
    # b_u from the odd powers a^u and a^-u, u = 1, 3, ... up to the last u.
    step, back = a * a % n, inverse * inverse % n
    up, down = a, inverse
    values = []
    for u in range(1, babies[-1] + 1, 2):
        if u == babies[len(values)]:
            values.append((up + down) % n)
        up, down = up * step % n, down * back % n
    up, down = pow(a, first * _PM1_D, n), pow(inverse, first * _PM1_D, n)
    step, back = pow(a, _PM1_D, n), pow(inverse, _PM1_D, n)
    product = 1
    left = _PM1_GCD_EVERY  # products before the next gcd
    for row in rows:
        giant = up + down
        while row:
            block, row = row[:left], row[left:]
            for i in block:
                product = product * (giant - values[i]) % n
            left -= len(block)
            if not left:
                g = gcd(product, n)
                if g != 1:
                    return (g if g < n else None), None
                left = _PM1_GCD_EVERY
        up, down = up * step % n, down * back % n
    g = gcd(product, n)
    return (g if 1 < g < n else None), None


@cache
def _pm1_plan() -> tuple[tuple[int, ...], int, tuple[bytes, ...]]:
    """Stage 2's pairing of the primes s in (`_PM1_B1`, `_PM1_B2`]: the
    baby steps, the odd u < D/2 prime to D = `_PM1_D`; the first giant
    step v0; and, for each giant step v = v0, v0 + 1, ..., a row of the
    indices of the baby steps u with v*D - u or v*D + u such a prime.

    Every s > 11 is prime to D, so it is v*D -+ u for exactly one such
    pair.  Row v is read from one odd-only sieve outward from v*D: byte j
    above v*D stands for v*D + 2j + 1 and byte j below it for v*D - 2j - 1,
    so the two halves OR-ed together flag each u = 2j + 1 that covers a
    prime.  Rows are `bytes`, as there are fewer than 256 baby steps.
    """
    half = _PM1_D // 2
    babies = tuple(u for u in range(1, half, 2) if gcd(u, _PM1_D) == 1)
    pick = itemgetter(*(u // 2 for u in babies))
    width = babies[-1] // 2 + 1
    first, last = (_PM1_B1 + half) // _PM1_D, (_PM1_B2 + half) // _PM1_D
    sieve = _odd_sieve(_PM1_B2)
    sieve[: (_PM1_B1 + 1) // 2] = bytes((_PM1_B1 + 1) // 2)
    sieve += bytes(last * half + width - len(sieve))
    rows = []
    for centre in range(first * half, last * half + 1, half):
        above = int.from_bytes(sieve[centre : centre + width], "little")
        below = int.from_bytes(sieve[centre - 1 : centre - 1 - width : -1], "little")
        flags = pick((above | below).to_bytes(width, "little"))
        rows.append(bytes(compress(range(len(babies)), flags)))
    return babies, first, tuple(rows)


@cache
def _pm1_powers() -> int:
    """lcm(1, ..., `_PM1_B1`), the product of every prime power up to
    `_PM1_B1`: stage 1's exponent E = k * lcm(1..B1) over k."""
    return lcm(*range(1, _PM1_B1 + 1))


def _rho_steps(products: int, k: int) -> int:
    """`products` modular products as steps of rho over y -> y^k + c,
    rounded up: one step makes those of y^k (the squarings and
    multiplications of binary powering) and one into the running
    product."""
    return -(-products // (k.bit_length() + k.bit_count() - 1))


def _odd_sieve(limit: int) -> bytearray:
    """An odd-only sieve to `limit`: byte i is 1 when 2i + 1 is prime."""
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return sieve


def _estimate(ctx: NumTheoryContext, m: int, f_val: int):
    """`hat_f` from F_n(x) = f_val at x = m^2 * n, for the context of n,
    and the working precision it used, bits = bitlength(f_val)/2 + 64.

    The series of lambda = `ctx.d` terms is summed by `_lambda_sum`
    as one exact fraction and floored once at P = bits + 64 fraction
    bits; s, the square root and exp are then each rounded to bits bits,
    which moves the estimate by about 2^-62 (module docstring).
    """
    import mpmath  # loaded only by the routes that round

    bits = f_val.bit_length() // 2 + 64
    frac_bits = bits + 64
    s = _lambda_sum(ctx.primes, m * m * ctx.n, ctx.d, frac_bits)
    with mpmath.workprec(bits):
        root = mpmath.sqrt(mpmath.mpf(f_val))
        expo = mpmath.exp(mpmath.ldexp(mpmath.mpf(-s) / m, -frac_bits))
        return root * expo, bits


def _lambda_sum(primes: tuple[int, ...], x: int, lam: int, frac_bits: int) -> int:
    """floor(2^frac_bits * S) for S = sum_{j<lam} (n|2j+1) / ((2j+1) x^j),
    lam >= 1, n having the given primes, by the binary splitting of the
    module docstring.  The symbols (n|2j+1) come from
    `_symbols_n_over_odd_k`.

    A leaf of the terms a <= j < b is T and D = prod (2j+1), with
    sum_{a<=j<b} (n|2j+1) / ((2j+1) x^(j-a)) = T / (D * x^(b-1-a)), and
    adds its terms one at a time.
    """
    symbols = _symbols_n_over_odd_k(primes, lam)

    def leaf(start, stop):
        t, d = 0, 1
        for k, symbol in zip(range(2 * start + 1, 2 * stop, 2), symbols[start:stop]):
            t = t * k * x + symbol * d
            d *= k
        return t, d

    # S * x^(lam-1) = T / D, the terms' homogeneous value at (1, x).
    top, den, x_lam = _pair_blocks(lam, leaf, 1, x)
    return (top * x << frac_bits) // (den * x_lam)


def _as_int_if_possible(value: Fraction):
    return int(value) if value.denominator == 1 else value


__all__ = [
    "AurifeuilleResult",
    "FactorList",
    "RHO_STEP_LIMIT",
    "factor_by_polynomials",
    "factor_by_rounding",
    "full_factorization",
    "hat_f",
    "is_probable_prime",
]
