"""Elementary number theory: multiplicative functions, the Jacobi
symbol, and the small derived quantities the factor-pair algorithms need.

Everything is exact integer arithmetic.  Factoring is plain trial division,
which is ample: any n this library handles is small enough to list the
phi(n) + 1 coefficients of Phi_n (tens of thousands, e.g. n = 30030), so
its sqrt(n) trial divisors cost nothing beside them.

Conventions used throughout the package, all attached to a square-free
n >= 2 by `make_context`:

    n'  = n when n = 1 (mod 4), else 2n
    s   = -1 when n = 3 (mod 4), else +1

The Gauss pair (A_n, B_n) has degree d_gauss = phi(n)/2 (odd n); the Lucas
pair (C_n, D_n) has degree d_lucas = phi(n')/2, which equals
lambda = phi(2n)/2 for every square-free n.  Both come from the primes of
n, found once by `make_context`, as do the power sums mu(N/g) * phi(g)
that drive both recurrences (`_moebius_phi`), which are one kernel,
`_newton_pair`.

The kernel's Newton sums are online convolutions: step k needs every
coefficient before it.  It computes them by divide and conquer, so a
recurrence of d steps costs O(M(d) log d), with M(d) the cost of one
packed product of d coefficients, in place of the d^2 coefficient
products of the direct loop, which the tests keep as the reference.
Blocks of at most `_LEAF` = 48 steps are summed directly.  Every packed
product is `poly._kronecker`, whose slot width bounds every coefficient
of the product and whose slot offsets go on before it cuts the wanted
slots out, so no slot carries into or borrows from the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from operator import add, mul

from .errors import (
    BadResidueClass,
    InternalInconsistency,
    NonIntegerStep,
    NotSquareFree,
    NTooSmall,
)
from .poly import _kronecker

# Blocks of at most this many Newton steps are summed directly rather than
# split further, since packing and unpacking tiny products costs more than
# the direct sums.  Leaves of 16 to 96 steps timed within run-to-run noise
# of one another on both pairs at n = 1001..3001.
_LEAF = 48


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into a list of (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def is_squarefree(n: int) -> bool:
    """True when n >= 1 has no repeated prime factor."""
    return all(e == 1 for _, e in factorize(n))


def jacobi(m: int, k: int) -> int:
    """Jacobi symbol (m|k) for odd k >= 1, zero whenever gcd(m, k) > 1.

    Computed by the usual quadratic-reciprocity reduction; m may be any
    integer, including negative.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"jacobi needs an odd modulus k >= 1, got k={k}")
    m %= k
    t = 1
    while m:
        while m % 2 == 0:
            m //= 2
            if k % 8 in (3, 5):
                t = -t
        m, k = k, m
        if m % 4 == 3 and k % 4 == 3:
            t = -t
        m %= k
    return t if k == 1 else 0


def _require_squarefree(n: int, minimum: int = 2) -> tuple[int, ...]:
    """The primes of square-free n >= minimum, ascending.

    Validating n factors it, so a caller that needs the primes takes them
    from here instead of factoring n again.
    """
    if n < minimum:
        raise NTooSmall(f"n must be at least {minimum}, got {n}")
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        raise NotSquareFree(f"n must be square-free, got {n}")
    return tuple(p for p, _ in factors)


def _moebius_phi(primes: tuple[int, ...], k: int) -> int:
    """mu(N/g) * phi(g) with g = gcd(k, N), for the square-free N whose
    primes are given: each prime p of N contributes p - 1 when it divides
    k and -1 when it does not."""
    out = 1
    for p in primes:
        out *= p - 1 if k % p == 0 else -1
    return out


def _newton_pair(n, u0, v0, c, p, q, r, odd, k_u, k_v):
    """The coefficient lists u_0..u_{k_u}, v_0..v_{k_v} (ints, with
    k_u - 1 <= k_v <= k_u) of a factor pair, by Newton's identities on its
    power-sum lists p, q, r:

        2k * u_k         = sum_{j<k} ( c*p_{k-j}*v_j - q_{k-j}*u_j ),
        (2k + odd) * v_k = sum_{j<=k} r_{k-j}*u_j - sum_{j<k} q_{k-j}*v_j.

    p and q hold at least k_u + 1 entries and r at least k_v + 1; p[0]
    and q[0] are never read, r[0] is.  Every division is exact for
    consistent inputs, and a failed one raises `NonIntegerStep` naming n
    and k.

    The sums are computed by divide and conquer, as in the relaxed
    products of van der Hoeven (J. Symb. Comp. 2002) with one factor known
    in advance; Brent & Kung (J. ACM 1978) treat such series recurrences.
    To solve the steps [lo, hi): solve [lo, mid), add what u_j and v_j for
    j in [lo, mid) give to the sums of every k in [mid, hi), then solve
    [mid, hi).  Those additions are three packed products per block, by
    `poly._kronecker`, since

        sum (c*p*v - q*u) = sum (c*p + q)*v - sum q*(u + v),
        sum (r*u - q*v)   = sum (r + q)*u   - sum q*(u + v),

    and a block of at most `_LEAF` steps is summed directly.  This costs
    O(M(d) log d) for d = k_u steps, with M(d) the cost of one product of
    d coefficients, against the direct loop's d^2 coefficient products.
    Each `_kronecker` slot is wide enough for its coefficient of the
    product and gets its offset before any slot is cut out, so no slot
    carries or borrows.  Steps still run in increasing k, a step's sums
    are complete when it reads them, and each coefficient is still one
    exact division, so a failing step raises at the same k, with the same
    sum, as the direct loop would.
    """
    u, v = [u0], [v0]
    # su[k], sv[k]: the parts of step k's two sums from the j already folded
    # in by the products; the leaf containing k adds the rest.
    su = [0] * (k_u + 1)
    sv = [0] * (k_u + 1)
    cpq = [c * x + y for x, y in zip(p, q)]
    rq = list(map(add, r, q))
    # The blocks still to do, last first.  (lo, hi, None) is a block to
    # solve; (lo, hi, mid) says that [lo, mid) is solved and must now feed
    # the steps [mid, hi).  A list, not a recursive inner function: that
    # would be a reference cycle, and would hold these lists until the
    # cyclic garbage collector ran.
    todo = [(0, k_u + 1, None)]
    while todo:
        lo, hi, mid = todo.pop()
        if mid is not None:
            # k - j runs over 1..hi-lo-1, and slot i of a product is step
            # lo + 1 + i.  rq may stop one entry short of hi - lo - 1 when
            # k_v < k_u: the entry it lacks only reaches sv[k_u], never read.
            ub, vb = u[lo:mid], v[lo:mid]
            first, last = mid - lo - 1, hi - lo - 1
            both = _kronecker(list(map(add, ub, vb)), q[1 : hi - lo], first, last)
            du = _kronecker(vb, cpq[1 : hi - lo], first, last)
            dv = _kronecker(ub, rq[1 : hi - lo], first, last)
            for k, x, y, z in zip(range(mid, hi), both, du, dv):
                su[k] += y - x
                sv[k] += z - x
        elif hi - lo > _LEAF:
            mid = (lo + hi) // 2
            todo += [(mid, hi, None), (lo, hi, mid), (lo, mid, None)]
        else:
            for k in range(max(lo, 1), hi):
                q_rev = q[k - lo : 0 : -1]
                acc = (
                    su[k]
                    + c * sum(map(mul, p[k - lo : 0 : -1], v[lo:]))
                    - sum(map(mul, q_rev, u[lo:]))
                )
                div = 2 * k
                if acc % div:
                    raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
                u.append(acc // div)
                if k > k_v:
                    break
                acc = (
                    sv[k]
                    + sum(map(mul, r[k - lo :: -1], u[lo:]))
                    - sum(map(mul, q_rev, v[lo:]))
                )
                div += odd
                if acc % div:
                    raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
                v.append(acc // div)
    return u, v


@dataclass(frozen=True)
class NumTheoryContext:
    """The bundle of derived quantities attached to a square-free n >= 2.

    `primes` are the primes of n, ascending.  `d_gauss` only makes sense
    for odd n and is None otherwise.
    """

    n: int
    primes: tuple[int, ...]
    n_prime: int
    s: int
    d_gauss: int | None
    d_lucas: int


def make_context(n: int) -> NumTheoryContext:
    """Build the `NumTheoryContext` for square-free n >= 2."""
    primes = _require_squarefree(n)
    phi_n = prod(p - 1 for p in primes)
    # phi(n') = phi(n) for odd n; for even n, n' = 4 * (n/2) and
    # phi(n') = 2 * phi(n/2) = 2 * phi(n).
    return NumTheoryContext(
        n=n,
        primes=primes,
        n_prime=n if n % 4 == 1 else 2 * n,
        s=-1 if n % 4 == 3 else 1,
        d_gauss=phi_n // 2 if n % 2 else None,
        d_lucas=phi_n // 2 if n % 2 else phi_n,
    )


@dataclass(frozen=True)
class ClassNumberData:
    """Class number of the imaginary quadratic field of discriminant -n.

    `sigma` is the weighted character sum over a period,
    sigma = sum_{j=1}^{n-1} (j|n) * j, from which h = -sigma/n for n > 3.
    `w` counts the units in the field: 6 for n = 3, else 2 here.
    """

    n: int
    sigma: int
    h: int
    w: int


def class_number_neg(n: int) -> ClassNumberData:
    """Class number h(-n) for square-free n = 3 (mod 4), via the character sum.

    For n > 3 the sum sigma = sum (j|n)*j over 0 < j < n equals -n*h(-n);
    n = 3 is the one case with extra units (w = 6), where sigma = -1 and
    h = 1.
    """
    _require_squarefree(n, minimum=3)
    if n % 4 != 3:
        raise BadResidueClass(
            f"class_number_neg needs n = 3 (mod 4), got n={n}"
        )
    sigma = sum(jacobi(j, n) * j for j in range(1, n))
    if n == 3:
        if sigma != -1:
            raise InternalInconsistency(f"sigma({n}) = {sigma}, expected -1")
        return ClassNumberData(n=n, sigma=sigma, h=1, w=6)
    if sigma % n:
        raise InternalInconsistency(
            f"sigma({n}) = {sigma} is not divisible by n"
        )
    h = -sigma // n
    if h < 1:
        raise InternalInconsistency(f"h(-{n}) computed as {h} < 1")
    return ClassNumberData(n=n, sigma=sigma, h=h, w=2)


@dataclass(frozen=True)
class PellUnit:
    """The least unit (u + v*sqrt(n))/2 of norm +1, u^2 - n*v^2 = 4 with
    u, v > 0: the real field's fundamental unit eps, or eps^2."""

    n: int
    u: int
    v: int


def fundamental_unit(n: int) -> PellUnit:
    """The least solution u, v > 0 of u^2 - n*v^2 = 4 for square-free
    n = 1 (mod 4): eps or eps^2, whichever has norm +1.

    eps comes from the continued fraction of omega = (1 + sqrt(n))/2,
    within one period (Lenstra, Notices AMS 2002; Cohen, GTM 138, 5.7).
    Its complete quotients are (P + sqrt(n))/Q, from P = 1, Q = 2, and Q
    returns to 2 first at the end of the period.  The convergent p/q
    taken at that step gives eps = (2p - q + q*sqrt(n))/2, of norm
    ((2p - q)^2 - n*q^2)/4 = +-1.
    """
    _require_squarefree(n)
    if n % 4 != 1:
        raise BadResidueClass(
            f"fundamental_unit needs n = 1 (mod 4), got n={n}"
        )
    root = isqrt(n)
    big_p, big_q = 1, 2
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        a = (big_p + root) // big_q
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        big_p = a * big_q - big_p
        big_q = (n - big_p * big_p) // big_q
        if big_q == 2:
            break
    u, v = 2 * p - q, q
    if u * u - n * v * v == -4:
        u, v = (u * u + n * v * v) // 2, u * v
    return PellUnit(n=n, u=u, v=v)


__all__ = [
    "ClassNumberData",
    "NumTheoryContext",
    "PellUnit",
    "class_number_neg",
    "divisors",
    "factorize",
    "fundamental_unit",
    "is_squarefree",
    "jacobi",
    "make_context",
]
