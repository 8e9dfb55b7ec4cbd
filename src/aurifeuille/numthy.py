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
    d   = phi(n')/2

d is the degree of the Lucas pair (C_n, D_n), and equals
lambda = phi(2n)/2 for every square-free n.  For odd n, phi(n') = phi(n),
so d is the degree of the Gauss pair (A_n, B_n) too: one number for both.
Both pairs come from the primes of n, found once by `make_context`, and
from the power sums that drive both recurrences, which are one kernel,
`_newton_pair`.  Half of those power sums are Jacobi characters, lists
of 0 and +-1, built from the primes of n as products of per-prime tables
of quadratic residues (`_symbols_k_over_n`, `_symbols_n_over_odd_k`).
The other half are Ramanujan sums c_N(k) = mu(N/g) * phi(g),
g = gcd(k, N), times a sign in the Lucas case, and the kernel takes them
as residue classes: c_N(k) is the sum of e * mu(N/e) over the divisors e
of N that divide k (`_ramanujan_classes`).

The kernel's Newton sums are online convolutions: step k needs every
coefficient before it.  The kernel sums the Ramanujan half by one
running residue-class sum per class, and the character half by divide
and conquer, so a recurrence of d steps costs O(M(d) log d), with M(d)
the cost of one packed product of d coefficients, plus one update and
one read of a running sum per class and step, in place of the d^2
coefficient products of the direct loop, which the tests keep as the
reference.  Blocks of at most `_LEAF` = 48 steps are summed directly.
Each solved block feeds the steps after it through two packed products
of `poly`'s layouts, read as two runs of slots; the `_newton_pair`
docstring derives the slot bound.
"""

from __future__ import annotations

from math import isqrt, prod
from operator import add, mul
from typing import NamedTuple

from .errors import (
    BadResidueClass,
    InternalInconsistency,
    NonIntegerStep,
    NotSquareFree,
    NTooSmall,
)
from .poly import _layout

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


def is_squarefree(n: int) -> bool:
    """True when n >= 1 has no repeated prime factor."""
    return all(e == 1 for _, e in factorize(n))


def jacobi(m: int, k: int) -> int:
    """Jacobi symbol (m|k) for odd k >= 1, zero whenever gcd(m, k) > 1.

    Computed by the usual quadratic-reciprocity reduction; m may be any
    integer, including negative.  The series oracle calls it, so that its
    characters stay independent of the residue tables that the
    recurrences and the class-number sum read.
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


def _symbols_k_over_n(primes: tuple[int, ...], count: int) -> list[int]:
    """The Jacobi symbols (k|n), 0 <= k < count, for the odd square-free n
    whose primes are given: the product of the Legendre symbols (k|p),
    each a column of period p (`_legendre_columns`)."""
    return _legendre_columns(primes, 0, 1, count)


def _symbols_n_over_odd_k(primes: tuple[int, ...], count: int) -> list[int]:
    """The Jacobi symbols (n|k) at the odd k = 1, 3, ..., 2*count - 1, for
    the square-free n whose primes are given.

    With n = 2^e * h, h odd, (n|k) = (2|k)^e * (h|k), and reciprocity
    gives (h|k) = (k|h) * (-1)^((h-1)/2 * (k-1)/2) for coprime odd h, k
    (both sides are 0 otherwise).  (2|k) is 1, -1, -1, 1 and the
    reciprocity sign 1, -1, 1, -1 or always 1 (h = 3 or 1 mod 4) for
    k = 1, 3, 5, 7 (mod 8), so (n|k) is that sign pattern, of period 4 in
    (k-1)/2, times the columns of (k|h)."""
    h = prod(p for p in primes if p != 2)
    flip = -1 if h % 4 == 3 else 1
    signs = (1, flip, 1, flip)
    if primes[:1] == (2,):
        signs = tuple(map(mul, signs, (1, -1, -1, 1)))
    columns = _legendre_columns(primes, 1, 2, count)
    return list(map(mul, columns, signs * (count // 4 + 1)))


def _legendre_columns(
    primes: tuple[int, ...], first: int, step: int, count: int
) -> list[int]:
    """prod over the odd primes p given of the Legendre symbol (k|p), for
    the count values k = first + step*i, with 0 <= first < step <= 2.

    Each prime's table of (k|p), 0 <= k < p, is marked from the squares
    a^2 mod p, 0 < a <= p/2.  As k runs, (k|p) repeats with period p in
    i, and one period is the table repeated step times, read from first
    on in steps of step; that column, repeated, multiplies the list."""
    out = [1] * count
    for p in primes:
        if p == 2:
            continue
        table = [-1] * p
        table[0] = 0
        for a in range(1, p // 2 + 1):
            table[a * a % p] = 1
        column = (table * step)[first::step]
        out = list(map(mul, out, column * (count // p + 1)))
    return out


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


def _ramanujan_classes(
    primes: tuple[int, ...], last: int
) -> list[tuple[int, int]]:
    """Ramanujan's sum c_N(k) for the square-free N whose primes are
    given, as the kernel's residue classes: (e, e * mu(N/e)) for each
    divisor e <= last of N, since c_N(k) sums e * mu(N/e) over the
    divisors e of gcd(k, N) (Ramanujan, Trans. Cambridge Philos. Soc.
    1918).  For 1 <= k <= last the classes sum to c_N(k) = mu(N/g) * phi(g)
    with g = gcd(k, N); a larger divisor divides no such k."""
    classes = [(1, (-1) ** len(primes))]
    for p in primes:
        # Moving p from N/e into e flips mu(N/e); a divisor past last
        # has no multiple among the divisors still to be built.
        classes += [(e * p, -w * p) for e, w in classes if e * p <= last]
    return classes


def _newton_pair(n, u0, v0, c, p, classes, twist, odd, k_u, k_v):
    """The coefficient lists u_0..u_{k_u}, v_0..v_{k_v} (ints, with
    k_u - 1 <= k_v <= k_u) of a factor pair, by Newton's identities on its
    power sums p, q and r_i = p_{i+odd}:

        2k * u_k         = sum_{j<k} ( c*p_{k-j}*v_j - q_{k-j}*u_j ),
        (2k + odd) * v_k = sum_{j<=k} r_{k-j}*u_j - sum_{j<k} q_{k-j}*v_j.

    p is a list of at least k_u + 1 + odd entries, characters (0 or +-1)
    in both callers; p[0] is read only as r_0, when odd = 0.  q is given
    by residue classes and a twist, a tuple of signs:

        q_i = twist[i % len(twist)] * (sum of w over the classes (m, w)
                                       with m | i),

    where the twist sigma(i) must satisfy sigma(k - j) = sigma(k) sigma(j)
    whenever a class holds k - j, as (1,) and (1, -1) always do.  Every
    division is exact for consistent inputs, and a failed one raises
    `NonIntegerStep` naming n and k.

    The q half is never convolved.  With sigma(k - j) split,

        sum_{j<k} q_{k-j} u_j = sigma(k) * sum over the classes of
                                w * S[k mod m],

    S[i] being the sum of sigma(j) u_j over the j < k with j = i (mod m),
    and the same for v.  The kernel keeps these running residue-class
    sums, one pair of lists of m entries per class: each step adds
    u_{k-1} and v_{k-1} to one entry of each and reads one entry of each.
    Both callers pass at most one class per divisor of n, and only those
    a step reaches, so for a prime n one running sum.

    The character half is computed by divide and conquer, as in the
    relaxed products of van der Hoeven (J. Symb. Comp. 2002) with one
    factor known in advance; Brent & Kung (J. ACM 1978) treat such series
    recurrences.  To solve the steps [lo, hi): solve [lo, mid), add what
    u_j and v_j for j in [lo, mid) give to sum c*p*v and sum r*u for
    every k in [mid, hi), then solve [mid, hi).  Those additions are one
    feed (`_feed`): the block's U and V and the known P packed once, at
    one slot width, and the two products V*P and U*P each read as a run
    of slots, the second one slot later when odd = 1, for which R is P
    shifted by one: the one term this adds to a slot, p_1 times the U
    entry of the slot's own index, lies past the end of U in every slot
    read.  For a block of m solved steps, a slot of either product sums
    at most m terms, so with |x| the largest entry of the list x,

        |sum p_i v_j|, |sum p_i u_j| <= m * max(|u|, |v|) * |p|,

    the feed's slot bound, with every |x| taken as at least 1 so that it
    also bounds every entry packed.  It is reached where the entries are
    at their largest and their signs align, so a slot one bit or one
    digit narrower can fail.  The entries of p are characters, so the
    slots need only the width of u and v; c multiplies the slots read.

    A block of at most `_LEAF` steps is summed directly: each step makes
    two dot products, p_1, p_2, ... against the block's v_j and
    r_0, r_1, ... against its u_j, both last first; the two lists of p
    are built once per call and the block's u_j and v_j are kept last
    first, so no step slices a list.  This costs O(M(d) log d) for
    d = k_u steps, with M(d) the cost of one product of d coefficients,
    plus d times the number of classes for the running sums, against the
    direct loop's d^2 coefficient products.  Steps still run in
    increasing k, a step's sums are complete when it reads them, and each
    coefficient is still one exact division of the same sum, so a failing
    step raises at the same k, with the same message, as the direct loop
    would.
    """
    u, v = [u0], [v0]
    # su[k], sv[k]: the parts of step k's character sums from the j
    # already folded in by the products; the leaf containing k adds the rest.
    su = [0] * (k_u + 1)
    sv = [0] * (k_u + 1)
    p_1, r = p[1:], p[odd:]
    # Each class's running sums of sigma(j) u_j and sigma(j) v_j, entry i
    # over the j = i (mod m) already solved.
    sums = [(m, w, [0] * m, [0] * m) for m, w in classes]
    period = len(twist)
    # The blocks still to do, last first.  (lo, hi, None) is a block to
    # solve; (lo, hi, mid) says that [lo, mid) is solved and must now feed
    # the steps [mid, hi).  A list, not a recursive inner function: that
    # would be a reference cycle, and would hold these lists until the
    # cyclic garbage collector ran.
    todo = [(0, k_u + 1, None)]
    while todo:
        lo, hi, mid = todo.pop()
        if mid is not None:
            # Slot i of a product is step lo + 1 + i: p_1..p_{hi-lo-1+odd}.
            du, dv = _feed(
                u[lo:mid],
                v[lo:mid],
                p[1 : hi - lo + odd],
                odd,
                mid - lo - 1,
                hi - lo - 1,
            )
            su[mid:hi] = map(add, su[mid:hi], du)
            sv[mid:hi] = map(add, sv[mid:hi], dv)
        elif hi - lo > _LEAF:
            mid = (lo + hi) // 2
            todo += [(mid, hi, None), (lo, hi, mid), (lo, mid, None)]
        else:
            u_last, v_last = u[lo:][::-1], v[lo:][::-1]
            for k in range(max(lo, 1), hi):
                x, y = u[-1], v[-1]
                if twist[(k - 1) % period] < 0:
                    x, y = -x, -y
                qu = qv = 0
                for m, w, sum_u, sum_v in sums:
                    i = (k - 1) % m
                    sum_u[i] += x
                    sum_v[i] += y
                    i = k % m
                    qu += w * sum_u[i]
                    qv += w * sum_v[i]
                if twist[k % period] < 0:
                    qu, qv = -qu, -qv
                acc = c * (su[k] + sum(map(mul, p_1, v_last))) - qu
                div = 2 * k
                if acc % div:
                    raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
                uk = acc // div
                u.append(uk)
                if k > k_v:
                    break
                u_last.insert(0, uk)  # r_0 now meets u_k
                acc = sv[k] + sum(map(mul, r, u_last)) - qv
                div += odd
                if acc % div:
                    raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
                vk = acc // div
                v.append(vk)
                v_last.insert(0, vk)
    return u, v


def _feed(ub, vb, pb, odd, first, last):
    """Slots first..last-1 of V*P and first+odd..last-1+odd of U*P, for
    the coefficient lists ub, vb of U, V (of one length m) and pb of P:
    the parts of the kernel's two character sums that a solved block
    sends on.

    Three packings, two products and two reads, at the slot bound of the
    `_newton_pair` docstring.  P is packed once for both products.
    """
    size = min(len(ub), len(pb))
    top = max(max(map(abs, ub)), max(map(abs, vb)), 1)
    slots = _layout(size * top * (max(map(abs, pb)) or 1), size)
    packed = slots.pack(pb)
    length = len(ub) + len(pb) - 1
    du = slots.read(slots.mul(slots.pack(vb), packed), length, first, last)
    dv = slots.read(slots.mul(slots.pack(ub), packed), length, first + odd, last + odd)
    return du, dv


class NumTheoryContext(NamedTuple):
    """The bundle of derived quantities attached to a square-free n >= 2.

    `primes` are the primes of n, ascending.  `d` = phi(n')/2 is the
    degree of the Lucas pair, and of the Gauss pair for odd n.
    """

    n: int
    primes: tuple[int, ...]
    n_prime: int
    s: int
    d: int


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
        d=phi_n // 2 if n % 2 else phi_n,
    )


class ClassNumberData(NamedTuple):
    """Class number of the imaginary quadratic field of discriminant -n.

    `sigma` is the weighted character sum over a period,
    sigma = sum_{j=1}^{n-1} (j|n) * j, from which h = -sigma/n for n > 3.
    `w` counts the units in the field: 6 for n = 3, else 2 here.  n is
    the caller's own, and the record does not repeat it.
    """

    sigma: int
    h: int
    w: int


def class_number_neg(n: int) -> ClassNumberData:
    """Class number h(-n) for square-free n = 3 (mod 4), via the character sum.

    For n > 3 the sum sigma = sum (j|n)*j over 0 < j < n equals -n*h(-n);
    n = 3 is the one case with extra units (w = 6), where sigma = -1 and
    h = 1.  The symbols (j|n) come from the primes that checking n gives,
    by the residue tables of `_symbols_k_over_n`.
    """
    primes = _require_squarefree(n, minimum=3)
    if n % 4 != 3:
        raise BadResidueClass(
            f"class_number_neg needs n = 3 (mod 4), got n={n}"
        )
    # (0|n) = 0, so j = 0 adds nothing.
    sigma = sum(map(mul, _symbols_k_over_n(primes, n), range(n)))
    if n == 3:
        if sigma != -1:
            raise InternalInconsistency(f"sigma({n}) = {sigma}, expected -1")
        return ClassNumberData(sigma=sigma, h=1, w=6)
    if sigma % n:
        raise InternalInconsistency(
            f"sigma({n}) = {sigma} is not divisible by n"
        )
    h = -sigma // n
    if h < 1:
        raise InternalInconsistency(f"h(-{n}) computed as {h} < 1")
    return ClassNumberData(sigma=sigma, h=h, w=2)


class PellUnit(NamedTuple):
    """The least unit (u + v*sqrt(n))/2 of norm +1, u^2 - n*v^2 = 4 with
    u, v > 0: the real field's fundamental unit eps, or eps^2.  n is the
    caller's own, and the record does not repeat it."""

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
    return PellUnit(u=u, v=v)


__all__ = [
    "ClassNumberData",
    "NumTheoryContext",
    "PellUnit",
    "class_number_neg",
    "factorize",
    "fundamental_unit",
    "is_squarefree",
    "jacobi",
    "make_context",
]
