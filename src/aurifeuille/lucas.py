"""The Lucas/Aurifeuille factor pair (C_n, D_n) of F_n for square-free n.

For every square-free n >= 2 there are palindromic monic integer
polynomials C_n (degree d = phi(n')/2) and D_n (degree d - 1) with

    F_n(x) = C_n(x)^2 - n * x * D_n(x)^2,

so F_n(x) splits as (C_n - sqrt(n*x) D_n)(C_n + sqrt(n*x) D_n) whenever
n*x is a perfect square — in particular at x = m^2 * n.  This is the
classical Aurifeuillian factorization of m^(2n) * n^n +- 1.

`algorithm_l` computes the pair by an integer-only recurrence driven by
the power sums

    q_k = (n|k)                                  for odd k,
    q_k = mu(n'/g) * phi(g) * cos((n-1)*k*pi/4)  for even k, g = gcd(k, n'),

where the cosine is 1, 0, -1, 0 as (n-1)*(k/2) is 0, 1, 2, 3 (mod 4).
Writing C_n = sum gamma_j x^(d-j) and D_n = sum delta_j x^(d-1-j):

    gamma_0 = delta_0 = 1,
    2k * gamma_k     = sum_{j<k} ( n * q_{2k-2j-1} * delta_j - q_{2k-2j} * gamma_j ),
    (2k+1) * delta_k = gamma_k + sum_{j<k} ( q_{2k+1-2j} * gamma_j - q_{2k-2j} * delta_j ).

This is the shared Newton-identity kernel `numthy._newton_pair` with
c = n and odd = 1: its p_i = q_{2i-1} are Jacobi characters, its
r_i = p_{i+1} = q_{2i+1} (the j = k term q_1 * gamma_k = gamma_k is the
lone gamma_k above), and its q_i = q_{2i} is a Ramanujan sum times a sign,
given as residue classes.  With h = n/2 for even n,

    q_{2i} = c_n(i)                    for n = 1 (mod 4),
    q_{2i} = (-1)^i * c_n(i)           for n = 3 (mod 4),
    q_{2i} = 2 * cos(i*pi/2) * c_h(i)  for even n,

c_N(i) being Ramanujan's sum, one class per divisor of N; `_classes`
says how the sign becomes the kernel's twist.  All divisions are exact
for consistent inputs (`NonIntegerStep` otherwise).  Both polynomials
are palindromic, so the half recurrence stops at gamma_{floor(d/2)} and
delta_{floor((d-1)/2)} and the rest is mirrored.  The kernel sums the
character half by divide and conquer over packed products, in
O(M(d) log d) rather than d^2 products, and the Ramanujan half by one
running residue-class sum per class.

The primes of n are found once per pair, by `make_context`, and give
every class.  The identity check and the split are the pair's own
`LucasPair.identity_holds` and `LucasPair.split_at`, so a caller holding
the pair never recomputes it; `verify_lucas(n)` applies the check to
`algorithm_l(n)`.  The check builds no polynomial product:
`poly._square_identity_holds` packs C_n, D_n, n*x and F_n once and tests
the packed value of C_n^2 - n*x*D_n^2 - F_n for zero.  C_n, D_n and F_n
are palindromes, so that test is a proof at about half the slot width
the coefficients of C_n^2 would need.  The split is evaluated on
integers: `split_at(p, q)` gives it at x = (p/q)^2 * n scaled by q^(2d).
"""

from __future__ import annotations

from typing import NamedTuple

from .numthy import (
    NumTheoryContext,
    _newton_pair,
    _ramanujan_classes,
    _symbols_n_over_odd_k,
    make_context,
)
from .poly import IntPolynomial, _square_identity_holds
from .cyclotomic import phi_moebius


class LucasPair(NamedTuple):
    """C_n and D_n held as descending coefficient tuples.

    ``gamma[j]`` multiplies x^(d-j) in C_n; ``delta[j]`` multiplies
    x^(d-1-j) in D_n.  Both tuples are palindromes starting with 1.
    """

    n: int
    n_prime: int
    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    d: int

    def poly_c(self) -> IntPolynomial:
        return IntPolynomial.from_descending(self.gamma)

    def poly_d(self) -> IntPolynomial:
        return IntPolynomial.from_descending(self.delta)

    def identity_holds(self) -> bool:
        """Exact check of F_n = C_n^2 - n*x*D_n^2 on this pair."""
        return _square_identity_holds(
            self.gamma[::-1], (0, self.n), self.delta[::-1],
            phi_moebius(self.n_prime).coeffs,
        )

    def split_at(self, p: int, q: int) -> tuple[int, int]:
        """The split at x = (p/q)^2 * n, scaled by q^(2d) to integers.

        With X = p^2 * n and Y = q^2, C_h = Y^d * C_n(x) and
        D_h = Y^(d-1) * D_n(x) are integers, and the two factors are
        C_h -+ p*n*q * D_h, smaller first.  Their product is
        Y^(2d) * F_n(x).
        """
        big_x, big_y = p * p * self.n, q * q
        c_h = self.poly_c().evaluate_homogeneous(big_x, big_y)
        d_h = self.poly_d().evaluate_homogeneous(big_x, big_y) * p * self.n * q
        lo, hi = c_h - d_h, c_h + d_h
        return (lo, hi) if lo <= hi else (hi, lo)


def algorithm_l(n: int) -> LucasPair:
    """Compute the Lucas pair (C_n, D_n) for square-free n >= 2."""
    ctx = make_context(n)
    d = ctx.d
    k_u = d // 2
    # p_i = q_{2i-1} = (n|2i-1); r_0 = p_1 = q_1 = 1 gives delta_k its gamma_k.
    p = [0] + _symbols_n_over_odd_k(ctx.primes, k_u + 1)
    classes, twist = _classes(ctx, k_u)
    gamma, delta = _newton_pair(n, 1, 1, n, p, classes, twist, 1, k_u, (d - 1) // 2)
    gamma += [gamma[d - k] for k in range(d // 2 + 1, d + 1)]
    delta += [delta[d - 1 - k] for k in range((d - 1) // 2 + 1, d)]
    return LucasPair(
        n=n,
        n_prime=ctx.n_prime,
        gamma=tuple(gamma),
        delta=tuple(delta),
        d=d,
    )


def verify_lucas(n: int) -> bool:
    """Exact check of F_n = C_n^2 - n*x*D_n^2 for square-free n >= 2."""
    return algorithm_l(n).identity_holds()


def _classes(ctx: NumTheoryContext, last: int) -> tuple[list, tuple[int, ...]]:
    """The residue classes and the twist that give the kernel's q_i =
    q_{2i} for 1 <= i <= last.

    For odd n, q_{2i} = c_n(i) times cos((n-1)*i*pi/2), which is 1 for
    n = 1 (mod 4) and (-1)^i for n = 3 (mod 4), the twist (1, -1).  For
    even n = 2h, q_{2i} = 2 * c_h(i) * cos(i*pi/2), which vanishes for odd
    i; h is odd, so e | i with i even is 2e | i, and there the cosine is
    (-1)^(i/2): classes (2e, 2w) under the twist (1, 1, -1, -1), whose
    sign (-1)^floor(i/2) splits over the even differences the classes
    hold."""
    n = ctx.n
    if n % 2:
        twist = (1,) if n % 4 == 1 else (1, -1)
        return _ramanujan_classes(ctx.primes, last), twist
    half = _ramanujan_classes(ctx.primes[1:], last // 2)
    return [(2 * e, 2 * w) for e, w in half], (1, 1, -1, -1)


__all__ = [
    "LucasPair",
    "algorithm_l",
    "verify_lucas",
]
