"""Cyclotomic polynomials Phi_n and the closely related F_n.

`phi_moebius` builds Phi_n in place from the primes of n, after Arnold &
Monagan, *Calculating cyclotomic polynomials* (Math. Comp. 2011).  For
n > 1,

    Phi_n(x) = prod_{e | rad n} (1 - x^(n/e))^mu(e),

and since Phi_n has degree phi(n) the product can be taken modulo
x^(phi(n)+1), on one list of phi(n)+1 integers.  Multiplying by
1 - x^k is one pass of differences, a[i] -= a[i-k] with the old a[i-k],
which is one slice operation; dividing by it, i.e. multiplying by
1 + x^k + x^(2k) + ..., is one ascending pass of running sums,
a[i] += a[i-k] with the new a[i-k].  Those run as an `accumulate` over
each residue class a[r::k] when the k classes are long (k^2 <= phi(n)),
and otherwise block by block, each block of k adding the one below it.
A factor with k > phi(n) is 1 modulo x^(phi(n)+1) and is skipped.
There are no polynomial products and no division, and n is factored
once.

F_n is the "reciprocal-root twin" whose factor pair C_n, D_n exists for
every square-free n:

    F_n(x) = Phi_n(s*x)                        for odd n,
    F_n(x) = (-1)^phi(n/2) * Phi_{n/2}(-x^2)   for even n,

with s = -1 for n = 3 (mod 4) and +1 otherwise.  For square-free n this
equals Phi_{n'}, with n' = n for n = 1 (mod 4) and 2n otherwise (the
`numthy.make_context` convention), and that is how `f_poly` builds it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub

from .numthy import factorize, make_context
from .poly import IntPolynomial


def phi_moebius(n: int) -> IntPolynomial:
    """Phi_n for every n >= 1, built in place from the primes of n.

    Starts from 1 and applies each factor (1 - x^(n/e))^mu(e), e | rad n,
    modulo x^(phi(n)+1).  The multiplications come first, so every
    intermediate list is a truncated polynomial Phi_n * prod (1 - x^k)
    with small coefficients, never a power series like 1 / (1 - x^k).
    """
    if n < 1:
        raise ValueError(f"phi_moebius needs n >= 1, got {n}")
    if n == 1:
        return IntPolynomial([-1, 1])
    degree = n
    squarefree_divisors = [(1, 1)]  # (e, mu(e)) over e | rad n
    for p, _ in factorize(n):
        degree -= degree // p
        squarefree_divisors += [(e * p, -mu) for e, mu in squarefree_divisors]
    a = [1] + [0] * degree
    for e, mu in sorted(squarefree_divisors, key=lambda pair: -pair[1]):
        k = n // e
        if k > degree:  # 1 - x^k is 1 modulo x^(degree+1)
            continue
        if mu > 0:  # times 1 - x^k
            a[k:] = map(sub, a[k:], a[: degree + 1 - k])
        elif k * k <= degree:  # divided by 1 - x^k: k long residue classes
            for r in range(k):
                a[r::k] = accumulate(a[r::k])
        else:  # divided by 1 - x^k: few blocks of k
            for j in range(k, degree + 1, k):
                a[j : j + k] = map(add, a[j : j + k], a[j - k : j])
    return IntPolynomial(a)


def f_poly(n: int) -> IntPolynomial:
    """The degree-phi(2n) polynomial F_n for square-free n >= 2, as
    Phi_{n'}, n' being the context's (`numthy.make_context`)."""
    return phi_moebius(make_context(n).n_prime)


__all__ = [
    "f_poly",
    "phi_moebius",
]
