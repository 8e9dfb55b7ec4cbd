"""The Gauss factor pair (A_n, B_n) of 4*Phi_n for odd square-free n.

For odd square-free n >= 3, with s = +1 for n = 1 (mod 4) and -1 for
n = 3 (mod 4), there are integer polynomials A_n (degree d = phi(n)/2,
leading coefficient 2) and B_n (degree d - 1, monic) with

    4 * Phi_n(x) = A_n(x)^2 - s * n * B_n(x)^2.

`algorithm_d` computes them by an integer-only recurrence on the
coefficients, driven by the split power sums of the roots: writing
g = gcd(k, n),

    q_k = mu(n/g) * phi(g),      r_k = (k|n)  (Jacobi symbol),

the descending coefficients alpha_k of A_n and beta_k of B_n satisfy

    alpha_0 = 2,  beta_0 = 0,
    2k * alpha_k = sum_{j<k} ( s*n*r_{k-j}*beta_j - q_{k-j}*alpha_j ),
    2k * beta_k  = sum_{j<k} ( r_{k-j}*alpha_j   - q_{k-j}*beta_j  ).

This is the shared Newton-identity kernel `numthy._newton_pair` with
c = s*n, p = r and odd = 0; every division by 2k is exact when the inputs
are consistent, and a failed division is reported as `NonIntegerStep`,
which means corrupted inputs or an implementation bug (it doubles as an
overflow canary in ports to bounded integer types).  q_k is Ramanujan's
sum c_n(k), which the kernel takes as residue classes, one per divisor
of n up to the last step (`numthy._ramanujan_classes`); only r is a
list.

Both halves of each pair are symmetric up to sign, so the half
recurrence runs k = 1..floor(d/2) and the rest is mirrored:
alpha_k = (-1)^d alpha_{d-k} (n > 3), and beta_k = -beta_{d-k} when n is
composite with n = 3 (mod 4), beta_k = beta_{d-k} otherwise.  For n = 3
(d = 1) the half recurrence is the one step k = 1 and nothing is
mirrored.  The kernel sums the character half by divide and conquer
over packed products, in O(M(d) log d) rather than d^2 products, and the
Ramanujan half by one running residue-class sum per class; for a prime n
that is one running sum, c_n(k) = -1 for k < n.

The primes of n are found once per pair, by `make_context`, and give
every class and the degree d = `ctx.d`.  The identity check is the pair's
own `GaussPair.identity_holds`, so a caller holding the pair never
recomputes it: `algorithm_d(n).identity_holds()` checks n.  The check
builds no polynomial product: `poly._square_identity_holds` packs A_n,
B_n, s*n and 4*Phi_n once and tests the packed value of
A_n^2 - s*n*B_n^2 - 4*Phi_n for zero.  For n > 3 the mirror symmetry
above makes that test a proof at about half the slot width the
coefficients of A_n^2 would need; A_3 = 2x + 1 is not symmetric, and
n = 3 takes the full width.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotOddSquareFree, NotSquareFree
from .numthy import (
    NumTheoryContext,
    _newton_pair,
    _ramanujan_classes,
    _symbols_k_over_n,
    make_context,
)
from .poly import IntPolynomial, _square_identity_holds
from .cyclotomic import phi_moebius


class GaussPair(NamedTuple):
    """A_n and B_n held as descending coefficient tuples.

    ``alpha[j]`` multiplies x^(d-j) in A_n; ``beta[j]`` likewise in B_n
    (so beta[0] = 0 and B_n has degree d - 1).  The degree
    d = phi(n)/2 is len(alpha) - 1, and `make_context(n).d`.
    """

    n: int
    s: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def poly_a(self) -> IntPolynomial:
        return IntPolynomial.from_descending(self.alpha)

    def poly_b(self) -> IntPolynomial:
        return IntPolynomial.from_descending(self.beta)

    def identity_holds(self) -> bool:
        """Exact check of 4*Phi_n = A_n^2 - s*n*B_n^2 on this pair.  B_n
        goes in with its zero x^d coefficient, so that it is as long as A_n
        and its mirror symmetry shows."""
        return _square_identity_holds(
            self.alpha[::-1], (self.s * self.n,), self.beta[::-1],
            [4 * c for c in phi_moebius(self.n).coeffs],
        )


def algorithm_d(n: int) -> GaussPair:
    """Compute the Gauss pair (A_n, B_n) for odd square-free n >= 3."""
    ctx = _odd_context(n)
    d = ctx.d
    direct = max(1, d // 2)
    r = _symbols_k_over_n(ctx.primes, direct + 1)  # r_0 = (0|n) = 0
    q = _ramanujan_classes(ctx.primes, direct)
    alpha, beta = _newton_pair(n, 2, 0, ctx.s * n, r, q, (1,), 0, direct, direct)
    sign_a = -1 if d % 2 else 1
    sign_b = -1 if (n % 4 == 3 and len(ctx.primes) > 1) else 1
    alpha += [sign_a * alpha[d - k] for k in range(direct + 1, d + 1)]
    beta += [sign_b * beta[d - k] for k in range(direct + 1, d + 1)]
    return GaussPair(n=n, s=ctx.s, alpha=tuple(alpha), beta=tuple(beta))


def _odd_context(n: int) -> NumTheoryContext:
    """The context of odd square-free n >= 3, from one factorization of n."""
    if n >= 3 and n % 2:
        try:
            return make_context(n)
        except NotSquareFree:
            pass
    raise NotOddSquareFree(f"need odd square-free n >= 3, got {n}")


__all__ = ["GaussPair", "algorithm_d"]
