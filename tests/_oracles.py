"""Independent brute-force oracles and small helpers shared by the tests.

These deliberately avoid the library's own closed forms: roots of unity
are multiplied out in complex floating point, characters are checked
against quadratic residues, and so on.  The floating-point ones are only
trusted at small sizes where float error cannot reach 0.5.

The library has no polynomial arithmetic beyond its packed products, so
the tests do theirs on coefficient lists here: a sum, a difference, a
Horner evaluation, and the schoolbook product, which is the reference
for the packed products of `poly`'s layouts and, in
`square_identity_by_schoolbook`, for its packed zero test of
P^2 - S*Q^2 - R; the direct O(d^2) loop of Newton's identities
is the reference for the divide-and-conquer kernel behind both factor
pairs, and the per-k formulas for the power sums (`moebius_phi`,
`lucas_q`) are the reference for the residue classes the kernel takes
in their place; the fixed-point loop of the rounding route's lambda sum is the
reference for its exact sum by pairing, the prime-by-prime stage 2
of Pollard's p-1 method is the reference for the factorizer's stage 2 by
baby and giant steps, the product of the prime powers up to B1 is the
reference for stage 1's lcm(1..B1), both over a plain sieve of every
integer in place of the factorizer's odd-only one, and the search over
v = 1, 2, ... is the reference for the real-quadratic unit by continued
fractions.
The per-coefficient `Fraction` loops for the series product, square
root and `series_exp_like` are the reference for the library's integer
numerators over one denominator.  The reference routes to Phi_n live
here too, each independent of the library's in-place build:
prime-at-a-time recursion through exact long division, Newton's
identities on the Ramanujan sums, the defining substitution for F_n,
and the Moebius product of x^d - 1 evaluated modulo a prime.  They raise `ArithmeticError` where an exact
step fails.  The Moebius function and Euler's totient they use are here
as well, since nothing in the library calls them, and so is a
trial-division list of divisors, the reference for the factorizer's
cyclotomic indices, which it builds from the primes of n.

So are the paper's side claims, which the library's results never
depend on: the growth bound on |Phi_n| on a circle (`phi_bound`) and
the ratio law F+/F- -> exp(2/m) of the Aurifeuillian split
(`ratio_estimate`).
"""

import cmath
from fractions import Fraction
from itertools import compress, islice
from math import exp, gcd, isqrt, prod
from operator import mul

from aurifeuille.errors import BadConstantTerm, NonIntegerStep, NotSquareFree
from aurifeuille import factorizer
from aurifeuille.factorizer import factor_by_polynomials
from aurifeuille.numthy import factorize, is_squarefree, jacobi
from aurifeuille.poly import IntPolynomial
from aurifeuille.series_oracle import RationalSeries

MERSENNE_61 = 2**61 - 1


def moebius(n):
    """Moebius function: 0 on a repeated prime factor, else (-1)^#primes."""
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def euler_phi(n: int) -> int:
    """Euler's totient, the count of 1 <= k <= n coprime to n."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n >= 1, by trial
    division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factor_list_product(flist) -> int:
    """The product of base^exp over the factors of a `FactorList`, to
    hold against its target."""
    return prod(base**e for base, e in flist.factors)


def squarefree_range(lo, hi, parity=None):
    """Square-free n in [lo, hi]; parity "odd"/"even" filters if given."""
    out = []
    for n in range(lo, hi + 1):
        if not is_squarefree(n):
            continue
        if parity == "odd" and n % 2 == 0:
            continue
        if parity == "even" and n % 2 == 1:
            continue
        out.append(n)
    return out


def cyclotomic_by_roots(n):
    """Phi_n as an IntPolynomial by multiplying (x - zeta^j) in complex
    floats over primitive residues j; reliable for small n only."""
    coeffs = [1 + 0j]
    for j in range(1, n + 1):
        if gcd(j, n) != 1:
            continue
        root = cmath.exp(2j * cmath.pi * j / n)
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * root
        coeffs = nxt
    out = []
    for c in coeffs:
        r = round(c.real)
        assert abs(c.real - r) < 1e-6 and abs(c.imag) < 1e-6, (n, c)
        out.append(r)
    return IntPolynomial(out)


def ramanujan_by_roots(n, k):
    """Sum of k-th powers of the primitive n-th roots of unity, rounded."""
    total = 0j
    for j in range(1, n + 1):
        if gcd(j, n) == 1:
            total += cmath.exp(2j * cmath.pi * j * k / n)
    r = round(total.real)
    assert abs(total.real - r) < 1e-6 and abs(total.imag) < 1e-6, (n, k, total)
    return r


def quadratic_residues(p):
    """The set of nonzero quadratic residues modulo p."""
    return {(a * a) % p for a in range(1, p)} - {0}


# --- polynomial helpers the library does not need ---------------------


def schoolbook_mul(a, b):
    """The coefficients of a * b, for ascending coefficient sequences a and
    b, by the O(len a * len b) double loop over coefficient pairs: the
    reference for the packed products of `poly`'s layouts.  An empty
    operand gives []; otherwise the list has len a + len b - 1 entries."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add_coeffs(a, b):
    """The coefficients of a + b, for ascending coefficient sequences, as
    long as the longer one."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] += c
    return out


def sub_coeffs(a, b):
    """The coefficients of a - b, for ascending coefficient sequences, as
    long as the longer one."""
    return add_coeffs(a, [-c for c in b])


def horner(coeffs, x):
    """The ascending coefficient sequence evaluated at x by Horner's rule:
    exact at an int or a `Fraction`, approximate at a float or a complex
    number."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def square_identity_by_schoolbook(p, s, q, r):
    """Whether P^2 - S*Q^2 - R = 0 for ascending coefficient sequences,
    the two squares and the product by S by `schoolbook_mul`: the
    reference for `poly._square_identity_holds`."""
    square = schoolbook_mul(p, p)
    product = schoolbook_mul(s, schoolbook_mul(q, q))
    return not any(sub_coeffs(sub_coeffs(square, product), r))


def pair_identity_terms(pair):
    """(P, S, Q, R) of the identity P^2 - S*Q^2 = R of a Gauss or a Lucas
    pair, as ascending coefficient tuples: (A_n, s*n, B_n, 4*Phi_n) with
    B_n's zero x^d coefficient kept, or (C_n, n*x, D_n, F_n).  R is built
    by `phi_moebius_loop`."""
    if hasattr(pair, "alpha"):
        r = tuple(4 * c for c in phi_moebius_loop(pair.n).coeffs)
        return pair.alpha[::-1], (pair.s * pair.n,), pair.beta[::-1], r
    r = phi_moebius_loop(pair.n_prime).coeffs
    return pair.gamma[::-1], (0, pair.n), pair.delta[::-1], r


def newton_pair_direct(n, u0, v0, c, p, q, r, odd, k_u, k_v):
    """`numthy._newton_pair` by its direct loop: every step sums its
    products u_j, v_j for all j < k afresh, d^2 products in all.  Same
    arguments, results and `NonIntegerStep` messages."""
    u, v = [u0], [v0]
    for k in range(1, k_u + 1):
        q_rev = q[k:0:-1]
        acc = c * sum(map(mul, p[k:0:-1], v)) - sum(map(mul, q_rev, u))
        div = 2 * k
        if acc % div:
            raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
        u.append(acc // div)
        if k > k_v:
            break
        acc = sum(map(mul, r[k::-1], u)) - sum(map(mul, q_rev, v))
        div += odd
        if acc % div:
            raise NonIntegerStep(f"n={n}, k={k}: {div} does not divide {acc}")
        v.append(acc // div)
    return u, v


def expand_classes(classes, twist, count):
    """The list [0, q_1, ..., q_count] that the kernel's residue classes
    stand for: q_i is twist[i % len(twist)] times the sum of w over the
    classes (m, w) with m | i.  q_0 is never read."""
    q = [0] * (count + 1)
    for m, w in classes:
        for i in range(m, count + 1, m):
            q[i] += w
    return [twist[i % len(twist)] * x for i, x in enumerate(q)]


def kernel_call(module, n):
    """The arguments that `module.algorithm_d(n)`, for the module
    `aurifeuille.gauss`, or `module.algorithm_l(n)`, for
    `aurifeuille.lucas`, passes the kernel `_newton_pair`, which is not
    run."""

    class Stopped(Exception):
        pass

    def stop(*args):
        raise Stopped(args)

    algorithm = getattr(module, "algorithm_d", None) or module.algorithm_l
    kernel, module._newton_pair = module._newton_pair, stop
    try:
        algorithm(n)
    except Stopped as stopped:
        return stopped.args[0]
    finally:
        module._newton_pair = kernel
    raise AssertionError(f"{algorithm.__name__}({n}) made no kernel call")


def moebius_phi(primes, k):
    """mu(N/g) * phi(g) with g = gcd(k, N), for the square-free N whose
    primes are given: each prime p of N contributes p - 1 when it divides
    k and -1 when it does not."""
    out = 1
    for p in primes:
        out *= p - 1 if k % p == 0 else -1
    return out


_COS_QUARTER = (1, 0, -1, 0)  # cos(t*pi/2) for t = 0, 1, 2, 3 (mod 4)


def lucas_q(primes, k):
    """The Lucas power sum q_k of the square-free n whose primes are
    given: (n|k) for odd k, and mu(n'/g) * phi(g) * cos((n-1)*k*pi/4) with
    g = gcd(k, n') for even k, the cosine from a quarter-period table."""
    n = 1
    for p in primes:
        n *= p
    if k % 2:
        return jacobi(n, k)
    c = _COS_QUARTER[((n - 1) * (k // 2)) % 4]
    if c == 0:
        return 0
    # mu(n'/g) * phi(g) with g = gcd(k, n').  For odd n the factor 2 of
    # n' = 2n divides the even k and contributes phi(2) = 1.  For even n,
    # c != 0 forces 4 | k, and 4 | n' contributes phi(4) = 2.
    return moebius_phi(primes, k) * c * (1 if n % 2 else 2)


def lambda_sum_fixed_point(n, x, lam, frac_bits):
    """`factorizer._lambda_sum` by the fixed-point loop it replaced: lam
    sequential floor divisions, t_j = floor(2^frac_bits / x^j), and term j
    floored once more by 2j + 1.  Each term is rounded down on its own,
    so the result is within lam of 2^frac_bits times the sum."""
    t = 1 << frac_bits
    s = 0
    for j in range(lam):
        s += jacobi(n, 2 * j + 1) * (t // (2 * j + 1))
        t //= x
    return s


def primes_up_to(limit):
    """The primes up to `limit`, in order, by a sieve of Eratosthenes over
    every integer."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def pm1_powers_by_prime_powers(b1):
    """Every prime power up to b1, multiplied together: for each prime s,
    the largest power of s that is at most b1."""
    powers = 1
    for s in primes_up_to(b1):
        power = s
        while power * s <= b1:
            power *= s
        powers *= power
    return powers


def pm1_stage2_prime_by_prime(n, a):
    """Stage 2 of Pollard's p-1 method one prime at a time, from stage 1's
    power a = 2^E mod n: a proper divisor of n, or None.

    It steps a^s from prime to prime s in (B1, B2] by a table of a^gap,
    multiplies the values a^s - 1 together, and takes a gcd with n after
    every `_PM1_GCD_EVERY` primes; the first gcd above 1 ends the stage,
    and a gcd of n is a failure.
    """
    b1, b2 = factorizer._PM1_B1, factorizer._PM1_B2
    primes = (t for t in primes_up_to(b2) if t > b1)
    # gaps[i] = a^(2i); s is odd and at most the first prime past B1.
    s = b1 | 1
    gaps = [1, a * a % n]
    b = pow(a, s, n)
    product = 1
    # Blocks of _PM1_GCD_EVERY primes until the sieve runs out.
    for block in iter(lambda: list(islice(primes, factorizer._PM1_GCD_EVERY)), []):
        for t in block:
            i = (t - s) >> 1
            while len(gaps) <= i:
                gaps.append(gaps[-1] * gaps[1] % n)
            b = b * gaps[i] % n
            product = product * (b - 1) % n
            s = t
        g = gcd(product, n)
        if g != 1:
            return g if g < n else None
    return None


def pell_unit_by_search(n, cap):
    """The least v in 1..cap with n*v^2 + 4 a square u^2, as (u, v), or
    None when there is none: `numthy.fundamental_unit` by search."""
    for v in range(1, cap + 1):
        t = n * v * v + 4
        u = isqrt(t)
        if u * u == t:
            return u, v
    return None


def monomial(k, c=1):
    """The polynomial c * x^k."""
    if k < 0:
        raise ValueError("monomial degree must be nonnegative")
    return IntPolynomial([0] * k + [c])


def compose_power(p, k):
    """P(x^k) for k >= 1."""
    if k < 1:
        raise ValueError(f"compose_power needs k >= 1, got {k}")
    if k == 1 or not p:
        return p
    out = [0] * (k * p.degree + 1)
    for j, c in enumerate(p.coeffs):
        out[k * j] = c
    return IntPolynomial(out)


def negate_arg(p):
    """P(-x)."""
    return IntPolynomial(-c if j % 2 else c for j, c in enumerate(p.coeffs))


def exact_div(num, den):
    """num / den over the integers by classical long division; raises
    `ArithmeticError` on a fractional step or a nonzero remainder."""
    if not isinstance(den, IntPolynomial):
        raise TypeError("exact_div expects an IntPolynomial divisor")
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return IntPolynomial()
    if num.degree < den.degree:
        raise ArithmeticError(f"degree {num.degree} < divisor degree {den.degree}")
    rem = list(num.coeffs)
    lead = den.coeffs[-1]
    quot = [0] * (num.degree - den.degree + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + den.degree]
        if c == 0:
            continue
        if c % lead:
            raise ArithmeticError(f"coefficient {c} not divisible by leading {lead}")
        quot[i] = c // lead
        for j, dc in enumerate(den.coeffs):
            rem[i + j] -= quot[i] * dc
    if any(rem):
        raise ArithmeticError("nonzero remainder")
    return IntPolynomial(quot)


def symmetry_class(p):
    """"palindromic" when the coefficients read the same reversed,
    "antipalindromic" when reversal negates them, else "neither"; the
    zero polynomial counts as palindromic."""
    cs = p.coeffs
    rev = cs[::-1]
    if cs == rev:
        return "palindromic"
    if all(a == -b for a, b in zip(cs, rev)):
        return "antipalindromic"
    return "neither"


# --- per-coefficient Fraction series arithmetic ------------------------


def series_mul_fractions(a, b):
    """a * b for two `RationalSeries` by the double loop over `Fraction`
    coefficients, truncated to the smaller order: the reference for the
    integer-numerator product."""
    k = min(a.order, b.order)
    b_coeffs = b.coeffs
    out = [Fraction(0)] * (k + 1)
    for i, x in enumerate(a.coeffs[: k + 1]):
        if not x:
            continue
        for j in range(k + 1 - i):
            y = b_coeffs[j]
            if y:
                out[i + j] += x * y
    return RationalSeries(out)


def series_sqrt_fractions(series):
    """`series_sqrt` by the standard recurrence on `Fraction`s,
    2 b_k = c_k - sum_{0<j<k} b_j b_(k-j), for constant term 1."""
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


def series_exp_like_fractions(f, t):
    """`series_exp_like` on `Fraction`s, coefficient by coefficient:
    k U_k = t * sum_i i (f_i/2) V_(k-i),  k V_k = sum_i i (f_i/2) U_(k-i)."""
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


# --- reference routes to Phi_n and F_n --------------------------------


def phi_moebius_loop(n):
    """Phi_n for n >= 1 by the same in-place product as
    `cyclotomic.phi_moebius`, one coefficient at a time: a descending
    loop of differences for each factor 1 - x^k and an ascending loop of
    running sums for each division by it."""
    if n == 1:
        return IntPolynomial([-1, 1])
    degree = n
    squarefree_divisors = [(1, 1)]
    for p, _ in factorize(n):
        degree -= degree // p
        squarefree_divisors += [(e * p, -mu) for e, mu in squarefree_divisors]
    a = [1] + [0] * degree
    for e, mu in sorted(squarefree_divisors, key=lambda pair: -pair[1]):
        k = n // e
        if mu > 0:
            for i in range(degree, k - 1, -1):
                a[i] -= a[i - k]
        else:
            for i in range(k, degree + 1):
                a[i] += a[i - k]
    return IntPolynomial(a)


def phi_recursive(n):
    """Phi_n for square-free n >= 1 by Phi_{mp}(x) = Phi_m(x^p) / Phi_m(x),
    starting from Phi_1 = x - 1."""
    if n < 1:
        raise ValueError(f"phi_recursive needs n >= 1, got {n}")
    if not is_squarefree(n):
        raise NotSquareFree(f"n must be square-free, got {n}")
    poly = IntPolynomial([-1, 1])
    for p, _ in factorize(n):
        poly = exact_div(compose_power(poly, p), poly)
    return poly


def ramanujan_sum(n, k):
    """Ramanujan's sum c_n(k) = mu(n/g) * phi(n) / phi(n/g), g = gcd(k, n):
    the sum of k-th powers of the primitive n-th roots of unity."""
    if n < 1:
        raise ValueError(f"ramanujan_sum needs n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"ramanujan_sum needs k >= 1, got {k}")
    g = gcd(k, n)
    return moebius(n // g) * euler_phi(n) // euler_phi(n // g)


def cyclotomic_power_sums(n, count=None):
    """The first `count` power sums of the roots of Phi_n (default phi(n))."""
    if count is None:
        count = euler_phi(n)
    return [ramanujan_sum(n, k) for k in range(1, count + 1)]


def newton_from_power_sums(power_sums, d):
    """Monic degree-d integer polynomial from the power sums of its roots.

    With P = sum_j a_j x^(d-j), a_0 = 1, Newton's identities give
    k*a_k = -sum_{j<k} p_{k-j} * a_j; a division by k that is not exact
    raises `ArithmeticError`.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if len(power_sums) < d:
        raise ValueError(f"need at least {d} power sums, got {len(power_sums)}")
    a = [1]
    for k in range(1, d + 1):
        acc = sum(power_sums[k - j - 1] * a[j] for j in range(k))
        if acc % k:
            raise ArithmeticError(f"step k={k}: sum {acc} not divisible by k")
        a.append(-(acc // k))
    return IntPolynomial(reversed(a))


def phi_newton(n):
    """Phi_n rebuilt from its Ramanujan-sum power sums by Newton's identities."""
    if n == 1:
        return IntPolynomial([-1, 1])
    d = euler_phi(n)
    return newton_from_power_sums(cyclotomic_power_sums(n, d), d)


def f_by_substitution(n):
    """F_n for square-free n from its definition on `phi_recursive`:
    Phi_n(s*x) for odd n (s = -1 when n = 3 mod 4), and
    (-1)^phi(n/2) * Phi_{n/2}(-x^2) for even n."""
    if n % 2:
        p = phi_recursive(n)
        return p if n % 4 == 1 else negate_arg(p)
    half = compose_power(negate_arg(phi_recursive(n // 2)), 2)
    return IntPolynomial(-c for c in half.coeffs) if euler_phi(n // 2) % 2 else half


def phi_value_mod(n, x, modulus=MERSENNE_61):
    """Phi_n(x) mod a prime from prod_{d | n} (x^d - 1)^mu(n/d), the
    divisors found by trial division; None when some x^d = 1."""
    value = 1
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = moebius(n // d)
        if mu == 0:
            continue
        term = (pow(x, d, modulus) - 1) % modulus
        if term == 0:
            return None
        value = value * (term if mu > 0 else pow(term, -1, modulus)) % modulus
    return value


def value_mod(p, x, modulus=MERSENNE_61):
    """P(x) mod `modulus` by Horner."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % modulus
    return acc


def phi_bound(n: int, radius: float) -> float:
    """Strict upper bound R^phi(n) * exp(1/(R-1)) for |Phi_n(x)| on |x| = R.

    Valid for any R > 1; for |x| > R apply the bound at |x| itself.  F_n
    is Phi_{n'}, so its bound is phi_bound(n', R).
    """
    if radius <= 1:
        raise ValueError(f"radius must exceed 1, got {radius}")
    return radius ** euler_phi(n) * exp(1.0 / (radius - 1.0))


def ratio_estimate(n: int, m: Fraction | int) -> tuple[float, float]:
    """(observed F+/F-, predicted exp(2/m)) for the split at x = m^2 * n.

    The observed ratio tends to the prediction as n grows, at rate 1/n.
    """
    split = factor_by_polynomials(n, m)
    observed = float(Fraction(split.int_plus, split.int_minus))
    predicted = exp(float(Fraction(2) / Fraction(m)))
    return observed, predicted
