"""Checks of the program's outputs that share no code with the program.

Every reference value here is computed from first principles:

* Phi_n is the divisor product  prod_{d|n} (x^d - 1)^mu(n/d), evaluated
  at a point modulo the Mersenne prime 2^127 - 1 or, homogenized, as an
  exact integer;
* F_n, the polynomial the Lucas pair splits, is Phi_{n'} with n' = n for
  n = 1 (mod 4) and n' = 2n otherwise;
* primality is this module's own Miller-Rabin test.

A polynomial identity that holds at random points modulo a 127-bit prime
and has the right degree holds identically, except with probability at
most degree / 2^127 per point.

Each `check_*` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import random
from fractions import Fraction

MODULUS = 2**127 - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this bound, Miller-Rabin with every base in _SMALL_PRIMES is a
# proof of primality (Sorenson and Webster, 2015).
_DETERMINISTIC_BELOW = 3317044064679887385961981
_RANDOM_BASES = 24


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing a small n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    primes = prime_factors(n)
    prod = 1
    for p in primes:
        prod *= p
    if prod != n:
        return 0
    return -1 if len(primes) % 2 else 1


def totient(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def lucas_index(n: int) -> int:
    """n' with F_n = Phi_{n'}: n for n = 1 (mod 4), else 2n."""
    return n if n % 4 == 1 else 2 * n


def is_prime(n: int) -> bool:
    """Miller-Rabin: a proof below 3.3e24, 24 random bases above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = list(_SMALL_PRIMES)
    if n >= _DETERMINISTIC_BELOW:
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(_RANDOM_BASES)]
    for a in bases:
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


def cyclotomic_mod(n: int, x: int, p: int = MODULUS) -> int:
    """Phi_n(x) mod p from the divisor product."""
    num = den = 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu > 0:
            num = num * (pow(x, d, p) - 1) % p
        elif mu < 0:
            den = den * (pow(x, d, p) - 1) % p
    return num * pow(den, -1, p) % p


def cyclotomic_homogeneous(n: int, a: int, b: int) -> int:
    """b^phi(n) * Phi_n(a/b) as an exact integer (a > b > 0)."""
    num = den = 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu > 0:
            num *= a**d - b**d
        elif mu < 0:
            den *= a**d - b**d
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"divisor product for Phi_{n} is not exact")
    return value


def f_value(n: int, m: Fraction) -> int:
    """F_n(x) at x = m^2 * n, cleared by q^(2 phi(n')) for m = p/q."""
    p, q = m.numerator, m.denominator
    return cyclotomic_homogeneous(lucas_index(n), p * p * n, q * q)


def target_value(n: int, m: Fraction) -> int:
    """p^(2n) * n^n -+ q^(2n): minus for n = 1 (mod 4), else plus."""
    p, q = m.numerator, m.denominator
    sign = -1 if n % 4 == 1 else 1
    return p ** (2 * n) * n**n + sign * q ** (2 * n)


def horner_mod(coeffs: list[int], x: int, p: int = MODULUS) -> int:
    """Ascending coefficients evaluated at x modulo p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def sample_points(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2, MODULUS - 1) for _ in range(count)]


def _shape(label, coeffs, degree, leading, problems):
    if len(coeffs) != degree + 1:
        problems.append(f"{label}: degree {len(coeffs) - 1}, expected {degree}")
    elif coeffs[-1] != leading:
        problems.append(f"{label}: leading {coeffs[-1]}, expected {leading}")


def _symmetry(label, coeffs, sign, problems):
    mirrored = [sign * c for c in reversed(coeffs)]
    if coeffs != mirrored:
        kind = "palindromic" if sign > 0 else "antipalindromic"
        problems.append(f"{label}: not {kind}")


def check_phi(n: int, phi: list[int], points: list[int]) -> list[str]:
    """Phi_n: monic of degree phi(n), palindromic for n > 1, right values."""
    problems: list[str] = []
    _shape(f"Phi_{n}", phi, totient(n), 1, problems)
    if n > 1:
        _symmetry(f"Phi_{n}", phi, 1, problems)
    for x in points:
        if horner_mod(phi, x) != cyclotomic_mod(n, x):
            problems.append(f"Phi_{n}: wrong value at a check point")
            break
    return problems


def check_gauss(n: int, a: list[int], b: list[int], points: list[int]) -> list[str]:
    """4*Phi_n = A^2 - s*n*B^2 with the paper's degrees and symmetries.

    For odd square-free n > 3 and d = phi(n)/2: A has degree d and leading
    coefficient 2, and x^d * A(1/x) = (-1)^d * A(x); B is monic of degree
    d - 1 with B(0) = 0, and x^d * B(1/x) = -B(x) when n = 3 (mod 4) is
    composite, +B(x) otherwise.
    """
    problems: list[str] = []
    d = totient(n) // 2
    s = 1 if n % 4 == 1 else -1
    _shape(f"A_{n}", a, d, 2, problems)
    _shape(f"B_{n}", b, d - 1, 1, problems)
    _symmetry(f"A_{n}", a, -1 if d % 2 else 1, problems)
    composite = len(prime_factors(n)) > 1
    _symmetry(f"B_{n}", b + [0], -1 if n % 4 == 3 and composite else 1, problems)
    for x in points:
        av, bv = horner_mod(a, x), horner_mod(b, x)
        if (av * av - s * n * bv * bv - 4 * cyclotomic_mod(n, x)) % MODULUS:
            problems.append(f"4*Phi_{n} != A^2 - s*n*B^2 at a check point")
            break
    return problems


def check_lucas(n: int, c: list[int], d: list[int], points: list[int]) -> list[str]:
    """F_n = C^2 - n*x*D^2 with C, D monic palindromes of degree k, k - 1."""
    problems: list[str] = []
    k = totient(lucas_index(n)) // 2
    _shape(f"C_{n}", c, k, 1, problems)
    _shape(f"D_{n}", d, k - 1, 1, problems)
    _symmetry(f"C_{n}", c, 1, problems)
    _symmetry(f"D_{n}", d, 1, problems)
    for x in points:
        cv, dv = horner_mod(c, x), horner_mod(d, x)
        if (cv * cv - n * x * dv * dv - cyclotomic_mod(lucas_index(n), x)) % MODULUS:
            problems.append(f"F_{n} != C^2 - n*x*D^2 at a check point")
            break
    return problems


def check_split(
    n: int,
    m: Fraction,
    int_minus: int,
    int_plus: int,
    f_minus: Fraction | None = None,
    f_plus: Fraction | None = None,
    hat: Fraction | None = None,
) -> list[str]:
    """The Aurifeuillian split of F_n(x) at x = m^2 * n.

    `int_minus`, `int_plus` are the denominator-cleared integer factors;
    `f_minus`, `f_plus` the exact rational ones when given; `hat` the exact
    value of the rounding route's estimate of F-.
    """
    problems: list[str] = []
    label = f"split n={n} m={m}"
    f_int = f_value(n, m)
    if int_minus * int_plus != f_int:
        problems.append(f"{label}: F- * F+ != F_n(x)")
    # At x = 2 and x = 3 (n = 2, 3 with m = 1) the split is 1 * F_n(x).
    lowest = 1 if m * m * n <= 3 else 2
    if not lowest <= int_minus < int_plus:
        problems.append(f"{label}: not {lowest - 1} < F- < F+")
    if m.denominator == 1 and (int_plus - int_minus) % (2 * m.numerator * n):
        problems.append(f"{label}: 2mn does not divide F+ - F-")
    if f_minus is not None:
        f_exact = Fraction(f_int, m.denominator ** (2 * totient(lucas_index(n))))
        if f_minus * f_plus != f_exact:
            problems.append(f"{label}: exact F- * F+ != F_n(x)")
        scale = m.denominator ** totient(lucas_index(n))
        if (f_minus * scale, f_plus * scale) != (int_minus, int_plus):
            problems.append(f"{label}: integer factors do not clear F-, F+")
    if hat is not None and not abs(hat - int_minus) < Fraction(1, 2):
        problems.append(f"{label}: |F_hat - F-| >= 1/2")
    return problems


def check_factor(
    n: int,
    m: Fraction,
    target: int,
    int_minus: int,
    int_plus: int,
    factors: list[tuple[int, int]],
    complete: bool,
) -> list[str]:
    """A factorization of p^(2n) * n^n -+ q^(2n) through its split.

    The factor list must multiply to the target with ascending bases; when
    it claims to be complete, every base must pass `is_prime`.
    """
    problems = check_split(n, m, int_minus, int_plus)
    label = f"factor n={n} m={m}"
    expected = target_value(n, m)
    if target != expected:
        problems.append(f"{label}: target {target}, expected {expected}")
    if expected % (int_minus * int_plus):
        problems.append(f"{label}: F- * F+ does not divide the target")
    bases = [base for base, _ in factors]
    if bases != sorted(set(bases)) or any(b < 2 for b in bases):
        problems.append(f"{label}: bases not ascending and distinct")
    if any(e < 1 for _, e in factors):
        problems.append(f"{label}: exponent below 1")
    product = 1
    for base, e in factors:
        product *= base**e
    if product != expected:
        problems.append(f"{label}: product of factors != target")
    if complete:
        for base in bases:
            if not is_prime(base):
                problems.append(f"{label}: base {base} is not prime")
    return problems


def exact_value(mpf_value) -> Fraction:
    """The exact rational value of an mpmath number, from its mantissa."""
    man, exp = mpf_value.man_exp
    return Fraction(man) * Fraction(2) ** exp
