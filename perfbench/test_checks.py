"""Each output checker accepts the program's output and rejects a perturbed
coefficient or factor; the tracer counts calls whatever their call site.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from aurifeuille import algorithm_d, algorithm_l, phi_moebius  # noqa: E402
from aurifeuille.factorizer import (  # noqa: E402
    factor_by_polynomials,
    factor_by_rounding,
    full_factorization,
)

POINTS = [3, 10**20 + 39, 2**100 + 7]


def _bump(coeffs, i, delta=1):
    out = list(coeffs)
    out[i] += delta
    return out


def _bump_mirrored(coeffs, i):
    """Change coefficient i and its mirror, keeping any (anti)palindromy."""
    out = list(coeffs)
    j = len(out) - 1 - i
    sign = 1 if out[i] == out[j] else -1
    out[i] += 1
    if j != i:
        out[j] += sign
    return out


@pytest.mark.parametrize("n", [1, 7, 15, 30, 105])
def test_phi_checker(n):
    phi = list(phi_moebius(n).coeffs)
    assert checks.check_phi(n, phi, POINTS) == []
    middle = len(phi) // 2
    assert checks.check_phi(n, _bump(phi, middle), POINTS)
    assert checks.check_phi(n, _bump_mirrored(phi, 1), POINTS)
    assert checks.check_phi(n, phi + [0, 1], POINTS)


@pytest.mark.parametrize("n", [7, 15, 35, 105, 1155])
def test_gauss_checker(n):
    pair = algorithm_d(n)
    a = list(reversed(pair.alpha))
    b = list(reversed(pair.beta[1:]))
    assert checks.check_gauss(n, a, b, POINTS) == []
    for i in (0, 1, len(a) // 2):
        assert checks.check_gauss(n, _bump(a, i), b, POINTS)
        assert checks.check_gauss(n, _bump_mirrored(a, i), b, POINTS)
    for i in (1, len(b) // 2):
        assert checks.check_gauss(n, a, _bump(b, i), POINTS)
        assert checks.check_gauss(n, a, _bump_mirrored(b + [0], i)[:-1], POINTS)
    assert checks.check_gauss(n, [-c for c in a], b, POINTS)


@pytest.mark.parametrize("n", [2, 6, 15, 30, 105])
def test_lucas_checker(n):
    pair = algorithm_l(n)
    c = list(reversed(pair.gamma))
    d = list(reversed(pair.delta))
    assert checks.check_lucas(n, c, d, POINTS) == []
    for i in (0, len(c) // 2):
        assert checks.check_lucas(n, _bump(c, i), d, POINTS)
        assert checks.check_lucas(n, _bump_mirrored(c, i), d, POINTS)
    for i in (0, len(d) // 2):
        assert checks.check_lucas(n, c, _bump(d, i), POINTS)
        assert checks.check_lucas(n, c, _bump_mirrored(d, i), POINTS)


@pytest.mark.parametrize("n, m", [(5, 1), (30, 2), (101, 7), (1001, 1)])
def test_split_checker_rounding(n, m):
    r = factor_by_rounding(n, m)
    hat = checks.exact_value(r.hat_F)
    m = Fraction(m)
    assert checks.check_split(n, m, r.int_minus, r.int_plus, hat=hat) == []
    assert checks.check_split(n, m, r.int_plus, r.int_minus)
    assert checks.check_split(n, m, r.int_minus + 1, r.int_plus)
    assert checks.check_split(n, m, r.int_minus, r.int_plus, hat=hat + 1)
    # The trivial split also multiplies to F_n(x) but breaks 1 < F- < F+.
    assert checks.check_split(n, m, 1, r.int_minus * r.int_plus)


@pytest.mark.parametrize("n, m", [(7, Fraction(2, 5)), (13, Fraction(3, 2)), (1001, Fraction(2, 5))])
def test_split_checker_polynomials(n, m):
    r = factor_by_polynomials(n, m)
    args = (Fraction(r.F_minus), Fraction(r.F_plus))
    assert checks.check_split(n, m, r.int_minus, r.int_plus, *args) == []
    assert checks.check_split(n, m, r.int_minus, r.int_plus, args[0] * 2, args[1] / 2)
    assert checks.check_split(n, m, r.int_minus * 3, r.int_plus, *args)


@pytest.mark.parametrize("n, m", [(7, 1), (15, 3), (22, 1), (7, Fraction(2, 5))])
def test_factor_checker(n, m):
    split, fl = full_factorization(n, m)
    m = Fraction(m)
    assert fl.complete
    factors = list(fl.factors)

    def check(factors=factors, target=fl.target, complete=True):
        return checks.check_factor(n, m, target, split.int_minus, split.int_plus, factors, complete)

    assert check() == []
    assert check(target=fl.target + 2)
    (p, e), rest = factors[-1], factors[:-1]
    assert check(factors=rest + [(p + 2, e)])
    assert check(factors=rest + [(p, e + 1)])
    if len(factors) >= 2:
        (p1, e1), (p2, e2) = factors[-2], factors[-1]
        merged = factors[:-2] + [(p1 * p2, 1)]
        if e1 == e2 == 1:
            # Same product, but the merged base is not prime.
            assert check(factors=merged)
            assert check(factors=merged, complete=False) == []


def test_is_prime():
    primes = [2, 3, 5, 97, 1000003, 2**61 - 1, 2**89 - 1, 2**127 - 1]
    composites = [1, 4, 561, 3215031751, 2**64 + 1, (2**61 - 1) * (2**31 - 1), 2**128 + 1]
    assert all(checks.is_prime(p) for p in primes)
    assert not any(checks.is_prime(c) for c in composites)


def test_tracer_counts_every_call_site():
    script = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import layertrace
from aurifeuille import lucas, factorizer
tracer = layertrace.Tracer()
tracer.install()
lucas.verify_lucas(15)
middle = tracer.span_count
factorizer.hat_f(15, 1)
phases = [tracer.aggregate(0, middle), tracer.aggregate(middle, tracer.span_count)]
print(json.dumps([{{k: v["calls"] for k, v in p.items()}} for p in phases]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    via_lucas, via_factorizer = json.loads(out.stdout)
    # verify_lucas computes the pair it checks itself.
    assert via_lucas["lucas.verify_lucas"] == via_lucas["lucas.algorithm_l"] == 1
    assert via_lucas["poly.IntPolynomial.__mul__"] >= 3
    # numthy.jacobi is bound as lucas.jacobi and as factorizer.jacobi.
    assert via_lucas["numthy.jacobi"] > 0
    assert via_factorizer["numthy.jacobi"] > 0
    assert via_factorizer["factorizer.hat_f"] == 1
