"""The Gauss factor pair (A_n, B_n) with 4*Phi_n = A^2 - s*n*B^2."""

import math

import pytest

from aurifeuille import numthy
from aurifeuille.cyclotomic import phi_moebius
from aurifeuille.errors import NotOddSquareFree
from aurifeuille.gauss import algorithm_d
from aurifeuille.numthy import factorize, jacobi, make_context
from aurifeuille.poly import IntPolynomial

from _counting import count_calls
from _oracles import (
    add_coeffs,
    euler_phi,
    expand_classes,
    horner,
    schoolbook_mul,
    squarefree_range,
)


def odd_squarefree(lo, hi):
    return (n for n in squarefree_range(lo, hi) if n % 2)


def test_known_pairs():
    # Small enough to check by hand: expanding A^2 - s*n*B^2 gives 4*Phi_n.
    p3 = algorithm_d(3)
    assert p3.poly_a() == IntPolynomial([1, 2])  # 2x + 1
    assert p3.poly_b() == IntPolynomial([1])
    p5 = algorithm_d(5)
    assert p5.poly_a() == IntPolynomial([2, 1, 2])  # 2x^2 + x + 2
    assert p5.poly_b() == IntPolynomial([0, 1])  # x
    p7 = algorithm_d(7)
    assert p7.poly_a() == IntPolynomial.from_descending([2, 1, -1, -2])
    assert p7.poly_b() == IntPolynomial([0, 1, 1])  # x^2 + x


def test_shapes():
    for n in odd_squarefree(3, 100):
        pair = algorithm_d(n)
        d = euler_phi(n) // 2
        assert len(pair.alpha) - 1 == d
        assert pair.s == (1 if n % 4 == 1 else -1)
        assert len(pair.alpha) == d + 1 and len(pair.beta) == d + 1
        assert pair.alpha[0] == 2 and pair.beta[0] == 0
        assert pair.poly_a().degree == d
        assert pair.poly_b().degree == d - 1
        assert pair.poly_b().coeffs[-1] == 1


def test_defining_identity():
    for n in odd_squarefree(3, 152):
        assert algorithm_d(n).identity_holds()


def test_defining_identity_at_15015():
    assert algorithm_d(15015).identity_holds()


@pytest.mark.parametrize("n", [1155, 3001])
def test_identity_fails_on_one_corrupt_coefficient(n):
    pair = algorithm_d(n)
    big = 1 << max(c.bit_length() for c in pair.alpha + pair.beta)
    for field in ("alpha", "beta"):
        coeffs = getattr(pair, field)
        j = len(coeffs) // 2
        corruptions = [(delta, {j: delta}) for delta in (1, -1, big)]
        # Coefficients k and len - 1 - k changed together, by the
        # polynomial's own mirror sign: the input stays reciprocal, so the
        # check runs at the reduced width.
        k = len(coeffs) // 4
        sign = 1 if coeffs == coeffs[::-1] else -1
        corruptions.append(("mirrored", {k: 1, len(coeffs) - 1 - k: sign}))
        for label, change in corruptions:
            corrupt = tuple(c + change.get(i, 0) for i, c in enumerate(coeffs))
            bad = pair._replace(**{field: corrupt})
            assert not bad.identity_holds(), (field, label)


def test_identity_expanded_by_hand_for_15():
    pair = algorithm_d(15)
    a, b = pair.poly_a(), pair.poly_b()
    lhs = [4 * c for c in phi_moebius(15).coeffs]
    b_squared = schoolbook_mul(b.coeffs, b.coeffs)
    rhs = add_coeffs(schoolbook_mul(a.coeffs, a.coeffs), [15 * c for c in b_squared])
    assert IntPolynomial(lhs) == IntPolynomial(rhs)  # s = -1 for 15 = 3 (mod 4)


def test_mirror_structure():
    for n in odd_squarefree(5, 120):
        pair = algorithm_d(n)
        d = len(pair.alpha) - 1
        sign_a = -1 if d % 2 else 1
        composite = len(factorize(n)) > 1
        sign_b = -1 if (n % 4 == 3 and composite) else 1
        for k in range(d + 1):
            assert pair.alpha[k] == sign_a * pair.alpha[d - k]
            assert pair.beta[k] == sign_b * pair.beta[d - k]


def test_power_parts_against_half_sums():
    # (q_k + r_k*sqrt(s*n)) / 2 equals the sum of zeta^(a*k) over the
    # residues a with (a|n) = +1, where zeta = exp(2*pi*i/n): the Jacobi
    # character splits the primitive roots into the two halves whose
    # symmetric functions build A_n and B_n.  The principal square root
    # of s*n is exactly the Gauss sum, so signs are covered too.
    for n in (5, 7, 15, 21, 33):
        s = 1 if n % 4 == 1 else -1
        root_sn = complex(s * n) ** 0.5
        classes = numthy._ramanujan_classes(make_context(n).primes, 11)
        qs = expand_classes(classes, (1,), 11)
        for k in range(1, 12):
            q, r = qs[k], jacobi(k, n)
            total = sum(
                complex(math.cos(2 * math.pi * a * k / n),
                        math.sin(2 * math.pi * a * k / n))
                for a in range(1, n)
                if jacobi(a, n) == 1
            )
            assert abs(total - (q + r * root_sn) / 2) < 1e-8


def test_evaluation_identity_at_integers():
    for n in (3, 7, 13, 15, 33):
        pair = algorithm_d(n)
        a, b = pair.poly_a(), pair.poly_b()
        phi = phi_moebius(n)
        for x in (-3, -1, 0, 1, 2, 10, 1000):
            a_x, b_x = horner(a.coeffs, x), horner(b.coeffs, x)
            assert 4 * horner(phi.coeffs, x) == a_x**2 - pair.s * n * b_x**2


def test_one_factorization_per_pair(monkeypatch):
    calls = count_calls(monkeypatch, numthy, "factorize")
    pair = algorithm_d(15)
    assert len(calls) <= 2
    assert pair.identity_holds()


def test_rejections():
    for bad in (1, 2, 4, 9, 14, 45):
        with pytest.raises(NotOddSquareFree):
            algorithm_d(bad)
    with pytest.raises(NotOddSquareFree):
        algorithm_d(6)
