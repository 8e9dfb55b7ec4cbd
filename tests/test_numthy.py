"""Multiplicative functions, symbols, contexts, class numbers and units."""

from math import gcd, inf, isqrt
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import aurifeuille.gauss as gauss
import aurifeuille.lucas as lucas
import aurifeuille.numthy as numthy
import aurifeuille.poly as poly
from aurifeuille.errors import (
    BadResidueClass,
    NonIntegerStep,
    NotSquareFree,
    NTooSmall,
)
from aurifeuille.numthy import (
    class_number_neg,
    divisors,
    factorize,
    fundamental_unit,
    is_squarefree,
    jacobi,
    make_context,
)
from aurifeuille.poly import IntPolynomial

from _oracles import (
    euler_phi,
    moebius,
    newton_pair_direct,
    pell_unit_by_search,
    quadratic_residues,
    schoolbook_mul,
    squarefree_range,
)


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(2**3 * 3 * 25) == [(2, 3), (3, 1), (5, 2)]
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_moebius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1, 49: 0, 105: -1}
    for n, mu in expected.items():
        assert moebius(n) == mu


def test_euler_phi_values():
    expected = {1: 1, 2: 1, 4: 2, 7: 6, 12: 4, 30: 8, 122: 60}
    for n, phi in expected.items():
        assert euler_phi(n) == phi


def test_phi_counts_coprime_residues():
    for n in range(1, 120):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_multiplicative_on_coprime_pairs():
    for a in range(1, 101):
        for b in range(a, 101):
            if gcd(a, b) != 1:
                continue
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
            assert moebius(a * b) == moebius(a) * moebius(b)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(105)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(75)


def test_jacobi_matches_quadratic_residues_for_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        residues = quadratic_residues(p)
        for a in range(1, p):
            assert jacobi(a, p) == (1 if a in residues else -1)


def test_jacobi_zero_iff_common_factor():
    for n in range(1, 201, 2):
        for k in range(1, n + 1):
            assert (jacobi(k, n) == 0) == (gcd(k, n) > 1)


def test_jacobi_multiplicative_in_modulus():
    for n1 in range(1, 100, 2):
        for n2 in range(n1, 100, 2):
            for m in (2, 3, 10, 97):
                assert jacobi(m, n1 * n2) == jacobi(m, n1) * jacobi(m, n2)


def test_jacobi_periodic_and_negative_arguments():
    for n in (5, 9, 15, 21):
        for m in range(-2 * n, 2 * n):
            assert jacobi(m, n) == jacobi(m % n, n)


ODD = st.integers(min_value=0, max_value=10**9).map(lambda k: 2 * k + 1)


@settings(max_examples=200)
@given(a=ODD, b=ODD)
def test_jacobi_reciprocity(a, b):
    # (a|b)(b|a) = (-1)^((a-1)/2 * (b-1)/2) for coprime odd a, b >= 1.
    if gcd(a, b) > 1:
        assert jacobi(a, b) == jacobi(b, a) == 0
    else:
        sign = -1 if a % 4 == b % 4 == 3 else 1
        assert jacobi(a, b) * jacobi(b, a) == sign


@settings(max_examples=200)
@given(
    a=st.integers(min_value=-(10**12), max_value=10**12),
    b=st.integers(min_value=-(10**12), max_value=10**12),
    k=ODD,
    l=ODD,
)
def test_jacobi_multiplicative_in_both_arguments(a, b, k, l):
    assert jacobi(a * b, k) == jacobi(a, k) * jacobi(b, k)
    assert jacobi(a, k * l) == jacobi(a, k) * jacobi(a, l)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, 0)


def test_context_15():
    ctx = make_context(15)
    assert ctx.n_prime == 30
    assert ctx.s == -1
    assert ctx.primes == (3, 5)
    assert ctx.d_gauss == 4 and ctx.d_lucas == 4


def test_context_5():
    ctx = make_context(5)
    assert ctx.n_prime == 5
    assert ctx.s == 1
    assert ctx.primes == (5,)
    assert ctx.d_gauss == 2 and ctx.d_lucas == 2


def test_context_2():
    ctx = make_context(2)
    assert ctx.n_prime == 4
    assert ctx.s == 1
    assert ctx.primes == (2,)
    assert ctx.d_gauss is None
    assert ctx.d_lucas == 1


def test_context_degree_identity():
    for n in squarefree_range(2, 150):
        ctx = make_context(n)
        assert ctx.d_lucas == euler_phi(ctx.n_prime) // 2 == euler_phi(2 * n) // 2
        assert [p for p, _ in factorize(n)] == list(ctx.primes)
        if n % 2:
            assert ctx.d_gauss == euler_phi(n) // 2
            assert (ctx.s * n) % 4 == 1  # s*n is a fundamental discriminant


def test_context_rejections():
    with pytest.raises(NTooSmall):
        make_context(1)
    with pytest.raises(NotSquareFree):
        make_context(12)


# The Newton-identity kernel behind both factor pairs.

LEAF = numthy._LEAF
CUTOFF = poly._DECIMAL_CUTOFF


def kernel_runs(n):
    """(arguments, result) of each kernel call made by algorithm_l(n),
    and by algorithm_d(n) for odd n."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (gauss, lucas):

            def record(*args, kernel=module._newton_pair):
                u, v = kernel(*args)
                runs.append((args, (u[:], v[:])))  # the caller extends u, v
                return u, v

            mp.setattr(module, "_newton_pair", record)
        lucas.algorithm_l(n)
        if n % 2:
            gauss.algorithm_d(n)
    return runs


@settings(max_examples=40)
@given(
    n=st.sampled_from(squarefree_range(2, 3001)),
    cutoff=st.sampled_from([CUTOFF, 1]),
)
def test_newton_pair_equals_the_direct_loop(n, cutoff):
    # With the cutoff at 1 bit, every feed packs in base 10; the kernel
    # reads the cutoff at each call, so patching it reaches every feed.
    layouts = []

    def record(bound, size, layout=numthy._layout):
        layouts.append(layout(bound, size))
        return layouts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
        mp.setattr(numthy, "_layout", record)
        runs = kernel_runs(n)
    if cutoff == 1:
        # The Lucas kernel makes a feed once its k_u = d_lucas/2 passes a leaf.
        if make_context(n).d_lucas // 2 >= LEAF:
            assert layouts
        assert all(isinstance(layout, poly._Base10) for layout in layouts)
    for args, result in runs:
        assert result == newton_pair_direct(*args)


@pytest.mark.parametrize(
    "n, offset", [(191, -1), (193, 0), (197, 1), (389, LEAF + 1)]
)
def test_newton_pair_equals_the_direct_loop_around_a_leaf(n, offset):
    # The last step k_u sits one short of, at, or one past a leaf's size,
    # or one past two leaves; for n = 193, 197 and 389 the Lucas v stops
    # at k_u - 1, so r holds one entry less than p and q.
    assert make_context(n).d_lucas // 2 == LEAF + offset
    for args, result in kernel_runs(n):
        assert result == newton_pair_direct(*args)


@pytest.mark.parametrize(
    "n, module, source, index, k, divisor, cutoff",
    [
        (105, gauss, "_moebius_phi", 1, 2, 4, CUTOFF),  # Gauss q_1
        (105, gauss, "jacobi", 1, 2, 4, CUTOFF),  # Gauss r_1 = p_1
        (105, lucas, "_q", 1, 1, 2, CUTOFF),  # Lucas q_1 = p_1 = r_0
        (105, lucas, "_q", 3, 1, 3, CUTOFF),  # Lucas q_3 = r_1: the delta step fails
        # Lucas q_{2L+1} = r_L, first read at k = L through a packed product,
        # packed as two-point ints and, with the cutoff at 1 bit, in base 10
        (3001, lucas, "_q", 2 * LEAF + 1, LEAF, 2 * LEAF + 1, CUTOFF),
        (3001, lucas, "_q", 2 * LEAF + 1, LEAF, 2 * LEAF + 1, 1),
    ],
    ids=[
        "gauss-q1",
        "gauss-r1",
        "lucas-q1",
        "lucas-r1",
        "lucas-r-past-a-leaf",
        "lucas-r-past-a-leaf-base-10",
    ],
)
def test_newton_pair_rejects_a_corrupt_power_sum(
    monkeypatch, n, module, source, index, k, divisor, cutoff
):
    # One power sum off by one makes some step's sum indivisible; the
    # kernel must raise there, naming n and k, and not round, at the same
    # step and with the same sum as the direct loop.
    monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
    exact = getattr(module, source)

    def off_by_one(a, b):
        k_arg = a if source == "jacobi" else b  # jacobi(k, n), the rest (_, k)
        return exact(a, b) + (k_arg == index)

    monkeypatch.setattr(module, source, off_by_one)
    calls = []
    kernel = module._newton_pair

    def record(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, "_newton_pair", record)
    algorithm = gauss.algorithm_d if module is gauss else lucas.algorithm_l
    message = rf"^n={n}, k={k}: {divisor} does not divide -?\d+$"
    with pytest.raises(NonIntegerStep, match=message) as raised:
        algorithm(n)
    with pytest.raises(NonIntegerStep) as direct:
        newton_pair_direct(*calls[0])
    assert str(raised.value) == str(direct.value)


def feed_by_schoolbook(ub, vb, q, cpq, rq, first, last):
    """`numthy._feed` by schoolbook products: slots first..last-1 of
    V*CPQ - (U+V)*Q and of U*RQ - (U+V)*Q."""
    u, v, w = IntPolynomial(ub), IntPolynomial(vb), IntPolynomial(map(add, ub, vb))
    both = schoolbook_mul(w, IntPolynomial(q))
    du = schoolbook_mul(v, IntPolynomial(cpq)) - both
    dv = schoolbook_mul(u, IntPolynomial(rq)) - both
    return (
        [du.coefficient(k) for k in range(first, last)],
        [dv.coefficient(k) for k in range(first, last)],
    )


@pytest.mark.parametrize("short", [False, True], ids=["rq-full", "rq-short"])
@pytest.mark.parametrize("same", [1, -1], ids=["u=v", "u=-v"])
@pytest.mark.parametrize("cpq_over_q", [2, 0], ids=["cpq=2q", "cpq=1"])
@pytest.mark.parametrize(
    "cutoff, top",
    [(inf, 2**e) for e in (16, 64, 1024)] + [(1, 10**e) for e in (4, 39, 400)],
    ids=["int-16", "int-64", "int-1024", "base-10-4", "base-10-39", "base-10-400"],
)
def test_feed_at_its_slot_bound(monkeypatch, cutoff, top, cpq_over_q, same, short):
    # One feed of the kernel's shape, m = 5 solved steps against L = 10
    # known entries, every entry at its largest magnitude M or Q and the
    # signs alternating, so that every term of slot m - 1 has one sign.
    # With u = v the slot reaches the feed's bound m*(2MQ + max|cpq| * M)
    # exactly; the bound sits just below `top`, a power of 2^16 for the
    # two-point slots (of an even number of bytes) and of 10 for the
    # decimal ones, so a width one bit or one digit short of it fails.
    # With u = -v, B = (U+V)*Q vanishes and each difference is one
    # product.  rq one entry short (k_v < k_u) lacks the entry whose
    # term only the top slot of the second difference would hold.
    monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
    m, length = 5, 10

    def bound(x):
        return m * (2 * x * x + x * (cpq_over_q * x or 1))

    x = isqrt((top - 1) // (m * (2 + cpq_over_q)))
    while bound(x) >= top:
        x -= 1
    assert 2 * bound(x) >= top
    big, small = x, cpq_over_q * x or 1
    vb = [big * (-1) ** j for j in range(m)]
    ub = [same * c for c in vb]
    q = [-big * (-1) ** i for i in range(length)]
    cpq = [small * (-1) ** i for i in range(length)]
    rq = cpq[: length - short]
    first, last = m - 1, length
    du, dv = numthy._feed(ub, vb, q, cpq, rq, first, last)
    assert (du, dv) == feed_by_schoolbook(ub, vb, q, cpq, rq, first, last)
    if same == 1:
        assert abs(du[0]) == abs(dv[0]) == bound(x)


@settings(max_examples=20)
@given(n=st.sampled_from(squarefree_range(302, 5000)))
def test_pairs_satisfy_their_identities_past_301(n):
    assert lucas.algorithm_l(n).identity_holds()
    if n % 2:
        assert gauss.algorithm_d(n).identity_holds()


def test_class_number_3():
    data = class_number_neg(3)
    assert (data.sigma, data.h, data.w) == (-1, 1, 6)


def test_class_number_15():
    data = class_number_neg(15)
    assert (data.sigma, data.h, data.w) == (-30, 2, 2)


def test_class_number_7_against_direct_sum():
    data = class_number_neg(7)
    # (1|7)=1 (2|7)=1 (3|7)=-1 (4|7)=1 (5|7)=-1 (6|7)=-1
    assert data.sigma == 1 + 2 - 3 + 4 - 5 - 6 == -7
    assert data.h == 1


def test_class_number_classical_values():
    # Discriminants with famously unique reduced forms, plus a few larger.
    for n in (7, 11, 19, 43, 67, 163):
        assert class_number_neg(n).h == 1
    assert class_number_neg(23).h == 3
    assert class_number_neg(35).h == 2
    assert class_number_neg(39).h == 4


def test_class_number_divisibility_sweep():
    for n in squarefree_range(3, 500):
        if n % 4 != 3:
            continue
        data = class_number_neg(n)
        if n > 3:
            assert data.sigma % n == 0
        assert data.h >= 1


def test_class_number_rejections():
    with pytest.raises(BadResidueClass):
        class_number_neg(5)
    with pytest.raises(NotSquareFree):
        class_number_neg(27)
    with pytest.raises(NTooSmall):
        class_number_neg(2)


def test_fundamental_unit_examples():
    assert (fundamental_unit(5).u, fundamental_unit(5).v) == (3, 1)
    assert (fundamental_unit(13).u, fundamental_unit(13).v) == (11, 3)
    assert (fundamental_unit(21).u, fundamental_unit(21).v) == (5, 1)


def test_fundamental_unit_solves_pell_minimally():
    for n in squarefree_range(5, 200):
        if n % 4 != 1:
            continue
        unit = fundamental_unit(n)
        assert unit.u * unit.u - n * unit.v * unit.v == 4
        assert unit.u > 0 and unit.v > 0
        if unit.v <= 3000:
            for v in range(1, unit.v):
                t = n * v * v + 4
                assert isqrt(t) ** 2 != t  # nothing smaller works


@settings(max_examples=200)
@given(
    n=st.integers(1, 24999)
    .map(lambda k: 4 * k + 1)
    .filter(is_squarefree)
)
def test_fundamental_unit_matches_the_search(n):
    # Up to 10^5 the unit's v runs to hundreds of digits, so the search
    # only checks the units it reaches.
    unit = fundamental_unit(n)
    assert unit.u * unit.u - n * unit.v * unit.v == 4
    assert unit.u > 0 and unit.v > 0
    found = pell_unit_by_search(n, 10**4)
    if found is not None:
        assert (unit.u, unit.v) == found


def test_fundamental_unit_rejections():
    with pytest.raises(BadResidueClass):
        fundamental_unit(7)
    with pytest.raises(NotSquareFree):
        fundamental_unit(45)
