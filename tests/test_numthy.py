"""Multiplicative functions, symbols, contexts, class numbers and units."""

from math import gcd, inf, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

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
    factorize,
    fundamental_unit,
    is_squarefree,
    jacobi,
    make_context,
)

from _oracles import (
    euler_phi,
    expand_classes,
    kernel_call,
    lucas_q,
    moebius,
    moebius_phi,
    newton_pair_direct,
    pell_unit_by_search,
    quadratic_residues,
    schoolbook_mul,
    squarefree_range,
)


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(2**3 * 3 * 25) == [(2, 3), (3, 1), (5, 2)]


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


def symbol_tables_against_jacobi(n, count, positions):
    """Both tables of Jacobi symbols for n, at count entries, against
    `jacobi` at the given positions: (k|n) at k = i for odd n, and (n|k)
    at k = 2i + 1."""
    primes = tuple(p for p, _ in factorize(n))
    odd_k = numthy._symbols_n_over_odd_k(primes, count)
    assert len(odd_k) == count
    assert [odd_k[i] for i in positions] == [jacobi(n, 2 * i + 1) for i in positions]
    if n % 2:
        k_over_n = numthy._symbols_k_over_n(primes, count)
        assert len(k_over_n) == count
        assert [k_over_n[i] for i in positions] == [jacobi(i, n) for i in positions]


def test_symbol_tables_equal_jacobi_below_2000():
    # n + 2 entries cover every residue of every prime of n, every residue
    # of k mod 8 and the first repeat of each column.
    for n in squarefree_range(2, 1999):
        symbol_tables_against_jacobi(n, n + 2, range(n + 2))


@settings(max_examples=30)
@given(
    n=st.integers(2, 10**5).filter(is_squarefree),
    data=st.data(),
)
@example(n=99991, data=None)
@example(n=2 * 3 * 5 * 7 * 11 * 13, data=None)
def test_symbol_tables_equal_jacobi_up_to_10_5(n, data):
    # Past n the columns repeat; 3n entries reach the second repeat of the
    # largest prime's column.  Every entry near the ends of the first
    # period and of the list is checked, and 300 drawn ones besides.
    count = 3 * n
    ends = [*range(64), *range(n - 64, n + 64), *range(count - 64, count)]
    drawn = [] if data is None else data.draw(st.lists(st.integers(0, count - 1), max_size=300))
    symbol_tables_against_jacobi(n, count, sorted({i for i in ends + drawn if 0 <= i < count}))


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
    assert ctx.d == 4


def test_context_5():
    ctx = make_context(5)
    assert ctx.n_prime == 5
    assert ctx.s == 1
    assert ctx.primes == (5,)
    assert ctx.d == 2


def test_context_2():
    ctx = make_context(2)
    assert ctx.n_prime == 4
    assert ctx.s == 1
    assert ctx.primes == (2,)
    assert ctx.d == 1


def test_context_degree_identity():
    # One degree d = phi(n')/2 for both pairs: the Lucas pair's C_n for
    # every n, and the Gauss pair's A_n for odd n, where phi(n') = phi(n).
    for n in squarefree_range(2, 150):
        ctx = make_context(n)
        assert ctx.d == euler_phi(ctx.n_prime) // 2 == euler_phi(2 * n) // 2
        assert [p for p, _ in factorize(n)] == list(ctx.primes)
        lucas_pair = lucas.algorithm_l(n)
        assert lucas_pair.d == lucas_pair.poly_c().degree == ctx.d
        if n % 2:
            assert ctx.d == euler_phi(n) // 2
            assert (ctx.s * n) % 4 == 1  # s*n is a fundamental discriminant
            gauss_pair = gauss.algorithm_d(n)
            assert len(gauss_pair.alpha) - 1 == gauss_pair.poly_a().degree == ctx.d


def test_context_rejections():
    with pytest.raises(NTooSmall):
        make_context(1)
    with pytest.raises(NotSquareFree):
        make_context(12)


# The Newton-identity kernel behind both factor pairs.

LEAF = numthy._LEAF
CUTOFF = poly._DECIMAL_CUTOFF


def direct_args(args):
    """A kernel call's arguments as `newton_pair_direct` takes them: q
    expanded from its residue classes, and r = p shifted by odd."""
    n, u0, v0, c, p, classes, twist, odd, k_u, k_v = args
    q = expand_classes(classes, twist, k_u)
    return n, u0, v0, c, p, q, p[odd:], odd, k_u, k_v


def kernel_runs(n):
    """(arguments for `newton_pair_direct`, result) of each kernel call
    made by algorithm_l(n), and by algorithm_d(n) for odd n."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (gauss, lucas):

            def record(*args, kernel=module._newton_pair):
                u, v = kernel(*args)
                # the caller extends u and v
                runs.append((direct_args(args), (u[:], v[:])))
                return u, v

            mp.setattr(module, "_newton_pair", record)
        lucas.algorithm_l(n)
        if n % 2:
            gauss.algorithm_d(n)
    return runs


@settings(max_examples=30)
@given(n=st.integers(2, 10**5).filter(is_squarefree))
@example(n=2)
@example(n=3)
@example(n=15015)
@example(n=30030)
@example(n=99991)
def test_power_sums_at_both_sites_expand_to_the_reference_lists(n):
    # The classes and the twist each algorithm passes its kernel stand for
    # exactly the power sums of the per-k formulas, at every step k <= k_u,
    # and so does its list of characters.
    primes = tuple(p for p, _ in factorize(n))
    _, _, _, _, p, classes, twist, _, k_u, _ = kernel_call(lucas, n)
    steps = range(1, k_u + 1)
    expected = [lucas_q(primes, 2 * i) for i in steps]
    assert expand_classes(classes, twist, k_u)[1:] == expected
    assert p[1:] == [lucas_q(primes, 2 * i - 1) for i in range(1, k_u + 2)]
    if n % 2 and n > 1:
        _, _, _, _, r, classes, twist, _, k_u, _ = kernel_call(gauss, n)
        steps = range(1, k_u + 1)
        expected = [moebius_phi(primes, k) for k in steps]
        assert expand_classes(classes, twist, k_u)[1:] == expected
        assert r == [jacobi(k, n) for k in range(k_u + 1)]


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
        # The Lucas kernel makes a feed once its k_u = d/2 passes a leaf.
        if make_context(n).d // 2 >= LEAF:
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
    # at k_u - 1.
    assert make_context(n).d // 2 == LEAF + offset
    for args, result in kernel_runs(n):
        assert result == newton_pair_direct(*args)


@pytest.mark.parametrize(
    "n, module, source, index, k, divisor, cutoff",
    [
        (105, gauss, "classes", 1, 2, 4, CUTOFF),  # Gauss q_1
        (105, gauss, "symbols", 1, 2, 4, CUTOFF),  # Gauss r_1 = p_1
        (105, lucas, "symbols", 1, 1, 2, CUTOFF),  # Lucas q_1 = p_1 = r_0
        # Lucas q_3 = r_1: the delta step fails
        (105, lucas, "symbols", 3, 1, 3, CUTOFF),
        # Lucas q_{2L+1} = r_L, first read at k = L through a packed product,
        # packed as four-point ints and, with the cutoff at 1 bit, in base 10
        (3001, lucas, "symbols", 2 * LEAF + 1, LEAF, 2 * LEAF + 1, CUTOFF),
        (3001, lucas, "symbols", 2 * LEAF + 1, LEAF, 2 * LEAF + 1, 1),
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
    # step and with the same sum as the direct loop.  The Ramanujan sum
    # q_1 is corrupted by the extra classes (m, mu(m)) for m <= k_u, which
    # by Moebius inversion add 1 at index 1 and nothing at any other index
    # up to k_u.  A character is corrupted through the list of Jacobi
    # symbols it is read from: Gauss's (k|n) from k = 0, Lucas's (n|k) at
    # the odd k from k = 1.
    monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
    if source == "symbols":
        helper = "_symbols_k_over_n" if module is gauss else "_symbols_n_over_odd_k"
        exact = getattr(module, helper)
        at = index if module is gauss else (index - 1) // 2

        def off_by_one(primes, count):
            symbols = exact(primes, count)
            symbols[at] += 1
            return symbols

        monkeypatch.setattr(module, helper, off_by_one)
    calls = []
    kernel = module._newton_pair

    def record(*args):
        if source == "classes":
            k_u = args[8]
            extra = [(m, moebius(m)) for m in range(1, k_u + 1) if moebius(m)]
            args = (*args[:5], [*args[5], *extra], *args[6:])
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, "_newton_pair", record)
    algorithm = gauss.algorithm_d if module is gauss else lucas.algorithm_l
    message = rf"^n={n}, k={k}: {divisor} does not divide -?\d+$"
    with pytest.raises(NonIntegerStep, match=message) as raised:
        algorithm(n)
    with pytest.raises(NonIntegerStep) as direct:
        newton_pair_direct(*direct_args(calls[0]))
    assert str(raised.value) == str(direct.value)


def feed_by_schoolbook(ub, vb, pb, odd, first, last):
    """`numthy._feed` by schoolbook products: slots first..last-1 of V*P
    and first+odd..last-1+odd of U*P."""
    # Zeros past the top coefficient, as the packed product's slots read.
    vp = schoolbook_mul(vb, pb) + [0] * (last + odd)
    up = schoolbook_mul(ub, pb) + [0] * (last + odd)
    return vp[first:last], up[first + odd : last + odd]


# The ids are the cases' established names: cpq=1 puts the entries of P
# at 1, as the characters are, and cpq=2q at twice those of U and V;
# rq-short reads U*P one slot later, R being P shifted by one (odd = 1).
@pytest.mark.parametrize("odd", [0, 1], ids=["rq-full", "rq-short"])
@pytest.mark.parametrize("same", [1, -1], ids=["u=v", "u=-v"])
@pytest.mark.parametrize("p_over_u", [2, 0], ids=["cpq=2q", "cpq=1"])
@pytest.mark.parametrize(
    "cutoff, top",
    [(inf, 2**e) for e in (16, 64, 1024)] + [(1, 10**e) for e in (4, 39, 400)],
    ids=["int-16", "int-64", "int-1024", "base-10-4", "base-10-39", "base-10-400"],
)
def test_feed_at_its_slot_bound(monkeypatch, cutoff, top, p_over_u, same, odd):
    # One feed of the kernel's shape, m = 5 solved steps against L = 10
    # known entries (L + odd of P), every entry of U and V at its largest
    # magnitude M and every entry of P at its largest, 2M or 1, the signs
    # alternating, so that every term of a slot has one sign.  The first
    # slot read of each product then sums m terms and reaches the feed's
    # bound m * M * max|p| exactly, with a sign that same and odd set.
    # The bound sits just below `top`, a power of
    # 2^8 for the four-point slots of whole bytes and of 10 for the
    # decimal ones, so a width one byte or one digit short of it fails.
    monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
    m, length = 5, 10

    def bound(x):
        return m * x * (p_over_u * x or 1)

    x = isqrt((top - 1) // (m * p_over_u)) if p_over_u else (top - 1) // m
    while bound(x) >= top:
        x -= 1
    assert 2 * bound(x) >= top
    vb = [x * (-1) ** j for j in range(m)]
    ub = [same * c for c in vb]
    pb = [(p_over_u * x or 1) * (-1) ** i for i in range(length + odd)]
    first, last = m - 1, length
    du, dv = numthy._feed(ub, vb, pb, odd, first, last)
    assert (du, dv) == feed_by_schoolbook(ub, vb, pb, odd, first, last)
    assert abs(du[0]) == abs(dv[0]) == bound(x)


@pytest.mark.parametrize("wide", ["u", "v"])
@pytest.mark.parametrize(
    "cutoff, top", [(inf, 2**64), (1, 10**39)], ids=["int-64", "base-10-39"]
)
def test_feed_bound_takes_the_wider_of_u_and_v(monkeypatch, cutoff, top, wide):
    # U and V of different widths, P of characters: the one product that
    # carries the wider list reaches the bound m * max(|u|, |v|), just below
    # `top`, whichever list it is.
    monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
    m, length = 5, 10
    x = (top - 1) // m
    big = [x * (-1) ** j for j in range(m)]
    small = [(-1) ** j for j in range(m)]
    ub, vb = (big, small) if wide == "u" else (small, big)
    pb = [(-1) ** i for i in range(length)]
    du, dv = numthy._feed(ub, vb, pb, 0, m - 1, length)
    assert (du, dv) == feed_by_schoolbook(ub, vb, pb, 0, m - 1, length)
    assert abs((dv if wide == "u" else du)[0]) == m * x


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
    # The sum from the residue tables equals the one from `jacobi`.
    for n in squarefree_range(3, 3000):
        if n % 4 != 3:
            continue
        data = class_number_neg(n)
        assert data.sigma == sum(jacobi(j, n) * j for j in range(1, n))
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
