"""Integer polynomials and the packed layouts of `poly`, and the tests'
own polynomial helpers in `_oracles` (long division, P(x^k), P(-x),
...)."""

import decimal
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import aurifeuille.poly as poly
from aurifeuille.gauss import algorithm_d
from aurifeuille.lucas import algorithm_l
from aurifeuille.numthy import is_squarefree
from aurifeuille.poly import IntPolynomial

from _oracles import (
    add_coeffs,
    compose_power,
    exact_div,
    horner,
    monomial,
    negate_arg,
    pair_identity_terms,
    schoolbook_mul,
    square_identity_by_schoolbook,
    sub_coeffs,
    symmetry_class,
)

def rand_poly(rng, max_degree=64, bits=128):
    degree = rng.randrange(max_degree + 1)
    coeffs = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(degree + 1)]
    return IntPolynomial(coeffs)


def test_normalization_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([0, 0, 0]).coeffs == ()


def test_zero_polynomial_properties():
    z = IntPolynomial()
    assert z.degree == -1
    assert z.coeffs == ()
    assert not z
    assert z.to_text() == "0"


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial([1, 2.5])
    with pytest.raises(TypeError):
        IntPolynomial([Fraction(1, 2)])
    with pytest.raises(TypeError):
        IntPolynomial(["3"])


def test_from_descending_and_monomial():
    p = IntPolynomial.from_descending([2, 1, -1, -2])  # 2x^3 + x^2 - x - 2
    assert p.coeffs == (-2, -1, 1, 2)
    assert monomial(3) == IntPolynomial([0, 0, 0, 1])
    assert monomial(0, 7) == IntPolynomial([7])
    with pytest.raises(ValueError):
        monomial(-1)


def test_equality_and_hash():
    a = IntPolynomial([1, 2, 3])
    b = IntPolynomial([1, 2, 3, 0])
    assert a == b and hash(a) == hash(b)
    assert a != IntPolynomial([1, 2])
    assert (a == 6) is False  # no cross-type equality
    assert len({a, b}) == 1


def test_cancellation_renormalizes():
    # Construction strips the zeros that cancellation leaves on top.
    p = IntPolynomial([0, 0, 1])
    assert IntPolynomial(sub_coeffs(p.coeffs, p.coeffs)).degree == -1
    assert IntPolynomial(add_coeffs(p.coeffs, [-c for c in p.coeffs])) == IntPolynomial()


def test_exact_div_small():
    num = IntPolynomial([-1, 0, 0, 0, 1])  # x^4 - 1
    den = IntPolynomial([-1, 1])  # x - 1
    assert exact_div(num, den) == IntPolynomial([1, 1, 1, 1])


def test_exact_div_errors():
    with pytest.raises(ZeroDivisionError):
        exact_div(IntPolynomial([1]), IntPolynomial())
    with pytest.raises(ArithmeticError):
        exact_div(IntPolynomial([1, 1]), IntPolynomial([0, 0, 1]))  # degree
    with pytest.raises(ArithmeticError):
        exact_div(IntPolynomial([1, 0, 1]), IntPolynomial([1, 1]))  # remainder
    with pytest.raises(ArithmeticError):
        exact_div(IntPolynomial([1, 3]), IntPolynomial([1, 2]))  # fractional step
    with pytest.raises(TypeError):
        exact_div(IntPolynomial([1, 1]), 2)


def test_exact_div_zero_dividend():
    assert exact_div(IntPolynomial(), IntPolynomial([1, 1])) == IntPolynomial()


def test_mul_then_div_roundtrip():
    rng = random.Random(20260823)
    for _ in range(60):
        p = rand_poly(rng)
        q = rand_poly(rng)
        if not q:
            continue
        assert exact_div(IntPolynomial(schoolbook_mul(p.coeffs, q.coeffs)), q) == p


# Signed coefficients of 1 to 4096 bits, mixed within one polynomial.
coefficients = st.integers(0, 12).flatmap(
    lambda e: st.integers(-(1 << (1 << e)), 1 << (1 << e))
)


def _with_zero_runs(chunks):
    return IntPolynomial([x for c, run in chunks for x in (c, *[0] * run)])


polynomials = st.one_of(
    coefficients.map(lambda c: IntPolynomial([c])),
    st.lists(st.tuples(coefficients, st.integers(0, 6)), max_size=24).map(
        _with_zero_runs
    ),
)


def height(coeffs):
    return max(map(abs, coeffs), default=0)


def packed_mul(a, b, start=0, stop=None):
    """Coefficients start..stop-1 (all by default) of a * b, for
    coefficient sequences a and b, packed, multiplied and read through
    `poly._layout` at the slot bound max|a| * max|b| * min(len a, len b)
    of the `poly` module docstring; an all-zero operand counts as all ones,
    so every input coefficient fits its slot too.  A square, ``b is a``,
    squares one packed value.  An empty operand gives []."""
    if not a or not b:
        return []
    length = len(a) + len(b) - 1
    size = min(len(a), len(b))
    slots = poly._layout((height(a) or 1) * (height(b) or 1) * size, size)
    packed = slots.pack(a)
    product = slots.mul(packed, packed if b is a else slots.pack(b))
    return slots.read(product, length, start, length if stop is None else stop)


@given(polynomials, polynomials)
def test_mul_matches_schoolbook(a, b):
    expected = schoolbook_mul(a.coeffs, b.coeffs)
    assert packed_mul(a.coeffs, b.coeffs) == expected
    assert packed_mul(b.coeffs, a.coeffs) == expected


@given(polynomials)
def test_square_matches_general_product(a):
    # a * a squares one packed integer; the copy takes the general branch.
    assert packed_mul(a.coeffs, a.coeffs) == packed_mul(a.coeffs, list(a.coeffs))


def full_bound(p, s, q, r):
    """B = len(P)*|P|^2 + |S|*len(Q)*|Q|^2 + |R|, the bound on every
    coefficient of P^2 - S*Q^2 - R."""
    return len(p) * height(p) ** 2 + height(s) * len(q) * height(q) ** 2 + height(r)


def spy_layouts(monkeypatch):
    """Record (bound, layout) for every `poly._layout` call."""
    layouts = []
    original = poly._layout

    def layout(bound, size):
        layouts.append((bound, original(bound, size)))
        return layouts[-1][1]

    monkeypatch.setattr(poly, "_layout", layout)
    return layouts


@pytest.mark.parametrize(
    "pair_of, n",
    [
        (algorithm_d, 3),
        (algorithm_d, 15),
        (algorithm_d, 1155),
        (algorithm_l, 15),
        (algorithm_l, 3001),
    ],
)
def test_identity_check_multiplies_two_squares(monkeypatch, pair_of, n):
    # P^2 - S*Q^2 - R is formed from packed values and tested for zero, in
    # either layout: two squares, one product by the packed monomial S and
    # no read.  A true pair at n > 3 is reciprocal and is
    # packed for b = isqrt(B * (isqrt(2d + 1) + 1)) + 1, B being the full
    # coefficient bound; A_3 = 2x + 1, and a pair whose leading coefficient
    # is off by one, are not, and are packed for B itself.
    pair = pair_of(n)
    field = "gamma" if pair_of is algorithm_l else "alpha"
    coeffs = getattr(pair, field)
    bad = pair._replace(**{field: (coeffs[0] + 1, *coeffs[1:])})
    layouts, squares, reads = spy_layouts(monkeypatch), [], []

    def spy_mul(mul):
        def counted(x, y):
            squares.append(x is y)
            return mul(x, y)

        return staticmethod(counted)

    def spy_read(*args):
        reads.append(args)

    for kind in (poly._FourPoint, poly._Base10):
        monkeypatch.setattr(kind, "mul", spy_mul(kind.mul))
        monkeypatch.setattr(kind, "read", spy_read)
    for cutoff, kind in ((math.inf, poly._FourPoint), (1, poly._Base10)):
        monkeypatch.setattr(poly, "_DECIMAL_CUTOFF", cutoff)
        for candidate in (pair, bad):
            p, s, q, r = pair_identity_terms(candidate)
            full = full_bound(p, s, q, r)
            half = math.isqrt(full * (math.isqrt(2 * len(p) - 1) + 1)) + 1
            layouts.clear()
            squares.clear()
            assert candidate.identity_holds() is (candidate is pair)
            [(bound, slots)] = layouts
            assert bound == (half if candidate is pair and n > 3 else full)
            assert type(slots) is kind
            assert sorted(squares) == [False, True, True]
    assert reads == []


@pytest.mark.parametrize("broken", ["p", "q", "s", "r", "r-length"])
def test_identity_check_takes_the_full_width_unless_reciprocal(monkeypatch, broken):
    # C_15, 15x, D_15, F_15 with one condition of reciprocity broken: P or
    # Q no palindrome, S = 15 so that S*Q^2 is centred off degree d, R no
    # palindrome, or R given with a trailing zero, one coefficient longer
    # than 2d + 1 (the identity still holds).  Each takes the full bound.
    terms = dict(zip("psqr", pair_identity_terms(algorithm_l(15))))
    if broken == "s":
        terms["s"] = (15,)
    elif broken == "r-length":
        terms["r"] = (*terms["r"], 0)
    else:
        terms[broken] = (terms[broken][0] + 1, *terms[broken][1:])
    layouts = spy_layouts(monkeypatch)
    args = terms["p"], terms["s"], terms["q"], terms["r"]
    holds = poly._square_identity_holds(*args)
    assert holds == square_identity_by_schoolbook(*args) == (broken == "r-length")
    assert [bound for bound, _ in layouts] == [full_bound(*args)]


def test_identity_check_needs_the_points_plus_and_minus_i_x(monkeypatch):
    # P = 17(x^2 - 1), Q = 15(x^2 + 1) and S = 1 give the reciprocal
    # G = P^2 - Q^2 = 4(x^2 - 16)(16x^2 - 1), which the reduced bound packs
    # in one-byte slots at X = 4: G(4) = G(-4) = 0, but G(4i) = 2 * 16448.
    layouts = spy_layouts(monkeypatch)
    args = [-17, 0, 17], (1,), [15, 0, 15], [0] * 5
    assert poly._square_identity_holds(*args) is False
    assert square_identity_by_schoolbook(*args) is False
    [(_, slots)] = layouts
    assert type(slots) is poly._FourPoint
    assert 1 << (2 * slots.width) == 4


@settings(max_examples=20)
@given(st.data())
def test_identity_check_matches_the_schoolbook_reference(data):
    # One coefficient of either polynomial of either pair is changed by
    # +-1 or +-2^k; a symmetric change moves its mirror image too, by the
    # polynomial's own sign, and keeps the input reciprocal.
    n = data.draw(st.integers(2, 3000).filter(is_squarefree), label="n")
    pair_of = data.draw(st.sampled_from([algorithm_l, algorithm_d] if n % 2 else [algorithm_l]))
    pair = pair_of(n)
    field = data.draw(st.sampled_from(["gamma", "delta"] if pair_of is algorithm_l else ["alpha", "beta"]))
    coeffs = list(getattr(pair, field))
    j = data.draw(st.integers(0, len(coeffs) - 1), label="j")
    bits = height(coeffs).bit_length() + 2
    delta = data.draw(st.sampled_from([1, -1])) << data.draw(st.one_of(st.just(0), st.integers(1, bits)))
    coeffs[j] += delta
    if data.draw(st.booleans(), label="symmetric") and 2 * j + 1 != len(coeffs):
        sign = 1 if getattr(pair, field) == getattr(pair, field)[::-1] else -1
        coeffs[-1 - j] += sign * delta
    bad = pair._replace(**{field: tuple(coeffs)})
    assert bad.identity_holds() == square_identity_by_schoolbook(*pair_identity_terms(bad))


@given(
    st.integers(1, 4000).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1)),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
def test_mul_at_the_slot_bound(m, len_a, len_b, sign_a, sign_b):
    # Constant operands: the middle coefficient of the product is
    # +-min(len a, len b) * M^2, the largest the packed slots must hold.
    a = [sign_a * m] * len_a
    b = [sign_b * m] * len_b
    product = packed_mul(a, b)
    assert product == schoolbook_mul(a, b)
    middle = product[(len_a + len_b) // 2 - 1]
    assert middle == sign_a * sign_b * min(len_a, len_b) * m * m
    assert packed_mul(a, a) == schoolbook_mul(a, a)


# Below `poly._DECIMAL_CUTOFF` bits, `_layout` packs at the four
# points X, -X, iX and -iX, X = 2^(2w) for slots of w bytes, and reads
# the slots of the product apart by residue mod 4 (four-point Kronecker
# substitution).


def int_branch(a, b, start, stop):
    with mock.patch.object(poly, "_DECIMAL_CUTOFF", math.inf):
        return packed_mul(a, b, start, stop)


@st.composite
def binary_products(draw):
    """(a, b) of 1 to 40 coefficients each, b being a itself for a square.
    Half the draws are constant operands +-m, whose product reaches the
    slot bound in its middle coefficient."""
    len_a = draw(st.integers(1, 40))
    square = draw(st.booleans())
    len_b = len_a if square else draw(st.integers(1, 40))
    if draw(st.booleans()):
        m = draw(st.integers(1, 600).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1)))
        a = [draw(st.sampled_from([1, -1])) * m] * len_a
        b = a if square else [draw(st.sampled_from([1, -1])) * m] * len_b
    else:
        a = draw(st.lists(coefficients, min_size=len_a, max_size=len_a))
        b = a if square else draw(st.lists(coefficients, min_size=len_b, max_size=len_b))
    return a, b


@settings(max_examples=60)
@pytest.mark.parametrize("stop_residue", [0, 1, 2, 3])
@pytest.mark.parametrize("start_residue", [0, 1, 2, 3])
@given(product=binary_products(), data=st.data())
def test_kronecker_binary_branch_matches_schoolbook(start_residue, stop_residue, product, data):
    # Every slice [start, stop) of the product, with start and stop in each
    # residue class mod 4: the first slot read belongs to the residue
    # start mod 4, and each residue's slots end where stop cuts them.
    a, b = product
    length = len(a) + len(b) - 1
    starts = range(start_residue, length, 4)
    assume(starts)
    start = data.draw(st.sampled_from(starts))
    stops = range(start + 1 + (stop_residue - start - 1) % 4, length + 1, 4)
    assume(stops)
    stop = data.draw(st.sampled_from(stops))
    full = schoolbook_mul(a, b)
    assert int_branch(a, b, start, stop) == full[start:stop]


# Products from `poly._DECIMAL_CUTOFF` bits on pack in base 10.  Each one
# below is checked against the schoolbook loop and against the binary
# branch, forced by lifting the cutoff.


def packed_bits(a, b):
    """Bits of the smaller packed operand of `packed_mul`, the size
    `_layout` compares with the cutoff."""
    bound = (height(a) or 1) * (height(b) or 1) * min(len(a), len(b))
    return min(len(a), len(b)) * bound.bit_length()


def check_above_the_cutoff(a, b):
    assert packed_bits(a, b) >= poly._DECIMAL_CUTOFF
    expected = schoolbook_mul(a, b)
    assert packed_mul(a, b) == expected
    assert packed_mul(b, a) == expected
    assert expected == int_branch(a, b, 0, len(expected))


@settings(max_examples=12)
@given(
    st.integers(1000, 8000).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1)),
    st.integers(0, 20),
    st.integers(0, 20),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
def test_mul_at_the_slot_bound_above_the_cutoff(m, extra_a, extra_b, sign_a, sign_b):
    # As test_mul_at_the_slot_bound, with operands long enough that the
    # smaller one packs to at least the cutoff: the middle coefficient is
    # +-bound itself, which a slot one digit short cannot hold.
    shortest = poly._DECIMAL_CUTOFF // (2 * m.bit_length() - 1) + 1
    len_a, len_b = shortest + extra_a, shortest + extra_b
    a = [sign_a * m] * len_a
    b = [sign_b * m] * len_b
    check_above_the_cutoff(a, b)
    middle = packed_mul(a, b)[(len_a + len_b) // 2 - 1]
    assert middle == sign_a * sign_b * min(len_a, len_b) * m * m
    check_above_the_cutoff(a, a)


def long_operand(rng, length, bits, zero_share):
    """length coefficients of mixed signs and bit lengths, with
    runs of zeros making up about zero_share of them."""
    coeffs = []
    while len(coeffs) < length - 1:
        if rng.random() < zero_share:
            coeffs += [0] * rng.randrange(1, 200)
        else:
            for _ in range(rng.randrange(1, 20)):
                coeffs.append(rng.randrange(-(1 << bits), 1 << bits) >> rng.randrange(bits))
    top = rng.choice([1, -1]) << rng.randrange(bits)
    return coeffs[: length - 1] + [top]


@settings(max_examples=5)
@given(seed=st.integers(0, 2**32), bits=st.sampled_from([4, 40, 100]))
def test_mul_of_long_operands_above_the_cutoff(seed, bits):
    # A sparse operand first, so the schoolbook loop, which skips the zeros
    # of its first operand, stays cheap.
    rng = random.Random(seed)
    sparse = long_operand(rng, rng.randrange(14_000, 16_000), bits, 0.97)
    dense = long_operand(rng, rng.randrange(14_000, 16_000), bits, 0.1)
    check_above_the_cutoff(sparse, dense)
    check_above_the_cutoff(sparse, sparse)


@settings(max_examples=6)
@given(
    seed=st.integers(0, 2**32),
    steps=st.integers(500, 800),
    short=st.booleans(),
)
def test_kronecker_slices_above_the_cutoff(seed, steps, short):
    # The kernel's shape: u of `steps` coefficients against 2*steps - 1
    # (or one fewer) power sums, and only the last `steps` slots of the
    # product, so the slots above them are cut off.
    rng = random.Random(seed)
    u = [rng.randrange(-(1 << 450), 1 << 450) for _ in range(steps)]
    q = [rng.randrange(-(1 << 250), 1 << 250) for _ in range(2 * steps - 1 - short)]
    assert packed_bits(u, q) >= poly._DECIMAL_CUTOFF
    first, last = steps - 1, 2 * steps - 1
    expected = schoolbook_mul(u, q)[first:last]
    assert packed_mul(u, q, first, last) == expected
    assert int_branch(u, q, first, last) == expected


@pytest.fixture
def default_int_str_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python does not cap int <-> str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(before)


def test_base_10_slots_wider_than_the_int_str_limit(default_int_str_limit):
    # Slots of about 18000 digits, past the 4300-digit default cap on
    # int <-> str conversion, which the library must not lift.
    m = 2**30000 - 1
    a = [m] * 6
    b = [-m, 0, 3, m, -1, 0, m]
    assert 2 * m * m * 6 > 10**default_int_str_limit
    check_above_the_cutoff(a, a)
    check_above_the_cutoff(a, b)
    sliced = packed_mul(b, a, 3, 9)
    assert sliced == int_branch(b, a, 3, 9)
    assert sys.get_int_max_str_digits() == default_int_str_limit


def test_base_10_products_ignore_the_callers_decimal_context():
    rng = random.Random(17)
    a = [rng.randrange(-(1 << 150), 1 << 150) for _ in range(2000)]
    b = [rng.randrange(-(1 << 150), 1 << 150) for _ in range(1500)]
    assert packed_bits(a, b) >= poly._DECIMAL_CUTOFF
    length = len(a) + len(b) - 1
    expected = packed_mul(a, b, 0, length)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.traps = dict.fromkeys(ctx.traps, False)
        assert packed_mul(a, b, 0, length) == expected
        square = packed_mul(a, a, 0, 2 * len(a) - 1)
        assert square == int_branch(a, a, 0, 2 * len(a) - 1)
        assert not any(ctx.flags.values())
    assert expected == int_branch(a, b, 0, length)


def test_evaluate_homogeneous_clears_denominators():
    rng = random.Random(2718)
    for _ in range(40):
        p = rand_poly(rng, max_degree=24, bits=40)
        x, y = rng.randrange(-99, 100), rng.randrange(1, 50)
        value = p.evaluate_homogeneous(x, y)
        assert isinstance(value, int)
        if p:
            assert value == horner(p.coeffs, Fraction(x, y)) * y**p.degree
    assert IntPolynomial().evaluate_homogeneous(3, 5) == 0
    assert IntPolynomial([7]).evaluate_homogeneous(3, 5) == 7
    assert IntPolynomial([-1, 1]).evaluate_homogeneous(3, 5) == 3 - 5


def homogeneous_by_fractions(p, x, y):
    """y^degree * P(x/y) by scalar Horner in Fractions; at y = 0 only the
    leading term is left."""
    if not p:
        return 0
    if y == 0:
        return p.coeffs[-1] * x**p.degree
    return Fraction(y) ** p.degree * horner(p.coeffs, Fraction(x, y))


_LEAF = poly._EVAL_LEAF


@settings(max_examples=8)
@pytest.mark.parametrize(
    "length",
    [0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF + 1, 1000, 1057],
)
@pytest.mark.parametrize("y", [0, 1, -3, 25])
@given(
    seed=st.integers(0, 2**32),
    bits=st.sampled_from([1, 12, 80]),
    x=st.integers(1, 10**6),
)
def test_evaluate_homogeneous_matches_horner(length, y, seed, bits, x):
    # One block, two blocks with a short trailing one, three blocks with
    # one carried up a level, and 32 and 34 blocks over five and six
    # levels.
    rng = random.Random(seed)
    coeffs = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(length)]
    if coeffs and coeffs[-1] == 0:
        coeffs[-1] = 1
    p = IntPolynomial(coeffs)
    assert p.degree == length - 1
    for point in (x, -x, 0):
        assert p.evaluate_homogeneous(point, y) == homogeneous_by_fractions(p, point, y)


def test_compose_power():
    p = IntPolynomial([1, 2, 3])
    assert compose_power(p, 1) is p
    assert compose_power(p, 2) == IntPolynomial([1, 0, 2, 0, 3])
    assert horner(compose_power(p, 3).coeffs, 2) == horner(p.coeffs, 8)
    with pytest.raises(ValueError):
        compose_power(p, 0)


def test_negate_arg():
    p = IntPolynomial([1, 2, 3, 4])
    assert negate_arg(p) == IntPolynomial([1, -2, 3, -4])
    assert negate_arg(negate_arg(p)) == p
    for x in (2, -3, Fraction(1, 3)):
        assert horner(negate_arg(p).coeffs, x) == horner(p.coeffs, -x)


def test_to_text():
    assert IntPolynomial.from_descending([2, 1, -1, -2]).to_text() == (
        "2*x^3 + x^2 - x - 2"
    )
    assert IntPolynomial([1, 8, 13, 8, 1]).to_text() == (
        "x^4 + 8*x^3 + 13*x^2 + 8*x + 1"
    )
    assert IntPolynomial([0, -1]).to_text() == "-x"
    assert IntPolynomial([-7]).to_text() == "-7"
    assert IntPolynomial([0, 0, 5]).to_text() == "5*x^2"
    assert str(IntPolynomial([1, 0, -1])) == "-x^2 + 1"


def test_json_roundtrip():
    # The CLI's --json form: ascending decimal strings that read back exactly.
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng, max_degree=10, bits=200)
        blob = p.to_json_dict()
        assert blob == {"order": "ascending", "coeffs": [str(c) for c in p.coeffs]}
        assert IntPolynomial(int(c) for c in blob["coeffs"]) == p
    assert IntPolynomial([-2, 0, 1]).to_json_dict() == {
        "order": "ascending",
        "coeffs": ["-2", "0", "1"],
    }
    assert IntPolynomial().to_json_dict() == {"order": "ascending", "coeffs": []}


def test_symmetry_class():
    assert symmetry_class(IntPolynomial([1, 3, 1])) == "palindromic"
    assert symmetry_class(IntPolynomial([1, 0, -1])) == "antipalindromic"
    assert symmetry_class(IntPolynomial([1, 2, 3])) == "neither"
    assert symmetry_class(IntPolynomial()) == "palindromic"
    assert symmetry_class(IntPolynomial([4])) == "palindromic"
