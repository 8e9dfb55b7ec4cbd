"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored ascending (``coeffs[j]`` multiplies ``x**j``) and
normalized so the last stored coefficient is nonzero; the zero polynomial
stores an empty tuple.  Printing follows the usual descending convention,
e.g. ``x^4 + 8*x^3 + 13*x^2 + 8*x + 1``.

The class does no arithmetic: `cyclotomic.phi_moebius` builds Phi_n in
place, and every polynomial product the library makes is a packed one,
in the Newton kernel's feeds (`numthy._feed`) and in the check of the
pair identities P^2 - S*Q^2 = R.  `_square_identity_holds` decides that
identity without building a polynomial: it packs P, Q, S and R, forms
the packed value of P^2 - S*Q^2 - R and tests it for zero, in slots of
about half the width its coefficients would need, which reciprocity
makes enough (its docstring has the proof).

A product of two polynomials is one big-integer multiplication
(Kronecker substitution) in three steps through the layout `_layout`
picks, pack, multiply and read: each operand is packed into one number
with its coefficients in fixed slots, the two numbers are multiplied (a
square when both operands are the same object) and the slots of the
product are read back as its coefficients.  The caller passes the slot
bound.  For one product it is exact: coefficient k of a * b is a sum of
at most min(len a, len b) products a_i * b_j, so it is at most
bound = max|a_i| * max|b_j| * min(len a, len b) in absolute value, and
so is every input coefficient.  Small products pack into ints with
slots of bytes: with 8w - 1 >= bitlength(bound) every such value v has
|v| < 2^(8w-1), so in a slot of w bytes v + 2^(8w-1) lies in
[0, 2^(8w)).  Large ones pack into a `decimal.Decimal` with slots of w
decimal digits: with 2 * bound < 10^w every such v has
|v| < 5*10^(w-1), so v + 5*10^(w-1) lies in [0, 10^w).  Either way,
adding the half slot 2^(8w-1) or 5*10^(w-1) to every slot of the
product leaves each slot in range, nothing carries from one slot into
the next, and subtracting it from each slot gives the coefficients back
exactly.

Packing is linear: the packed value of f is f evaluated at the slot
base (10^w, or the values at the four points X, -X, iX of the int
branch below), so
packed(f) + packed(g) = packed(f + g), and a product of packed values
is the packed product.  A sum or difference of packed products is
therefore the packed value of the same sum or difference of polynomial
products, and it reads back exactly, slot by slot, whenever each of its
coefficients, not only each product's, is at most the bound: the
reading never looks at how a slot's value arose.  The identity check
`_square_identity_holds` relies on this to pack each of its operands
once and test one combination of products.

CPython multiplies ints by Karatsuba only, in O(N^1.585) for N bits, so
the binary branch quarters its operands by four-point Kronecker
substitution (D. Harvey, *Faster polynomial multiplication via
multipoint Kronecker substitution*, J. Symbolic Comput. 44 (2009)): it
evaluates at X, -X, iX and -iX, with X = 2^(2w), so that X^4 = 2^(8w)
is the base of slots of w bytes.  Each operand f is split by residue
mod 4, f(x) = sum_r x^r F_r(x^4), and each F_r = sum_j f_(4j+r) X^4j is
packed in slots of w bytes.  Shifts and adds give

    f(+-X) = F_0 + X^2 F_2 +- X (F_1 + X^2 F_3),
    f(iX)  = F_0 - X^2 F_2 + i X (F_1 - X^2 F_3),

and f(-iX) is the conjugate of f(iX), so a packed value is the four
ints f(X), f(-X), Re f(iX) and Im f(iX), each of about a quarter of the
bits of one packed at X^4.  The product h = f * g is h(X) = f(X) g(X),
h(-X) = f(-X) g(-X) and the Gaussian product h(iX) = f(iX) g(iX): with
f(iX) = a + ib and g(iX) = c + id, Re = ac - bd and
Im = (a + b)(c + d) - ac - bd, three products, and for a square
Re = (a + b)(a - b) and Im = 2ab, two.  The size-4 transform is undone
by exact divisions, so by arithmetic shifts:

    E = (h(X) + h(-X)) / 2     = H_0 + X^2 H_2,
    O = (h(X) - h(-X)) / (2X)  = H_1 + X^2 H_3,
    H_0 = (E + Re h(iX)) / 2,        H_2 = (E - Re h(iX)) / (2X^2),
    H_1 = (O + Im h(iX) / X) / 2,    H_3 = (O - Im h(iX) / X) / (2X^2).

Each H_r holds the coefficients h_(4j+r) in slots of w bytes and is
read back as above; the slots of the four are interleaved.  Five
products of N/4 bits cost about 5 * 4^-1.585 = 0.56 of one of N bits
under Karatsuba, and four (for a square) 0.44; the packing, the
transform and the reading stay linear.

The C `decimal` module (libmpdec) multiplies large operands by a
number-theoretic transform in O(N log N), at the cost of converting
each coefficient to and from decimal digits.  So `_layout` packs in
base 10 once the smaller packed operand reaches `_DECIMAL_CUTOFF` bits,
and in base 2^8 below that.  The base-10 product stays one product at
one point: at quasi-linear cost two products of half the size cost as
much as one, and the second pass of packing and reading would only add
to it.  Both branches cost far less than the d^2 coefficient products
of the schoolbook loop, which the tests keep as the reference.

The kernel and `_square_identity_holds` share the two layouts, so there
is one packing for every caller.  Both layouts lay the positive and the
negative coefficients out apart and subtract the two packed values, so
no slot holds a sign.

`evaluate_homogeneous` gives y^degree * P(x/y) for integers x, y without
leaving the integers, which is how the library evaluates at an integer
(y = 1) and at a rational point p/q.  It runs Horner on blocks of
`_EVAL_LEAF` coefficients and sums the blocks by the product tree of
`_pair_blocks`, which the rounding route's lambda sum shares
(`factorizer._lambda_sum`).
"""

from __future__ import annotations

import decimal
import sys
from math import isqrt
from typing import Iterable

_EVAL_LEAF = 32
"""Most terms one leaf of `_pair_blocks` holds: coefficients of one
Horner block of `evaluate_homogeneous`, or terms of the rounding route's
lambda sum (`factorizer._lambda_sum`).  On F_30011 at x = 30011, leaves
of 16, 32, 64, 128 and 256 took 0.073, 0.070, 0.071, 0.071 and 0.078 s
against 0.84 s for one Horner pass; on 1000 random 11-bit coefficients
at x = 4004, y = 25, leaves of 32, 64, 128 and 256 took 583, 615, 678
and 816 us against 1554 us.  The lambda sum at n = 30011 took
0.36-0.40 s for every leaf from 8 to 128 terms, most of it in its one
final division (shared 2-core Xeon, Python 3.11).  Every piece of
`aurif factor` at n <= 31 has at most 31 coefficients, so it is one
block."""


def _pair_blocks(count, leaf, x, y):
    """Sum count terms by binary splitting (Haible & Papanikolaou, ANTS
    1998): T, D and y^count with T / D = sum_j a_j x^j y^(count-1-j), the
    homogeneous value of the terms a_0 .. a_(count-1) at the point (x, y).

    The terms are cut into blocks of `_EVAL_LEAF`, the trailing one
    possibly short.  ``leaf(start, stop)`` gives the block of the terms
    start .. stop-1 over its own span s = stop - start, as T and D with
    T / D = sum_j a_(start+j) x^j y^(s-1-j).  Neighbouring blocks
    L and R pair level by level as

        T = T_L * D_R * y^s(R) + T_R * D_L * x^s(L),   D = D_L * D_R,

    which is the block of the terms of both over s(L) + s(R).  x^s and
    y^s of the full span are squared once per level; y^s of the trailing
    block is kept apart, an unpaired trailing block carries up
    unchanged, and a pair that takes it in is the new trailing block.
    Each level costs about one product of the result's size, so N terms
    of b bits cost O(M(N b) log N), against O(N^2 b) for N Horner steps
    on an accumulator that grows to the result's width.  With no terms
    it gives T = 0, D = 1 and y^0 = 1.

    `IntPolynomial.evaluate_homogeneous` sums its coefficients with every
    D = 1; `factorizer._lambda_sum` sums its series at the point (1, x),
    each D the product of its block's odd denominators.
    """
    blocks = [
        leaf(start, min(start + _EVAL_LEAF, count))
        for start in range(0, count, _EVAL_LEAF)
    ]
    if not blocks:
        return 0, 1, 1
    tops, dens = zip(*blocks)
    last = y ** (count - _EVAL_LEAF * (len(blocks) - 1))
    xspan, yspan = x**_EVAL_LEAF, y**_EVAL_LEAF
    while len(tops) > 1:
        end = len(tops) - 1
        pairs = range(0, end, 2)
        paired = [
            tops[i] * (dens[i + 1] * (last if i + 1 == end else yspan))
            + tops[i + 1] * (dens[i] * xspan)
            for i in pairs
        ]
        dens_paired = [dens[i] * dens[i + 1] for i in pairs]
        if end % 2 == 0:
            paired.append(tops[end])
            dens_paired.append(dens[end])
        else:
            last *= yspan
        tops, dens = paired, dens_paired
        if len(tops) > 1:
            xspan *= xspan
            yspan *= yspan
    return tops[0], dens[0], last


_DECIMAL_CUTOFF = 300_000
"""Bits of the smaller packed operand (its length times the bit length of
the slot bound) from which `_layout` packs in base 10.  Base-10 time
over the four-point int time, best of 7 in each of two runs, for
squares / the kernel's feed shape (L coefficients of c bits against 2L
characters, last L slots read), c = 20, 100, 400 and 1000: 1.1-2.2 /
0.9-1.6 at 100k bits, 1.2-2.2 / 0.9-2.1 at 150k, 1.2-2.1 / 1.0-1.2 at
200k, 1.1-1.3 / 0.8-1.0 at 250k, 1.2-1.4 / 0.8-1.0 at 300k, 0.9-1.2 /
0.7-1.3 at 350k, 0.9-1.2 / 0.7-0.9 at 400k and 0.8-1.1 / 0.6-1.0 at
500k.  The two shapes pull apart: the int branch keeps the squares to
about 400k, and the feed shape, which Karatsuba multiplies as two
L x L halves, crosses over near 250k.  One cutoff serves both, and no
cutoff from 200k to 500k measurably beat another end to end
(interleaved, best of 9): `algorithm_l(30030)` 193-211 ms,
`algorithm_l(15015)` 56-59 ms, `algorithm_d(15015)` 42-45 ms, and the
identity checks of 15015, packing 389k and 593k bits, 22-26 and
41-44 ms; at n = 30011, best of 3, `algorithm_l` took 670, 650 and
707 ms at 250k, 300k and 400k.  So the cutoff stays at 300k, where
every identity check of the benchmark's `verify` workload, up to the
219k bits of n = 5005, and every kernel feed of its n packs as ints.
Far above the cutoff the int product falls behind: a square of 2000
700-bit coefficients takes 175 ms at four points (379 ms at two)
against 77 ms in base 10; far below it, 100 x 40-bit squares take
0.22 ms (0.19 ms at two points) against 0.48 ms (shared 2-core Xeon,
Python 3.11, libmpdec 2.5.1)."""

_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
"""The one context of the base-10 packing: exact for any integer that
fits in memory, and a lost digit raises rather than rounds.  The caller's
`decimal` context is never read or changed."""


class IntPolynomial:
    """An immutable polynomial over the integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @classmethod
    def from_descending(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        """Build from leading-first coefficients, as formulas are written."""
        return cls(reversed(list(coeffs)))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self._coeffs))

    def evaluate_homogeneous(self, x: int, y: int) -> int:
        """y^degree * P(x/y) on integers: the coefficient of x^j enters
        multiplied by y^(degree - j).  Horner on each block of
        `_pair_blocks`, whose denominators are all 1."""
        cs = self._coeffs

        def horner(start, stop):
            acc, ypow = 0, 1
            for c in reversed(cs[start:stop]):
                acc = acc * x + c * ypow
                ypow *= y
            return acc, 1

        return _pair_blocks(len(cs), horner, x, y)[0]

    def to_text(self) -> str:
        """Human form, descending powers: ``2*x^4 - x^3 - 4*x^2 - x + 2``."""
        if not self._coeffs:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self._coeffs[j]
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                term = str(mag)
            elif j == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{j}" if mag == 1 else f"{mag}*x^{j}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"

    def to_json_dict(self) -> dict:
        """Machine form: ascending coefficients as decimal strings."""
        return {
            "order": "ascending",
            "coeffs": [str(c) for c in self._coeffs],
        }


def _square_identity_holds(p, s, q, r) -> bool:
    """Whether P^2 - S*Q^2 = R, decided as one packed zero test.

    p, q and r are ascending coefficient sequences of ints, p nonempty,
    and s is the coefficient sequence of a monomial c*x^e, e = len(s) - 1.
    Each is packed once through `_layout`; the packed value of
    G = P^2 - S*Q^2 - R (two squares, one product by the packed monomial
    and two differences) is compared with zero, and no slot is read.
    Every coefficient of G is at most

        B = len(P)*|P|^2 + |S|*len(Q)*|Q|^2 + |R|

    in absolute value, |F| being the largest of F's.  X is the slot base
    10^w, or the X of the int layout's four points +-X, +-iX.

    In general the slots are for B.  The packed value of G then reads
    back exactly (module docstring), and a zero value reads as zero
    coefficients, so G = 0.

    The inputs are reciprocal when P is a palindrome up to sign, Q is
    one up to sign with e + len(Q) = len(P), so that S*Q^2 is centred on
    degree N/2 = len(P) - 1 as P^2 is, and R is a palindrome of N + 1
    coefficients.  Then G(x) = x^N * G(1/x), so each root y != 0 of G
    gives the root 1/y.  Suppose G != 0.  G(+-X) = G(+-iX) = 0 gives the
    eight roots +-X, +-iX, +-1/X, +-i/X, so the primitive
    (x^4 - X^4)(X^4 x^4 - 1) divides G, in Z[x] by Gauss's lemma, and
    G's Mahler measure is M(G) >= X^8; in base 10, G(X) = 0 makes
    (x - X)(X x - 1) divide G and M(G) >= X^2.  Landau's inequality
    (Mignotte, *Mathematics for Computer Algebra*, 4.3) gives
    M(G) <= ||G||_2 <= sqrt(N + 1) * B.  Slots for a bound b have
    X^4 = 2^(8w) > 2b at four points and X = 10^w > 2b in base 10, so
    X^8, or X^2, exceeds 4b^2, and b^2 >= sqrt(N + 1) * B leaves no room
    for G != 0.  So reciprocal inputs take the slots for
    b = isqrt(B * (isqrt(N + 1) + 1)) + 1, about half the bits of B, or
    for their largest coefficient if that is more, so that each input
    fits its slot.  The reciprocity is checked here, on the inputs.
    """
    hp, hs, hq, hr = (max(map(abs, f), default=0) for f in (p, s, q, r))
    bound = len(p) * hp * hp + hs * len(q) * hq * hq + hr
    terms = 2 * len(p) - 1  # N + 1
    if (
        len(s) - 1 + len(q) == len(p)
        and len(r) == terms
        and _mirror_sign(p)
        and _mirror_sign(q)
        and _mirror_sign(r) == 1
    ):
        bound = max(isqrt(bound * (isqrt(terms) + 1)) + 1, hp, hs, hq, hr)
    slots = _layout(bound, min(len(p), len(q)))
    packed_p, packed_q = slots.pack(p), slots.pack(q)
    rhs = slots.mul(slots.pack(s), slots.mul(packed_q, packed_q))
    return slots.is_zero(
        slots.sub(slots.sub(slots.mul(packed_p, packed_p), rhs), slots.pack(r))
    )


def _mirror_sign(coeffs) -> int:
    """1 if coeffs[j] = coeffs[-1-j] for every j, else -1 if
    coeffs[j] = -coeffs[-1-j] for every j, else 0."""
    mirror = coeffs[::-1]
    if coeffs == mirror:
        return 1
    return -1 if all(a == -b for a, b in zip(coeffs, mirror)) else 0


def _layout(bound: int, size: int) -> "_FourPoint | _Base10":
    """The slots for products, and linear combinations of products, whose
    every coefficient, input or output, is at most bound in absolute
    value, the smaller packed operand having size coefficients: base 10
    from `_DECIMAL_CUTOFF` bits of that operand on, four-point ints below.
    Either layout's slots hold bound; a zero test at four points sees the
    eight roots +-X, +-iX and, for reciprocal input, their inverses, and
    in base 10 the two roots X and 1/X (`_square_identity_holds`).

    Both layouts have the same methods: ``pack(coeffs)`` gives the packed
    value of a coefficient sequence, ``mul`` and ``sub`` combine packed
    values, ``read(value, slots, start, stop)`` gives slots
    start..stop-1 of a packed value that occupies at most ``slots``
    slots, and ``is_zero(value)`` tells whether a packed value is 0."""
    if size * bound.bit_length() >= _DECIMAL_CUTOFF:
        return _Base10(bound)
    return _FourPoint(bound)


class _FourPoint:
    """Slots of w bytes, a packed value being the four ints f(X), f(-X),
    Re f(iX) and Im f(iX) with X = 2^(2w), so X^4 = 2^(8w), as the module
    docstring says."""

    __slots__ = ("width",)

    def __init__(self, bound: int):
        self.width = bound.bit_length() // 8 + 1  # least w with 8w - 1 >= bitlen

    def pack(self, coeffs) -> tuple[int, int, int, int]:
        """From the residue packs F_r = sum_j f_(4j+r) X^4j, each in slots of
        w bytes: f(+-X) = F_0 + X^2 F_2 +- X (F_1 + X^2 F_3), and
        f(iX) = F_0 - X^2 F_2 + i X (F_1 - X^2 F_3)."""
        width = self.width
        f0, f1, f2, f3 = (_pack(coeffs[r::4], width) for r in range(4))
        f2 <<= 4 * width
        f3 <<= 4 * width
        even, odd = f0 + f2, (f1 + f3) << (2 * width)
        return even + odd, even - odd, f0 - f2, (f1 - f3) << (2 * width)

    @staticmethod
    def mul(x, y):
        """h(X) and h(-X) by two products, h(iX) by a Gaussian product:
        three products, or two for a square."""
        if x is y:
            a, b = x[2], x[3]
            return x[0] * x[0], x[1] * x[1], (a + b) * (a - b), (a * b) << 1
        a, b, c, d = x[2], x[3], y[2], y[3]
        ac, bd = a * c, b * d
        return x[0] * y[0], x[1] * y[1], ac - bd, (a + b) * (c + d) - ac - bd

    @staticmethod
    def sub(x, y):
        return x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]

    @staticmethod
    def is_zero(x):
        return not any(x)

    def read(self, value, slots: int, start: int, stop: int) -> list[int]:
        """The residue packs H_r of the product, by the inverse transform
        of the module docstring, then slots ceil((start-r)/4) ..
        ceil((stop-r)/4) - 1 of each, interleaved so that slot j of H_r
        is coefficient 4j + r.  Slots from stop on are cut off unread, so
        ``slots`` is not needed."""
        h_plus, h_minus, re, im = value
        width = self.width
        quarter = 2 * width  # X = 2^quarter
        even = (h_plus + h_minus) >> 1  # H_0 + X^2 H_2
        odd = (h_plus - h_minus) >> (quarter + 1)  # H_1 + X^2 H_3
        im >>= quarter  # H_1 - X^2 H_3
        out = [0] * (stop - start)
        for r, packed in enumerate(
            (
                (even + re) >> 1,
                (odd + im) >> 1,
                (even - re) >> (2 * quarter + 1),
                (odd - im) >> (2 * quarter + 1),
            )
        ):
            out[(r - start) % 4 :: 4] = _slots(
                packed, width, (start - r + 3) // 4, (stop - r + 3) // 4
            )
        return out


class _Base10:
    """Slots of w decimal digits, 2 * bound < 10^w, a packed value being a
    `decimal.Decimal` in the context `_DECIMAL`.

    Python caps int <-> str conversion at `sys.get_int_max_str_digits()`
    digits (4300 by default); slots wider than that convert through
    `Decimal`, which has no cap."""

    __slots__ = ("width", "half", "to_str", "to_int")
    mul = _DECIMAL.multiply
    sub = _DECIMAL.subtract
    is_zero = _DECIMAL.is_zero

    def __init__(self, bound: int):
        # The least w with 2 * bound < 10^w: the digit count of 2 * bound.
        self.width = _DECIMAL.create_decimal(2 * bound).adjusted() + 1
        self.half = 5 * 10 ** (self.width - 1)
        # A cap of 0 means none, as on Pythons that have no cap at all.
        if 0 < getattr(sys, "get_int_max_str_digits", int)() < self.width:
            self.to_str, self.to_int = _str_via_decimal, _int_via_decimal
        else:
            self.to_str, self.to_int = str, int

    def pack(self, coeffs) -> decimal.Decimal:
        """sum_j coeffs[j] * 10^(width*j), laid out as `_pack` does but in
        width-digit slots, highest first.  Each digit string is parsed as
        soon as it is joined, so at most one is held at a time."""
        width, to_str = self.width, self.to_str
        empty = "0" * width
        rev = coeffs[::-1]
        pos = "".join([to_str(c).zfill(width) if c > 0 else empty for c in rev])
        pos = _DECIMAL.create_decimal(pos)
        neg = "".join([to_str(-c).zfill(width) if c < 0 else empty for c in rev])
        return _DECIMAL.subtract(pos, _DECIMAL.create_decimal(neg))

    def read(self, value, slots: int, start: int, stop: int) -> list[int]:
        """The half slot goes onto every one of the ``slots`` slots, so the
        whole is nonnegative and its `str` holds every slot; a 1 above the
        top slot fixes the length of that `str`."""
        width, half, to_int = self.width, self.half, self.to_int
        digits = str(
            _DECIMAL.add(
                value, _DECIMAL.create_decimal("1" + ("5" + "0" * (width - 1)) * slots)
            )
        )
        # Slot k is digits[e - width : e] with e = width * (slots - k) + 1.
        ends = range(width * (slots - start) + 1, width * (slots - stop) + 1, -width)
        return [to_int(digits[e - width : e]) - half for e in ends]


def _slots(value: int, width: int, start: int, stop: int) -> list[int]:
    """Slots start..stop-1 of value = sum_k v_k 2^(8*width*k), each with
    |v_k| < 2^(8*width-1): the half slot goes onto slots 0..stop-1 before
    anything is cut, so no borrow crosses a slot, and slots from stop on
    cannot reach the ones below."""
    half = 1 << (8 * width - 1)
    value += int.from_bytes(half.to_bytes(width, "little") * stop, "little")
    value &= (1 << (8 * width * stop)) - 1
    raw = (value >> (8 * width * start)).to_bytes(width * (stop - start), "little")
    return [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, len(raw), width)
    ]


def _pack(coeffs, width: int) -> int:
    """sum_j coeffs[j] * 2^(8*width*j): the positive and the negative
    coefficients are laid out in width-byte slots separately and the two
    packed integers subtracted, so no slot holds a sign."""
    empty = bytes(width)
    pos = [c.to_bytes(width, "little") if c > 0 else empty for c in coeffs]
    neg = [(-c).to_bytes(width, "little") if c < 0 else empty for c in coeffs]
    return int.from_bytes(b"".join(pos), "little") - int.from_bytes(
        b"".join(neg), "little"
    )


def _str_via_decimal(value: int) -> str:
    return str(_DECIMAL.create_decimal(value))


def _int_via_decimal(digits: str) -> int:
    return int(_DECIMAL.create_decimal(digits))


__all__ = ["IntPolynomial"]
