"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored ascending (``coeffs[j]`` multiplies ``x**j``) and
normalized so the last stored coefficient is nonzero; the zero polynomial
stores an empty tuple.  Printing follows the usual descending convention,
e.g. ``x^4 + 8*x^3 + 13*x^2 + 8*x + 1``.

All arithmetic is exact: addition, subtraction and multiplication, with
no division — `cyclotomic.phi_moebius` builds Phi_n without one, and the
identity checks only multiply.

The product of two polynomials is one big-integer multiplication
(Kronecker substitution) in three steps, pack, multiply and read: each
operand is packed into one number with its coefficients in fixed slots,
the two numbers are multiplied (a square when both operands are the
same object) and the slots of the product are read back as its
coefficients.  The slot width is exact: coefficient k of
a * b is a sum of at most min(len a, len b) products a_i * b_j, so it is
at most bound = max|a_i| * max|b_j| * min(len a, len b) in absolute
value, and so is every input coefficient.  Small products pack into
ints with slots of bytes: with 8w - 1 >= bitlength(bound) every such
value v has |v| < 2^(8w-1), so in a slot of W >= w bytes v + 2^(8W-1)
lies in [0, 2^(8W)).  Large ones pack into a `decimal.Decimal` with
slots of w decimal digits: with 2 * bound < 10^w every such v has
|v| < 5*10^(w-1), so v + 5*10^(w-1) lies in [0, 10^w).  Either way,
adding the half slot 2^(8W-1) or 5*10^(w-1) to every slot of the
product leaves each slot in range, nothing carries from one slot into
the next, and subtracting it from each slot gives the coefficients back
exactly.

Packing is linear: the packed value of f is f evaluated at the slot
base (10^w, or the pair f(X), f(-X) of the int branch below), so
packed(f) + packed(g) = packed(f + g), and a product of packed values
is the packed product.  A sum or difference of packed products is
therefore the packed value of the same sum or difference of polynomial
products, and it reads back exactly, slot by slot, whenever each of its
coefficients, not only each product's, is at most the bound: the
reading never looks at how a slot's value arose.  The recurrence kernel
`numthy._newton_pair` relies on this to pack each of its operands once
and read two differences of products.

CPython multiplies ints by Karatsuba only, in O(N^1.585) for N bits, so
the binary branch halves its operands by two-point Kronecker
substitution (D. Harvey, *Faster polynomial multiplication via
multipoint Kronecker substitution*, J. Symbolic Comput. 44 (2009)).
With sb = ceil(w/2) and X = 2^(8 sb), each operand f is packed as its
even part E = sum f_2i X^2i and its odd part O = sum f_2i+1 X^(2i+1),
each in slots of 2 sb bytes, which gives f(X) = E + O and
f(-X) = E - O.  The product h = f * g is then two products of about
half the bits, h(X) = f(X) g(X) and h(-X) = f(-X) g(-X) (two squares
for a square), and

    (h(X) + h(-X)) / 2    = sum h_2i   X^2i,
    (h(X) - h(-X)) / (2X) = sum h_2i+1 X^2i.

Both divisions are exact, so two arithmetic shifts do them.  Each
quotient holds the even, or the odd, coefficients of h in slots of
W = 2 sb >= w bytes, so each is read back as above; a slot of w - 1
bytes, which sb = floor(w/2) would give for odd w, could not hold the
bound.  Two products of N/2 bits cost about
2 * 2^-1.585 = 0.67 of one of N bits under Karatsuba; the packing and
the reading stay linear.

The C `decimal` module (libmpdec) multiplies large operands by a
number-theoretic transform in O(N log N), at the cost of converting
each coefficient to and from decimal digits.  So `_kronecker` packs in
base 10 once the smaller packed operand reaches `_DECIMAL_CUTOFF` bits,
and in base 2^8 below that.  The base-10 product stays one product at
one point: at quasi-linear cost two products of half the size cost as
much as one, and the second pass of packing and reading would only add
to it.  Both branches cost far less than the d^2 coefficient products
of the schoolbook loop, which the tests keep as the reference.

`_kronecker`, which `__mul__` calls for the whole product, is pack,
multiply and read through the layout `_layout` picks; the kernel uses
the layouts itself, so there is one packing for both callers.  Both
lay the positive and the negative coefficients out apart and subtract
the two packed values, so no slot holds a sign.

`evaluate` is scalar Horner and is exact for int and `fractions.Fraction`
arguments (and works fine with floats or complex numbers when
approximation is wanted).  `evaluate_homogeneous` gives y^degree * P(x/y)
for integers x, y without leaving the integers, which is how the library
evaluates at an integer (y = 1) and at a rational point p/q.  It runs on
a product tree rather than Horner: Horner on N coefficients makes N
steps on an accumulator that grows to the full width of the result, so
it costs O(N^2 b) bit operations for a b-bit x.  The tree runs Horner on
blocks of `_EVAL_LEAF` coefficients, each homogeneous in its own span
(its count of coefficients), then pairs neighbouring blocks level by
level,

    H = H_lo * y^span(hi) + H_hi * x^span(lo),

with x^span and y^span squared once per level.  An unpaired trailing
block carries up unchanged; the trailing block is the only one that can
be short, and it takes y to its own span.  Each level costs about one
product of the result's size, so the whole costs O(M(N b) log N).  At
most `_EVAL_LEAF` coefficients make one block, and that is one Horner
pass.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction, float, complex]

_EVAL_LEAF = 32
"""Most coefficients one Horner block of `evaluate_homogeneous` takes,
and most terms one leaf of the rounding route's lambda sum
(`factorizer._lambda_sum`).  On F_30011 at x = 30011, leaves of 16, 32,
64, 128 and 256 took 0.073, 0.070, 0.071, 0.071 and 0.078 s against
0.84 s for one Horner pass; on 1000 random 11-bit coefficients at
x = 4004, y = 25, leaves of 32, 64, 128 and 256 took 583, 615, 678 and
816 us against 1554 us.  The lambda sum at n = 30011 took 0.36-0.40 s
for every leaf from 8 to 128 terms, most of it in its one final
division (shared 2-core Xeon, Python 3.11).  Every piece of `aurif
factor` at n <= 31 has at most 31 coefficients, so it is one block."""


_DECIMAL_CUTOFF = 300_000
"""Bits of the smaller packed operand (its length times the bit length of
the slot bound) from which `_layout` packs in base 10.  Base-10 time
over the two-point int time, best of 7, for squares / the kernel's shape
(L x 2L, last L slots) on 20- to 1000-bit coefficients: 1.4-2.2 /
1.5-2.3 at 50k bits, 1.2-1.7 / 0.8-1.6 at 100k, 1.2-1.7 / 0.8-1.1 at
150k, 1.0-1.2 / 0.8-0.9 at 200k, 0.8-1.2 / 0.6-0.8 at 250k, 0.9-1.2 /
0.6-0.7 at 300k, 0.8-0.9 / 0.7-0.8 at 350k, 0.8-0.9 / 0.5-0.7 at 400k
and 0.6-0.8 / 0.5 at 500k.  The kernel's shape crosses over lower
because Karatsuba multiplies it as two L x L halves; the cutoff follows
the squares.  Of the 465 products of one pass of the benchmark's
`verify` workload, the 35 of 40k bits or more took 152.8 ms (per product
best of 7) with the cutoff at 150k, 149.9 ms at 200k-250k, 146.5 ms at
300k-350k and 153.3 ms at 400k, against 166.2 ms for the one-point int
product with its cutoff at 150k; the 26 squares among them are all the
products above 60k bits.  At n = 30011, where the kernel's products are
large too, the products of `aurif verify 30011` took 3.67 s at 150k,
3.81 s at 250k and 3.83 s at 300k (per product best of 5), against
3.91 s for the one-point int product at 150k.  Far above the cutoff
the int product falls behind: a square of 2000 700-bit coefficients
takes 0.33 s at two points (0.61 s at one) against 0.10 s in base 10;
far below it, 100 x 40-bit squares take 0.24 ms (0.23 ms) against
0.53 ms (shared 2-core Xeon, Python 3.11, libmpdec 2.5.1)."""

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

    @property
    def leading(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self._coeffs[-1] if self._coeffs else 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPolynomial", self._coeffs))

    def coefficient(self, j: int) -> int:
        """The coefficient of x^j (0 when j exceeds the degree)."""
        if j < 0:
            raise IndexError("negative power")
        return self._coeffs[j] if j < len(self._coeffs) else 0

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self._coeffs)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(other * c for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial()
        return IntPolynomial(_kronecker(a, b, 0, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def evaluate(self, x: Scalar) -> Scalar:
        """Scalar Horner evaluation; exact for int and Fraction arguments.
        Integers go faster through ``evaluate_homogeneous(x, 1)``."""
        acc = x * 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def evaluate_homogeneous(self, x: int, y: int) -> int:
        """y^degree * P(x/y) on integers, by the product tree of the module
        docstring: the coefficient of x^j enters multiplied by
        y^(degree - j)."""
        cs = self._coeffs
        blocks = []
        for start in range(0, len(cs), _EVAL_LEAF):
            acc, ypow = 0, 1
            for c in reversed(cs[start : start + _EVAL_LEAF]):
                acc = acc * x + c * ypow
                ypow *= y
            blocks.append(acc)
        if len(blocks) < 2:
            return blocks[0] if blocks else 0
        # ypow is y^span of the trailing block; every other block spans
        # the full width, whose powers are xspan and yspan.
        ylast = ypow
        xspan, yspan = x**_EVAL_LEAF, y**_EVAL_LEAF
        while len(blocks) > 1:
            last = len(blocks) - 1
            paired = [
                blocks[i] * (ylast if i + 1 == last else yspan)
                + blocks[i + 1] * xspan
                for i in range(0, last, 2)
            ]
            if last % 2 == 0:
                paired.append(blocks[last])
            else:
                ylast *= yspan
            blocks = paired
            if len(blocks) > 1:
                xspan *= xspan
                yspan *= yspan
        return blocks[0]

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


def _kronecker(a, b, start: int, stop: int) -> list[int]:
    """Coefficients start..stop-1 of the product of the coefficient
    sequences a and b, by Kronecker substitution: pack, multiply, read.

    a and b are nonempty sequences of ints; zero entries are allowed, and
    an all-zero operand counts as all ones in the slot bound of the module
    docstring, so every input coefficient fits its slot too.  A square,
    ``b is a``, squares each packed number.
    """
    size = min(len(a), len(b))
    slots = _layout((max(map(abs, a)) or 1) * (max(map(abs, b)) or 1) * size, size)
    packed = slots.pack(a)
    product = slots.mul(packed, packed if b is a else slots.pack(b))
    return slots.read(product, len(a) + len(b) - 1, start, stop)


def _layout(bound: int, size: int) -> "_TwoPoint | _Base10":
    """The slots for products, and linear combinations of products, whose
    every coefficient, input or output, is at most bound in absolute
    value, the smaller packed operand having size coefficients: base 10
    from `_DECIMAL_CUTOFF` bits of that operand on, two-point ints below.

    Both layouts have the same methods: ``pack(coeffs)`` gives the packed
    value of a coefficient sequence, ``mul``, ``add`` and ``sub`` combine
    packed values, and ``read(value, slots, start, stop)`` gives slots
    start..stop-1 of a packed value that occupies at most ``slots``
    slots."""
    if size * bound.bit_length() >= _DECIMAL_CUTOFF:
        return _Base10(bound)
    return _TwoPoint(bound)


class _TwoPoint:
    """Slots of 2*sb bytes, a packed value being the pair (f(X), f(-X))
    with X = 2^(8*sb), as the module docstring says."""

    __slots__ = ("sb",)

    def __init__(self, bound: int):
        width = bound.bit_length() // 8 + 1  # least w with 8w - 1 >= bitlen
        self.sb = (width + 1) // 2  # slots of 2 sb >= w bytes

    def pack(self, coeffs) -> tuple[int, int]:
        """E + O and E - O, for the even part E = sum f_2i X^2i and the odd
        part O = sum f_2i+1 X^(2i+1), each packed in slots of 2*sb bytes."""
        width = 2 * self.sb
        even = _pack(coeffs[::2], width)
        odd = _pack(coeffs[1::2], width) << (8 * self.sb)
        return even + odd, even - odd

    @staticmethod
    def mul(x, y):
        return x[0] * y[0], x[1] * y[1]

    @staticmethod
    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    @staticmethod
    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    def read(self, value, slots: int, start: int, stop: int) -> list[int]:
        """Slots ceil(start/2)..ceil(stop/2)-1 of the even quotient and
        floor(start/2)..floor(stop/2)-1 of the odd one, interleaved, the
        first from the even one when start is even.  Slots from stop on
        are cut off unread, so ``slots`` is not needed."""
        h_plus, h_minus = value
        sb = self.sb
        even = _slots((h_plus + h_minus) >> 1, 2 * sb, (start + 1) // 2, (stop + 1) // 2)
        odd = _slots((h_plus - h_minus) >> (8 * sb + 1), 2 * sb, start // 2, stop // 2)
        out = even + odd
        out[start % 2 :: 2] = even
        out[1 - start % 2 :: 2] = odd
        return out


class _Base10:
    """Slots of w decimal digits, 2 * bound < 10^w, a packed value being a
    `decimal.Decimal` in the context `_DECIMAL`.

    Python caps int <-> str conversion at `sys.get_int_max_str_digits()`
    digits (4300 by default); slots wider than that convert through
    `Decimal`, which has no cap."""

    __slots__ = ("width", "half", "to_str", "to_int")
    mul = _DECIMAL.multiply
    add = _DECIMAL.add
    sub = _DECIMAL.subtract

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


def _coerce(value) -> IntPolynomial | None:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([value])
    return None


__all__ = ["IntPolynomial", "Scalar"]
