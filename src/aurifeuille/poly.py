"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored ascending (``coeffs[j]`` multiplies ``x**j``) and
normalized so the last stored coefficient is nonzero; the zero polynomial
stores an empty tuple.  Printing follows the usual descending convention,
e.g. ``x^4 + 8*x^3 + 13*x^2 + 8*x + 1``.

All arithmetic is exact: addition, subtraction and multiplication, with
no division — `cyclotomic.phi_moebius` builds Phi_n without one, and the
identity checks only multiply.

The product of two polynomials is one big-integer multiplication
(Kronecker substitution): each operand is packed into one int with its
coefficients in fixed slots of w bytes, the two ints are multiplied (a
square when both operands are the same object) and the slots of the
product are read back as its coefficients.  The slot width is exact:
coefficient k of a * b is a sum of at most min(len a, len b) products
a_i * b_j, so it is at most bound = max|a_i| * max|b_j| * min(len a,
len b) in absolute value, and so is every input coefficient.  With
8w - 1 >= bitlength(bound) every such value v has |v| < 2^(8w-1), so
v + 2^(8w-1) lies in [0, 2^(8w)).  Adding 2^(8w-1) to every slot of the
product therefore leaves each slot in range, nothing carries from one
slot into the next, and subtracting 2^(8w-1) from each slot gives the
coefficients back exactly.  CPython multiplies large ints by Karatsuba,
so a product of two degree-d polynomials costs far less than the d^2
coefficient products of the schoolbook loop, which the tests keep as
the reference.  The packing lives in one private function, `_kronecker`,
which `__mul__` calls for the whole product and the recurrence kernel
`numthy._newton_pair` for a range of its slots.

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

    def is_monic(self) -> bool:
        return self.leading == 1

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

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

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
    sequences a and b, by Kronecker substitution.

    a and b are nonempty sequences of ints; zero entries are allowed, and
    an all-zero operand counts as all ones in the slot bound of the module
    docstring, so every input coefficient fits its slot too.  The offsets
    2^(8w-1) go onto slots 0..stop-1 of the product before anything is cut
    from it, so no borrow crosses a slot, and slots from stop on (the
    product may be longer) cannot reach the ones below.  A square, ``b is
    a``, multiplies one packed int by itself.
    """
    bound = (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1  # least w with 8w - 1 >= bitlen
    packed = _pack(a, width)
    product = packed * (packed if b is a else _pack(b, width))
    half = 1 << (8 * width - 1)
    product += int.from_bytes(half.to_bytes(width, "little") * stop, "little")
    product &= (1 << (8 * width * stop)) - 1
    raw = (product >> (8 * width * start)).to_bytes(width * (stop - start), "little")
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


def _coerce(value) -> IntPolynomial | None:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([value])
    return None


__all__ = ["IntPolynomial", "Scalar"]
