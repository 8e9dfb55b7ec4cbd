"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored ascending (``coeffs[j]`` multiplies ``x**j``) and
normalized so the last stored coefficient is nonzero; the zero polynomial
stores an empty tuple.  Printing follows the usual descending convention,
e.g. ``x^4 + 8*x^3 + 13*x^2 + 8*x + 1``.

All arithmetic is exact: addition, subtraction and multiplication, with
no division — `cyclotomic.phi_moebius` builds Phi_n without one, and the
identity checks only multiply.  Evaluation is plain Horner and is exact
for int and `fractions.Fraction` arguments (and works fine with floats or
complex numbers when approximation is wanted).  `evaluate_homogeneous`
gives y^degree * P(x/y) for integers x, y without leaving the integers,
which is how a rational point p/q is evaluated exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction, float, complex]


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
        if not self or not other:
            return IntPolynomial()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x: Scalar) -> Scalar:
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = x * 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def evaluate_homogeneous(self, x: int, y: int) -> int:
        """y^degree * P(x/y), by Horner on integers: the coefficient of
        x^j enters multiplied by y^(degree - j)."""
        acc = 0
        ypow = 1
        for c in reversed(self._coeffs):
            acc = acc * x + c * ypow
            ypow *= y
        return acc

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


def _coerce(value) -> IntPolynomial | None:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial([value])
    return None


__all__ = ["Fraction", "IntPolynomial", "Scalar"]
