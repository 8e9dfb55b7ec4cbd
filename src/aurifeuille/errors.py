"""Exception types raised across the library.

Every failure mode that callers are expected to distinguish gets its own
class here, so `except` clauses (and the command-line tool's error
reporting) can name the condition rather than pattern-match message text.
"""


class AurifeuilleError(Exception):
    """Base class for all library-specific errors."""


class NTooSmall(AurifeuilleError):
    """An argument n was below the smallest value the operation supports."""


class NotSquareFree(AurifeuilleError):
    """An argument that must be square-free has a repeated prime factor."""


class NotOddSquareFree(AurifeuilleError):
    """The Gauss-pair recurrence needs n odd, square-free and at least 3."""


class BadResidueClass(AurifeuilleError):
    """The argument lies in a residue class the operation is not defined for."""


class InternalInconsistency(AurifeuilleError):
    """A cross-check that should hold by construction failed; likely a bug."""


class NonIntegerStep(AurifeuilleError):
    """A recurrence step whose exact divisibility is guaranteed by theory
    failed to divide; indicates corrupted inputs or an implementation bug."""


class BadConstantTerm(AurifeuilleError):
    """Series square roots are only taken of series with constant term 1."""


class NonIntegralOracle(AurifeuilleError):
    """The power-series route produced a non-integer (or structurally
    impossible) coefficient where an integer was required."""


class RoundingFailed(AurifeuilleError):
    """Rounding the floating-point factor estimate did not yield a divisor."""


class NegativeTarget(AurifeuilleError):
    """The number to factor, p^(2n) * n^n - q^(2n), is not positive:
    x = m^2 * n < 1 with n = 1 (mod 4)."""
