"""Typed exceptions shared across the package."""

from __future__ import annotations


class MinorSumError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(MinorSumError):
    """Operands belong to different rings (or to no supported ring)."""


class InexactDivisionError(MinorSumError):
    """exact_divide was asked for a quotient that does not exist in the ring."""


class ExponentLimitError(MinorSumError):
    """A monomial's total degree exceeds what a packed Poly monomial holds
    (ring.EXPONENT_LIMIT)."""


class ScalarParseError(MinorSumError):
    """Scalar text could not be parsed in the target ring."""


class ShapeError(MinorSumError):
    """Matrix dimensions do not fit the requested operation."""


class IndexRangeError(MinorSumError):
    """A 1-based index or index set falls outside the valid range."""


class SkewSymmetryError(MinorSumError):
    """Pfaffian input is odd-sized or not skew-symmetric."""


class ParityError(MinorSumError):
    """An identity was invoked with m of the wrong parity."""


class StaircaseError(MinorSumError):
    """Path endpoints are not staircase-ordered, so Lindstrom counting
    would not be sign-free."""


class CrossingStepsError(MinorSumError):
    """A step set lets vertex-disjoint paths cross between lattice points,
    so path counting with two or more starts would not be sign-free."""


class RouteMismatchError(MinorSumError):
    """The independent counting routes disagree.  Carries all route values."""

    def __init__(self, message: str, routes: dict):
        super().__init__(message)
        self.routes = dict(routes)


class ConfigError(MinorSumError):
    """A verification run was configured with empty ranges or bad counts."""


class UnknownIdentityError(MinorSumError):
    """Unknown identity id.  Carries the list of valid ids."""

    def __init__(self, bad_id: str, valid: tuple):
        super().__init__(
            f"unknown identity id {bad_id!r}; valid ids: {', '.join(valid)}"
        )
        self.bad_id = bad_id
        self.valid = tuple(valid)
