"""Physical quantities: dimensions, unit conversion and magnitude arithmetic.

Every quantity literal in a scenario (``35kph``, ``5m``, ``-1.57rad``) is
normalized to SI base units (m, s, rad), and from then on a quantity is its
SI magnitude, a plain float.  Its dimension is static: the checker types
each expression with the ``Dimension`` algebra (``+``/``-`` require equal
dimensions, ``*``/``/`` combine exponents), so the run-time operators in
``ARITHMETIC`` and ``COMPARISONS`` work on floats alone.  Two faults remain
at run time: a division by zero and a non-finite result.  The conversion
table is a bit-exact contract; see ``UNITS``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


class UnitsError(Exception):
    """Base class for unit and dimension errors."""


class UnknownUnit(UnitsError):
    pass


class DivisionByZero(UnitsError):
    pass


@dataclass(frozen=True, slots=True)
class Dimension:
    """Exponent vector over the three base dimensions (length, time, angle)."""

    length: int = 0
    time: int = 0
    angle: int = 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length + other.length, self.time + other.time,
                         self.angle + other.angle)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length - other.length, self.time - other.time,
                         self.angle - other.angle)


DIMENSIONLESS = Dimension(0, 0, 0)
LENGTH = Dimension(1, 0, 0)
DURATION = Dimension(0, 1, 0)
SPEED = Dimension(1, -1, 0)
ACCELERATION = Dimension(1, -2, 0)
ANGLE = Dimension(0, 0, 1)

_DIMENSION_NAMES = {
    DIMENSIONLESS: "dimensionless",
    LENGTH: "length",
    DURATION: "time",
    SPEED: "speed",
    ACCELERATION: "acceleration",
    ANGLE: "angle",
}


def dimension_name(dim: Dimension) -> str:
    """Human-readable name for a dimension, falling back to exponent form."""
    known = _DIMENSION_NAMES.get(dim)
    if known is not None:
        return known
    return f"L^{dim.length}*T^{dim.time}*A^{dim.angle}"


# Bit-exact conversion contract: (SI factor, dimension).
UNITS: dict[str, tuple[float, Dimension]] = {
    "m": (1.0, LENGTH),
    "km": (1000.0, LENGTH),
    "s": (1.0, DURATION),
    "ms": (0.001, DURATION),
    "mps": (1.0, SPEED),
    "kph": (1000.0 / 3600.0, SPEED),
    "mph": (0.44704, SPEED),
    "rad": (1.0, ANGLE),
    "deg": (math.pi / 180.0, ANGLE),
}


def finite(value: float) -> float:
    """``value`` if it is finite; a quantity may never be infinite or NaN."""
    if not math.isfinite(value):
        raise UnitsError(f"non-finite quantity value: {value!r}")
    return value


def from_literal(value: float, unit: str) -> float:
    """The SI magnitude of a ``<value><unit>`` literal."""
    try:
        factor = UNITS[unit][0]
    except KeyError:
        raise UnknownUnit(f"unknown unit suffix {unit!r}") from None
    if not math.isfinite(value):
        raise UnitsError(f"non-finite literal value: {value!r}")
    return finite(value * factor)


def _divide(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        raise DivisionByZero("division by a zero-valued quantity")
    return lhs / rhs


# The operators on SI magnitudes; the checker has matched the dimensions.
# An arithmetic result must still be checked with ``finite``.
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _divide}
COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def coercible_product(lhs_dim: Dimension, rhs_dim: Dimension,
                      declared: Dimension) -> bool:
    """True when a product qualifies for scalar reinterpretation.

    A declared-type context like ``var v: speed = v0 * 10kph`` is dimensionally
    a speed squared.  When the left operand already has the declared dimension
    and the right operand is not a plain number, the right side can be read as
    a dimensionless scale factor equal to its SI value: the product of the two
    magnitudes, of the declared dimension.
    """
    return (lhs_dim == declared
            and rhs_dim != DIMENSIONLESS
            and lhs_dim * rhs_dim != declared)
