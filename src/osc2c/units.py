"""Physical quantities with dimensional analysis.

Every quantity literal in a scenario (``35kph``, ``5m``, ``-1.57rad``) is
normalized to SI base units (m, s, rad) at construction time.  Arithmetic
(``binary``) enforces dimensional consistency: ``+``/``-`` require equal dimensions,
``*``/``/`` combine exponents.  The conversion table is a bit-exact
contract; see ``UNITS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UnitsError(Exception):
    """Base class for unit and dimension errors."""


class UnknownUnit(UnitsError):
    pass


class DimensionMismatch(UnitsError):
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


@dataclass(frozen=True, slots=True)
class Quantity:
    """A finite value in SI base units paired with its dimension."""

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise UnitsError(f"non-finite quantity value: {self.value!r}")

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)


def from_literal(value: float, unit: str) -> Quantity:
    """Build an SI-normalized quantity from a ``<value><unit>`` literal."""
    try:
        factor, dim = UNITS[unit]
    except KeyError:
        raise UnknownUnit(f"unknown unit suffix {unit!r}") from None
    if not math.isfinite(value):
        raise UnitsError(f"non-finite literal value: {value!r}")
    return Quantity(value * factor, dim)


def binary(lhs: Quantity, op: str, rhs: Quantity) -> Quantity:
    """Dimension-checked arithmetic on two quantities."""
    if op in ("+", "-"):
        if lhs.dim != rhs.dim:
            raise DimensionMismatch(
                f"cannot apply {op!r} to {dimension_name(lhs.dim)} and "
                f"{dimension_name(rhs.dim)}")
        value = lhs.value + rhs.value if op == "+" else lhs.value - rhs.value
        return Quantity(value, lhs.dim)
    if op == "*":
        return Quantity(lhs.value * rhs.value, lhs.dim * rhs.dim)
    if op == "/":
        if rhs.value == 0.0:
            raise DivisionByZero("division by a zero-valued quantity")
        return Quantity(lhs.value / rhs.value, lhs.dim / rhs.dim)
    raise UnitsError(f"unsupported operator {op!r}")


def compare(lhs: Quantity, op: str, rhs: Quantity) -> bool:
    """Dimension-checked relational comparison."""
    if lhs.dim != rhs.dim:
        raise DimensionMismatch(
            f"cannot compare {dimension_name(lhs.dim)} with "
            f"{dimension_name(rhs.dim)}")
    a, b = lhs.value, rhs.value
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    raise UnitsError(f"unsupported comparison {op!r}")


def coercible_product(lhs_dim: Dimension, rhs_dim: Dimension,
                      declared: Dimension) -> bool:
    """True when a product qualifies for scalar reinterpretation.

    A declared-type context like ``var v: speed = v0 * 10kph`` is dimensionally
    a speed squared.  When the left operand already has the declared dimension
    and the right operand is not a plain number, the right side can be read as
    a dimensionless scale factor equal to its SI value.
    """
    return (lhs_dim == declared
            and rhs_dim != DIMENSIONLESS
            and lhs_dim * rhs_dim != declared)


def coerce_product(lhs: Quantity, rhs: Quantity,
                   declared: Dimension) -> Quantity:
    """Scale ``lhs`` by ``rhs`` read as a dimensionless scalar.

    Only valid when ``coercible_product`` holds; always accompanied by a
    W001 diagnostic at the call site.
    """
    if not coercible_product(lhs.dim, rhs.dim, declared):
        raise UnitsError("coerce_product preconditions not met")
    return Quantity(lhs.value * rhs.value, declared)
