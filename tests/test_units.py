"""Unit conversion, dimension algebra and magnitude arithmetic tests.

A quantity is its SI magnitude, a float; its dimension is static and the
checker works it out with the ``Dimension`` algebra.  Derived oracle values
are frozen from exact rational arithmetic:
  35 kph            = 35000/3600        = 9.722222222222221  m/s
  12.42 mph         = 12.42 * 0.44704   = 5.5522368          m/s
  35 kph + 12.42 mph                    = 15.274459022222221 m/s
  25 kph            = 25000/3600        = 6.944444444444445  m/s
  (35 kph) scaled by (10 kph as scalar) = 27.006172839506172 m/s
"""

import math

import pytest
from hypothesis import given, strategies as st

from osc2c import units
from osc2c.parser import BINARY
from osc2c.semantics import check
from osc2c.units import (
    ACCELERATION,
    ANGLE,
    DIMENSIONLESS,
    DURATION,
    LENGTH,
    SPEED,
    Dimension,
    DivisionByZero,
    UnitsError,
    UnknownUnit,
)

ADD, SUB, MUL, DIV = (units.ARITHMETIC[op] for op in "+-*/")


def diagnostics(members):
    """The (code, message) of each diagnostic of a scenario's members."""
    source = ("scenario s:\n  hero: vehicle\n" + members
              + "  do serial:\n    wait elapsed(1s)\n")
    return [(d.code, d.message) for d in check(source).diagnostics]


class TestConversionFactors:
    def test_exact_factors(self):
        assert units.UNITS["m"][0] == 1.0
        assert units.UNITS["km"][0] == 1000.0
        assert units.UNITS["s"][0] == 1.0
        assert units.UNITS["ms"][0] == 0.001
        assert units.UNITS["mps"][0] == 1.0
        assert units.UNITS["kph"][0] == 1000.0 / 3600.0
        assert units.UNITS["mph"][0] == 0.44704
        assert units.UNITS["rad"][0] == 1.0
        assert units.UNITS["deg"][0] == math.pi / 180.0

    def test_factor_dimensions(self):
        assert units.UNITS["km"][1] == LENGTH
        assert units.UNITS["ms"][1] == DURATION
        assert units.UNITS["kph"][1] == SPEED
        assert units.UNITS["mph"][1] == SPEED
        assert units.UNITS["deg"][1] == ANGLE

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            units.from_literal(1.0, "furlong")
        with pytest.raises(UnknownUnit):
            units.from_literal(1.0, "kts")


class TestFrozenDerivedValues:
    def test_hero_speed(self):
        assert units.from_literal(35.0, "kph") == pytest.approx(
            9.722222222222221, rel=1e-12)

    def test_mph_offset(self):
        assert units.from_literal(12.42, "mph") == pytest.approx(
            5.5522368, rel=1e-12)

    def test_fast_speed_sum(self):
        total = ADD(units.from_literal(35.0, "kph"),
                    units.from_literal(12.42, "mph"))
        assert total == pytest.approx(15.274459022222221, rel=1e-9)

    def test_slow_speed_difference(self):
        difference = SUB(units.from_literal(35.0, "kph"),
                         units.from_literal(10.0, "kph"))
        assert difference == pytest.approx(6.944444444444445, rel=1e-12)

    def test_length_chain(self):
        gap = MUL(units.from_literal(5.0, "m"), 3.0)
        safety = SUB(gap, units.from_literal(3.0, "m"))
        assert gap == 15.0
        assert safety == 12.0
        assert diagnostics("  var gap: length = 5m * 3\n"
                           "  var safety: length = gap - 3m\n") == []


class TestDimensionAlgebra:
    def test_add_requires_equal_dims(self):
        assert diagnostics("  var a: speed = 1kph + 1m\n"
                           "  var b: time = 1s - 1rad\n") == [
            ("E003", "cannot apply '+' to speed and length"),
            ("E003", "cannot apply '-' to time and angle")]

    def test_mul_adds_exponents(self):
        assert SPEED * DURATION == LENGTH
        assert MUL(2.0, 3.0) == 6.0
        assert diagnostics("  var d: length = 2mps * 3s\n") == []

    def test_div_subtracts_exponents(self):
        assert LENGTH / DURATION == SPEED
        assert SPEED / DURATION == ACCELERATION
        assert DIV(6.0, 3.0) == 2.0

    def test_scalar_product_keeps_dim(self):
        assert LENGTH * DIMENSIONLESS == LENGTH
        assert MUL(5.0, 3.0) == 15.0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero,
                           match="^division by a zero-valued quantity$"):
            DIV(1.0, 0.0)
        with pytest.raises(DivisionByZero):
            DIV(1.0, -0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(UnitsError,
                           match="^non-finite quantity value: nan$"):
            units.finite(math.nan)
        with pytest.raises(UnitsError,
                           match="^non-finite quantity value: inf$"):
            units.finite(MUL(1e308, 10.0))
        with pytest.raises(UnitsError,
                           match="^non-finite literal value: inf$"):
            units.from_literal(math.inf, "m")
        with pytest.raises(UnitsError,
                           match="^non-finite quantity value: inf$"):
            units.from_literal(1e308, "km")
        assert units.finite(-0.0) == 0.0


class TestOperatorTables:
    def test_tables_hold_every_operator(self):
        assert set(units.ARITHMETIC) == {"+", "-", "*", "/"}

        def at(*levels):
            return {op for op, level in BINARY.items() if level in levels}

        assert at(3) == set(units.COMPARISONS)
        assert at(4, 5) == set(units.ARITHMETIC)
        assert set(BINARY) - at(3, 4, 5) == {"and", "or"}


class TestCoercion:
    def test_speed_times_speed_in_speed_context(self):
        assert units.coercible_product(SPEED, SPEED, SPEED)
        # the product of the magnitudes, read as a speed
        scaled = MUL(units.from_literal(35.0, "kph"),
                     units.from_literal(10.0, "kph"))
        assert scaled == pytest.approx(27.006172839506172, rel=1e-9)
        assert diagnostics("  var v: speed = 35kph * 10kph\n") == [
            ("W001", "dimensional coercion applied in initializer of 'v': "
                     "speed operand reinterpreted as a dimensionless scalar")]

    def test_plain_number_product_not_coercion(self):
        # length * 3 is dimensionally fine already, no coercion path
        assert not units.coercible_product(LENGTH, DIMENSIONLESS, LENGTH)

    def test_consistent_product_not_coercion(self):
        # speed * time in a length context is a real product
        assert not units.coercible_product(SPEED, DURATION, LENGTH)

    def test_precondition_enforced(self):
        # a left factor of another dimension is not coerced
        assert not units.coercible_product(DURATION, SPEED, LENGTH)
        assert diagnostics("  var d: length = 2s * 3kph\n") == []
        assert diagnostics("  var d: length = 2s * 3m\n") == [
            ("E003", "initializer of 'd' has dimension L^1*T^1*A^0, "
                     "expected length")]


class TestCompare:
    def test_basic(self):
        table = units.COMPARISONS
        assert table["<"](1.0, 2.0)
        assert table["<="](1.0, 2.0)
        assert not table[">"](1.0, 2.0)
        assert table["=="](1.0, 1.0)

    def test_not_equal(self):
        assert units.COMPARISONS["!="](1.0, 2.0)
        assert not units.COMPARISONS["!="](1.0, 1.0)

    def test_dim_mismatch(self):
        source = ("scenario s:\n  hero: vehicle\n  do serial:\n"
                  "    wait hero.speed < 1m\n")
        assert [(d.code, d.message) for d in check(source).diagnostics] == [
            ("E003", "cannot compare speed with length")]


finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e9)
unit_names = st.sampled_from(sorted(units.UNITS))


class TestProperties:
    @given(value=finite, unit=unit_names)
    def test_literal_round_trip(self, value, unit):
        factor = units.UNITS[unit][0]
        assert units.from_literal(value, unit) / factor == pytest.approx(
            value, rel=1e-12, abs=1e-15)

    @given(a=finite, b=finite, unit=unit_names)
    def test_addition_commutes(self, a, b, unit):
        qa = units.from_literal(a, unit)
        qb = units.from_literal(b, unit)
        assert ADD(qa, qb) == ADD(qb, qa)

    @given(a=finite, b=positive)
    def test_mul_div_inverse(self, a, b):
        assert SPEED * DURATION / DURATION == SPEED
        assert DIV(MUL(a, b), b) == pytest.approx(a, rel=1e-12, abs=1e-15)

    @given(a=finite, b=finite)
    def test_comparison_trichotomy(self, a, b):
        table = units.COMPARISONS
        assert table["<"](a, b) == (not table[">="](a, b))
        assert table[">"](a, b) == (not table["<="](a, b))

    @given(la=st.integers(-3, 3), ta=st.integers(-3, 3),
           lb=st.integers(-3, 3), tb=st.integers(-3, 3))
    def test_dimension_group_laws(self, la, ta, lb, tb):
        da = Dimension(la, ta, 0)
        db = Dimension(lb, tb, 0)
        assert da * db == db * da
        assert (da * db) / db == da
        assert da / da == DIMENSIONLESS
