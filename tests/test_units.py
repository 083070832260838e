"""Unit conversion and dimensional arithmetic tests.

Derived oracle values are frozen from exact rational arithmetic:
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
from osc2c.units import (
    ACCELERATION,
    ANGLE,
    DIMENSIONLESS,
    DURATION,
    LENGTH,
    SPEED,
    Dimension,
    DimensionMismatch,
    DivisionByZero,
    Quantity,
    UnitsError,
    UnknownUnit,
)


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
        q = units.from_literal(35.0, "kph")
        assert q.dim == SPEED
        assert q.value == pytest.approx(9.722222222222221, rel=1e-12)

    def test_mph_offset(self):
        q = units.from_literal(12.42, "mph")
        assert q.value == pytest.approx(5.5522368, rel=1e-12)

    def test_fast_speed_sum(self):
        q = units.binary(units.from_literal(35.0, "kph"), "+",
                         units.from_literal(12.42, "mph"))
        assert q.dim == SPEED
        assert q.value == pytest.approx(15.274459022222221, rel=1e-9)

    def test_slow_speed_difference(self):
        q = units.binary(units.from_literal(35.0, "kph"), "-",
                         units.from_literal(10.0, "kph"))
        assert q.value == pytest.approx(6.944444444444445, rel=1e-12)

    def test_length_chain(self):
        lag = units.from_literal(5.0, "m")
        gap = units.binary(lag, "*", Quantity(3.0))
        safety = units.binary(gap, "-", units.from_literal(3.0, "m"))
        assert gap.value == 15.0
        assert safety.value == 12.0
        assert safety.dim == LENGTH


class TestDimensionAlgebra:
    def test_add_requires_equal_dims(self):
        with pytest.raises(DimensionMismatch):
            units.binary(Quantity(1.0, SPEED), "+", Quantity(1.0, LENGTH))
        with pytest.raises(DimensionMismatch):
            units.binary(Quantity(1.0, DURATION), "-", Quantity(1.0, ANGLE))

    def test_mul_adds_exponents(self):
        q = units.binary(Quantity(2.0, SPEED), "*", Quantity(3.0, DURATION))
        assert q.dim == LENGTH
        assert q.value == 6.0

    def test_div_subtracts_exponents(self):
        q = units.binary(Quantity(6.0, LENGTH), "/", Quantity(3.0, DURATION))
        assert q.dim == SPEED
        assert q.value == 2.0
        q2 = units.binary(q, "/", Quantity(2.0, DURATION))
        assert q2.dim == ACCELERATION

    def test_scalar_product_keeps_dim(self):
        q = units.binary(Quantity(5.0, LENGTH), "*", Quantity(3.0))
        assert q.dim == LENGTH
        assert q.value == 15.0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            units.binary(Quantity(1.0, LENGTH), "/", Quantity(0.0, DURATION))

    def test_non_finite_rejected(self):
        with pytest.raises(UnitsError):
            Quantity(math.nan)
        with pytest.raises(UnitsError):
            Quantity(math.inf, SPEED)
        with pytest.raises(UnitsError):
            units.from_literal(math.inf, "m")

    def test_unsupported_operator(self):
        with pytest.raises(UnitsError):
            units.binary(Quantity(1.0), "%", Quantity(2.0))
        with pytest.raises(UnitsError):
            units.compare(Quantity(1.0), "<>", Quantity(2.0))


class TestCoercion:
    def test_speed_times_speed_in_speed_context(self):
        v_hero = units.from_literal(35.0, "kph")
        scale = units.from_literal(10.0, "kph")
        assert units.coercible_product(v_hero.dim, scale.dim, SPEED)
        result = units.coerce_product(v_hero, scale, SPEED)
        assert result.dim == SPEED
        assert result.value == pytest.approx(27.006172839506172, rel=1e-9)

    def test_plain_number_product_not_coercion(self):
        # length * 3 is dimensionally fine already, no coercion path
        assert not units.coercible_product(LENGTH, DIMENSIONLESS, LENGTH)

    def test_consistent_product_not_coercion(self):
        # speed * time in a length context is a real product
        assert not units.coercible_product(SPEED, DURATION, LENGTH)

    def test_precondition_enforced(self):
        with pytest.raises(UnitsError):
            units.coerce_product(Quantity(1.0, LENGTH), Quantity(2.0), LENGTH)


class TestCompare:
    def test_basic(self):
        a = Quantity(1.0, SPEED)
        b = Quantity(2.0, SPEED)
        assert units.compare(a, "<", b)
        assert units.compare(a, "<=", b)
        assert not units.compare(a, ">", b)
        assert units.compare(a, "==", Quantity(1.0, SPEED))

    def test_not_equal(self):
        a = Quantity(1.0, SPEED)
        assert units.compare(a, "!=", Quantity(2.0, SPEED))
        assert not units.compare(a, "!=", Quantity(1.0, SPEED))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            units.compare(Quantity(1.0, SPEED), "<", Quantity(1.0, LENGTH))


finite = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e9)
unit_names = st.sampled_from(sorted(units.UNITS))


class TestProperties:
    @given(value=finite, unit=unit_names)
    def test_literal_round_trip(self, value, unit):
        q = units.from_literal(value, unit)
        factor = units.UNITS[unit][0]
        assert q.value / factor == pytest.approx(value, rel=1e-12, abs=1e-15)

    @given(a=finite, b=finite, unit=unit_names)
    def test_addition_commutes(self, a, b, unit):
        qa = units.from_literal(a, unit)
        qb = units.from_literal(b, unit)
        total = units.binary(qa, "+", qb)
        assert total.value == units.binary(qb, "+", qa).value
        assert total.dim == qa.dim

    @given(a=finite, b=positive)
    def test_mul_div_inverse(self, a, b):
        q = Quantity(a, SPEED)
        scale = Quantity(b, DURATION)
        back = units.binary(units.binary(q, "*", scale), "/", scale)
        assert back.dim == SPEED
        assert back.value == pytest.approx(a, rel=1e-12, abs=1e-15)

    @given(a=finite, b=finite)
    def test_comparison_trichotomy(self, a, b):
        qa = Quantity(a, LENGTH)
        qb = Quantity(b, LENGTH)
        assert units.compare(qa, "<", qb) == (not units.compare(qa, ">=", qb))
        assert units.compare(qa, ">", qb) == (not units.compare(qa, "<=", qb))

    @given(la=st.integers(-3, 3), ta=st.integers(-3, 3),
           lb=st.integers(-3, 3), tb=st.integers(-3, 3))
    def test_dimension_group_laws(self, la, ta, lb, tb):
        da = Dimension(la, ta, 0)
        db = Dimension(lb, tb, 0)
        assert da * db == db * da
        assert (da * db) / db == da
        assert da / da == DIMENSIONLESS
