import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavityspectra.units import (
    CavityGeometry,
    FieldPoint,
    FrequencyGrid,
    build_grid,
    from_internal,
    near_discontinuity,
    to_internal,
    validate_point,
)

MICRON_GEOMETRY = CavityGeometry(a=1.0)  # a = 1 micrometre at the I/O boundary


class TestGeometry:
    def test_image_period_is_exactly_twice_the_separation(self):
        for a in (1.0, 0.37, 2.5e3):
            assert CavityGeometry(a).L == 2.0 * a

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_separation(self, bad):
        with pytest.raises(ValueError):
            CavityGeometry(bad)

    def test_field_point_requires_finite_coordinates(self):
        with pytest.raises(ValueError):
            FieldPoint(x=math.nan, y=0.0)
        with pytest.raises(ValueError):
            FieldPoint(x=0.5, y=math.inf)

    def test_validate_point_enforces_the_strip(self):
        geometry = CavityGeometry(1.0)
        validate_point(FieldPoint(0.0, 5.0), geometry)
        validate_point(FieldPoint(1.0, -5.0), geometry)
        with pytest.raises(ValueError):
            validate_point(FieldPoint(1.0001, 0.0), geometry)
        with pytest.raises(ValueError):
            validate_point(FieldPoint(-0.1, 0.0), geometry)


class TestConversions:
    def test_frequency_scaling_to_internal(self):
        # omega = 2 pi c/a must map to the dimensionless 2 pi
        c = 299_792_458.0
        omega = 2.0 * math.pi * c / 1e-6
        assert to_internal(omega, "frequency", MICRON_GEOMETRY) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_length_ratio(self):
        assert to_internal(0.75, "length", MICRON_GEOMETRY) == 0.75

    def test_frequency_with_rounded_light_speed(self):
        # omega = pi * 3e14 rad/s at a = 1 um is pi for c = 3e8 m/s
        assert to_internal(math.pi * 3e14, "frequency", MICRON_GEOMETRY) == pytest.approx(math.pi, rel=1e-2)

    def test_time_conversion_is_c_over_a(self):
        # one internal time unit is a/c seconds
        a_m = 1e-6
        c = 299_792_458.0
        assert to_internal(a_m / c, "time", MICRON_GEOMETRY) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("unit", ["length", "frequency", "time"])
    @given(value=st.floats(min_value=1e-12, max_value=1e18))
    def test_round_trip(self, unit, value):
        out = from_internal(to_internal(value, unit, MICRON_GEOMETRY), unit, MICRON_GEOMETRY)
        assert out == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("convert", [to_internal, from_internal])
    @pytest.mark.parametrize("unit", ["length", "frequency", "time"])
    def test_a_separation_below_the_normal_floats_in_metres_is_refused(self, convert, unit):
        # 1e-300 um is 1e-306 m, a normal float; 1e-303 um is 1e-309 m, subnormal
        assert math.isfinite(convert(1e-20, unit, CavityGeometry(1e-300)))
        for a in (1e-303, 1e-320):
            with pytest.raises(ValueError, match="smallest normal float"):
                convert(1.0, unit, CavityGeometry(a))

    def test_a_result_that_overflows_is_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            from_internal(6.28, "frequency", CavityGeometry(1e-300))
        with pytest.raises(ValueError, match="overflows"):
            to_internal(1e300, "time", CavityGeometry(1e-300))
        with pytest.raises(ValueError, match="overflows"):
            to_internal(1e300, "length", CavityGeometry(1e-300))

    def test_unknown_tag_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            to_internal(1.0, "mass", MICRON_GEOMETRY)
        with pytest.raises(ValueError):
            to_internal(math.nan, "length", MICRON_GEOMETRY)
        with pytest.raises(ValueError):
            from_internal(math.inf, "time", MICRON_GEOMETRY)


class TestBuildGrid:
    def test_points_displaced_off_multiples_of_pi(self):
        grid = build_grid(0.0, 4.0 * math.pi, 5, delta=0.01)
        assert len(grid) == 5
        for p in grid:
            k = round(p / math.pi)
            assert abs(p - k * math.pi) >= 0.01 * (1 - 1e-12)
        # the raw points were exactly {0, pi, 2pi, 3pi, 4pi}
        assert grid.points[0] == pytest.approx(0.01)
        assert grid.points[1] == pytest.approx(math.pi + 0.01)

    def test_grid_without_guarded_points_is_unchanged(self):
        grid = build_grid(1.0, 2.0, 3, delta=0.01)
        assert np.array_equal(grid.points, [1.0, 1.5, 2.0])

    def test_range_swallowed_by_guard_band(self):
        with pytest.raises(ValueError):
            build_grid(math.pi - 0.001, math.pi + 0.001, 2, delta=0.01)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 5, delta=1.0)

    @pytest.mark.parametrize("top", [math.inf, math.nan])
    def test_a_bound_that_is_not_finite_is_refused(self, top):
        with pytest.raises(ValueError, match="both finite"):
            build_grid(0.0, top, 3)

    def test_a_point_steps_off_a_multiple_where_the_floats_are_wider_than_the_band(self):
        # near 3e15 the floats are 0.5 apart: k pi + delta rounds back onto k pi, and a step
        # toward the displacement carries the point out of the band
        grid = build_grid(3e15, 3e15 + 100, 51)
        k = np.round(grid.points / math.pi)
        assert np.all(np.diff(grid.points) > 0)
        assert np.all(np.abs(grid.points - k * math.pi) >= 1e-3)

    def test_floats_too_coarse_for_the_band_are_refused(self):
        # near 1e16 the floats are 2 apart, closer together than the multiples of pi that
        # rounding finds: a point stepped off one lands on the next
        with pytest.raises(ValueError, match="too coarse to keep a point 0.001 away from a multiple of pi"):
            build_grid(1e16, 1e16 + 64, 3)

    @given(
        lo=st.floats(min_value=0.0, max_value=10.0),
        span=st.floats(min_value=0.5, max_value=30.0),
        count=st.integers(min_value=2, max_value=200),
    )
    @example(lo=6.6796875, span=29.671875, count=183)  # 11 pi + delta rounds into the band
    def test_grid_invariants_hold(self, lo, span, count):
        grid = build_grid(lo, lo + span, count, delta=1e-3)
        pts = grid.points
        assert np.all(np.diff(pts) > 0)
        k = np.round(pts / math.pi)
        assert np.all(np.abs(pts - k * math.pi) >= 1e-3 * (1 - 1e-12))

    def test_frequency_grid_validates(self):
        with pytest.raises(ValueError):
            FrequencyGrid(points=np.array([1.0, 1.0]), delta=1e-3)
        with pytest.raises(ValueError):
            FrequencyGrid(points=np.array([1.0, math.pi]), delta=1e-3)

    def test_near_discontinuity(self):
        assert near_discontinuity(2.0 * math.pi)
        assert near_discontinuity(math.pi + 5e-4)
        assert not near_discontinuity(math.pi + 0.1)
        # the modes of E_y start at n = 1: no threshold sits at 0
        for omega in (0.0, 1e-4, 5e-4, -1e-4):
            assert not near_discontinuity(omega)
