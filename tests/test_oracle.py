import math

import numpy as np
import pytest

from cavityspectra import oracle
from cavityspectra.errors import ExtrapolationDivergence, TailTooLarge
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.oracle import (
    OracleConfig,
    _check_contraction,
    _extrapolate_to_zero,
    sigma_via_numeric_ft,
)
from cavityspectra.spectral import convergence_report, q_kernel, sigma_vacuum, sigma_yy, sigma_yy_diag
from cavityspectra.units import CavityGeometry, FieldPoint

G = CavityGeometry(1.0)
PI = math.pi
TWO_PI = 2.0 * math.pi
POLICY = TruncationPolicy(n_terms=1000)
QUICK = OracleConfig(s_max=60.0)


class TestConfig:
    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError):
            OracleConfig(eps_schedule=(0.05, 0.05))
        with pytest.raises(ValueError):
            OracleConfig(eps_schedule=(0.01, 0.02))
        with pytest.raises(ValueError):
            OracleConfig(eps_schedule=(0.05,))
        with pytest.raises(ValueError):
            OracleConfig(eps_schedule=(0.05, -0.01))

    def test_other_bounds(self):
        with pytest.raises(ValueError):
            OracleConfig(s_max=0.0)
        with pytest.raises(ValueError):
            OracleConfig(samples_per_cycle=4)


class TestExtrapolation:
    def test_polynomial_data_is_recovered_exactly(self):
        eps = [0.4, 0.2, 0.1]
        values = [3.0 + 2.0 * e + 5.0 * e * e for e in eps]
        assert _extrapolate_to_zero(eps, values) == pytest.approx(3.0, rel=1e-12)

    def test_exponential_damping_is_extrapolated_well(self):
        # the regulated transform behaves like value * exp(-omega * eps)
        omega, value = TWO_PI, 1.7
        eps = [0.05, 0.025, 0.0125]
        seq = [value * math.exp(-omega * e) for e in eps]
        out = _extrapolate_to_zero(eps, seq)
        assert out == pytest.approx(value, rel=1e-3)

    def test_contraction_guard(self):
        with pytest.raises(ExtrapolationDivergence):
            _check_contraction([1.0, 1.1, 1.4], scale=1.0)  # growing changes
        with pytest.raises(ExtrapolationDivergence):
            _check_contraction([1.0, 1.2, 1.1], scale=1.0)  # sign flip
        _check_contraction([1.0, 1.1, 1.15], scale=1.0)
        # noise-floor: tiny wiggles around zero are not divergence
        _check_contraction([1e-9, 3e-9, 1e-9], scale=1.0)


class TestNumericTransform:
    def test_free_space_calibration(self):
        got = sigma_via_numeric_ft(TWO_PI, FieldPoint(0.5, 0.3), G, QUICK, vacuum_only=True)
        ref = sigma_vacuum(TWO_PI, 0.3)
        assert got == pytest.approx(ref, rel=1e-2)

    def test_diagonal_agreement(self):
        omegas, x = [4.4, 7.6], 0.5
        got = sigma_via_numeric_ft(omegas, FieldPoint(x, 0.0), G, QUICK)
        for omega, value in zip(omegas, got):
            ref = sigma_yy_diag(omega, x, G, POLICY).value
            assert abs(value - ref) / max(abs(ref), sigma_vacuum(omega, 0.0)) <= 0.02

    def test_diagonal_agreement_at_a_jump_frequency(self):
        # both routes settle on the midpoint-like value of the truncated sum
        got = sigma_via_numeric_ft(TWO_PI, FieldPoint(0.25, 0.0), G)
        ref = sigma_yy_diag(TWO_PI, 0.25, G, POLICY).value
        assert got == pytest.approx(ref, rel=0.02)

    def test_sub_cutoff_transform_vanishes(self):
        # needs the full default window: the residual scales with the image
        # horizon the window can see
        got = sigma_via_numeric_ft(2.0, FieldPoint(0.5, 0.0), G)
        assert abs(got) < 0.05 * sigma_vacuum(2.0, 0.0)

    def test_window_horizon_guard(self):
        # at the discontinuity frequency the transverse correlations reach far
        # beyond any finite window: the oracle must refuse, not mislead
        with pytest.raises(TailTooLarge):
            sigma_via_numeric_ft(TWO_PI, FieldPoint(0.75, 45.0), G)

    def test_a_window_ending_before_the_offset_is_refused(self):
        # the window never reaches the light cone at s = |y| = 300: every
        # truncated integral is about 0, so the tail estimate alone would pass
        # a result of about 0 where the density is 1.5% of the vacuum scale
        point = FieldPoint(0.5, 300.0)
        assert abs(sigma_yy(10.6, point, G, POLICY).value) > 0.01 * sigma_vacuum(10.6, 0.0)
        with pytest.raises(TailTooLarge, match="omega = 7.6:"):
            sigma_via_numeric_ft([7.6, 10.6], point, G)

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.75])
    def test_the_image_lattice_agrees_with_the_pole_sum_cut_at_the_window_horizon(self, x, monkeypatch):
        # the image sum the oracle transformed before the closed form: images
        # with light cones beyond the window cut off, at the horizon count
        omegas = [4.4, 7.6, 10.6]
        point = FieldPoint(x, 0.0)
        lattice = sigma_via_numeric_ft(omegas, point, G, QUICK)
        horizon = int(math.ceil(QUICK.s_max / G.L)) + 2
        monkeypatch.setattr(oracle, "_correlation_complex",
                            lambda z2, point, geometry, vacuum_only: _term_by_term(z2, point.x, point.y, horizon))
        poles = sigma_via_numeric_ft(omegas, point, G, QUICK)
        for omega, a, b in zip(omegas, lattice, poles):
            assert abs(a - b) <= 1e-7 * sigma_vacuum(omega, 0.0)

    @pytest.mark.parametrize("y", [100.0, 150.0, 190.0])
    def test_the_window_ends_midway_between_poles_at_large_offsets(self, y):
        x, s_max = 0.25, 200.0
        end = oracle._window_end(s_max, FieldPoint(x, y), G, False)
        bases = [base for n in range(200) for base in (n * G.L, abs(2.0 * x - n * G.L), 2.0 * x + n * G.L)]
        distances = [math.hypot(base, y) for base in bases]
        below = max(d for d in distances if d < end)
        above = min(d for d in distances if d > end)
        assert abs(end - s_max) <= G.L
        assert end == pytest.approx(0.5 * (below + above), abs=1e-12)

    def test_frequency_validated(self):
        with pytest.raises(ValueError):
            sigma_via_numeric_ft(0.0, FieldPoint(0.5, 0.0), G, QUICK)
        for bad in ([4.4, 0.0], [4.4, math.nan], [4.4, math.inf], [[4.4, 7.6]]):
            with pytest.raises(ValueError):
                sigma_via_numeric_ft(bad, FieldPoint(0.5, 0.0), G, QUICK)


def _term_by_term(z2, x, y, n_images):
    """The image sum of the lattice the oracle transforms, one term per image, cut at n_images."""
    y2 = y * y

    def term(d2):
        return (d2 + z2 - 2.0 * y2) / (z2 - d2) ** 3

    total = term(y2) - term((2.0 * x) ** 2 + y2)
    for n in range(1, n_images + 1):
        for k in (n, -n):
            total = total + term((k * G.L) ** 2 + y2) - term((2.0 * x - k * G.L) ** 2 + y2)
    return total / PI**2


class TestBatchedTransform:
    # eps/6 = 0.033 and 2 pi/(32 omega) = 0.026 at omega = 7.6: the two
    # frequencies get different steps at the coarsest regulator, one step after
    # it, so the batch evaluates four correlation grids instead of six
    SPLIT = OracleConfig(eps_schedule=(0.2, 0.1, 0.05), s_max=60.0, samples_per_cycle=32)

    def test_batch_equals_single_frequency_calls(self, monkeypatch):
        point, omegas = FieldPoint(0.5, 0.0), [4.4, 7.6, 4.4]
        grids = []
        evaluate = oracle._correlation_complex

        def counting(z2, *args):
            grids.append(z2.size)
            return evaluate(z2, *args)

        monkeypatch.setattr(oracle, "_correlation_complex", counting)
        batch = sigma_via_numeric_ft(omegas, point, G, self.SPLIT)
        assert len(grids) == 4 and len(set(grids)) == 4
        singles = [sigma_via_numeric_ft(w, point, G, self.SPLIT) for w in omegas]
        assert isinstance(batch, np.ndarray) and batch.shape == (3,)
        assert all(type(v) is float for v in singles)
        assert batch.tolist() == singles

    def test_float_in_float_out_sequence_in_array_out(self):
        point = FieldPoint(0.5, 0.0)
        single = sigma_via_numeric_ft(4.4, point, G, QUICK)
        assert type(single) is float
        assert sigma_via_numeric_ft(np.float64(4.4), point, G, QUICK) == single
        assert sigma_via_numeric_ft((4.4,), point, G, QUICK).tolist() == [single]
        assert sigma_via_numeric_ft([], point, G, QUICK).shape == (0,)

    def test_a_failing_frequency_fails_the_batch_and_is_named(self):
        far = FieldPoint(0.75, 45.0)
        with pytest.raises(TailTooLarge, match=f"omega = {TWO_PI!r}:"):
            sigma_via_numeric_ft([7.6, TWO_PI], far, G)
        coarse = OracleConfig(eps_schedule=(0.2, 0.1, 0.05), s_max=60.0)
        with pytest.raises(ExtrapolationDivergence, match="omega = 10.6:"):
            sigma_via_numeric_ft([4.4, 7.6, 10.6], FieldPoint(0.5, 0.0), G, coarse)


class TestConvergenceReport:
    def test_plate_rows_are_exactly_zero(self):
        rows = convergence_report(TWO_PI, FieldPoint(0.0, 0.0), G, [10, 100, 1000])
        assert all(r.value == 0.0 for r in rows)

    def test_single_image_row(self):
        omega, x = TWO_PI, 0.25
        rows = convergence_report(omega, FieldPoint(x, 0.0), G, [0])
        expected = omega**3 / (4.0 * PI**2) * (2.0 / 3.0 - q_kernel(2.0 * omega * x))
        assert rows[0].value == pytest.approx(expected, rel=1e-15)

    def test_successive_differences_shrink(self):
        rows = convergence_report(TWO_PI, FieldPoint(0.25, 0.0), G, [100, 1000, 10_000])
        deltas = [abs(b.value - a.value) for a, b in zip(rows, rows[1:])]
        assert deltas[1] < deltas[0]
        assert [r.terms for r in rows] == [100, 1000, 10_000]

    def test_cutoff_list_validated(self):
        with pytest.raises(ValueError):
            convergence_report(TWO_PI, FieldPoint(0.25, 0.0), G, [])
        with pytest.raises(ValueError):
            convergence_report(TWO_PI, FieldPoint(0.25, 0.0), G, [100, 100])
