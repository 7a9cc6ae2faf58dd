import math

import numpy as np
import pytest

from cavityspectra.bhd import (
    ClassicalComponent,
    DetectorConfig,
    LOKernel,
    LOMode,
    check_balance,
    dispersion_omega,
    lo_mode_fields,
    mean_current,
    mode_field_components,
    smeared_density,
    variance_approx,
    variance_current,
)
import cavityspectra.bhd as bhd
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.spectral import _sigma_yy_values, sigma_vacuum, sigma_yy_diag
from cavityspectra.units import CavityGeometry, FieldPoint, from_internal

G = CavityGeometry(1.0)
PI = math.pi
TWO_PI = 2.0 * math.pi
README_KERNEL = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0)


def _scale(kernel):
    return kernel.squared_integral() * sigma_vacuum(kernel.omega_lo, 0.0)


def _adaptive_reference(pt1, pt2, kernel, policy):
    """Independent smearing: panel-doubling composite 16-point Gauss rule over
    the full image sum, on sub-intervals split at the density jumps k pi/a.

    Each sub-interval refines until successive levels agree within 1e-14 of
    the density scale.
    """
    pair = FieldPoint(pt1.x, pt2.y - pt1.y)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    tol = 1e-14 * _scale(kernel)

    def level(lo, hi, panels):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        om = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * nodes).ravel()
        k = kernel(om)
        values, _ = _sigma_yy_values(om, pair, G, policy)
        return float((half[:, None] * weights).ravel() @ (k * k * values))

    lo, hi = kernel.support()
    step = PI / G.a
    jumps = [m * step for m in range(math.ceil(lo / step), math.floor(hi / step) + 1) if lo < m * step < hi]
    edges = [lo, *jumps, hi]
    total = 0.0
    for seg_lo, seg_hi in zip(edges[:-1], edges[1:]):
        prev = level(seg_lo, seg_hi, 1)
        for refinement in range(1, 11):
            value = level(seg_lo, seg_hi, 2**refinement)
            if abs(value - prev) <= tol:
                break
            prev = value
        else:
            raise AssertionError("reference quadrature did not converge")
        total += value
    return total


class TestKernel:
    def test_profile_and_norm(self):
        k = LOKernel(omega_lo=10.0, width=0.5, amplitude=2.0)
        assert float(k(10.0)) == 2.0
        assert float(k(10.5)) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)
        # closed-form integral of k^2 against a dense quadrature
        om = np.linspace(4.0, 16.0, 200_001)
        numeric = np.trapezoid(k(om) ** 2, om)
        assert k.squared_integral() == pytest.approx(numeric, rel=1e-12)

    def test_concentration_enforced(self):
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=1.5)
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=0.0)
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=0.5, amplitude=-1.0)
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=0.5, polarization=(0.0, 2.0, 0.0))


class TestMode:
    def test_cutoff_frequency(self):
        assert dispersion_omega(1, 0.0, 0.0, G) == pytest.approx(PI, rel=1e-15)

    def test_mixed_wavenumbers(self):
        assert dispersion_omega(1, 0.0, PI, G) == pytest.approx(math.sqrt(2.0) * PI, rel=1e-15)

    def test_si_cutoff_frequency(self):
        omega = dispersion_omega(1, 0.0, 0.0, G)
        si = from_internal(omega, "frequency", CavityGeometry(1.0))  # a = 1 um
        assert si == pytest.approx(9.42e14, rel=1e-3)

    def test_mode_invariants(self):
        mode = LOMode.from_wavenumbers(G, n=1, p=0.1, k=2.0)
        assert mode.dispersion_residual(G) <= 1e-12
        with pytest.raises(ValueError):
            LOMode(omega=1.0, n=0, p=0.0, k=0.0)
        with pytest.raises(ValueError):
            LOMode(omega=1.0, n=1, p=-0.1, k=0.0)

    def test_inconsistent_mode_rejected_by_operations(self):
        bad = LOMode(omega=7.0, n=1, p=0.0, k=0.0)
        with pytest.raises(ValueError):
            lo_mode_fields(bad, 0.0, 0.5, 0.0, 0.0, G)


class TestModeFields:
    def test_boundary_condition(self):
        mode = LOMode.from_wavenumbers(G, p=0.05, k=1.0)
        _, f_y = lo_mode_fields(mode, 0.3, 0.0, 2.0, 0.1, G)
        assert f_y == 0.0

    def test_midplane_peak(self):
        mode = LOMode.from_wavenumbers(G, p=0.05, k=1.0)
        f_x, f_y = lo_mode_fields(mode, 0.0, 0.5, 0.0, 0.0, G)
        assert f_y == pytest.approx(mode.omega * PI, rel=1e-15)
        assert f_x == 0.0

    def test_zero_transverse_wavenumber_kills_fx(self):
        mode = LOMode.from_wavenumbers(G, p=0.0, k=2.0)
        for x, y in [(0.2, 1.0), (0.7, -3.0)]:
            f_x, _ = lo_mode_fields(mode, 0.1, x, y, 0.4, G)
            assert f_x == 0.0


class TestBalance:
    def _mode(self, p):
        k = math.sqrt(TWO_PI**2 - PI**2 - p * p)
        return LOMode(omega=TWO_PI, n=1, p=p, k=k)

    def test_half_period_spacing_balances(self):
        p = PI / 50.0
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        assert check_balance(config, self._mode(p), G) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_diodes(self):
        p = PI / 50.0
        config = DetectorConfig(FieldPoint(0.75, 5.0), FieldPoint(0.75, 5.0))
        assert check_balance(config, self._mode(p), G) == pytest.approx(2.0, rel=1e-12)

    def test_small_wavenumber_limit(self):
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 7.0))
        res = check_balance(config, self._mode(1e-6), G)
        assert res == pytest.approx(2.0, abs=1e-6)


class TestSmearedDensity:
    def test_zero_amplitude(self):
        kernel = LOKernel(omega_lo=5.0, width=0.2, amplitude=0.0)
        pt = FieldPoint(0.5, 0.0)
        assert smeared_density(pt, pt, kernel, G, TruncationPolicy(n_terms=100)) == 0.0

    def test_narrow_band_limit(self):
        policy = TruncationPolicy(n_terms=1000)
        for omega_lo in (5.0, 11.0):
            kernel = LOKernel(omega_lo=omega_lo, width=omega_lo / 100.0)
            pt = FieldPoint(0.6, 0.0)
            r = smeared_density(pt, pt, kernel, G, policy)
            sigma = sigma_yy_diag(omega_lo, 0.6, G, policy).value
            assert r / kernel.squared_integral() == pytest.approx(sigma, rel=1e-2)

    def test_narrow_band_error_is_first_order_in_width_squared(self):
        policy = TruncationPolicy(n_terms=1000)
        pt = FieldPoint(0.6, 0.0)
        sigma = sigma_yy_diag(5.0, 0.6, G, policy).value
        devs = []
        for frac in (100.0, 50.0):
            kernel = LOKernel(omega_lo=5.0, width=5.0 / frac)
            r = smeared_density(pt, pt, kernel, G, policy)
            devs.append(abs(r / kernel.squared_integral() - sigma))
        assert 2.5 < devs[1] / devs[0] < 6.0

    def test_symmetry_in_the_two_points(self):
        policy = TruncationPolicy(n_terms=300)
        kernel = LOKernel(omega_lo=7.0, width=0.3)
        p1, p2 = FieldPoint(0.4, 1.0), FieldPoint(0.4, 3.5)
        assert smeared_density(p1, p2, kernel, G, policy) == smeared_density(p2, p1, kernel, G, policy)

    def test_sub_cutoff_smearing_vanishes(self):
        kernel = LOKernel(omega_lo=2.0, width=0.1)
        pt = FieldPoint(0.5, 0.0)
        r = smeared_density(pt, pt, kernel, G, TruncationPolicy(n_terms=1000))
        # same-kernel smearing of the free-space density
        nodes, weights = np.polynomial.legendre.leggauss(200)
        lo, hi = kernel.support()
        om = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        r_vacuum = float(np.sum(0.5 * (hi - lo) * weights * kernel(om) ** 2 * sigma_vacuum(om, 0.0)))
        assert abs(r) < 0.05 * r_vacuum

    def test_preconditions(self):
        policy = TruncationPolicy(n_terms=50)
        pt = FieldPoint(0.5, 0.0)
        with pytest.raises(ValueError):  # too wide: the window would reach below zero frequency
            smeared_density(pt, pt, LOKernel(omega_lo=1.0, width=0.1999999999), G, policy)
        with pytest.raises(ValueError):  # unequal plate distances unsupported
            smeared_density(FieldPoint(0.4, 0.0), FieldPoint(0.5, 0.0),
                            LOKernel(omega_lo=5.0, width=0.2), G, policy)
        with pytest.raises(ValueError):  # density is the yy component only
            smeared_density(pt, pt, LOKernel(omega_lo=5.0, width=0.2, polarization=(1.0, 0.0, 0.0)),
                            G, policy)

    @pytest.mark.parametrize("y", [0.0, 1.0, 50.0])
    def test_agrees_with_the_adaptive_reference(self, y):
        policy = TruncationPolicy(n_terms=200)
        p1, p2 = FieldPoint(0.75, 0.0), FieldPoint(0.75, y)
        r = smeared_density(p1, p2, README_KERNEL, G, policy)
        ref = _adaptive_reference(p1, p2, README_KERNEL, policy)
        assert abs(r - ref) <= 1e-12 * _scale(README_KERNEL)

    def test_images_are_selected_by_distance(self):
        # every image is at least 500 away, where the smearing leaves nothing
        r = smeared_density(FieldPoint(0.75, 0.0), FieldPoint(0.75, 500.0), README_KERNEL, G,
                            TruncationPolicy(n_terms=1000))
        assert abs(r) <= 1e-14 * _scale(README_KERNEL)

    def test_image_cutoff_is_honoured(self):
        # the distance cut alone keeps indices up to |n| ~ 200 for this LO
        kernel = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 200.0)
        p1, p2 = FieldPoint(0.75, 0.0), FieldPoint(0.75, 0.5)
        policy = TruncationPolicy(n_terms=50)
        r = smeared_density(p1, p2, kernel, G, policy)
        assert abs(r - _adaptive_reference(p1, p2, kernel, policy)) <= 1e-12 * _scale(kernel)
        uncut = smeared_density(p1, p2, kernel, G, TruncationPolicy(n_terms=1000))
        assert abs(uncut - r) > 1e-6 * _scale(kernel)

    @pytest.mark.parametrize("accelerate", [False, True])
    @pytest.mark.parametrize("y", [0.0, 1.3])
    def test_vanishes_exactly_on_the_plate(self, y, accelerate):
        pt1, pt2 = FieldPoint(0.0, 0.0), FieldPoint(0.0, y)
        policy = TruncationPolicy(n_terms=100, accelerate=accelerate)
        assert smeared_density(pt1, pt2, README_KERNEL, G, policy) == 0.0


class TestCurrents:
    def _setup(self, amplitude=1.0):
        kernel = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0, amplitude=amplitude)
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0), calibration=1.3)
        return kernel, config

    def test_ground_state_mean_vanishes(self):
        kernel, config = self._setup()
        assert mean_current(config, kernel) == 0.0

    def test_lo_own_field_is_balanced_away(self):
        kernel, config = self._setup()
        p = PI / 50.0
        mode = LOMode(omega=TWO_PI, n=1, p=p, k=math.sqrt(TWO_PI**2 - PI**2 - p * p))
        components = mode_field_components(mode, config, G)
        scale = config.calibration * float(kernel(mode.omega)) * abs(components[0].amplitude1)
        assert abs(mean_current(config, kernel, components)) <= 1e-12 * scale

    def test_single_component_filtering(self):
        kernel, config = self._setup()
        comp = ClassicalComponent(frequency=TWO_PI, amplitude1=0.7, amplitude2=0.7, phase=0.0)
        expected = config.calibration * float(kernel(TWO_PI)) * 1.4
        assert mean_current(config, kernel, [comp]) == pytest.approx(expected, rel=1e-15)

    def test_phase_and_t0_enter_through_the_cosine(self):
        kernel = LOKernel(omega_lo=5.0, width=0.25, t0=0.3)
        config = DetectorConfig(FieldPoint(0.5, 0.0), FieldPoint(0.5, 2.0), calibration=2.0)
        comp = ClassicalComponent(frequency=5.0, amplitude1=1.0, amplitude2=0.0, phase=0.4)
        expected = 2.0 * float(kernel(5.0)) * math.cos(5.0 * 0.3 + 0.4)
        assert mean_current(config, kernel, [comp]) == pytest.approx(expected, rel=1e-15)

    def test_variance_scales_exactly_with_amplitude_squared(self):
        policy = TruncationPolicy(n_terms=300)
        kernel1, config = self._setup(amplitude=1.0)
        kernel2, _ = self._setup(amplitude=2.0)
        v1 = variance_current(config, kernel1, G, policy)
        v2 = variance_current(config, kernel2, G, policy)
        assert v2 / v1 == pytest.approx(4.0, rel=1e-12)

    def test_far_separation_approximation(self):
        policy = TruncationPolicy(n_terms=300)
        kernel, config = self._setup()
        v4 = variance_current(config, kernel, G, policy)
        va = variance_approx(config.diode1, kernel, config, G, policy)
        assert v4 == pytest.approx(va, rel=0.1)
        assert v4 > 0.0

    def test_variance_scales_with_the_calibration_squared(self):
        # the calibration-to-zero limit sends the variance to zero quadratically
        policy = TruncationPolicy(n_terms=60)
        kernel = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0)
        diodes = (FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        small = variance_current(DetectorConfig(*diodes, calibration=1e-6), kernel, G, policy)
        big = variance_current(DetectorConfig(*diodes, calibration=1.0), kernel, G, policy)
        assert small == pytest.approx(1e-12 * big, rel=1e-12)

    def test_unequal_plate_distances_rejected_before_smearing(self, monkeypatch):
        def no_smearing(*args, **kwargs):
            raise AssertionError("smeared before validating the diodes")

        monkeypatch.setattr(bhd, "smeared_density", no_smearing)
        kernel, _ = self._setup()
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.5, 50.0))
        with pytest.raises(ValueError):
            variance_current(config, kernel, G, TruncationPolicy(n_terms=60))
