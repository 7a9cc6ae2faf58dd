import math
import random
import re
import warnings

import numpy as np
import pytest

from cavityspectra.bhd import (
    ClassicalComponent,
    DetectorConfig,
    LOKernel,
    LOMode,
    check_balance,
    mean_current,
    mode_field_components,
    smeared_density,
    variance_current,
)
import cavityspectra.bhd as bhd
import cavityspectra.spectral as sp
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.cli import main
from cavityspectra.spectral import _sigma_yy_values, sigma_vacuum, sigma_yy_diag, smeared_modes_diag
from cavityspectra.units import CavityGeometry, FieldPoint, from_internal

G = CavityGeometry(1.0)
PI = math.pi
TWO_PI = 2.0 * math.pi
README_KERNEL = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0)
_TWO_THIRDS = 2.0 / 3.0


def _scale(kernel):
    return kernel.squared_integral() * sigma_vacuum(kernel.omega_lo, 0.0)


def _sized(kernel):
    """The image-sum policy a smear with this kernel runs: the N its tail bound sizes."""
    return TruncationPolicy(n_terms=sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0).image_terms(G.L))


def _smear(lo, x, y, n):
    """The image smear of lo between (x, 0) and (x, y), summed to |n| = n."""
    return float(sp._image_sum(lo, x, np.array([y * y]), n, G.L)[0][0])


class _CountedBound:
    """A _SmearedLO whose tail_bound counts its calls."""

    def __init__(self, lo):
        self.lo, self.calls = lo, 0
        self.omega_lo, self.width = lo.omega_lo, lo.width

    def tail_bound(self, n, L):
        self.calls += 1
        return self.lo.tail_bound(n, L)


def _former_image_terms(lo, L):
    """_SmearedLO.image_terms as it searched from N = 1: doubling, then bisection (a frozen copy)."""
    tol = sp._ROUNDING * sp._TWO_THIRDS * lo.omega_lo ** 3
    low, hi = 0, 1
    while lo.tail_bound(hi, L) > tol:
        if hi >= sp.MAX_IMAGE_TERMS:
            raise ValueError(f"the LO is too narrow: its smear would sum more than {sp.MAX_IMAGE_TERMS} "
                             "image pairs (about 6/(width a))")
        low, hi = hi, 2 * hi
    while hi - low > 1:
        mid = (low + hi) // 2
        low, hi = (mid, hi) if lo.tail_bound(mid, L) > tol else (low, mid)
    return hi


def _halving_image_terms(lo, L):
    """_SmearedLO.image_terms as it halved down from an estimate that held before it bisected (a frozen copy)."""
    tol = sp._ROUNDING * sp._TWO_THIRDS * lo.omega_lo ** 3
    low, hi = 0, max(1, math.ceil(12.0 / max(lo.width * L, 12.0 / sp.MAX_IMAGE_TERMS)))
    while lo.tail_bound(hi, L) > tol:
        if hi >= sp.MAX_IMAGE_TERMS:
            raise ValueError(f"the LO is too narrow: its smear would sum more than {sp.MAX_IMAGE_TERMS} "
                             "image pairs (about 6/(width a))")
        low, hi = hi, min(2 * hi, sp.MAX_IMAGE_TERMS)
    if low == 0:
        low = hi // 2
        while low > 0 and lo.tail_bound(low, L) <= tol:
            low, hi = low // 2, low
    while hi - low > 1:
        mid = (low + hi) // 2
        low, hi = (mid, hi) if lo.tail_bound(mid, L) > tol else (low, mid)
    return hi


def _search_kernels(seed, count):
    """README, near-pair and narrow LOs, then a seeded sweep of widths omega_lo/10.5 to /5000."""
    rng = random.Random(seed)
    kernels = [README_KERNEL, LOKernel(6.0, 0.03), LOKernel(6.3, 5e-4)]
    for _ in range(count):
        omega_lo = rng.uniform(0.5, 40.0)
        kernels.append(LOKernel(omega_lo, omega_lo / math.exp(rng.uniform(math.log(10.5), math.log(5000.0)))))
    return kernels


def _window(kernel):
    """LO frequency +- 6 widths, beyond which k^2 is below exp(-36) of its peak."""
    return kernel.omega_lo - 6.0 * kernel.width, kernel.omega_lo + 6.0 * kernel.width


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
        values, _ = _sigma_yy_values(om, [pair], G, policy)
        return float((half[:, None] * weights).ravel() @ (k * k * values[0]))

    lo, hi = _window(kernel)
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

    def test_far_from_the_lo_the_profile_is_exactly_zero_without_a_warning(self):
        # there (omega - omega_lo)/width squares to inf, which warned of an overflow in multiply
        k = LOKernel(6.0, 0.3)
        got = k(np.array([6.0, 6.9, 1e300, -1e300]))
        d = (np.array([6.0, 6.9]) - 6.0) / 0.3
        assert got[:2].tobytes() == np.exp(-0.5 * d * d).tobytes() and got[2:].tolist() == [0.0, 0.0]
        config = DetectorConfig(FieldPoint(0.5, 0.0), FieldPoint(0.5, 2.0))
        assert mean_current(config, k, [ClassicalComponent(frequency=1e300, amplitude1=1.0, amplitude2=0.0)]) == 0.0

    def test_concentration_enforced(self):
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=1.5)
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=0.0)
        with pytest.raises(ValueError):
            LOKernel(omega_lo=10.0, width=0.5, amplitude=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                LOKernel(omega_lo=10.0, width=0.5, amplitude=bad)

    def test_an_lo_whose_smear_moments_overflow_is_refused(self):
        # the moments reach about omega_lo^21, beyond the float range above omega_lo ~ 1e14
        point = FieldPoint(0.5, 0.0)
        assert math.isfinite(smeared_density(point, point, LOKernel(omega_lo=1e14, width=5e12), G))
        for omega_lo in (1e15, 1e300):
            with pytest.raises(ValueError, match="Gaussian moments of its smear overflow"):
                smeared_density(point, point, LOKernel(omega_lo=omega_lo, width=omega_lo / 20.0), G)


class TestMode:
    def test_cutoff_frequency(self):
        assert LOMode(omega=PI, n=1).dispersion_residual(G) <= 1e-15

    def test_mixed_wavenumbers(self):
        assert LOMode(omega=math.sqrt(2.0) * PI, n=1, k=PI).dispersion_residual(G) <= 1e-15

    def test_si_cutoff_frequency(self):
        si = from_internal(PI, "frequency", CavityGeometry(1.0))  # a = 1 um
        assert si == pytest.approx(9.42e14, rel=1e-3)

    def test_mode_invariants(self):
        mode = LOMode(omega=math.sqrt(PI**2 + 0.1**2 + 2.0**2), n=1, p=0.1, k=2.0)
        assert mode.dispersion_residual(G) <= 1e-12
        with pytest.raises(ValueError):
            LOMode(omega=1.0, n=0, p=0.0, k=0.0)
        with pytest.raises(ValueError):
            LOMode(omega=1.0, n=1, p=-0.1, k=0.0)
        for bad in (0.0, -1.0, math.inf, math.nan):  # the CLI's LO kernel refuses these before the mode
            with pytest.raises(ValueError, match=re.escape(f"mode frequency must be positive and finite, got {bad!r}")):
                LOMode(omega=bad)

    def test_inconsistent_mode_rejected_by_operations(self):
        bad = LOMode(omega=7.0, n=1, p=0.0, k=0.0)
        config = DetectorConfig(FieldPoint(0.5, 0.0), FieldPoint(0.5, 1.0))
        with pytest.raises(ValueError):
            check_balance(config, bad, G)
        with pytest.raises(ValueError):
            mode_field_components(bad, config, G)


class TestModeAmplitudes:
    # the time-peak F_y = omega q_n sin(q_n x) cos(p y) of the TE mode at each diode
    MODE = LOMode(omega=math.sqrt(PI**2 + 0.05**2 + 1.0), p=0.05, k=1.0)

    def test_boundary_condition(self):
        config = DetectorConfig(FieldPoint(0.0, 2.0), FieldPoint(0.0, 0.0))
        (component,) = mode_field_components(self.MODE, config, G)
        assert component.amplitude1 == 0.0 and component.amplitude2 == 0.0

    def test_midplane_peak(self):
        config = DetectorConfig(FieldPoint(0.5, 0.0), FieldPoint(0.5, 0.0))
        (component,) = mode_field_components(self.MODE, config, G)
        assert component.amplitude1 == pytest.approx(self.MODE.omega * PI, rel=1e-15)


class TestBalance:
    def _mode(self, p):
        k = math.sqrt(TWO_PI**2 - PI**2 - p * p)
        return LOMode(omega=TWO_PI, n=1, p=p, k=k)

    def test_half_period_spacing_balances(self):
        p = PI / 50.0
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        assert check_balance(config, self._mode(p), G) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_diodes(self):
        # the residual is normalized by the mode's peak over y, so coincident diodes read 2|cos(p y)|
        p = PI / 50.0
        for y in (0.0, 5.0):
            config = DetectorConfig(FieldPoint(0.75, y), FieldPoint(0.75, y))
            assert check_balance(config, self._mode(p), G) == pytest.approx(2.0 * abs(math.cos(p * y)), rel=1e-12)

    def test_diodes_on_a_node_of_the_lo_read_rounding(self, capsys):
        # cos(p y1) = -5.9e-8: divided by the two small amplitudes, rounding read 2.06e-9
        node = ["--omega-lo", "8.08497233548157", "--x1", "0.13372113297665736", "--y1", "0.7105145437022196",
                "--x2", "0.13372113297665736", "--y2", "-0.7105144899443956"]
        assert main(["bhd", *node]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[5]) <= 1e-15

    @pytest.mark.parametrize("omega, x, y1, y2", [
        (8.08497233548157, 0.13372113297665736, 0.7105145437022196, -0.7105144899443956),  # on a node
        (TWO_PI, 0.75, 0.0, 50.0),
    ])
    def test_a_wave_number_one_percent_off_half_period_is_far_from_balanced(self, omega, x, y1, y2):
        p = 1.01 * PI / abs(y2 - y1)
        mode = LOMode(omega=omega, n=1, p=p, k=math.sqrt(omega * omega - PI * PI - p * p))
        config = DetectorConfig(FieldPoint(x, y1), FieldPoint(x, y2))
        assert check_balance(config, mode, G) > 1e-4

    def test_small_wavenumber_limit(self):
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 7.0))
        res = check_balance(config, self._mode(1e-6), G)
        assert res == pytest.approx(2.0, abs=1e-6)


class TestSmearedDensity:
    def test_zero_amplitude(self):
        kernel = LOKernel(omega_lo=5.0, width=0.2, amplitude=0.0)
        pt = FieldPoint(0.5, 0.0)
        assert smeared_density(pt, pt, kernel, G) == 0.0

    def test_narrow_band_limit(self):
        policy = TruncationPolicy(n_terms=1000)
        for omega_lo in (5.0, 11.0):
            kernel = LOKernel(omega_lo=omega_lo, width=omega_lo / 100.0)
            pt = FieldPoint(0.6, 0.0)
            r = smeared_density(pt, pt, kernel, G)
            sigma = sigma_yy_diag(omega_lo, 0.6, G, policy).value
            assert r / kernel.squared_integral() == pytest.approx(sigma, rel=1e-2)

    def test_narrow_band_error_is_first_order_in_width_squared(self):
        policy = TruncationPolicy(n_terms=1000)
        pt = FieldPoint(0.6, 0.0)
        sigma = sigma_yy_diag(5.0, 0.6, G, policy).value
        devs = []
        for frac in (100.0, 50.0):
            kernel = LOKernel(omega_lo=5.0, width=5.0 / frac)
            r = smeared_density(pt, pt, kernel, G)
            devs.append(abs(r / kernel.squared_integral() - sigma))
        assert 2.5 < devs[1] / devs[0] < 6.0

    def test_symmetry_in_the_two_points(self):
        kernel = LOKernel(omega_lo=7.0, width=0.3)
        p1, p2 = FieldPoint(0.4, 1.0), FieldPoint(0.4, 3.5)
        assert smeared_density(p1, p2, kernel, G) == smeared_density(p2, p1, kernel, G)

    def test_sub_cutoff_smearing_vanishes(self):
        kernel = LOKernel(omega_lo=2.0, width=0.1)
        pt = FieldPoint(0.5, 0.0)
        r = smeared_density(pt, pt, kernel, G)
        # same-kernel smearing of the free-space density
        nodes, weights = np.polynomial.legendre.leggauss(200)
        lo, hi = _window(kernel)
        om = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        r_vacuum = float(np.sum(0.5 * (hi - lo) * weights * kernel(om) ** 2 * sigma_vacuum(om, 0.0)))
        assert abs(r) < 0.05 * r_vacuum

    def test_preconditions(self):
        pt = FieldPoint(0.5, 0.0)
        with pytest.raises(ValueError):  # too wide: the window would reach below zero frequency
            smeared_density(pt, pt, LOKernel(omega_lo=1.0, width=0.1999999999), G)
        with pytest.raises(ValueError):  # unequal plate distances unsupported
            smeared_density(FieldPoint(0.4, 0.0), FieldPoint(0.5, 0.0), LOKernel(omega_lo=5.0, width=0.2), G)
        with pytest.raises(ValueError):  # the LO width sizes the image sum: no policy
            smeared_density(pt, pt, README_KERNEL, G, TruncationPolicy(n_terms=50))
        with pytest.raises(ValueError):  # the smear is in closed form: no quadrature
            smeared_density(pt, pt, README_KERNEL, G, quadrature=16)

    @pytest.mark.parametrize("width", [5e-6, 1e-300])
    def test_an_lo_whose_smear_needs_too_many_images_is_refused(self, width):
        # 5e-6 needs about 1.1e6 image pairs; at 1e-300 the squared width underflows to 0
        pt = FieldPoint(0.4, 0.0)
        with pytest.raises(ValueError, match="too narrow"):
            smeared_density(pt, pt, LOKernel(omega_lo=6.3, width=width), G)

    def test_diodes_beyond_the_reach_of_an_lo_too_narrow_for_the_cap_need_no_image_count(self, monkeypatch, capsys):
        # width 1e-6 would sum about 5.5e6 image pairs, but every image of diodes farther apart
        # than the reach (about 5.5e7) is 0, so their cross term is 0.0 before any image count
        kernel = LOKernel(omega_lo=6.0, width=1e-6)
        above = math.nextafter(sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0).reach, math.inf)
        monkeypatch.setattr(sp._SmearedLO, "image_terms", lambda *args: pytest.fail("sized N beyond the reach"))
        for y in (above, -above):
            assert repr(smeared_density(FieldPoint(0.5, 0.0), FieldPoint(0.5, y), kernel, G)) == "0.0"
        argv = ["--omega-lo", "6", "--width", "1e-6", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "1e9"]
        assert main(["bhd", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3:5] == ["1.2939576502275608e-05"] * 2

    @pytest.mark.parametrize("kernel, x, y", [
        *(pytest.param(README_KERNEL, 0.75, y, id=repr(y)) for y in (0.0, 1.0, 50.0)),
        *(pytest.param(LOKernel(TWO_PI, TWO_PI / 100.0), 0.3, y, id=f"narrow-{y!r}") for y in (0.0, 0.5, 2.0)),
        # the widest kernel at a high LO sums two image pairs
        pytest.param(LOKernel(omega_lo=40.0, width=4.0), 0.75, 1.7, id="widest"),
        pytest.param(LOKernel(omega_lo=40.0, width=4.0), 0.99, 1.7, id="widest-0.99"),
        *(pytest.param(LOKernel(omega_lo=40.0, width=2.0), 0.75, y, id=f"wide-{y!r}") for y in (0.0, 0.4, 3.0)),
    ])
    def test_agrees_with_the_adaptive_reference(self, kernel, x, y):
        p1, p2 = FieldPoint(x, 0.0), FieldPoint(x, y)
        r = smeared_density(p1, p2, kernel, G)
        ref = _adaptive_reference(p1, p2, kernel, _sized(kernel))
        assert abs(r - ref) <= 1e-12 * _scale(kernel)

    def test_images_are_selected_by_distance(self):
        # every image is at least 500 away, where the smearing leaves nothing
        r = smeared_density(FieldPoint(0.75, 0.0), FieldPoint(0.75, 500.0), README_KERNEL, G)
        assert r == 0.0

    @pytest.mark.parametrize("omega_lo", [150.0, 300.0])
    def test_wide_kernels_far_above_the_cutoff_agree_with_the_reference(self, omega_lo):
        # one image pair is summed; its terms turn through thousands of radians
        # over the LO window
        kernel = LOKernel(omega_lo=omega_lo, width=omega_lo / 10.0)
        p1, p2 = FieldPoint(0.97, 0.0), FieldPoint(0.97, 0.01)
        r = smeared_density(p1, p2, kernel, G)
        assert abs(r - _adaptive_reference(p1, p2, kernel, _sized(kernel))) <= 1e-12 * _scale(kernel)

    @pytest.mark.parametrize("y", [0.0, 0.7])
    def test_default_smear_reaches_the_converged_narrow_lo_value(self, y):
        # this LO reaches images up to |n| ~ 11 000: a fixed N = 1000 was 0.25% off
        # the detector variance; the sized N agrees with N = 40 000 to rounding
        kernel = LOKernel(omega_lo=6.3, width=5e-4)
        pair = [FieldPoint(0.4, y)]
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, kernel.squared_integral())
        r = smeared_density(FieldPoint(0.4, 0.0), pair[0], kernel, G)
        converged = _smear(lo, 0.4, y, 40_000)
        truncated = _smear(lo, 0.4, y, 1000)
        assert abs(r - converged) <= 2.0**-52 * _scale(kernel)
        assert abs(truncated - converged) > 1e-3 * abs(converged)

    def test_narrow_lo_variance_is_the_converged_value(self):
        # the README's narrow-LO bhd example; N = 12 000, 20 000 and 40 000 agree to rounding
        config = DetectorConfig(FieldPoint(0.4, 0.0), FieldPoint(0.4, 0.7))
        variance, _ = variance_current(config, LOKernel(omega_lo=6.3, width=5e-4), G)
        assert variance == pytest.approx(0.01293250156115, rel=1e-9)

    @pytest.mark.parametrize("kernel, x, y", [
        *(pytest.param(README_KERNEL, 0.75, y, id=f"readme-{y!r}") for y in (0.0, 1.0, 50.0)),
        pytest.param(LOKernel(6.3, 5e-4), 0.4, 0.0, id="narrow-0.0"),
        pytest.param(LOKernel(6.3, 5e-4), 0.4, 0.7, id="narrow-0.7"),
        pytest.param(LOKernel(TWO_PI, TWO_PI / 200.0), 0.02, 2.0, id="near-plate"),
        pytest.param(LOKernel(20.0, 0.2), 1.0, 0.3, id="far-plate"),
        pytest.param(LOKernel(1.0, 0.1), 0.5, 0.3, id="sub-cutoff"),
        pytest.param(LOKernel(40.0, 4.0), 0.99, 1.7, id="widest"),
        pytest.param(LOKernel(150.0, 15.0), 0.97, 0.01, id="widest-high"),
    ])
    def test_sized_sum_agrees_with_four_times_as_many_images_to_rounding(self, kernel, x, y):
        # the tail beyond the sized N is bounded below rounding of the scale
        n = _sized(kernel).n_terms
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, kernel.squared_integral())
        assert lo.tail_bound(n, G.L) <= 2.0**-53 * _TWO_THIRDS * kernel.omega_lo**3
        sized, longer = (_smear(lo, x, y, m) for m in (n, 4 * n))
        assert abs(sized - longer) <= 2.0**-52 * _scale(kernel)

    @pytest.mark.parametrize("kernel", [README_KERNEL, LOKernel(1.0, 0.1), LOKernel(20.0, 0.2),
                                        LOKernel(TWO_PI, TWO_PI / 200.0)],
                             ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    def test_the_tail_bound_is_a_bound_and_the_sized_n_the_smallest(self, kernel):
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, 4.0 * PI**2)  # unit prefactor
        n = lo.image_terms(G.L)
        tol = 2.0**-53 * _TWO_THIRDS * kernel.omega_lo**3
        assert lo.tail_bound(n - 1, G.L) > tol >= lo.tail_bound(n, G.L)
        # where the tail is far above rounding, the summed terms beyond m stay within it
        for x, y in [(0.0, 0.0), (0.02, 0.3), (0.5, 0.0), (0.97, 2.0), (1.0, 0.3)]:
            converged = _smear(lo, x, y, 4 * n)
            for m in range(max(1, n // 8), n, max(1, n // 8)):
                head = _smear(lo, x, y, m)
                assert abs(head - converged) <= lo.tail_bound(m, G.L)

    @pytest.mark.parametrize("L", [G.L, 0.6, 5.0])
    def test_the_search_from_the_estimate_sizes_the_n_of_the_search_from_one(self, L):
        calls = np.zeros(2, dtype=int)
        for kernel in _search_kernels(2808, 200):
            lo = sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0)
            now, former = _CountedBound(lo), _CountedBound(lo)
            assert sp._SmearedLO.image_terms(now, L) == _former_image_terms(former, L), kernel
            calls += (now.calls, former.calls)
        assert calls[0] <= 0.7 * calls[1], calls  # the estimate saves tail-bound calls

    @pytest.mark.parametrize("L", [G.L, 0.6, 5.0])
    def test_the_bisection_makes_the_tail_bound_calls_of_the_halving_search(self, L):
        # from an estimate that held, the bisection's midpoints are the halvings of the estimate
        for kernel in _search_kernels(3706, 1000):
            lo = sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0)
            now, former = _CountedBound(lo), _CountedBound(lo)
            assert sp._SmearedLO.image_terms(now, L) == _halving_image_terms(former, L), kernel
            assert now.calls == former.calls, kernel

    @pytest.mark.parametrize("width", [5e-6, 1e-300, 5e-324])
    def test_an_lo_beyond_the_image_cap_is_refused_as_before(self, width):
        lo = sp._SmearedLO(6.3, width, 1.0)
        with pytest.raises(ValueError, match="too narrow") as now:
            lo.image_terms(G.L)
        with pytest.raises(ValueError) as former:
            _former_image_terms(lo, G.L)
        assert str(now.value) == str(former.value)

    @pytest.mark.parametrize("y", [0.0, 0.7])
    def test_smeared_kernels_see_each_image_once_within_the_block_budget(self, y, monkeypatch):
        # about 11 000 image pairs, all summed: each image distance reaches the
        # smeared kernels once, with no frequency-node axis
        sizes = []

        def recording(lo, d, count=2, kernels=sp._SmearedLO.kernels):
            sizes.append(np.size(d))
            return kernels(lo, d, count)

        monkeypatch.setattr(sp._SmearedLO, "kernels", recording)
        kernel = LOKernel(omega_lo=6.3, width=5e-4)
        n = _sized(kernel).n_terms
        r = smeared_density(FieldPoint(0.4, 0.0), FieldPoint(0.4, y), kernel, G)
        assert sizes and max(sizes) <= sp._WORKING_SET
        assert sum(sizes) == 3 * n + (1 if y == 0.0 else 2)  # three families and n = 0
        assert math.isfinite(r) and r != 0.0

    @pytest.mark.parametrize("kernel", [README_KERNEL, LOKernel(TWO_PI, TWO_PI / 200.0)],
                             ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    @pytest.mark.parametrize("y", [0.0, 1.3])
    def test_vanishes_exactly_on_the_plate(self, y, kernel):
        pt1, pt2 = FieldPoint(0.0, 0.0), FieldPoint(0.0, y)
        assert smeared_density(pt1, pt2, kernel, G) == 0.0


class TestSmearedKernels:
    KERNELS = [README_KERNEL, LOKernel(TWO_PI, TWO_PI / 200.0), LOKernel(40.0, 4.0),
               LOKernel(150.0, 15.0), LOKernel(1.0, 0.1), LOKernel(6.3, 5e-4)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    def test_series_and_direct_forms_agree_on_both_sides_of_the_splice(self, kernel):
        # the series is accurate to rounding well past the splice at D top = 1,
        # where the direct form takes over
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0)
        d = np.array([0.5, 0.95, 1.0 - 1e-9, 1.0 + 1e-9, 1.05, 1.5]) / lo.top
        spliced = lo.kernels(d)
        lo.top = 0.0  # every distance takes the series
        for k, series in zip(spliced, lo.kernels(d)):
            assert np.all(np.abs(k - series) <= 1e-13 * np.abs(series))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    def test_the_on_axis_term_is_the_free_space_closed_form(self, kernel):
        # Qbar(0)/4 pi^2 per unit integral of k^2: the smeared vacuum density
        w0, w = kernel.omega_lo, kernel.width
        lo = sp._SmearedLO(w0, w, 1.0)
        (q0,) = lo.kernels(np.zeros(1), 1)
        assert q0[0] == lo.q0
        assert q0[0] / (4.0 * PI**2) == pytest.approx((w0**3 + 1.5 * w0 * w * w) / (6.0 * PI**2), rel=1e-15)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    def test_both_are_exactly_zero_where_the_gaussian_underflows(self, kernel):
        # e^{-(width D)^2/4} underflows for width D above about 54.6; at 1e154 and beyond the
        # bracket's own products overflow, and D = inf is the distance of a y^2 that overflowed
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, 1.0)
        d = np.array([60.0 / kernel.width, 1e154, 1.3e154, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in lo.kernels(d):
                assert np.array_equal(k, np.zeros(d.size))

    @pytest.mark.parametrize("kernel", [README_KERNEL, LOKernel(TWO_PI, TWO_PI / 60.0)],
                             ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    @pytest.mark.parametrize("y", [0.0, 0.3])
    @pytest.mark.parametrize("x", [1e-4, 0.9999])
    def test_near_plate_smears_agree_with_the_adaptive_reference(self, x, y, kernel):
        # the n = 0 reflected image at 2x = 2e-4 takes the series
        p1, p2 = FieldPoint(x, 0.0), FieldPoint(x, y)
        r = smeared_density(p1, p2, kernel, G)
        assert abs(r - _adaptive_reference(p1, p2, kernel, _sized(kernel))) <= 1e-12 * _scale(kernel)


#: 2 R(1,1) at the README LO (omega_lo = 6.283185307179586, width = omega_lo/20,
#: x = 0.75) and at the narrow LO (6.3, 5e-4, x = 0.4), from these float inputs:
#: the mode sum of smeared_modes_diag with exact pi, erfc, exp and sin, summed
#: to c/width = 40 with mpmath 1.3.0 at 40 digits.
EXACT_2R11 = [
    pytest.param(README_KERNEL, 0.75, 5.7884303550708766426, id="readme"),
    pytest.param(LOKernel(6.3, 5e-4), 0.4, 0.010180673955323165774, id="narrow"),
]


def _random_los(seed, count):
    """(kernel, x) draws: omega_lo in [0.5, 40] (below the cutoff pi too), widths omega_lo/10 to /2000."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        omega_lo = rng.uniform(0.5, 40.0)
        kernel = LOKernel(omega_lo, omega_lo / rng.choice([10.0, 20.0, 200.0, 2000.0]))
        x = rng.choice([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1e-3), 1.0 - rng.uniform(0.0, 1e-3)])
        draws.append((kernel, x))
    return draws


def _sweep_los(seed, count):
    """(omega_lo, width, x) draws: omega_lo in [0.1, 1000] and width/omega_lo in [1e-4, 0.1], both log-uniform.

    x is inside, on a plate, or 1e-3 from one.
    """
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        omega_lo = 10.0 ** rng.uniform(-1.0, 3.0)
        width = omega_lo * 10.0 ** rng.uniform(-4.0, -1.0)
        x = rng.choice([rng.uniform(0.0, 1.0), 0.0, 1e-3, 1.0 - 1e-3, 1.0])
        draws.append((omega_lo, width, x))
    return draws


#: Edges of the former windows in z: math.erfc is exactly 2.0 below -5.9 and
#: 0.0 above 27.3, and exp(-z^2) is 0.0 outside +-27.3.
_WINDOW_EDGES = (-27.3, -5.9, 27.3)


def _former_reach(omega_lo, width, a):
    """The reach t, in widths, that a tail bound once gave R(1,1)'s mode sum (a frozen copy).

    The modes above omega_lo + t width add at most
    e^{-t^2} P(t width) s (1 + alpha r s (2 + alpha (1 + r) s)), with
    P(c) = width (2 omega_lo + c) + sqrt(pi) ((omega_lo + c)^2 + omega_lo^2 + width^2/2),
    r = e^{-2 t (pi/a)/width}, s = 1/(1 - r) and alpha = (pi/a)/(t width); t
    is the fixed point of t^2 <- ln(g(t)/tol) from t = 2, with tol the
    rounding of the scale, and stops at z = 27.3.
    """
    log_tol = math.log(sp._ROUNDING * 4.0 * sp._SQRT_PI / (3.0 * PI)) + math.log(a) + 3.0 * math.log(omega_lo)
    delta = PI / a
    t, t_max = 2.0, _WINDOW_EDGES[-1]
    while t < t_max:
        c, e = t * width, 2.0 * t * delta / width
        p = width * (2.0 * omega_lo + c) + sp._SQRT_PI * ((omega_lo + c) ** 2 + omega_lo**2 + 0.5 * width * width)
        r, s, alpha = math.exp(-e), -1.0 / math.expm1(-e), delta / c
        g = p * s * (1.0 + alpha * r * s * (2.0 + alpha * (1.0 + r) * s)) if r else p
        need = math.log(g) - log_tol if g > 0.0 else math.inf
        if t * t >= need:
            return t
        t = min(t_max, max(t + 1e-3, math.sqrt(need)))
    return t


def _windowed_modes_diag(omega_lo, width, x, geometry):
    """smeared_modes_diag as it took exp(-z^2) and erfc(z) only within their windows (a frozen copy).

    The windows are slices of the ascending z = c/width: exp(-z^2) for
    -27.3 < z < 27.3 and ``math.erfc`` for -5.9 < z < 27.3; outside them both
    are their constants, 0.0 and 2.0 or 0.0.
    """
    def terms(s2, q, n):
        c = (q - omega_lo) + n * (sp._PI_LO / geometry.a)
        with np.errstate(over="ignore"):
            z = c / width
            gauss, erfc = np.zeros(z.size), np.zeros(z.size)
            i_gauss, i_erfc, top = np.searchsorted(z, _WINDOW_EDGES).tolist()
            inner = z[i_gauss:top]
            gauss[i_gauss:top] = np.exp(-(inner * inner))
            erfc[:i_erfc] = 2.0
            erfc[i_erfc:top] = list(map(math.erfc, z[i_erfc:top].tolist()))
        bracket = width * (q + omega_lo) * gauss
        bracket += sp._SQRT_PI * (q * q + omega_lo * omega_lo + 0.5 * width * width) * erfc
        return (s2 * bracket)[:, :, None]

    total = sp._mode_sum(omega_lo + _WINDOW_EDGES[-1] * width, x, 1, geometry, terms)
    return float(total[0, 0]) * width / (8.0 * math.pi * geometry.a)


class TestSmearedModes:
    """R(1,1) from the guided modes in closed form, against mpmath and the image smear."""

    @pytest.mark.parametrize("kernel, x, exact", EXACT_2R11)
    def test_within_four_ulp_of_the_exact_value(self, kernel, x, exact):
        r11 = smeared_modes_diag(kernel.omega_lo, kernel.width, x, G)
        assert abs(2.0 * r11 - exact) <= 4.0 * math.ulp(exact)
        config = DetectorConfig(FieldPoint(x, 0.0), FieldPoint(x, 0.7))
        assert variance_current(config, kernel, G)[1] == 2.0 * r11

    @pytest.mark.parametrize("kernel, x", [
        *_random_los(11, 40),
        *((kernel, x) for kernel in (LOKernel(3.0, 0.15), LOKernel(2.5, 0.25), README_KERNEL, LOKernel(6.3, 5e-4))
          for x in (0.0, 1e-3, 0.5, 0.999, 1.0)),
    ], ids=lambda v: f"{v.omega_lo:g}-{v.width:g}" if isinstance(v, LOKernel) else repr(v))
    def test_agrees_with_the_image_smear(self, kernel, x):
        pt = FieldPoint(x, 0.0)
        modes = smeared_modes_diag(kernel.omega_lo, kernel.width, x, G)
        assert abs(modes - smeared_density(pt, pt, kernel, G)) <= 1e-13 * _scale(kernel)

    @pytest.mark.parametrize("kernel", [README_KERNEL, LOKernel(3.0, 0.15), LOKernel(6.3, 5e-4)],
                             ids=lambda k: f"{k.omega_lo:g}-{k.width:g}")
    def test_vanishes_exactly_on_both_plates(self, kernel):
        for x in (0.0, G.a):
            assert smeared_modes_diag(kernel.omega_lo, kernel.width, x, G) == 0.0

    @pytest.mark.parametrize("omega_lo, width", [(6.0, 0.3), (README_KERNEL.omega_lo, README_KERNEL.width),
                                                 (6.3, 5e-4), (1e4, 500.0)])
    def test_a_sequence_of_x_gives_each_x_its_own_value(self, omega_lo, width):
        # 7 x share blocks of 1 170 modes, where one x takes 8 192: the 7 529 modes at 1e4 span several
        xs = [0.2, 0.4, 0.0, 1e-3, 0.999, 1.0, 0.4]
        many = smeared_modes_diag(omega_lo, width, xs, G)
        assert isinstance(many, np.ndarray) and many.shape == (len(xs),)
        assert [repr(v) for v in many.tolist()] == [repr(smeared_modes_diag(omega_lo, width, x, G)) for x in xs]
        assert type(smeared_modes_diag(omega_lo, width, 0.2, G)) is float

    def test_the_erfc_window_gives_the_bits_of_math_erfc(self):
        # math.erfc and exp at every mode give the bits of the former windows: 3 000 seeded LOs, the
        # README LO (its mode 1 at z = -10), the near-pair, narrow and wide LOs, and widths down to
        # 5e-324, where c/width is +-inf
        draws = [*_sweep_los(15, 3000), (README_KERNEL.omega_lo, README_KERNEL.width, 0.75), (6.0, 0.03, 0.4),
                 (6.3, 5e-4, 0.4), (1e4, 500.0, 0.5), (40.0, 4.0, 0.3), (100.0, 5.0, 0.3)]
        draws += [(w0, w, 0.5) for w0 in (3.0, 6.0, 100.0) for w in (1e-300, 1e-310, 5e-324)]
        below = sum((PI / G.a - w0) / w < _WINDOW_EDGES[1] for w0, w, _ in draws)
        assert below > 1000  # mode 1 below z = -5.9; every LO's last mode lies above z = 27.3
        for w0, w, x in draws:
            assert repr(smeared_modes_diag(w0, w, x, G)) == repr(_windowed_modes_diag(w0, w, x, G)), (w0, w, x)

    def test_matches_the_former_tail_bound_sizing_bit_for_bit(self, monkeypatch):
        # the sum beyond omega_lo + t width adds terms that are below rounding or exactly 0.0
        draws = [*_sweep_los(14, 3000), (README_KERNEL.omega_lo, README_KERNEL.width, 0.75),
                 (6.0, 0.03, 0.4), (6.3, 5e-4, 0.4), (1e4, 500.0, 0.5), (40.0, 4.0, 0.3)]
        values = [smeared_modes_diag(w0, w, x, G) for w0, w, x in draws]
        engine, reach = sp._mode_sum, [0.0]
        monkeypatch.setattr(sp, "_mode_sum", lambda _, *args: engine(reach[0], *args))
        former = []
        for w0, w, x in draws:
            reach[0] = w0 + _former_reach(w0, w, G.a) * w
            former.append(smeared_modes_diag(w0, w, x, G))
        assert values == former

    @pytest.mark.parametrize("omega_lo, width", [(5.0, 5e-324), (5.0, 1e-300), (1e-200, 1e-201), (1e-110, 1e-111)])
    def test_extreme_los_give_finite_values_without_warnings(self, omega_lo, width):
        # c/width overflows to inf for the narrowest widths; the scale omega_lo^3 underflows for the lowest LOs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r11 = smeared_modes_diag(omega_lo, width, 0.5, G)
        assert 0.0 <= r11 < math.inf

    def test_more_modes_than_the_cap_are_refused(self):
        with pytest.raises(ValueError, match="guided modes exceed the 1048576"):
            smeared_modes_diag(4e6, 2e5, 0.5, G)

    @pytest.mark.parametrize("omega_lo, width", [(1.4e6, 7e4), (1.0, 1e300), (1.0, 1e308)])
    def test_the_cap_refuses_before_any_sine_is_formed(self, omega_lo, width, monkeypatch):
        # at bhd's default width omega_lo/20 the reach omega_lo + 27.3 width passes 2^20 modes
        # above omega_lo a = 1.393e6; at width 1e308 the reach is inf
        monkeypatch.setattr(sp, "_sine_squares", lambda *args: pytest.fail("formed the sines of the modes"))
        with pytest.raises(ValueError, match="guided modes exceed the 1048576"):
            smeared_modes_diag(omega_lo, width, 0.5, G)


def _gauss_legendre_smear(kernel, x, y, nodes=160):
    """R(1,2)/A^2 by Gauss-Legendre over omega_lo +- 9 widths of the exact mode sum sigma_modes(omega, [x], [y]).

    The panels split at the thresholds n pi/a, between which the integrand is
    smooth (J_0 and J_2 are even in kappa); the Gaussian's weight beyond 9
    widths is below e^{-81}.
    """
    w0, w = kernel.omega_lo, kernel.width
    lo, hi = w0 - 9.0 * w, w0 + 9.0 * w
    cuts = [n * PI / G.a for n in range(math.floor(lo * G.a / PI) + 1, math.ceil(hi * G.a / PI))]
    t, weights = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip([lo, *cuts], [*cuts, hi]):
        om = 0.5 * (a + b) + 0.5 * (b - a) * t
        sigma = np.array([sp.sigma_modes(o, [x], [y], G)[0, 0] for o in om.tolist()])
        total += 0.5 * (b - a) * float(weights @ (sigma * np.exp(-(((om - w0) / w) ** 2))))
    return total


class TestOffAxisSmear:
    """R(1,2) of the image smear against a second route: the exact mode sum, integrated numerically."""

    @pytest.mark.parametrize("kernel, x, y", [
        (README_KERNEL, 0.75, 50.0),  # the README pair, whose mode sum oscillates in y
        (LOKernel(6.0, 0.03), 0.4, 1.2),  # the near pair
        (LOKernel(6.3, 5e-4), 0.4, 0.7),  # the narrow LO
        (LOKernel(9.0, 0.045), 0.3, 0.8),
        (LOKernel(11.4, 0.57), 0.9, 2.5),
        (LOKernel(3.0, 0.15), 0.5, 1.0),  # across the first cutoff pi
    ], ids=["readme", "near", "narrow", "9", "11.4", "3"])
    def test_agrees_with_gauss_legendre_over_the_mode_sum(self, kernel, x, y):
        r12 = smeared_density(FieldPoint(x, 0.0), FieldPoint(x, y), kernel, G)
        assert abs(r12 - _gauss_legendre_smear(kernel, x, y)) <= 1e-12 * _scale(kernel)


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
        kernel1, config = self._setup(amplitude=1.0)
        kernel2, _ = self._setup(amplitude=2.0)
        v1, _ = variance_current(config, kernel1, G)
        v2, _ = variance_current(config, kernel2, G)
        assert v2 / v1 == pytest.approx(4.0, rel=1e-12)

    def test_far_separation_approximation(self):
        kernel, config = self._setup()
        v4, va = variance_current(config, kernel, G)
        assert v4 == pytest.approx(va, rel=0.1)
        assert v4 > 0.0

    def test_variance_scales_with_the_calibration_squared(self):
        # the calibration-to-zero limit sends the variance to zero quadratically
        kernel = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0)
        diodes = (FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        small, _ = variance_current(DetectorConfig(*diodes, calibration=1e-6), kernel, G)
        big, _ = variance_current(DetectorConfig(*diodes, calibration=1.0), kernel, G)
        assert small == pytest.approx(1e-12 * big, rel=1e-12)

    @pytest.mark.parametrize("y2", [1e150, 1e300])  # y2^2 finite, then overflowing to inf
    def test_far_diodes_leave_the_diagonal_terms_alone(self, y2):
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, y2))
        variance, approx = variance_current(config, README_KERNEL, G)
        assert math.isfinite(variance) and variance == approx

    def test_bhd_never_enters_the_pointwise_density_engine(self, monkeypatch, capsys):
        # R(1,1) is the mode sum and R(1,2) the image sum over the smeared kernels: the pinned rows
        # come out with the pointwise densities and their kernels refusing every call
        def refused(*args, **kwargs):
            raise AssertionError("bhd entered the pointwise density engine")

        for name in ("_sigma_yy_values", "_sigma_diag_values", "_Pointwise"):
            monkeypatch.setattr(sp, name, refused)
        readme = ["--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0", "--x2", "0.75", "--y2", "50"]
        near = ["--omega-lo", "6.0", "--width", "0.03", "--x1", "0.4", "--y1", "0.3", "--x2", "0.4", "--y2", "1.5"]
        rows = ("6.283185307179586,1883651567308853.2,0.0,5.7884303550708776,5.7884303550708776,0.0",
                "6.0,1798754748000000.0,0.0,0.36301292050841044,0.3511221515108042,9.908838813875742e-17")
        for argv, row in zip((readme, near), rows):
            assert main(["bhd", *argv]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row

    def test_coincident_diodes_reuse_the_diagonal_term(self, monkeypatch):
        def no_smearing(*args, **kwargs):
            raise AssertionError("smeared a cross term that is R(1,1) itself")

        monkeypatch.setattr(bhd, "smeared_density", no_smearing)
        config = DetectorConfig(FieldPoint(0.4, 5.0), FieldPoint(0.4, 5.0), calibration=1.3)
        for kernel in (README_KERNEL, LOKernel(6.3, 5e-4), LOKernel(7.0, 7.0 / 200.0)):
            variance, approx = variance_current(config, kernel, G)
            assert variance == 2.0 * approx > 0.0

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_diodes_on_a_plate_see_no_variance(self, x):
        # R(1,1) is exactly 0 there, and |R(1,2)| <= R(1,1); the image smear at x = a
        # leaves a residual of -8.8e-46, which would make the variance negative
        config = DetectorConfig(FieldPoint(x, 0.0), FieldPoint(x, 50.0))
        assert variance_current(config, README_KERNEL, G) == (0.0, 0.0)

    def test_coincident_diodes_print_twice_the_approximation(self, capsys):
        assert main(["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "5",
                     "--x2", "0.75", "--y2", "5"]) == 0
        variance, approx = capsys.readouterr().out.splitlines()[1].split(",")[3:5]
        assert float(variance) == 2.0 * float(approx)

    def test_a_variance_that_overflows_is_refused(self):
        diodes = (FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        assert math.isfinite(variance_current(DetectorConfig(*diodes, calibration=1e150), README_KERNEL, G)[0])
        with pytest.raises(ValueError, match="variance overflows"):
            variance_current(DetectorConfig(*diodes, calibration=1e200), README_KERNEL, G)

    @pytest.mark.parametrize("x", [0.0, 0.75])  # at a plate inf * 0 would be nan
    def test_a_square_that_overflows_is_refused_by_name_before_any_smear(self, x, monkeypatch):
        def no_smearing(*args, **kwargs):
            raise AssertionError("smeared with an overflowing square")

        monkeypatch.setattr(bhd, "smeared_modes_diag", no_smearing)
        monkeypatch.setattr(bhd, "smeared_density", no_smearing)
        diodes = (FieldPoint(x, 0.0), FieldPoint(x, 50.0))
        loud = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0, amplitude=1e200)
        with pytest.raises(ValueError, match=r"overflows: LO amplitude 1e\+200 squared"):
            variance_current(DetectorConfig(*diodes), loud, G)
        with pytest.raises(ValueError, match=r"overflows: calibration 1e\+200 squared"):
            variance_current(DetectorConfig(*diodes, calibration=1e200), README_KERNEL, G)

    def test_a_variance_that_is_not_finite_is_refused_nan_included(self, monkeypatch):
        diodes = (FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0))
        for r12 in (math.inf, math.nan):
            monkeypatch.setattr(bhd, "smeared_density", lambda *args, r12=r12: r12)
            with pytest.raises(ValueError, match="variance overflows at LO amplitude 1.0 and calibration 1.0"):
                variance_current(DetectorConfig(*diodes), README_KERNEL, G)

    def test_unequal_plate_distances_rejected_before_smearing(self, monkeypatch):
        def no_smearing(*args, **kwargs):
            raise AssertionError("smeared before validating the diodes")

        monkeypatch.setattr(bhd, "smeared_density", no_smearing)
        kernel, _ = self._setup()
        config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.5, 50.0))
        with pytest.raises(ValueError):
            variance_current(config, kernel, G)
