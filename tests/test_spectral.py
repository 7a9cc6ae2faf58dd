import math
import random
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import cavityspectra.spectral as sp
from cavityspectra import bhd, cli
from cavityspectra.bhd import LOKernel, smeared_density
from cavityspectra.imagesum import TruncationPolicy, two_point_yy_lattice
from cavityspectra.spectral import (
    SERIES_THRESHOLD,
    SpectralSample,
    laplace_modes_diag,
    q_kernel,
    sigma_modes,
    sigma_modes_diag,
    sigma_vacuum,
    sigma_vacuum_from_kernels,
    sigma_yy,
    sigma_yy_diag,
)
from cavityspectra.units import CavityGeometry, FieldPoint, build_grid

G = CavityGeometry(1.0)
PI = math.pi
TWO_PI = 2.0 * math.pi


def _w_kernel(u):
    """The kernel W as the image sums evaluate it."""
    return sp._spliced(u, sp._W)[0]


class TestKernels:
    def test_q_limits_and_trig_points(self):
        assert q_kernel(0.0) == 2.0 / 3.0
        assert q_kernel(PI) == pytest.approx(-1.0 / PI**2, rel=1e-12)
        assert q_kernel(TWO_PI) == pytest.approx(1.0 / (4.0 * PI**2), rel=1e-12)

    def test_w_limits_and_trig_points(self):
        assert _w_kernel(0.0) == 0.0
        # leading behaviour -u^2/15
        u = 1e-4
        assert _w_kernel(u) == pytest.approx(-u * u / 15.0, rel=1e-6)
        assert _w_kernel(PI) == pytest.approx(-3.0 / PI**2, rel=1e-12)
        assert _w_kernel(TWO_PI) == pytest.approx(3.0 / (4.0 * PI**2), rel=1e-12)

    def test_array_input_matches_scalars(self):
        u = np.array([0.0, 0.3, 0.5, 2.0, 40.0])
        assert np.array_equal(q_kernel(u), np.array([q_kernel(float(v)) for v in u]))
        assert np.array_equal(_w_kernel(u), np.array([_w_kernel(float(v)) for v in u]))

    @pytest.mark.parametrize("u", [
        np.linspace(0.5, 60.0, 257),  # every argument at or above the splice
        np.array([3.0, 0.0, 0.49, 1e-300, 0.5, 7.5, 0.2, 40.0]),  # sub-splice entries mixed in
    ])
    def test_arrays_equal_scalar_calls_without_warnings(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (q_kernel, _w_kernel):
                values = kernel(u)
                assert np.array_equal(values, [kernel(float(v)) for v in u])
                assert np.array_equal(kernel(u.reshape(-1, 1)), values[:, None])
            # sigma_vacuum's kernel argument is omega |y|: y = 0 puts every omega at u = 0
            omegas = u[u > 0.0]
            for y in (0.0, 0.3, 1.7):
                assert np.array_equal(sigma_vacuum(omegas, y), [sigma_vacuum(float(w), y) for w in omegas])

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            q_kernel(-0.1)
        with pytest.raises(ValueError):
            _w_kernel(np.array([0.1, -2.0]))

    def test_series_coefficients_are_the_correctly_rounded_rationals(self):
        def reference(m, k):  # (-1)^m [1/(2m+1)! - k (2m+2)/(2m+3)!], or (-1)^m (2m+2)/(2m+3)!
            c = Fraction(2 * m + 2, math.factorial(2 * m + 3))
            if k is not None:
                c = Fraction(1, math.factorial(2 * m + 1)) - k * c
            return float(c if m % 2 == 0 else -c)

        for (coeffs, _), k in ((sp._Q, 1), (sp._W, 3), (sp._VAC, None)):
            expected = np.array([reference(m, k) for m in range(sp._SERIES_TERMS)])
            assert coeffs.tobytes() == expected.tobytes()

    def test_horner_sum_is_polyval_bit_for_bit(self):
        x = np.random.default_rng(7).uniform(0.0, 2.0, 100_000) ** 4  # [0, 16), dense near 0
        for coeffs in (sp._Q[0], sp._W[0], sp._VAC[0]):
            assert sp._polyval(x, coeffs).tobytes() == npoly.polyval(x, coeffs).tobytes()

    def test_series_splice_continuity(self):
        u0 = np.asarray([SERIES_THRESHOLD])
        for coeffs, direct in (sp._Q, sp._W, sp._VAC):
            series = float(npoly.polyval(SERIES_THRESHOLD**2, coeffs))
            assert abs(series - float(direct(u0, np.sin(u0), np.cos(u0))[0])) <= 1e-14


class TestVacuumDensity:
    def test_coincident_point_value(self):
        for omega in np.linspace(0.1, 4 * PI, 37):
            exact = omega**3 / (6.0 * PI**2)
            assert sigma_vacuum(float(omega), 0.0) == pytest.approx(exact, rel=1e-12)

    def test_half_oscillation_points(self):
        # omega*y = pi: bracket is 1/pi^2; omega*y = 2 pi: bracket is -1/(2 pi)^2
        omega, y = 2.0, PI / 2.0
        assert sigma_vacuum(omega, y) == pytest.approx(omega**3 / (2.0 * PI**4), rel=1e-12)
        y = PI
        assert sigma_vacuum(omega, y) == pytest.approx(-(omega**3) / (8.0 * PI**4), rel=1e-12)

    def test_vectorized_over_frequency(self):
        omegas = np.array([0.5, 2.0, 7.0])
        vals = sigma_vacuum(omegas, 0.4)
        assert vals.shape == (3,)
        assert vals[1] == sigma_vacuum(2.0, 0.4)

    def test_embedding_matches_closed_form(self):
        # the n = 0 translated term of the cavity sum must equal the
        # free-space density essentially to machine precision
        for omega in build_grid(0.5, 4 * PI, 12).points:
            for y in np.linspace(0.0, 8.0, 12):
                ref = sigma_vacuum(float(omega), float(y))
                got = sigma_vacuum_from_kernels(float(omega), float(y))
                assert got == pytest.approx(ref, rel=1e-12)

    def test_embedding_over_a_frequency_array_equals_scalar_calls(self):
        omegas = build_grid(0.5, 4 * PI, 20).points
        for y in (0.0, 1e-3, 0.4, 8.0):
            got, ref = sigma_vacuum_from_kernels(omegas, y), sigma_vacuum(omegas, y)
            assert got.tolist() == [sigma_vacuum_from_kernels(float(w), y) for w in omegas]
            assert ref.tolist() == [sigma_vacuum(float(w), y) for w in omegas]

    def test_positive_frequency_required(self):
        with pytest.raises(ValueError):
            sigma_vacuum(0.0, 0.0)
        with pytest.raises(ValueError):
            sigma_vacuum(-1.0, 0.3)


class TestDiagonalDensity:
    def test_vanishes_identically_on_the_plate(self):
        for n_terms in (0, 1, 10, 1000):
            s = sigma_yy_diag(5.0, 0.0, G, TruncationPolicy(n_terms=n_terms))
            assert s.value == 0.0

    def test_single_term_formula(self):
        omega, x = 3.7, 0.31
        s = sigma_yy_diag(omega, x, G, TruncationPolicy(n_terms=0))
        expected = omega**3 / (4.0 * PI**2) * (2.0 / 3.0 - q_kernel(2.0 * omega * x))
        assert s.value == pytest.approx(expected, rel=1e-15)
        assert s.err == 0.0

    def test_sub_cutoff_residual_is_small(self):
        policy = TruncationPolicy(n_terms=1000)
        for omega in (1.0, 2.0, 3.0):
            for x in (0.25, 0.5, 0.75):
                s = sigma_yy_diag(omega, x, G, policy)
                assert abs(s.value) < 0.05 * sigma_vacuum(omega, 0.0)

    def test_far_plate_residual(self):
        policy = TruncationPolicy(n_terms=10_000)
        for omega in (2.0, 8.0):
            s = sigma_yy_diag(omega, 1.0, G, policy)
            assert abs(s.value) <= 1e-3 * sigma_vacuum(omega, 0.0)

    def test_sample_metadata(self):
        s = sigma_yy_diag(5.0, 0.3, G, TruncationPolicy(n_terms=123))
        assert s.terms == 123 and s.err >= 0.0 and s.omega == 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sigma_yy_diag(-1.0, 0.3, G, TruncationPolicy(n_terms=10))
        with pytest.raises(ValueError):
            sigma_yy_diag(2.0, 1.5, G, TruncationPolicy(n_terms=10))


class TestExactModeSum:
    # validate's ten points, and the jump omega = 2 pi where the threshold mode weighs 1/2
    POINTS = [(0.25, 3.6), (0.25, 6.9), (0.25, 9.7), (0.5, 4.4), (0.5, 7.6), (0.5, 10.6), (0.5, 12.2),
              (0.75, 5.2), (0.75, 8.4), (0.75, 11.4), (0.25, TWO_PI), (0.5, TWO_PI), (0.75, TWO_PI)]

    @pytest.mark.parametrize("x, omega", POINTS)
    def test_the_image_sum_converges_to_it(self, x, omega):
        # at N = 10^5 the image sum is within 3.4e-6 of scale at these points
        # (5.0e-4 at N = 1000); a threshold mode of full weight would be off by 0.75
        exact = sigma_modes_diag(omega, x, G)
        truncated = sigma_yy_diag(omega, x, G, TruncationPolicy(n_terms=100_000)).value
        assert abs(truncated - exact) <= 1e-5 * max(abs(exact), sigma_vacuum(omega, 0.0))

    def test_the_threshold_mode_weighs_one_half(self):
        x = 0.25
        below = math.sin(PI * x) ** 2 * (TWO_PI**2 + PI**2)
        at = 0.5 * math.sin(TWO_PI * x) ** 2 * (2.0 * TWO_PI**2)
        assert sigma_modes_diag(TWO_PI, x, G) == pytest.approx((below + at) / (4.0 * PI), rel=1e-15)

    def test_zero_below_the_first_cutoff_and_on_the_plates(self):
        omegas = np.array([0.1, 1.0, PI - 1e-12, PI + 1e-3, 7.6, 12.2])
        for x in (0.1, 0.5, 0.97):
            below = sigma_modes_diag(omegas[:3], x, G)
            assert below.tolist() == [0.0, 0.0, 0.0]
        for x in (0.0, G.a):
            assert sigma_modes_diag(omegas, x, G).tolist() == [0.0] * omegas.size

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.3, 0.37])
    def test_mirror_symmetric(self, x):
        omegas = np.array([3.6, TWO_PI, 7.6, 12.2])
        got, mirror = sigma_modes_diag(omegas, x, G), sigma_modes_diag(omegas, G.a - x, G)
        assert np.max(np.abs(mirror - got) / got) <= 1e-14

    def test_scalar_in_float_out_and_geometry_scaling(self):
        value = sigma_modes_diag(7.6, 0.3, G)
        assert type(value) is float
        assert sigma_modes_diag(np.array([7.6]), 0.3, G).tolist() == [value]
        # lengths in units of a: sigma(omega; x, a) = sigma(omega a; x/a, 1)/a^3
        wide = CavityGeometry(2.5)
        assert sigma_modes_diag(7.6 / 2.5, 0.3 * 2.5, wide) == pytest.approx(value / 2.5**3, rel=1e-13)

    def test_many_x_equal_their_single_calls_bit_for_bit(self):
        # plates, mirrors a - x, thresholds k pi, omega < pi, and up to 20 modes (numpy's sum goes pairwise above 7)
        rng = np.random.default_rng(23)
        for _ in range(60):
            xs = [0.0, G.a, *rng.choice([0.25, 0.5, 0.75], 2).tolist(), *rng.uniform(0.0, G.a, 5).tolist()]
            xs += [G.a - x for x in xs[2:]]
            omegas = np.concatenate([rng.uniform(0.05, rng.choice([3.0, 12.0, 60.0]), rng.integers(1, 30)),
                                     PI * rng.integers(1, 20, 3), [2.0]])
            rng.shuffle(omegas)
            many = sigma_modes_diag(omegas, xs, G)
            assert many.shape == (len(xs), omegas.size)
            single = np.array([sigma_modes_diag(omegas, x, G) for x in xs])
            assert np.array_equal(many.view(np.int64), single.view(np.int64))
            # each (x, omega) adds its modes one by one in ascending n, in the arithmetic of the docstring
            q = np.arange(1, int(omegas.max() / PI) + 2) * PI
            w = omegas[:, None]
            weight = np.where(q < w, 1.0, np.where(q == w, 0.5, 0.0))
            for x, row in zip(xs, many):
                s = np.sin(min(x, G.a - x) * q)
                want = np.cumsum(weight * (s * s) * (w * w + q * q), axis=1)[:, -1] / (4.0 * PI)
                assert np.array_equal(row.view(np.int64), want.view(np.int64))
            w = float(omegas[0])
            along = sigma_modes_diag(w, np.array(xs), G)
            assert along.shape == (len(xs),)
            assert along.tolist() == [sigma_modes_diag(w, x, G) for x in xs]

    def test_many_x_at_a_high_omega_are_summed_in_blocks(self, monkeypatch):
        xs = np.linspace(0.0, 1.0, 7).tolist()
        omegas = np.array([3.0, 40.0, 41.0 * PI])  # 42 modes: blocks of 10 modes below
        whole = sigma_modes_diag(omegas, xs, G)
        calls = []

        def counting(folded, q, engine=sp._sine_squares):
            calls.append((folded.size, q.size))
            return engine(folded, q)

        monkeypatch.setattr(sp, "_sine_squares", counting)
        monkeypatch.setattr(sp, "_WORKING_SET", 7 * 3 * 10)
        assert sigma_modes_diag(omegas, xs, G).tobytes() == whole.tobytes()
        assert calls == [(7, 10)] * 4 + [(7, 2)]

    def test_invalid_input_is_refused(self):
        with pytest.raises(ValueError):
            sigma_modes_diag(0.0, 0.5, G)
        with pytest.raises(ValueError):
            sigma_modes_diag(5.0, [0.5, 1.5], G)
        with pytest.raises(ValueError):
            sigma_modes_diag(5.0, 1.5, G)
        with pytest.raises(ValueError, match="guided modes exceed"):
            sigma_modes_diag(1e7, 0.5, G)
        # a count of 100 digits is written in three
        with pytest.raises(ValueError, match=re.escape("3.18e+99 guided modes exceed the 1048576 one")):
            sigma_modes_diag(1e100, 0.5, G)
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                laplace_modes_diag(eps, 0.5, G)
        for eps in (1e-5, 1e-310):  # the reach 60/eps is inf at 1e-310
            with pytest.raises(ValueError, match="guided modes exceed the 1048576"):
                laplace_modes_diag(eps, 0.5, G)

    @pytest.mark.parametrize("x", [1e-3, 0.1, 0.25, 0.5, 0.75, 0.97, 1.0 - 1e-3])
    def test_laplace_sum_rule(self, x):
        # integral sigma e^{-eps omega} d omega is the correlation at s = -i eps,
        # that is the untruncated lattice at z^2 = -eps^2
        eps = np.array([0.05, 0.3, 1.0, 3.0])
        lattice = two_point_yy_lattice(-(eps * eps) + 0j, FieldPoint(x, 0.0), G)
        for e, g in zip(eps.tolist(), lattice.tolist()):
            assert abs(laplace_modes_diag(e, x, G) - g.real) <= 1e-12 / (PI**2 * e**4)

    def test_laplace_transform_of_the_mode_sum(self):
        # midpoint rule between the jumps at n pi, where the density is smooth
        eps, x, cells = 1.0, 0.3, 4000
        h = PI / cells
        total = 0.0
        for n in range(1, 20):
            w = n * PI + (np.arange(cells) + 0.5) * h
            total += h * float(np.sum(sigma_modes_diag(w, x, G) * np.exp(-eps * w)))
        assert total == pytest.approx(laplace_modes_diag(eps, x, G), rel=1e-6)


def _unblocked_sigma_modes(omega, xs, ys):
    """sigma_modes as it was before it took its sines in blocks of modes: every sine at once, the reference."""
    y = np.abs(np.asarray(ys, dtype=float))
    q = np.arange(1, int(omega * G.a / PI) + 2) * PI / G.a
    s = np.sin(np.multiply.outer(np.array([min(x, G.a - x) for x in xs]), q))
    s2 = s * s
    guided = q <= omega
    q, s2w = q[guided], s2[:, guided] * np.where(q < omega, 1.0, 0.5)[guided]
    kappa = np.sqrt((omega - q) * (omega + q))
    r, index = np.unique(np.multiply.outer(kappa, y), return_inverse=True)
    j0, j2 = sp._bessel_j0_j2(r)
    j0, j2 = j0[index].reshape(q.size, y.size), j2[index].reshape(q.size, y.size)
    bracket = (j0 + j2) + ((q / omega) ** 2)[:, None] * (j0 - j2)
    values = np.zeros((s2w.shape[0], y.size))
    for n in range(q.size):
        values += np.multiply.outer(s2w[:, n], bracket[n])
    return values * (omega * omega / (4.0 * math.pi * G.a))


class TestOffAxisModeSum:
    """sigma_modes: the density off the axis at N = infinity, with J_0 and J_2 by the trapezoid rule."""

    #: J_0(r) and J_2(r) to 17 digits (mpmath, 40 digits), at the largest argument the cap admits too
    PINS = [(0.0, 1.0, 0.0), (1e-8, 1.0, 1.25e-17), (1.0, 0.7651976865579666, 0.11490348493190047),
            (10.0, -0.24593576445134835, 0.2546303136851206), (300.0, -0.03329855487630567, 0.03308597200045567),
            (130972.0, -0.00046461785481720304, 0.0004645849440272878)]
    #: three points off the jumps, the off-axis points of validate check 7
    OFF_JUMP = [(7.6, 0.3, 0.4), (10.6, 0.5, 2.2), (5.2, 0.75, 1.3)]

    def test_bessel_functions_against_pinned_values(self):
        r = np.array([p[0] for p in self.PINS])
        assert math.floor(r[-1]) + 100 == sp.MAX_BESSEL_NODES
        j0, j2 = sp._bessel_j0_j2(r)
        # each node's argument r cos t is rounded to about r ulp, which the sum averages over ~r nodes
        tol = 2.0**-52 * (10.0 + np.sqrt(r))
        assert np.all(np.abs(j0 - [p[1] for p in self.PINS]) <= tol)
        assert np.all(np.abs(j2 - [p[2] for p in self.PINS]) <= tol)
        assert (j0[0], j2[0]) == (1.0, 0.0)

    def test_an_argument_gives_the_same_bits_in_any_call(self):
        r = np.linspace(0.0, 2000.0, 301)  # about 3.3e5 nodes: 41 blocks
        j0, j2 = sp._bessel_j0_j2(r)
        for k in (0, 1, 150, 299, 300):
            alone = sp._bessel_j0_j2(r[k:k + 1])
            assert (alone[0][0], alone[1][0]) == (j0[k], j2[k])

    def test_an_argument_that_needs_more_than_a_block_takes_one_of_its_own(self, monkeypatch):
        r = np.array([0.5, 10.0, 300.0, 1.0])
        want = sp._bessel_j0_j2(r)
        monkeypatch.setattr(sp, "_WORKING_SET", 150)  # r = 300 needs 400 nodes
        got = sp._bessel_j0_j2(r)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("omega", [2.0, PI + 1e-3, 4.4, TWO_PI - 1e-3, TWO_PI, 7.6, 12.2])
    def test_on_the_axis_it_is_the_coincident_mode_sum(self, omega):
        xs = np.linspace(0.0, 1.0, 21).tolist()
        got = sigma_modes(omega, xs, [0.0, -0.0], G)
        want = np.array([sigma_modes_diag(omega, x, G) for x in xs])
        assert np.array_equal(got[:, 0], got[:, 1])
        assert np.all(np.abs(got[:, 0] - want) <= 1e-14 * np.abs(want))

    def test_exactly_symmetric_under_the_mirror_x_to_a_minus_x(self):
        xs = [0.0, 0.125, 0.25, 0.35, 0.4, 0.4375, 0.5]
        mirrors = [G.a - x for x in xs]
        assert all(G.a - m == x for x, m in zip(xs, mirrors))
        ys = np.linspace(-50.0, 50.0, 41).tolist()
        for omega in (4.4, TWO_PI - 1e-3, TWO_PI, 10.6):
            assert np.array_equal(sigma_modes(omega, xs, ys, G), sigma_modes(omega, mirrors, ys, G))

    def test_a_grid_equals_its_points_one_by_one(self):
        xs, ys = [0.1, 0.3, 0.75], [-3.0, 0.0, 0.4, 3.0, 12.5]
        grid = sigma_modes(10.6, xs, ys, G)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert sigma_modes(10.6, [x], [y], G)[0, 0] == grid[i, j]

    def test_sines_in_blocks_of_modes_give_the_unblocked_bits(self, monkeypatch):
        # both plates and a mirror pair; y = 0 and -0.0; 40 pi puts mode 40 at threshold
        xs = [0.0, 0.1, 0.3, 0.7, 0.75, 1.0, 0.5]
        ys = [0.0, -0.0, -0.3, 2.5, 40.0]
        cases = [(omega, _unblocked_sigma_modes(omega, xs, ys)) for omega in (3.0, 7.6, 40.0, 40.0 * PI, 127.3)]
        sizes = []

        def counting(folded, q, engine=sp._sine_squares):
            sizes.append(folded.size * q.size)
            return engine(folded, q)

        monkeypatch.setattr(sp, "_sine_squares", counting)
        for block in (sp._WORKING_SET, 7 * 3, 7 * 40, 1):  # 35 terms a mode: one block, 1 or 8 modes a block, 1 mode
            monkeypatch.setattr(sp, "_WORKING_SET", block)
            for omega, want in cases:
                sizes.clear()
                assert sigma_modes(omega, xs, ys, G).tobytes() == want.tobytes()
                assert max(sizes) <= max(block, len(xs))
                assert sum(sizes) == len(xs) * (int(omega / PI) + 1)  # each guided mode's sines, and the next's, once

    def test_many_modes_hold_a_block_of_sines_at_a_time(self, monkeypatch):
        # 6366 guided modes and the one above omega at 41 x: 261 047 sines, in 31 blocks of 199 modes and one of 198
        sizes = []

        def counting(folded, q, engine=sp._sine_squares):
            sizes.append(folded.size * q.size)
            return engine(folded, q)

        monkeypatch.setattr(sp, "_sine_squares", counting)
        sigma_modes(2e4, np.linspace(0.0, 1.0, 41).tolist(), [0.0], G)
        assert sizes == [41 * 199] * 31 + [41 * 198] and max(sizes) <= sp._WORKING_SET

    def test_the_image_sum_at_large_n_meets_it_off_the_jumps(self):
        # N = 10^5 gaps 2.0e-7, 5.3e-7 and 1.5e-6 of vacuum; N = 1000 gaps 7.7e-5, 1.6e-5, 1.5e-4
        for omega, x, y in self.OFF_JUMP:
            exact = sigma_modes(omega, [x], [y], G)[0, 0]
            truncated = sigma_yy(omega, FieldPoint(x=x, y=y), G, TruncationPolicy(n_terms=100_000)).value
            assert abs(truncated - exact) <= 2e-5 * sigma_vacuum(omega, 0.0)

    def test_the_threshold_mode_does_not_decay(self):
        # on the jump 2 pi the n = 2 mode has kappa = 0: its term is |y|-independent
        far = sigma_modes(TWO_PI, [0.75], [40.0, 45.0, 50.0, 0.0], G)[0]
        below = sigma_modes(TWO_PI - 1e-3, [0.75], [40.0, 45.0, 50.0, 0.0], G)[0]
        assert np.all(np.abs(far[:3] / far[3]) > 0.6) and np.all(np.abs(below[:3] / below[3]) < 0.03)

    def test_zero_below_the_first_cutoff_and_on_the_plates(self):
        assert not sigma_modes(PI - 1e-3, [0.3, 0.5], [0.0, 2.0], G).any()
        assert not sigma_modes(7.6, [0.0, G.a], [0.0, 2.0], G).any()

    def test_refusals(self):
        with pytest.raises(ValueError):
            sigma_modes(0.0, [0.5], [1.0], G)
        with pytest.raises(ValueError):
            sigma_modes(5.0, [1.5], [1.0], G)
        with pytest.raises(ValueError, match="transverse offsets must be finite"):
            sigma_modes(5.0, [0.5], [math.inf], G)
        # kappa_1 = sqrt(7.6^2 - pi^2): |y| = 130 972/kappa_1 fits the node cap, 1% more does not
        kappa = math.sqrt(7.6**2 - PI**2)
        sigma_modes(7.6, [0.5], [130_972.0 / kappa], G)
        with pytest.raises(ValueError, match=r"^kappa \|y\| = 132282 at omega = 7.6: J_0 and J_2 there would take "
                                             r"more than 131072 trapezoid nodes \(every \|y\| up to 1.72e\+04 a fits\)$"):
            sigma_modes(7.6, [0.5], [1.01 * 130_972.0 / kappa], G)


class TestTwoPointDensity:
    def test_coincident_limit_equals_diagonal_bitwise(self):
        policy = TruncationPolicy(n_terms=777)
        for omega, x in [(2.2, 0.31), (7.9, 0.68), (11.0, 0.05)]:
            full = sigma_yy(omega, FieldPoint(x=x, y=0.0), G, policy)
            diag = sigma_yy_diag(omega, x, G, policy)
            assert full.value == diag.value and full.err == diag.err

    def test_restriction_to_the_central_image_is_the_vacuum(self):
        # guaranteed by construction; spot-check through the helper
        assert sigma_vacuum_from_kernels(TWO_PI, 0.0) == pytest.approx(
            sigma_vacuum(TWO_PI, 0.0), rel=1e-13
        )

    def test_far_transverse_offset_is_subdominant(self):
        policy = TruncationPolicy(n_terms=1000)
        off = sigma_yy(TWO_PI, FieldPoint(x=0.75, y=50.0), G, policy)
        diag = sigma_yy_diag(TWO_PI, 0.75, G, policy)
        assert abs(off.value) < 0.1 * abs(diag.value)

    def test_y_parity_exact(self):
        policy = TruncationPolicy(n_terms=400)
        for omega, x, y in [(2.3, 0.4, 7.7), (9.8, 0.71, 0.3)]:
            a = sigma_yy(omega, FieldPoint(x=x, y=y), G, policy)
            b = sigma_yy(omega, FieldPoint(x=x, y=-y), G, policy)
            assert a.value == b.value

    @pytest.mark.parametrize("y", [1e200, -1e300, 1e160])
    def test_an_offset_whose_square_overflows_is_refused(self, y):
        with pytest.raises(ValueError, match=re.escape(f"transverse offset y = {y!r}: its square y^2 overflows")):
            sigma_yy(6.0, FieldPoint(x=0.5, y=y), G, TruncationPolicy(n_terms=10))


def _former_image_blocks(n, L):
    """(n L, whether last) over blocks of ascending n = 1..N, one empty block at N = 0: the reference's blocks.

    A block's three image families and the two n = 0 terms fit _WORKING_SET
    (a frozen copy of the generator ``_image_sum`` once looped over).
    """
    step = max(1, (sp._WORKING_SET - 2) // 3)
    for lo in range(0, max(n, 1), step):
        hi = min(n, lo + step)
        yield np.arange(lo + 1, hi + 1, dtype=float) * L, hi == n


class _PartialSums:
    """Row-wise running total of pairs fed in blocks of ascending |n|, and |last pair|: the reference's."""

    def __init__(self):
        self.total = None

    def add(self, pairs):
        if pairs.shape[-1] == 0:
            return
        self.last = np.abs(pairs[..., -1])
        if self.total is not None:
            pairs[..., 0] += self.total
        self.total = np.cumsum(pairs, axis=-1)[..., -1]

    def totals(self, term0):
        if self.total is None:
            return term0.copy(), np.zeros_like(term0)
        return self.total + term0, self.last


class _FormerFrequencies:
    """The reference's frequency axis: kernels at omega D over axis -2, prefactor omega^3 / 4 pi^2."""

    def __init__(self, omegas):
        self.omegas, self.size, self.q0 = omegas, omegas.size, 2.0 / 3.0
        self.pref = (omegas * omegas * omegas) / (4.0 * math.pi**2)

    def __getitem__(self, block):
        return _FormerFrequencies(self.omegas[block])

    def kernels(self, distances, count=2):
        u = self.omegas[:, None] * distances
        return [sp.q_kernel(u)] if count == 1 else sp._spliced(u, sp._Q, sp._W)


def _former_diag_values(omegas, xs, n):
    """The coincident-point density as the pointwise engine summed it, frequencies in blocks of rows: the reference."""
    axis = _FormerFrequencies(omegas)
    values, errs = np.empty((2, len(xs), axis.size))
    for i, x2 in enumerate((2.0 * np.asarray(xs, dtype=float)).tolist()):
        sums = None
        for nL, last_block in _former_image_blocks(n, G.L):
            m = nL.size
            distances = np.concatenate([nL, np.abs(x2 - nL), x2 + nL, [x2] if last_block else []])
            if sums is None:
                rows = max(1, sp._WORKING_SET // distances.size) if last_block else 1
                sums = [_PartialSums() for _ in range(0, axis.size, rows)]
            for lo, acc in zip(range(0, axis.size, rows), sums):
                block = slice(lo, lo + rows)
                rows_axis = axis[block]
                q = rows_axis.kernels(distances[None], 1)[0]
                qa, pairs, reflected = q[:, :m], q[:, m:2 * m], q[:, 2 * m:3 * m]
                np.subtract(qa, pairs, out=pairs)
                np.subtract(qa, reflected, out=reflected)
                pairs += reflected
                acc.add(pairs)
                if last_block:
                    totals, last = acc.totals(rows_axis.q0 - q[:, 3 * m])
                    values[i, block], errs[i, block] = rows_axis.pref * totals, rows_axis.pref * last
    return values, errs


def _former_off_axis(axis, x, y2, n):
    """The two-point density at distinct y^2 > 0 over blocks of y^2 rows and frequencies: the reference."""
    values, errs = np.empty((2, y2.size, axis.size))
    x2 = 2.0 * x
    sums = {}
    for nL, last_block in _former_image_blocks(n, G.L):
        m = nL.size
        bases = np.concatenate([nL ** 2, (x2 - nL) ** 2, (x2 + nL) ** 2, [0.0, x2 ** 2] if last_block else []])
        if not sums:
            per_block = max(1, sp._WORKING_SET // bases.size) if last_block else 1
            freqs = max(1, min(axis.size, per_block))
            step = per_block // freqs
        for r0 in range(0, y2.size, step):
            rows = slice(r0, r0 + step)
            dist2 = (bases + y2[rows, None])[:, None, :]
            for lo in range(0, axis.size, freqs):
                block = slice(lo, lo + freqs)
                rows_axis = axis[block]
                q, w = rows_axis.kernels(np.sqrt(dist2))
                w /= dist2
                qa, pairs, q_bn = q[..., :m], q[..., m:2 * m], q[..., 2 * m:3 * m]
                wa, w_pairs, w_bn = w[..., :m], w[..., m:2 * m], w[..., 2 * m:3 * m]
                y2c = y2[rows, None]
                np.subtract(qa, pairs, out=pairs)
                w_pairs -= wa
                np.subtract(qa, q_bn, out=q_bn)
                w_bn -= wa
                pairs += q_bn
                w_pairs += w_bn
                w_pairs *= y2c[..., None]
                pairs += w_pairs
                acc = sums.setdefault((r0, lo), _PartialSums())
                acc.add(pairs)
                if last_block:
                    term0 = (q[..., 3 * m] - q[..., 3 * m + 1]) + y2c * (w[..., 3 * m + 1] - w[..., 3 * m])
                    totals, last = acc.totals(term0)
                    values[rows, block], errs[rows, block] = rows_axis.pref * totals, rows_axis.pref * last
    return values, errs


def _former_yy_values(omegas, points, n):
    """The two-point density as the pointwise engine summed it, one x and its distinct y^2 at a time: the reference."""
    axis = _FormerFrequencies(omegas)
    y2 = np.array([p.y * p.y for p in points], dtype=float)
    x_of = np.array([p.x for p in points], dtype=float)
    values, errs = np.empty((2, len(points), axis.size))
    for x in dict.fromkeys(x_of.tolist()):
        at = np.flatnonzero(x_of == x)
        y2_x, rows = np.unique(y2[at], return_inverse=True)
        on_axis = int(y2_x[0] == 0.0)
        v, e = np.empty((2, y2_x.size, axis.size))
        if on_axis:
            v[:1], e[:1] = _former_diag_values(omegas, [x], n)
        if on_axis < y2_x.size:
            v[on_axis:], e[on_axis:] = _former_off_axis(axis, x, y2_x[on_axis:], n)
        values[at], errs[at] = v[rows], e[rows]
    return values, errs


def _smear(lo, x, y, n):
    """The image smear of lo between (x, 0) and (x, y), summed to |n| = n."""
    return float(sp._image_sum(lo, x, np.array([y * y]), n, G.L)[0][0])


def _former_smear(lo, x, y, n):
    """The image smear as the pointwise density engine summed it, with lo as a one-row frequency axis: the reference.

    The engine took the point to its coincident form at y^2 == 0 and to its
    off-axis form otherwise, over kernel arrays of shape (rows, images) and
    (y^2 rows, frequencies, images), with _PartialSums carrying the total
    from block to block and a one-element prefactor array.
    """
    pref = np.array([lo.pref])
    acc = _PartialSums()
    y2, x2 = np.array([y * y]), 2.0 * x
    for nL, last_block in _former_image_blocks(n, G.L):
        m = nL.size
        if y2[0] == 0.0:
            distances = np.concatenate([nL, np.abs(x2 - nL), x2 + nL, [x2] if last_block else []])
            q = lo.kernels(distances[None], 1)[0]
            qa, pairs, reflected = q[:, :m], q[:, m:2 * m], q[:, 2 * m:3 * m]
            np.subtract(qa, pairs, out=pairs)
            np.subtract(qa, reflected, out=reflected)
            pairs += reflected
            acc.add(pairs)
            if last_block:
                return float((pref * acc.totals(lo.q0 - q[:, 3 * m])[0])[0])
        else:
            bases = np.concatenate([nL ** 2, (x2 - nL) ** 2, (x2 + nL) ** 2, [0.0, x2 ** 2] if last_block else []])
            dist2 = (bases + y2[:, None])[:, None, :]
            q, w = lo.kernels(np.sqrt(dist2))
            w /= dist2
            qa, pairs, q_bn = q[..., :m], q[..., m:2 * m], q[..., 2 * m:3 * m]
            wa, w_pairs, w_bn = w[..., :m], w[..., m:2 * m], w[..., 2 * m:3 * m]
            y2c = np.minimum(y2, sys.float_info.max)[:, None]
            np.subtract(qa, pairs, out=pairs)
            w_pairs -= wa
            np.subtract(qa, q_bn, out=q_bn)
            w_bn -= wa
            pairs += q_bn
            w_pairs += w_bn
            w_pairs *= y2c[..., None]
            pairs += w_pairs
            acc.add(pairs)
            if last_block:
                term0 = (q[..., 3 * m] - q[..., 3 * m + 1]) + y2c * (w[..., 3 * m + 1] - w[..., 3 * m])
                return float((pref * acc.totals(term0)[0])[0, 0])


class TestSharedImageTerms:
    OMEGAS = np.array([0.7, 2.2, PI + 1e-3, 5.0, 7.9, 4.0 * PI - 1e-3])

    @pytest.mark.parametrize("n_terms", [0, 1, 300])
    def test_multi_x_call_equals_each_x_alone(self, n_terms):
        # one call takes its x one at a time; both plates and the fig4-left
        # grid, symmetric under x -> a - x, included
        policy = TruncationPolicy(n_terms=n_terms)
        xs = [0.0, 0.05, 0.3, 0.9999] + np.linspace(0.0, 1.0, 41).tolist()
        values, errs = sp._sigma_diag_values(self.OMEGAS, xs, G, policy)
        assert values.shape == errs.shape == (len(xs), self.OMEGAS.size)
        for i, x in enumerate(xs):
            for j, omega in enumerate(self.OMEGAS):
                s = sigma_yy_diag(float(omega), x, G, policy)
                assert (values[i, j], errs[i, j]) == (s.value, s.err)
        assert np.all(values[0] == 0.0)

    @pytest.fixture
    def kernel_sizes(self, monkeypatch):
        """Sizes of the arrays the spectral module hands to q_kernel from now on."""
        sizes = []

        def counting(u, kernel=sp.q_kernel):
            sizes.append(np.size(u))
            return kernel(u)

        monkeypatch.setattr(sp, "q_kernel", counting)
        return sizes

    def test_pools_of_x_bound_the_kernel_arrays(self, kernel_sizes):
        # 301 x at N = 1000 need 602 301 distances: the call takes them one x at a time
        policy = TruncationPolicy(n_terms=1000)
        xs = np.linspace(0.0, 1.0, 301).tolist()
        values, errs = sp._sigma_diag_values(self.OMEGAS[:2], xs, G, policy)
        assert len(kernel_sizes) > 1 and max(kernel_sizes) <= sp._WORKING_SET
        for i, x in enumerate(xs):
            for j, omega in enumerate(self.OMEGAS[:2]):
                s = sigma_yy_diag(float(omega), x, G, policy)
                assert (values[i, j], errs[i, j]) == (s.value, s.err)

    def test_blocks_of_points_and_frequencies_bound_the_kernel_arrays(self, monkeypatch):
        # 3000 image pairs make 9002 image bases per y^2, more than one block holds:
        # each x, frequency and y^2 takes two blocks of images
        sizes = []

        def recording(u, *kernels, spliced=sp._spliced):
            sizes.append(np.size(u))
            return spliced(u, *kernels)

        monkeypatch.setattr(sp, "_spliced", recording)
        policy = TruncationPolicy(n_terms=3000)
        omegas = np.linspace(0.5, 13.0, 60)
        ys = np.linspace(-4.0, 4.0, 45)  # y = 0 included
        for om, points in ((omegas, [FieldPoint(x=0.3, y=y) for y in ys[::11]]),
                           (omegas[::30], [FieldPoint(x=0.3, y=y) for y in ys])):
            sizes.clear()
            values, errs = sp._sigma_yy_values(om, points, G, policy)
            assert len(sizes) > 5 and max(sizes) <= sp._WORKING_SET
            for i, point in enumerate(points):
                for j, omega in enumerate(om):
                    s = sigma_yy(float(omega), point, G, policy)
                    assert (values[i, j], errs[i, j]) == (s.value, s.err)

    def test_points_sharing_y_squared_equal_single_points(self):
        # mixed signs, repeats, y = 0 and subnormal y whose square underflows to 0
        policy = TruncationPolicy(n_terms=200)
        ys = [1.3, -1.3, 0.0, 5e-324, -1e-170, 0.4, 45.0, -0.4, 1.3, -0.0]
        for x in (0.0, 0.31, 0.75):
            points = [FieldPoint(x=x, y=y) for y in ys]
            values, errs = sp._sigma_yy_values(self.OMEGAS, points, G, policy)
            assert values.shape == errs.shape == (len(ys), self.OMEGAS.size)
            for i, point in enumerate(points):
                for j, omega in enumerate(self.OMEGAS):
                    s = sigma_yy(float(omega), point, G, policy)
                    assert (values[i, j], errs[i, j]) == (s.value, s.err)

    @pytest.mark.parametrize("axis", ["frequencies", "smeared"])
    @pytest.mark.parametrize("n_terms", [0, 1, 200])
    def test_many_x_call_equals_each_point_alone(self, axis, n_terms):
        # both plates, an interior x and mirror pairs x, a - x; y = 0, +- pairs,
        # repeats and subnormal y whose square underflows; a full grid, then the
        # same points scattered so that blocks hold pairs (x, y^2) nobody asked for
        policy = TruncationPolicy(n_terms=n_terms)
        xs = [0.0, 1.0, 0.31, 0.69, 0.25, 0.75]
        ys = [0.0, 1.3, -1.3, 5e-324, -1e-170, 0.4, 45.0, -0.4, 1.3, -0.0]
        grid = [FieldPoint(x=x, y=y) for x in xs for y in ys]
        scattered = [FieldPoint(x=x, y=y) for x, y in zip(xs * 2, ys + ys[:2])][::-1]
        if axis == "smeared":  # the smear sums one point at a time: each equals the engine's former sum
            lo = sp._SmearedLO(TWO_PI, TWO_PI / 20.0, 1.3)
            for p in grid:
                assert repr(_smear(lo, p.x, p.y, n_terms)) == repr(_former_smear(lo, p.x, p.y, n_terms))
            return
        for points in (grid, scattered):
            values, errs = sp._sigma_yy_values(self.OMEGAS, points, G, policy)
            assert values.shape == errs.shape == (len(points), self.OMEGAS.size)
            for i, point in enumerate(points):
                alone = sp._sigma_yy_values(self.OMEGAS, [point], G, policy)
                assert np.array_equal(values[i], alone[0][0]) and np.array_equal(errs[i], alone[1][0])

    def test_an_empty_frequency_array_gives_empty_rows(self):
        points = [FieldPoint(x=0.3, y=y) for y in (0.0, 0.5)] + [FieldPoint(x=0.6, y=0.5)]
        for n_terms in (10, 50_000):
            values, errs = sp._sigma_yy_values(np.array([]), points, G, TruncationPolicy(n_terms=n_terms))
            assert values.shape == errs.shape == (3, 0)

    def test_many_x_take_one_image_sum_each_within_the_working_set(self, monkeypatch):
        # at N = 3000 one x has 3 N + 2 = 9002 squared image bases, so its images span two
        # blocks of one y^2 row each; each x and frequency takes one sum of its distinct y^2
        policy = TruncationPolicy(n_terms=3000)
        xs, ys = np.linspace(0.0, 1.0, 41).tolist(), [0.0, -0.6, 2.5, 0.6]
        points = [FieldPoint(x=x, y=y) for x in xs for y in ys]
        kernels, calls = [], []

        def spliced(u, *k, inner=sp._spliced):
            kernels.append(np.size(u))
            return inner(u, *k)

        def image_sum(pointwise, x, y2, *args, inner=sp._image_sum):
            calls.append((x, pointwise.omega, y2.tolist()))
            return inner(pointwise, x, y2, *args)

        monkeypatch.setattr(sp, "_spliced", spliced)
        monkeypatch.setattr(sp, "_image_sum", image_sum)
        values, errs = sp._sigma_yy_values(self.OMEGAS[:2], points, G, policy)
        assert calls == [(x, w, [0.0, 0.36, 6.25]) for x in xs for w in self.OMEGAS[:2].tolist()]
        assert max(kernels) <= sp._WORKING_SET
        monkeypatch.undo()
        for i in range(0, len(points), 7):
            alone = sp._sigma_yy_values(self.OMEGAS[:2], [points[i]], G, policy)
            assert np.array_equal(values[i], alone[0][0]) and np.array_equal(errs[i], alone[1][0])


class TestImageBlocks:
    """One point whose images exceed _WORKING_SET is summed in blocks of images."""

    OMEGAS = np.array([0.7, 5.0, 4.0 * PI - 1e-3])

    # at N = 1000 a block of 3000 holds 999 pairs, 301 holds 99 and 29 holds 9: with 3000
    # and 29 one pair is left for the last block, which takes the running total over
    @pytest.mark.parametrize("block", [3000, 301, 29])
    @pytest.mark.parametrize("axis", ["frequencies", "smeared"])
    def test_blocks_equal_one_block_bit_for_bit(self, block, axis, monkeypatch):
        policy = TruncationPolicy(n_terms=1000)
        points = [FieldPoint(x=0.31, y=y) for y in (0.0, 0.4, -1.3, 45.0)]
        xs = [0.31, 0.75]

        def evaluate():
            if axis == "smeared":  # the image sum over the smeared kernels, one point at a time
                lo = sp._SmearedLO(TWO_PI, TWO_PI / 20.0, 1.3)
                smear = [_smear(lo, p.x, p.y, policy.n_terms) for p in (*points, *map(FieldPoint, xs))]
                return (np.array(smear),)
            return (*sp._sigma_yy_values(self.OMEGAS, points, G, policy),
                    *sp._sigma_diag_values(self.OMEGAS, xs, G, policy))

        sizes = []

        def recording(u, *kernels, spliced=sp._spliced):
            sizes.append(np.size(u))
            return spliced(u, *kernels)

        monkeypatch.setattr(sp, "_spliced", recording)
        whole, calls = evaluate(), len(sizes)
        sizes.clear()
        monkeypatch.setattr(sp, "_WORKING_SET", block)
        blocked = evaluate()
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))
        if axis == "frequencies":
            assert len(sizes) > calls and max(sizes) <= block

    def test_many_points_at_the_real_block_size_equal_each_point_alone(self, monkeypatch):
        # at N = 50 000 the 3 N + 1 image terms of one x span 19 blocks of _WORKING_SET
        policy = TruncationPolicy(n_terms=50_000)
        assert 3 * policy.n_terms + 1 > sp._WORKING_SET
        omegas = np.array([2.2, 9.1])
        xs = [0.31, 0.5, 0.9]
        points = [FieldPoint(x=x, y=y) for x, y in ((0.31, 0.0), (0.31, 0.7), (0.5, -0.7), (0.9, 0.0), (0.9, 2.0))]
        smeared = sp._SmearedLO(TWO_PI, TWO_PI / 20.0, 1.3)

        def evaluate():
            return (sp._sigma_diag_values(omegas, xs, G, policy), sp._sigma_yy_values(omegas, points, G, policy),
                    (np.array([_smear(smeared, p.x, p.y, policy.n_terms) for p in points]),))

        blocked = evaluate()
        diag = blocked[0]
        for i, x in enumerate(xs):
            for j, omega in enumerate(omegas.tolist()):
                s = sigma_yy_diag(omega, x, G, policy)
                assert (diag[0][i, j], diag[1][i, j]) == (s.value, s.err)
        values, errs = blocked[1]
        for i, point in enumerate(points):
            alone = sp._sigma_yy_values(omegas, [point], G, policy)
            assert np.array_equal(values[i], alone[0][0]) and np.array_equal(errs[i], alone[1][0])
            assert blocked[2][0][i] == _smear(smeared, point.x, point.y, policy.n_terms)
        # and the blocks equal one block, a single cumsum over all the pairs of each point
        monkeypatch.setattr(sp, "_WORKING_SET", 2**18)
        whole = evaluate()
        assert all(np.array_equal(a, b) for pair in zip(whole, blocked) for a, b in zip(*pair))

    def test_one_point_at_a_million_images_holds_a_few_blocks(self):
        policy = TruncationPolicy(n_terms=10**6)
        tracemalloc.start()
        try:
            sigma_yy(6.0, FieldPoint(x=0.5, y=0.7), G, policy)
            sigma_yy_diag(6.0, 0.5, G, policy)
            _smear(sp._SmearedLO(6.3, 1e-3, 1.0), 0.4, 0.7, policy.n_terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block array is 64 KiB; the 3 N + 2 image bases alone would be 24 MB
        assert peak < 24 * 2**20


class TestImageSum:
    """The pointwise densities, one _image_sum per x and frequency, against the engine they replaced."""

    # the real budget; at 602 N = 1000 and 2000 in 5 and 10 blocks; at 11 N = 7 in blocks of 3, 3 and 1
    # pairs, with chunks of five and two y^2 rows where the images fit one block (N = 0 and 1)
    @pytest.mark.parametrize("block", [sp._WORKING_SET, 602, 11])
    def test_equals_the_former_engine_bit_for_bit(self, block, monkeypatch):
        # plate distances on both plates, next to one and inside; offsets 0, -0.0, ones whose square
        # underflows, a repeated y^2, O(1) and 50; frequencies below 1 (series kernels), O(1) and 12
        monkeypatch.setattr(sp, "_WORKING_SET", block)
        rng = random.Random(26)
        for n in (0, 1, 7, 1000, 2000) if block > 11 else (0, 1, 7):
            policy = TruncationPolicy(n_terms=n)
            for count in (0, 1, 3):  # an empty frequency array first
                xs = [0.0, 1e-4, rng.uniform(0.0, 1.0), 1.0]
                ys = [0.0, -0.0, 5e-324, -1e-170, 0.4, -0.4, rng.uniform(-3.0, 3.0), 50.0]
                points = [FieldPoint(x, y) for x in xs for y in rng.sample(ys, rng.randint(1, len(ys)))]
                rng.shuffle(points)
                omegas = np.array([rng.uniform(0.05, 0.9), rng.uniform(1.0, 12.0), 12.0][:count])
                got = (*sp._sigma_yy_values(omegas, points, G, policy), *sp._sigma_diag_values(omegas, xs, G, policy))
                want = (*_former_yy_values(omegas, points, n), *_former_diag_values(omegas, xs, n))
                assert [a.shape for a in got] == [a.shape for a in want]
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (n, xs, points, omegas)


class _TrigSizes:
    """numpy for the spectral module, recording the size of every array it takes sin or cos of."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, a, *args, **kwargs):
        self.sizes.append(np.size(a))
        return np.sin(a, *args, **kwargs)

    def cos(self, a, *args, **kwargs):
        self.sizes.append(np.size(a))
        return np.cos(a, *args, **kwargs)


class TestWorkingSet:
    """The blocked loops keep their kernel, sine and node arrays within _WORKING_SET, with the bits of one block."""

    CASES = {
        "coincident-n10000": lambda: sp._sigma_diag_values(np.array([TWO_PI]), [0.25, 1.0], G,
                                                           TruncationPolicy(n_terms=10_000)),
        "fig2-right": lambda: cli._fig2_right_rows(),
        "smear-width-5e-4": lambda: [smeared_density(FieldPoint(0.4, 0.0), FieldPoint(0.4, y), LOKernel(6.3, 5e-4), G)
                                     for y in (0.0, 0.7)],
        "fig4-left": lambda: cli._fig4_left_rows()[0],
        "off-axis-modes": lambda: sigma_modes(TWO_PI - 1e-3, [0.75], np.linspace(-50.0, 50.0, 41).tolist(), G),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_arrays_stay_within_the_budget_with_the_bits_of_one_block(self, case, monkeypatch):
        # the sin and cos arguments are the kernel arrays of the image sums, the sines of
        # the mode sums and the trapezoid nodes of J_0 and J_2
        trig = _TrigSizes()
        monkeypatch.setattr(sp, "np", trig)
        got = np.asarray(self.CASES[case]())
        assert trig.sizes and max(trig.sizes) <= sp._WORKING_SET
        monkeypatch.setattr(sp, "_WORKING_SET", 2**17)
        assert got.tobytes() == np.asarray(self.CASES[case]()).tobytes()


class TestSmearImages:
    """The image sum over the smeared kernels, against the pointwise engine path the smear once took."""

    def test_equals_the_former_engine_path_bit_for_bit(self):
        # a seeded sweep over LO widths omega_lo/10.5 to /200 and 5e-4, plate distances on
        # both plates, next to one and inside, and offsets 0, +-1e-9, O(1), 50 and 1e300,
        # whose square overflows, and for each case the LO's reach and the next float above
        # it; the 2e-5 LO sums its 3 N + 2 images in several blocks
        rng = random.Random(25)
        cases = []
        for _ in range(200):
            omega_lo = rng.uniform(0.5, 40.0)
            width = rng.choice([omega_lo / rng.uniform(10.5, 200.0)] * 4 + [5e-4])
            x = rng.choice([0.0, 1e-4, rng.uniform(0.0, 1.0), 1.0])
            y = rng.choice([0.0, 1e-9, -1e-9, rng.uniform(-3.0, 3.0), 50.0, 1e300])
            cases.append((LOKernel(omega_lo, width), x, rng.choice([0.0, rng.uniform(-2.0, 2.0)]), y))
        blocked = LOKernel(6.3, 2e-5)
        assert 3 * sp._SmearedLO(6.3, 2e-5, 1.0).image_terms(G.L) > sp._WORKING_SET
        cases += [(blocked, x, 0.0, y) for x, y in ((0.4, 0.0), (0.4, 0.7), (1e-4, 1e300))]
        for kernel, x, y1, y in cases:
            lo = sp._SmearedLO(kernel.omega_lo, kernel.width, kernel.squared_integral())
            for y in (y, lo.reach, math.nextafter(lo.reach, math.inf)):
                r = smeared_density(FieldPoint(x, y1), FieldPoint(x, y1 + y), kernel, G)
                assert repr(r) == repr(_former_smear(lo, x, (y1 + y) - y1, lo.image_terms(G.L))), (kernel, x, y1, y)

    @pytest.mark.parametrize("y", ["ABOVE", "-ABOVE", 1e300, -1e300])
    def test_an_offset_beyond_the_reach_is_zero_without_an_image_sum(self, y, monkeypatch):
        # every image lies at D >= |y|, where both smeared kernels are exactly 0; 1e300 squared overflows
        kernel = LOKernel(6.283185307179586, 6.283185307179586 / 20)
        lo = sp._SmearedLO(kernel.omega_lo, kernel.width, kernel.squared_integral())
        above = math.nextafter(lo.reach, math.inf)
        y = {"ABOVE": above, "-ABOVE": -above}.get(y, y)
        assert repr(_former_smear(lo, 0.5, y, lo.image_terms(G.L))) == "0.0"
        monkeypatch.setattr(bhd, "_image_sum", lambda *args: pytest.fail("summed images beyond the reach"))
        assert repr(smeared_density(FieldPoint(0.5, 0.0), FieldPoint(0.5, y), kernel, G)) == "0.0"


def _normalized_difference(omega, x, policy):
    """(sigma(omega, x, x) - sigma_vacuum) / sigma_vacuum, as the fig4-left recipe computes it."""
    vac = sigma_vacuum(omega, 0.0)
    return (sigma_yy_diag(omega, x, G, policy).value - vac) / vac


class TestDerivedQuantities:
    def test_normalized_difference_at_the_plate(self):
        assert _normalized_difference(5.0, 0.0, TruncationPolicy(n_terms=100)) == -1.0

    def test_normalized_difference_below_cutoff(self):
        policy = TruncationPolicy(n_terms=1000)
        for omega in (1.0, 2.0, 3.0):
            assert _normalized_difference(omega, 0.5, policy) == pytest.approx(-1.0, abs=0.05)

    def test_normalized_difference_regression_pin(self):
        # frozen at the first validated build: omega = 4 pi - 1e-3, x = a/2, N = 10^4
        value = _normalized_difference(4.0 * PI - 1e-3, 0.5, TruncationPolicy(n_terms=10_000))
        assert value == pytest.approx(-0.015509349251662025, rel=1e-9)
        assert -1.0 < value

    def test_suppression_matches_the_ratio(self):
        # every fig4-right value is 10 log10 of the exact coincident density over vacuum
        rows, omegas, _ = cli._fig4_right_rows()
        assert len(rows) > 100
        for omega, d025, d05 in rows:
            for x, db in ((0.25, d025), (0.5, d05)):
                assert db == 10.0 * math.log10(sigma_modes_diag(omega, x, G) / sigma_vacuum(omega, 0.0))

    def test_suppression_undefined_below_cutoff(self):
        # frozen sample where the truncated ratio comes out slightly negative
        policy = TruncationPolicy(n_terms=1000)
        assert sigma_yy_diag(2.0, 0.5, G, policy).value / sigma_vacuum(2.0, 0.0) == pytest.approx(-5.4e-4, abs=2e-4)
        # fig4-right has no dB value where the exact density is 0 (below pi), and drops the row
        rows, omegas, dbs = cli._fig4_right_rows()
        for x in (0.25, 0.5):
            for omega, db in zip(omegas.tolist(), dbs[x]):
                assert (db is None) == (sigma_modes_diag(omega, x, G) <= 0.0)
        dropped = [w for j, w in enumerate(omegas) if dbs[0.25][j] is None or dbs[0.5][j] is None]
        assert dropped == [w for w in omegas.tolist() if w < PI] and len(dropped) == 39
        assert len(rows) == len(omegas) - len(dropped)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SpectralSample(omega=1.0, value=0.0, err=-1.0, terms=10)


class TestCutoffSequence:
    """sigma_yy at a fixed point over increasing cutoffs N, as validate check 8 tabulates it."""

    @staticmethod
    def rows(omega, point, cutoffs):
        return [sigma_yy(omega, point, G, TruncationPolicy(n_terms=n)) for n in cutoffs]

    def test_plate_rows_are_exactly_zero(self):
        assert all(r.value == 0.0 for r in self.rows(TWO_PI, FieldPoint(0.0, 0.0), [10, 100, 1000]))

    def test_single_image_row(self):
        omega, x = TWO_PI, 0.25
        (row,) = self.rows(omega, FieldPoint(x, 0.0), [0])
        expected = omega**3 / (4.0 * PI**2) * (2.0 / 3.0 - q_kernel(2.0 * omega * x))
        assert row.value == pytest.approx(expected, rel=1e-15)

    def test_successive_differences_shrink(self):
        rows = self.rows(TWO_PI, FieldPoint(0.25, 0.0), [100, 1000, 10_000])
        deltas = [abs(b.value - a.value) for a, b in zip(rows, rows[1:])]
        assert deltas[1] < deltas[0]
        assert [r.terms for r in rows] == [100, 1000, 10_000]

    @pytest.mark.parametrize("n_terms", [100.7, True])
    def test_a_float_or_bool_cutoff_is_refused(self, n_terms):
        with pytest.raises(ValueError):
            TruncationPolicy(n_terms=n_terms)
