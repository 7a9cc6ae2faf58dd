import math
import re
import sys

import numpy as np
import pytest

from cavityspectra.errors import LightConeProximity
from cavityspectra import imagesum, spectral
from cavityspectra.imagesum import (
    MAX_IMAGE_TERMS,
    SpacetimePoint,
    TruncationPolicy,
    image_sum,
    two_point_yy_closed,
    two_point_yy_fd,
    two_point_yy_lattice,
    _squared_image_distances,
)
from cavityspectra.units import CavityGeometry, FieldPoint

G = CavityGeometry(1.0)
PI_SQ = math.pi**2


class TestTruncationPolicy:
    def test_cutoffs_beyond_the_image_cap_are_refused(self):
        # constructing a policy evaluates nothing, so the cap itself costs no memory here
        assert MAX_IMAGE_TERMS == 2**20
        assert TruncationPolicy(n_terms=MAX_IMAGE_TERMS).n_terms == MAX_IMAGE_TERMS
        for n_terms in (MAX_IMAGE_TERMS + 1, 10_000_000):
            with pytest.raises(ValueError, match=f"cutoff {n_terms} exceeds"):
                TruncationPolicy(n_terms=n_terms)
        with pytest.raises(ValueError, match="nonnegative"):
            TruncationPolicy(n_terms=-1)

    @pytest.mark.parametrize("n_terms", [True, False, 2.5, 1000.0, "10", None, np.float64(3.0)])
    def test_a_cutoff_that_is_not_an_integer_is_refused(self, n_terms):
        with pytest.raises(ValueError, match=re.escape(f"cutoff must be an integer, got {n_terms!r}")):
            TruncationPolicy(n_terms=n_terms)

    @pytest.mark.parametrize("n_terms", [np.int64(40), np.int32(40), np.uint16(40)])
    def test_a_numpy_integer_cutoff_sums_as_the_int(self, n_terms):
        policy = TruncationPolicy(n_terms=n_terms)
        assert type(policy.n_terms) is int and policy == TruncationPolicy(n_terms=40)
        point = FieldPoint(x=0.3, y=0.7)
        assert (spectral.sigma_yy(6.0, point, G, policy).value
                == spectral.sigma_yy(6.0, point, G, TruncationPolicy(n_terms=40)).value)

    def test_the_smear_shares_the_cap(self):
        assert spectral.MAX_IMAGE_TERMS is MAX_IMAGE_TERMS


class TestImageDistances:
    # the squared distances the closed-form sums use, against math.hypot
    def test_central_image(self):
        _, _, _, a2_0, b2_0 = _squared_image_distances(FieldPoint(x=0.3, y=0.0), 0, G.L)
        assert a2_0 == 0.0 and b2_0 == math.hypot(0.6, 0.0) ** 2

    def test_transverse_offset_only(self):
        _, _, _, a2_0, b2_0 = _squared_image_distances(FieldPoint(x=0.4, y=3.0), 0, G.L)
        assert a2_0 == math.hypot(0.0, 3.0) ** 2
        assert b2_0 == pytest.approx(math.hypot(0.8, 3.0) ** 2, rel=1e-15)

    def test_first_reflected_image_vanishes_at_the_far_plate(self):
        a2, b2_pos, _, _, _ = _squared_image_distances(FieldPoint(x=1.0, y=0.0), 1, G.L)
        assert b2_pos[0] == 0.0 and a2[0] == math.hypot(2.0, 0.0) ** 2


def _tails(base, offset, L, N):
    """sum_n 1/((base - n L)^2 + offset) over the two tails |n| > N.

    Each tail sum_{m > N} g(m), g(u) = 1/((u L - beta)^2 + offset) with beta =
    +-base, is its Euler-Maclaurin midpoint form: the integral of g from
    N + 1/2 on, plus g'(N + 1/2)/24; what that leaves is about
    7 |g'''| / 5760 ~ 0.03 / (L^2 N^5).
    """
    total = 0.0
    for beta in (base, -base):
        v = (N + 0.5) * L - beta
        if offset > 0.0:
            g = math.sqrt(offset)
            integral = math.atan(g / v) / g
        elif offset < 0.0:
            alpha = math.sqrt(-offset)
            integral = math.atanh(alpha / v) / alpha
        else:
            integral = 1.0 / v
        d = v * v + offset
        total += integral / L - 2.0 * L * v / d / d / 24.0
    return total


def _truncated_plus_tail(base, offset, L, N):
    """sum_n 1/((base - n L)^2 + offset) over |n| <= N, plus the tails beyond."""
    n = np.arange(-N, N + 1, dtype=float)
    return math.fsum((1.0 / ((base - n * L) ** 2 + offset)).tolist()) + _tails(base, offset, L, N)


def _seeded_rows(rng, count, regime):
    """(base, offset) rows of one regime whose nearest gap is at least 0.01, offsets from 1e-300 to 1e300."""
    rows = []
    while len(rows) < count:
        base = float(rng.choice([rng.uniform(-5.0, 5.0), rng.uniform(-1e3, 1e3)]))
        if regime == "spacelike":
            offset = float(10.0 ** rng.uniform(-300.0, 300.0)) if rng.random() < 0.5 else float(rng.uniform(0.0, 9.0))
        elif regime == "timelike":
            offset = -float(rng.choice([rng.uniform(0.0, 100.0), 10.0 ** rng.uniform(-300.0, 0.0)]))
        else:
            offset = 0.0
        if imagesum._nearest_pole(base, offset, G.L)[1] >= 0.01:
            rows.append((base, offset))
    return rows


class TestImageSum:
    # every sum is over the whole image lattice, N = oo
    def test_single_term_is_the_free_space_kernel(self):
        # the N = oo sum in a cavity of a = 1e8, whose n != 0 images add about
        # 2 zeta(2)/L^2 = 8e-17, 3e-18 of the n = 0 term alone
        p = SpacetimePoint(t=0.2, x=0.3, y=0.1, z=0.0)
        q = SpacetimePoint(t=0.0, x=0.5, y=0.0, z=0.0)
        interval = (0.3 - 0.5) ** 2 + 0.1**2 - 0.2**2
        expected = -1.0 / (4.0 * PI_SQ * interval)
        assert image_sum(-1, p, q, CavityGeometry(1e8)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("regime", ["spacelike", "timelike", "null"])
    def test_each_regime_is_the_long_sum_plus_its_tail(self, regime):
        # 2 * 10^5 + 1 terms and their tails, with numpy's floating-point warnings raised, up to offset 1e300
        rng = np.random.default_rng({"spacelike": 41, "timelike": 42, "null": 43}[regime])
        rows = _seeded_rows(rng, 30, regime) + {
            "spacelike": [(0.7, 1e300), (-3.3, 1e-300), (0.7, 5e-324), (1e3 + 0.5, 1e-6), (0.0, 1e-6)],
            "timelike": [(0.7, -1e-300), (-3.3, -5e-324), (0.5, -0.01), (999.0, -99.0)],
            "null": [(0.01, 0.0), (-1.0, 0.0)],
        }[regime]
        with np.errstate(all="raise"):
            for base, offset in rows:
                want = _truncated_plus_tail(base, offset, G.L, 100_000)
                assert imagesum._lattice_sum(base, offset, G.L) == pytest.approx(want, rel=1e-12), (base, offset)

    def test_the_public_sum_is_the_lattice_sum_of_its_row(self):
        p = SpacetimePoint(t=0.7, x=0.3, y=0.4, z=-0.2)
        q = SpacetimePoint(t=0.0, x=0.6, y=0.0, z=0.0)
        for sign in (-1, +1):
            base, offset = p.x + sign * q.x, 0.4**2 + 0.2**2 - 0.7**2
            want = -_truncated_plus_tail(base, offset, G.L, 100_000) / (4.0 * PI_SQ)
            assert image_sum(sign, p, q) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.13, 0.9, 3.0])
    def test_plate_cancellation_is_exact(self, t):
        # on the plate the translated and reflected bases are -q.x and +q.x: the same sum, to the bit
        rng = np.random.default_rng(44)
        compared = 0
        for _ in range(50):
            p = SpacetimePoint(t=t, x=0.0, y=0.2, z=0.05)
            q = SpacetimePoint(t=0.0, x=float(rng.uniform(0.0, 1.0)), y=float(rng.uniform(-2.0, 2.0)), z=0.0)
            try:
                translated = image_sum(-1, p, q)
            except LightConeProximity:
                continue
            assert translated - image_sum(+1, p, q) == 0.0
            compared += 1
        assert compared > 40

    @pytest.mark.parametrize(
        "p,q",
        [
            (SpacetimePoint(0.02, 0.04, 0.06, 0.0), SpacetimePoint(0.0, 0.05, 0.0, 0.0)),
            (SpacetimePoint(0.01, 0.03, 0.0, 0.0), SpacetimePoint(0.0, 0.02, 0.0, 0.05)),
        ],
    )
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_truncation_converges(self, p, q, sign):
        # spacelike, closely separated pair: the tail decays like 1/(nL)^2
        base = p.x + sign * q.x
        offset = (p.y - q.y) ** 2 + (p.z - q.z) ** 2 - (p.t - q.t) ** 2
        n = np.arange(-100, 101, dtype=float)
        f_small = -float(np.sum(1.0 / ((base - n * G.L) ** 2 + offset))) / (4.0 * PI_SQ)
        f_lattice = image_sum(sign, p, q)
        assert abs(f_small - f_lattice) / abs(f_lattice) < 1e-4

    def test_sequential_accumulation_plus_its_tails_agrees(self):
        # an in-order n = -N..N loop plus the tails |n| > N reaches the N = oo sum up to rounding
        p = SpacetimePoint(0.1, 0.3, 0.4, 0.0)
        q = SpacetimePoint(0.0, 0.6, 0.0, 0.0)
        N, L = 500, G.L
        base = p.x - q.x
        offset = (p.y - q.y) ** 2 + (p.z - q.z) ** 2 - (p.t - q.t) ** 2
        total = 0.0
        for n in range(-N, N + 1):
            total += 1.0 / ((base - n * L) ** 2 + offset)
        sequential = -(total + _tails(base, offset, L, N)) / (4.0 * PI_SQ)
        assert image_sum(-1, p, q) == pytest.approx(sequential, rel=1e-12)

    def test_light_cone_guard(self):
        # null-separated from the n=0 image
        p = SpacetimePoint(t=0.5, x=0.3, y=0.4, z=0.0)
        q = SpacetimePoint(t=0.0, x=0.6, y=0.0, z=0.0)
        with pytest.raises(LightConeProximity):
            image_sum(-1, p, q)

    @pytest.mark.parametrize("sign, n", [(-1, 1500), (-1, -2001), (+1, -1200), (+1, 5000)])
    def test_a_pole_beyond_any_former_cutoff_is_refused_by_index_and_branch(self, sign, n):
        # the truncated sums stopped at N = 10, 400 or 1000 and summed straight across these cones
        q = SpacetimePoint(t=0.0, x=0.2, y=0.0, z=0.0)
        p = SpacetimePoint(t=abs(0.5 + sign * q.x - n * G.L), x=0.5, y=0.0, z=0.0)
        with pytest.raises(LightConeProximity) as exc:
            image_sum(sign, p, q)
        branch = "translated" if sign == -1 else "reflected"
        assert (exc.value.image_index, exc.value.branch) == (n, branch)
        assert f"{branch} image light cone at image index n={n} " in str(exc.value)

    def test_an_exact_pole_whose_rounded_gap_lies_outside_the_band_is_refused(self):
        # base = sqrt(-offset) to the bit: the closed form's sine vanishes, while the rounded gap
        # base^2 + offset at |offset| = 3e10 reads 3.8e-6, where a division by zero once followed
        t, y = 173205.3, 0.7
        p = SpacetimePoint(t=t, x=math.sqrt(t**2 - y**2), y=y, z=0.0)
        with pytest.raises(LightConeProximity) as exc:
            image_sum(-1, p, SpacetimePoint(0.0, 0.0, 0.0, 0.0))
        assert (exc.value.image_index, exc.value.branch) == (0, "translated")
        assert exc.value.gap > imagesum.GUARD_BAND

    def test_sign_validated(self):
        p = SpacetimePoint(0.0, 0.3, 0.0, 0.0)
        with pytest.raises(ValueError):
            image_sum(0, p, p)

    def test_an_overflowing_base_is_refused(self):
        p = SpacetimePoint(0.0, 1e308, 0.0, 0.0)
        with pytest.raises(ValueError, match="overflows"):
            image_sum(+1, p, p)

    @pytest.mark.parametrize("axis", ["y", "t"])
    @pytest.mark.parametrize("big", [1e200, -1e200])
    def test_an_overflowing_offset_is_refused_by_name(self, axis, big):
        # dy^2 or dt^2 past the float range was a bare OverflowError from the Python float **
        p = SpacetimePoint(0.0, 0.3, 0.0, 0.0)
        q = SpacetimePoint(**{"t": 0.0, "x": 0.6, "y": 0.0, "z": 0.0, axis: big})
        for sign in (-1, 1):
            with pytest.raises(ValueError, match=re.escape("the image offset dy^2 + dz^2 - dt^2 = ")):
                image_sum(sign, p, q, G)
        s, y = (big, 1.0) if axis == "t" else (0.3, big)
        with pytest.raises(ValueError, match="the image offset .* overflows"):
            two_point_yy_fd(s, FieldPoint(0.5, y), G)


def _former_two_point_yy_closed(s, point, geometry, policy):
    """two_point_yy_closed as it was before each light-cone gap was cubed once: the reference."""
    imagesum.validate_point(point, geometry)
    N = policy.n_terms
    reach = s * s + point.y * point.y + ((N + 1) * geometry.L) ** 2
    if not math.isfinite(reach * reach * reach):
        raise ValueError(f"time separation s = {s!r} at offset y = {point.y!r}: "
                         "the cubed light-cone gaps s^2 - D^2 overflow")
    a2, b2_pos, b2_neg, a2_0, b2_0 = _squared_image_distances(point, N, geometry.L)
    s2 = s * s
    y2 = point.y * point.y

    dA0 = s2 - a2_0
    dB0 = s2 - b2_0
    if abs(dA0) < imagesum.GUARD_BAND:
        raise LightConeProximity(0, "translated", abs(dA0), imagesum.GUARD_BAND)
    if abs(dB0) < imagesum.GUARD_BAND:
        raise LightConeProximity(0, "reflected", abs(dB0), imagesum.GUARD_BAND)
    dA = s2 - a2
    dBp = s2 - b2_pos
    dBn = s2 - b2_neg
    idx = np.arange(1, N + 1)
    imagesum._raise_near_cone(dA, idx, "translated")
    imagesum._raise_near_cone(dBp, idx, "reflected")
    imagesum._raise_near_cone(dBn, -idx, "reflected")

    def per_image(a2v, da, b2v, db):
        main = (a2v + s2) / da**3 - (b2v + s2) / db**3
        trans = 1.0 / db**3 - 1.0 / da**3
        return main + 2.0 * y2 * trans

    term0 = per_image(a2_0, dA0, b2_0, dB0)
    if N == 0:
        return term0 / PI_SQ
    pairs = per_image(a2, dA, b2_pos, dBp) + per_image(a2, dA, b2_neg, dBn)
    total = float(np.cumsum(pairs)[-1]) + term0
    return total / PI_SQ


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (ValueError, LightConeProximity) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTwoPointClosed:
    def test_equals_the_former_form_bit_for_bit(self):
        # a seeded sweep over cutoffs, times and points, with values and refusals compared as text;
        # s = 2 at y = 0 lies on the first translated light cone and s = 1e308 or y = 1e200 overflow.
        # The former form summed across the cones of images beyond its cutoff: there it gave a value
        # where the present one refuses, naming an image |n| > N
        rng = np.random.default_rng(15)
        outcomes, beyond = [], 0
        for _ in range(400):
            n_terms = int(rng.choice([0, 1, 10, 400, 1000]))
            s = float(rng.choice([rng.uniform(0.0, 5.0), rng.uniform(0.0, 0.5), rng.uniform(0.0, 3000.0), 2.0, 1e308]))
            x = float(rng.choice([rng.uniform(0.0, 1.0), 0.0, 1.0, 0.5]))
            y = float(rng.choice([rng.uniform(-3.0, 3.0), rng.uniform(-1e3, 1e3), 0.0, 1e50, 1e200]))
            args = (s, FieldPoint(x=x, y=y), G, TruncationPolicy(n_terms=n_terms))
            outcomes.append(_outcome(two_point_yy_closed, *args))
            want = _outcome(_former_two_point_yy_closed, *args)
            if outcomes[-1] != want:
                with pytest.raises(LightConeProximity) as exc:
                    two_point_yy_closed(*args)
                assert abs(exc.value.image_index) > n_terms and ":" not in want, (args, want)
                beyond += 1
        kinds = [o.split(":")[0] for o in outcomes]
        assert kinds.count("LightConeProximity") > 10 and kinds.count("ValueError") > 10
        assert len(kinds) - kinds.count("LightConeProximity") - kinds.count("ValueError") > 100
        assert 0 < beyond < 40

    @pytest.mark.parametrize("s, x, y, n_terms, branch, n", [
        (2400.0, 0.5, 0.0, 1000, "translated", 1200),
        (2.0, 0.5, 0.0, 0, "translated", 1),
        (math.sqrt(2.8**2 + 0.25), 0.4, 0.5, 0, "reflected", -1),
        (math.sqrt(2000.8**2 + 9.0), 0.4, -3.0, 400, "reflected", -1000),
    ])
    def test_a_light_cone_beyond_the_cutoff_is_refused(self, s, x, y, n_terms, branch, n):
        # the image sums diverge there at N = oo; the former form summed across them and returned a value
        with pytest.raises(LightConeProximity) as exc:
            two_point_yy_closed(s, FieldPoint(x=x, y=y), G, TruncationPolicy(n_terms=n_terms))
        assert (exc.value.branch, exc.value.image_index) == (branch, n)
        assert exc.value.gap < imagesum.GUARD_BAND
        assert ":" not in _outcome(_former_two_point_yy_closed, s, FieldPoint(x=x, y=y), G,
                                   TruncationPolicy(n_terms=n_terms))

    @pytest.mark.parametrize("s, y", [(1e308, 1.0), (0.3, 1e200), (0.3, 1e100)])
    def test_overflowing_gaps_are_refused(self, s, y):
        # the cubes of s^2 - D^2 overflow: a nan or a RuntimeWarning would follow
        with pytest.raises(ValueError, match="cubed light-cone gaps"):
            two_point_yy_closed(s, FieldPoint(x=0.5, y=y), G, TruncationPolicy(n_terms=1000))

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_time_separation_is_refused_by_name(self, s):
        with pytest.raises(ValueError, match=f"time separation s must be finite, got {s!r}"):
            two_point_yy_closed(s, FieldPoint(x=0.5, y=1.0), G, TruncationPolicy(n_terms=1000))

    def test_the_largest_admitted_offset_stays_finite(self):
        with np.errstate(all="raise"):
            assert two_point_yy_closed(0.3, FieldPoint(x=0.5, y=1e50), G, TruncationPolicy(n_terms=1000)) == 0.0

    def test_pole_raises_with_image_index(self):
        # s equal to the distance of the first translated image (A_1 = L = 2)
        with pytest.raises(LightConeProximity) as exc:
            two_point_yy_closed(2.0, FieldPoint(x=0.5, y=0.0), G, TruncationPolicy(n_terms=10))
        assert exc.value.image_index in (-1, 1)
        assert "image index" in str(exc.value)

    def test_vanishes_on_the_plate(self):
        value = two_point_yy_closed(0.3, FieldPoint(x=0.0, y=0.9), G, TruncationPolicy(n_terms=200))
        assert value == 0.0

    def test_y_parity_exact(self):
        policy = TruncationPolicy(n_terms=300)
        a = two_point_yy_closed(0.25, FieldPoint(x=0.4, y=0.8), G, policy)
        b = two_point_yy_closed(0.25, FieldPoint(x=0.4, y=-0.8), G, policy)
        assert a == b

    def test_mirror_symmetry_decays_with_cutoff(self):
        # terms fall like 1/(nL)^4, so the index-shift mismatch at the window
        # boundary is bounded by C/N with a very small measured C
        measured_c = 5e-10
        for n_terms in (100, 1000, 10_000):
            policy = TruncationPolicy(n_terms=n_terms)
            d = abs(
                two_point_yy_closed(0.3, FieldPoint(0.3, 0.8), G, policy)
                - two_point_yy_closed(0.3, FieldPoint(0.7, 0.8), G, policy)
            )
            assert d <= measured_c / n_terms

    def test_determinism(self):
        policy = TruncationPolicy(n_terms=700)
        values = {two_point_yy_closed(0.21, FieldPoint(0.35, 1.1), G, policy) for _ in range(5)}
        assert len(values) == 1


def _lattice_at_real_time(s, point):
    """The two-point function at N = oo and real time separation s: the lattice at z^2 = s^2."""
    return float(two_point_yy_lattice(np.array([s * s + 0j]), point, G)[0].real)


class TestTwoPointStencil:
    # the stencil of the N = oo scalar sums against the lattice, also at N = oo
    def test_agrees_with_closed_form(self):
        for s, x, y in [(0.3, 0.35, 1.1), (0.2, 0.6, 0.9), (0.45, 0.75, 1.4)]:
            point = FieldPoint(x=x, y=y)
            fd = two_point_yy_fd(s, point, G, h=1e-3)
            assert fd == pytest.approx(_lattice_at_real_time(s, point), rel=1e-4)

    def test_second_order_in_h(self):
        point = FieldPoint(x=0.35, y=1.1)
        closed = _lattice_at_real_time(0.3, point)
        errs = [abs(two_point_yy_fd(0.3, point, G, h=h) - closed) for h in (4e-3, 2e-3, 1e-3)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.2 < r < 4.8 for r in ratios)

    def test_plate_value_within_stencil_error(self):
        v = two_point_yy_fd(0.3, FieldPoint(x=0.0, y=0.9), G, h=1e-3)
        assert abs(v) <= 1e-6

    def test_interior_stencil_near_both_plates(self):
        for x in (5e-4, 1.0 - 5e-4):
            point = FieldPoint(x=x, y=0.9)
            fd = two_point_yy_fd(0.3, point, G, h=1e-3)
            assert fd == pytest.approx(_lattice_at_real_time(0.3, point), rel=5e-4)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            two_point_yy_fd(0.3, FieldPoint(0.5, 1.0), G, h=0.0)

    @pytest.mark.parametrize("h", [-0.0, -1e-3, math.nan, math.inf, -math.inf, 1e-320, 1e-170, 1e200])
    def test_a_step_that_is_not_positive_finite_with_a_normal_square_is_refused_by_name(self, h):
        # 1e-320 and 1e-170 square to a subnormal or to 0.0, where h * h once divided by zero;
        # nan and inf were refused only as a coordinate, 1e200 as an overflow of its square
        with pytest.raises(ValueError, match=re.escape(f"stencil step h must be positive and finite "
                                                       f"with a normal square h^2, got {h!r}")):
            two_point_yy_fd(0.3, FieldPoint(0.5, 1.0), G, h=h)

    def test_the_smallest_step_with_a_normal_square_is_taken(self):
        h = math.sqrt(sys.float_info.min) * (1.0 + 2**-40)
        assert h * h >= sys.float_info.min
        assert math.isfinite(two_point_yy_fd(0.3, FieldPoint(0.5, 1.0), G, h=h))

    def test_a_pole_beyond_the_former_cutoff_is_refused_by_index_and_branch(self):
        # at x = 0.5, y = 0 the centre point's translated images n = +-700 sit on the cone s = 1400;
        # validate's stencil once stopped at N = 400
        with pytest.raises(LightConeProximity) as exc:
            two_point_yy_fd(1400.0, FieldPoint(0.5, 0.0), G, h=1e-3)
        assert (exc.value.image_index, exc.value.branch) == (700, "translated")


def _term_by_term(z2, x, y, n_images):
    """The image sum of two_point_yy_lattice's docstring, one term per image, cut at n_images."""
    y2 = y * y

    def term(d2):
        return (d2 + z2 - 2.0 * y2) / (z2 - d2) ** 3

    total = term(y2) - term((2.0 * x) ** 2 + y2)
    for n in range(1, n_images + 1):
        for k in (n, -n):
            total = total + term((k * G.L) ** 2 + y2) - term((2.0 * x - k * G.L) ** 2 + y2)
    return total / PI_SQ


class TestLattice:
    # the values of oracle._correlation_complex, the lattice's earlier home,
    # frozen before the move: (s - i eps)^2 at eps 0.0125 and 0.05, then -eps^2
    Z2 = [(0.3 - 0.0125j) ** 2, (2.7 - 0.0125j) ** 2, (45.1 - 0.05j) ** 2, -0.05**2 + 0j, -9.0 + 0j]
    FROZEN = {
        (0.3, 0.0): [(14.611135807415247 + 1.8359916282887916j), (-8.61572832250192 - 3.4224030217736785j),
                     (0.012653965661629444 - 0.010425494648673699j), (16212.165834377103 + 0j),
                     (3.0914446679479255e-05 + 0j)],
        (0.5, 1.3): [(0.030771858453653808 - 0.00038093605424882436j),
                     (0.5317567694185027 + 0.051341263313585524j), (0.1095580208579476 - 1.289550576721665j),
                     (0.026499039624757047 + 0j), (1.839957559304106e-05 + 0j)],
        (0.97, 0.4): [(3.544239584019759 - 1.1277206476493578j),
                      (-0.003196802680671517 - 0.0003293784059970069j),
                      (2.4184674374953013e-05 - 1.4617658131706021e-05j), (0.323797671905313 + 0j),
                      (3.8134185773848357e-07 + 0j)],
    }

    @pytest.mark.parametrize("x, y", list(FROZEN))
    def test_returns_the_bits_it_returned_in_the_oracle(self, x, y):
        got = two_point_yy_lattice(np.array(self.Z2), FieldPoint(x, y), G)
        assert got.tolist() == self.FROZEN[x, y]

    @pytest.mark.parametrize("x, y, n_images", [
        (0.3, 0.0, 20), (0.5, 0.0, 20), (0.3, 1.3, 20), (0.5, 1.3, 20), (0.5, 0.0, 200), (0.3, 1.3, 200)])
    def test_closed_form_matches_the_image_sum_within_its_tail_bound(self, x, y, n_images):
        # 20 001 samples span three evaluation blocks.  Every image the cut
        # drops lies at |b| >= B = n_images L, one sequence of spacing L per
        # lattice and side, and bounds its term by h(b) = (b^2 + T)/(b^2 - T)^3
        # with T = |z2 - y^2| < B^2; h decreases and h <= -d/db b/(b^2 - T)^2,
        # so each sequence sums to at most h(B) + B/(L (B^2 - T)^2) ~ B^-3.
        z2 = (np.linspace(0.0, 30.0, 20_001) - 0.0125j) ** 2
        assert z2.size > 2 * imagesum._BLOCK_SAMPLES
        got = two_point_yy_lattice(z2, FieldPoint(x, y), G)
        ref = _term_by_term(z2, x, y, n_images)
        b, t = n_images * G.L, np.abs(z2 - y * y)
        assert np.all(b * b > t)
        tail = 4.0 * ((b * b + t) / (b * b - t) ** 3 + b / (G.L * (b * b - t) ** 2)) / PI_SQ
        assert np.all(np.abs(got - ref) <= tail + 1e-12 * np.abs(ref))

    def test_the_correlation_vanishes_on_the_plate(self):
        # beta = 2x mod L is 0 on either plate, and the lattices cancel exactly
        z2 = (np.linspace(0.0, 30.0, 2001) - 0.05j) ** 2
        for x in (0.0, G.a):
            assert not np.any(two_point_yy_lattice(z2, FieldPoint(x, 0.7), G))

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.37])
    @pytest.mark.parametrize("y", [0.0, 1.3])
    def test_the_correlation_is_symmetric_about_the_midplane(self, x, y):
        z2 = (np.linspace(0.0, 200.0, 20_001) - 0.0125j) ** 2
        got = two_point_yy_lattice(z2, FieldPoint(x, y), G)
        mirror = two_point_yy_lattice(z2, FieldPoint(G.a - x, y), G)
        assert np.max(np.abs(mirror - got) / np.abs(got)) <= 1e-13

    @pytest.mark.parametrize("s, x, y", [(0.3, 0.35, 1.1), (0.55, 0.25, 1.2), (3.3, 0.3, 0.4)])
    def test_at_real_time_it_is_the_untruncated_closed_form(self, s, x, y):
        lattice = two_point_yy_lattice(np.array([s * s + 0j]), FieldPoint(x, y), G)[0]
        closed = two_point_yy_closed(s, FieldPoint(x, y), G, TruncationPolicy(n_terms=100_000))
        assert abs(lattice.imag) <= 1e-12 * abs(lattice.real)
        assert lattice.real == pytest.approx(closed, rel=1e-11)
