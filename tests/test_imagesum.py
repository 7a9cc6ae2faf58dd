import math
import re
import tracemalloc

import numpy as np
import pytest

from cavityspectra.errors import LightConeProximity
from cavityspectra import imagesum, spectral
from cavityspectra.imagesum import (
    MAX_IMAGE_TERMS,
    TruncationPolicy,
    two_point_yy_closed,
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


class TestNearestPole:
    # the image n in Z whose gap |(base - n L)^2 + offset| is least: the light-cone guard of the closed form
    # and of the lattice names it
    @pytest.mark.parametrize("regime", ["spacelike", "timelike", "null"])
    def test_it_is_the_least_gap_of_a_search_around_its_roots(self, regime):
        # the gap rises on either side of each root of (base - n L)^2 + offset, so no image beyond the
        # 101 around each root can be nearer; ties go to the smaller |n|, then to n > 0
        rng = np.random.default_rng({"spacelike": 51, "timelike": 52, "null": 53}[regime])
        for _ in range(300):
            base = float(rng.choice([rng.uniform(-5.0, 5.0), rng.uniform(-1e3, 1e3), 0.5 * G.L * rng.integers(-9, 10)]))
            if regime == "spacelike":
                offset = float(rng.choice([rng.uniform(0.0, 100.0), 10.0 ** rng.uniform(-10.0, 10.0)]))
            elif regime == "timelike":
                n = int(rng.integers(-3000, 3000))
                offset = -float(rng.choice([rng.uniform(0.0, 1e4), (base - n * G.L) ** 2]))
            else:
                offset = 0.0
            roots = (base,) if offset >= 0.0 else (base - math.sqrt(-offset), base + math.sqrt(-offset))
            images = {int(math.floor(r / G.L)) + m for r in roots for m in range(-50, 51)}
            gap, _, _, n = min((abs((base - m * G.L) * (base - m * G.L) + offset), abs(m), m < 0, m) for m in images)
            assert imagesum._nearest_pole(base, offset, G.L) == (n, gap), (base, offset)

    @pytest.mark.parametrize("base, offset, image", [
        (0.0, -16.0, 2),  # the translated images n = +-2 share the cone s = 4: the n > 0 one is named
        (1.0, -9.0, -1),  # n = -1 and n = 2 lie on the cone: the smaller |n|, though it is negative
        (1.0, 0.0, 0),  # midway between n = 0 and n = 1
        (3.0, 0.0, 1),  # midway between n = 1 and n = 2
        (-3.0, 0.0, -1),  # midway between n = -2 and n = -1
    ])
    def test_a_tie_goes_to_the_smaller_index_then_to_the_positive_one(self, base, offset, image):
        n, gap = imagesum._nearest_pole(base, offset, G.L)
        assert n == image and gap == abs((base - n * G.L) ** 2 + offset)


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


def _former_raise_near_cone(gaps, indices, branch):
    bad = np.abs(gaps) < imagesum.GUARD_BAND
    if np.any(bad):
        pos = int(np.argmin(np.abs(np.where(bad, gaps, np.inf))))
        raise LightConeProximity(int(indices[pos]), branch, float(abs(gaps[pos])), imagesum.GUARD_BAND)


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
    _former_raise_near_cone(dA, idx, "translated")
    _former_raise_near_cone(dBp, idx, "reflected")
    _former_raise_near_cone(dBn, -idx, "reflected")

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
        # where the present one refuses, naming an image |n| > N.  On the plate x = a the two families
        # share their cones: both forms refuse, the former naming the reflected image n = 0 and the
        # present one the translated image n = 1 on the same cone
        rng = np.random.default_rng(15)
        outcomes, beyond, on_plate = [], 0, 0
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
                if x == G.a and want.startswith("LightConeProximity: "):
                    assert "reflected image light cone at image index n=0 " in want, (args, want)
                    assert (exc.value.branch, exc.value.image_index) == ("translated", 1), args
                    on_plate += 1
                    continue
                assert abs(exc.value.image_index) > n_terms and ":" not in want, (args, want)
                beyond += 1
        kinds = [o.split(":")[0] for o in outcomes]
        assert kinds.count("LightConeProximity") > 10 and kinds.count("ValueError") > 10
        assert len(kinds) - kinds.count("LightConeProximity") - kinds.count("ValueError") > 100
        assert 0 < beyond < 40 and 0 < on_plate < 10

    @pytest.mark.parametrize("s, x, y, n_terms, branch, n", [
        (2400.0, 0.5, 0.0, 1000, "translated", 1200),
        (2.0, 0.5, 0.0, 0, "translated", 1),
        (math.sqrt(2.8**2 + 0.25), 0.4, 0.5, 0, "reflected", -1),
        (math.sqrt(2000.8**2 + 9.0), 0.4, -3.0, 400, "reflected", -1000),
        (2.0, 1.0, 0.0, 1000, "translated", 1),
    ])
    def test_a_light_cone_is_refused_naming_its_nearest_image(self, s, x, y, n_terms, branch, n):
        # the image sums diverge there at N = oo.  Beyond the cutoff the former form summed across the
        # cone and returned a value; on the plate x = a it refused, naming the reflected image n = 0
        with pytest.raises(LightConeProximity) as exc:
            two_point_yy_closed(s, FieldPoint(x=x, y=y), G, TruncationPolicy(n_terms=n_terms))
        assert (exc.value.branch, exc.value.image_index) == (branch, n)
        assert exc.value.gap < imagesum.GUARD_BAND
        former = _outcome(_former_two_point_yy_closed, s, FieldPoint(x=x, y=y), G, TruncationPolicy(n_terms=n_terms))
        if abs(n) > n_terms:
            assert ":" not in former
        else:
            assert "reflected image light cone at image index n=0 " in former

    def test_a_refused_call_builds_no_image_array(self):
        # the guard runs before the image arrays: at N = 2^20 they would trace about 73 MiB
        tracemalloc.start()
        try:
            with pytest.raises(LightConeProximity):
                two_point_yy_closed(2.0, FieldPoint(0.5, 0.0), G, TruncationPolicy(2**20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize("x, y", list(FROZEN))
    def test_a_call_equals_its_samples_one_by_one(self, x, y):
        z2 = (np.linspace(0.0, 30.0, 20_001) - 0.0125j) ** 2
        whole = np.ascontiguousarray(two_point_yy_lattice(z2, FieldPoint(x, y), G)[::97])
        ones = np.array([two_point_yy_lattice(z2[i:i + 1], FieldPoint(x, y), G)[0] for i in range(0, z2.size, 97)])
        assert np.array_equal(whole.view(np.int64), ones.view(np.int64))

    @pytest.mark.parametrize("x, y, n_images", [
        (0.3, 0.0, 20), (0.5, 0.0, 20), (0.3, 1.3, 20), (0.5, 1.3, 20), (0.5, 0.0, 200), (0.3, 1.3, 200)])
    def test_closed_form_matches_the_image_sum_within_its_tail_bound(self, x, y, n_images):
        # Every image the cut drops lies at |b| >= B = n_images L, one
        # sequence of spacing L per lattice and side, and bounds its term by
        # h(b) = (b^2 + T)/(b^2 - T)^3 with T = |z2 - y^2| < B^2; h decreases
        # and h <= -d/db b/(b^2 - T)^2, so each sequence sums to at most
        # h(B) + B/(L (B^2 - T)^2) ~ B^-3.
        z2 = (np.linspace(0.0, 30.0, 20_001) - 0.0125j) ** 2
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

    @pytest.mark.parametrize("s2, x, y, image", [
        (4.0, 0.5, 0.0, (1, "translated")),  # s = L
        (0.36, 0.3, 0.0, (0, "reflected")),  # s = 2x
        (5.0, 0.5, 1.0, (1, "translated")),  # s^2 = L^2 + y^2
        (2.0, 0.5, 1.0, (0, "reflected")),  # s^2 = (2x)^2 + y^2
    ])
    def test_a_real_time_on_an_image_light_cone_is_refused_by_index_and_branch(self, s2, x, y, image):
        # the lattice returned -5.3e46 and -3.7e47 at the first two, where two_point_yy_closed refuses
        point = FieldPoint(x, y)
        with pytest.raises(LightConeProximity) as closed:
            two_point_yy_closed(math.sqrt(s2), point, G, TruncationPolicy(n_terms=10))
        assert (closed.value.image_index, closed.value.branch) == image
        off_axis = [-s2 + 0j, (0.3 - 0.01j) ** 2, s2 + 1e-9j]  # imaginary times and a time off the real axis
        for z2 in (s2, np.array([*off_axis, s2 + 0j])):
            with pytest.raises(LightConeProximity) as exc:
                two_point_yy_lattice(z2, point, G)
            assert (exc.value.image_index, exc.value.branch) == image
        assert np.all(np.isfinite(two_point_yy_lattice(np.array(off_axis), point, G)))

    @pytest.mark.parametrize("x, branch, n", [
        (0.2, "translated", 1500), (0.2, "translated", 2001), (0.2, "reflected", -1200), (0.2, "reflected", 5000),
        (0.5, "translated", 700)])
    def test_a_cone_beyond_any_former_cutoff_is_refused_by_index_and_branch(self, x, branch, n):
        # the truncated sums stopped at N = 10, 400 or 1000 and summed straight across these cones
        b = n * G.L if branch == "translated" else 2.0 * x - n * G.L
        with pytest.raises(LightConeProximity) as exc:
            two_point_yy_lattice(np.array([b * b + 0j]), FieldPoint(x, 0.0), G)
        assert (exc.value.image_index, exc.value.branch) == (n, branch)
        assert f"{branch} image light cone at image index n={n} " in str(exc.value)

    @pytest.mark.parametrize("z2", [math.inf, math.nan, complex(-math.inf, 0.0), complex(1.0, math.inf)])
    def test_a_sample_that_is_not_finite_is_refused_by_name(self, z2):
        # inf warned in tan, nan came back as nan, and the complex two warned in multiply
        point = FieldPoint(0.5, 0.0)
        for samples in ([z2], [0.25, z2]):
            with pytest.raises(ValueError, match=re.escape(f"squared time z2 = {z2!r} is not finite")):
                two_point_yy_lattice(np.array(samples), point, G)

    @pytest.mark.parametrize("s, x, y", [(0.3, 0.35, 1.1), (0.55, 0.25, 1.2), (3.3, 0.3, 0.4)])
    def test_at_real_time_it_is_the_untruncated_closed_form(self, s, x, y):
        lattice = two_point_yy_lattice(np.array([s * s + 0j]), FieldPoint(x, y), G)[0]
        closed = two_point_yy_closed(s, FieldPoint(x, y), G, TruncationPolicy(n_terms=100_000))
        assert abs(lattice.imag) <= 1e-12 * abs(lattice.real)
        assert lattice.real == pytest.approx(closed, rel=1e-11)


def _bytes_or_refusal(z2, point):
    """The lattice's bytes at the samples z2, or its refusal's type and message."""
    try:
        return two_point_yy_lattice(z2, point, G).tobytes()
    except (ValueError, LightConeProximity) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestComplexTime:
    # the lattice depends on (s, y) only through zeta^2 = z^2 - y^2, and the modes' Laplace transform
    # holds at complex eps: validate check 6 compares the two at z^2 = -eps^2, off the axis through zeta^2
    def test_the_lattice_depends_on_s_and_y_only_through_zeta_squared(self):
        # 400 seeded samples: real and complex z^2, off-axis y, and real z^2 on or within the guard band
        # of an image's cone; (z^2, y) and (z^2 - y^2, 0) give the same bits or the same refusal
        rng = np.random.default_rng(41)
        kinds = []
        for _ in range(400):
            x = float(rng.choice([rng.uniform(0.0, G.a), 0.0, G.a, 0.5]))
            y = float(rng.choice([rng.uniform(-3.0, 3.0), rng.uniform(-1e-3, 1e-3), 0.0]))
            pick = rng.random()
            if pick < 0.3:  # on or beside the cone of image n of either family
                n = int(rng.integers(-3, 4))
                b = n * G.L if rng.random() < 0.5 else 2.0 * x - n * G.L
                z2 = complex(b * b + y * y + float(rng.uniform(-1.0, 1.0)) * imagesum.GUARD_BAND, 0.0)
            elif pick < 0.6:
                z2 = complex(float(rng.uniform(-10.0, 30.0)), 0.0)
            else:
                z2 = complex(float(rng.uniform(-10.0, 30.0)), float(rng.uniform(-5.0, 5.0)))
            samples = np.array([z2, (0.7 - 0.05j) ** 2])
            got = _bytes_or_refusal(samples, FieldPoint(x, y))
            assert got == _bytes_or_refusal(samples - y * y, FieldPoint(x, 0.0)), (z2, x, y)
            kinds.append(got.split(":")[0] if isinstance(got, str) else "value")
        assert kinds.count("LightConeProximity") > 40 and kinds.count("value") > 250

    def test_the_laplace_transform_at_the_conjugate_is_the_conjugate(self):
        # 200 seeded eps off the real axis, with x inside the cavity: the sum is exact under conjugation
        rng = np.random.default_rng(42)
        for _ in range(200):
            eps = complex(float(np.exp(rng.uniform(math.log(0.01), math.log(5.0)))), float(rng.uniform(-5.0, 5.0)))
            xs = rng.uniform(0.01, 0.99, int(rng.integers(1, 8))) * G.a
            got = spectral.laplace_modes_diag(eps.conjugate(), xs, G)
            assert got.tobytes() == np.conj(spectral.laplace_modes_diag(eps, xs, G)).tobytes(), eps
            x = float(xs[0])
            assert abs(spectral.laplace_modes_diag(eps, x, G)) <= spectral.laplace_modes_diag(eps.real, x, G)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 3.0])
    def test_a_complex_eps_on_the_real_axis_is_the_real_transform(self, eps):
        got = spectral.laplace_modes_diag(complex(eps, 0.0), 0.3, G)
        assert type(got) is complex and got.imag == 0.0
        assert got.real == pytest.approx(spectral.laplace_modes_diag(eps, 0.3, G), rel=1e-14)

    @pytest.mark.parametrize("eps", [0j, complex(-1.0, 1.0), complex(0.0, 2.0), complex(-0.0, -1.0),
                                     complex(math.inf, 1.0), complex(0.3, math.inf), complex(0.3, -math.inf),
                                     complex(math.nan, 0.0), complex(0.3, math.nan), np.complex64(-1.0 + 1.0j)])
    def test_a_complex_eps_off_the_right_half_plane_or_not_finite_is_refused(self, eps):
        with pytest.raises(ValueError, match="the Laplace variable must be finite with a positive real part"):
            spectral.laplace_modes_diag(eps, 0.5, G)

    def test_the_reach_and_the_zeros_read_the_real_part(self):
        # a large imaginary part neither lengthens the sum nor overflows eps^3 into a refusal
        assert spectral.laplace_modes_diag(complex(1e103, 1.0), [0.5], G).tolist() == [0j]
        assert spectral.laplace_modes_diag(complex(238.0, -5e300), 0.5, G) == 0j
        value = spectral.laplace_modes_diag(complex(1.0, 1e200), 0.5, G)
        assert 0.0 < abs(value) < 1e-200
        with pytest.raises(ValueError, match="guided modes exceed the 1048576"):
            spectral.laplace_modes_diag(complex(1e-5, 1.0), 0.5, G)
