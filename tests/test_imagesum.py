import math

import pytest

from cavityspectra.errors import LightConeProximity
from cavityspectra import spectral
from cavityspectra.imagesum import (
    MAX_IMAGE_TERMS,
    SpacetimePoint,
    TruncationPolicy,
    image_sum,
    two_point_yy_closed,
    two_point_yy_fd,
    two_point_yy_vacuum,
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


class TestImageSum:
    def test_single_term_is_the_free_space_kernel(self):
        p = SpacetimePoint(t=0.2, x=0.3, y=0.1, z=0.0)
        q = SpacetimePoint(t=0.0, x=0.5, y=0.0, z=0.0)
        interval = (0.3 - 0.5) ** 2 + 0.1**2 - 0.2**2
        expected = -1.0 / (4.0 * PI_SQ * interval)
        assert image_sum(-1, p, q, TruncationPolicy(n_terms=0)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n_terms", [1, 10, 100])
    def test_plate_cancellation_is_exact(self, n_terms):
        # on the plate the translated and reflected term sets coincide pairwise
        p = SpacetimePoint(t=0.13, x=0.0, y=0.2, z=0.05)
        q = SpacetimePoint(t=0.0, x=0.37, y=0.9, z=0.0)
        policy = TruncationPolicy(n_terms=n_terms)
        assert image_sum(-1, p, q, policy) - image_sum(+1, p, q, policy) == 0.0

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
        f_small = image_sum(sign, p, q, TruncationPolicy(n_terms=100))
        f_large = image_sum(sign, p, q, TruncationPolicy(n_terms=10_000))
        assert abs(f_small - f_large) / abs(f_large) < 1e-4

    def test_sequential_accumulation_agrees_with_pairwise(self):
        # image_sum adds the +-n pairs in ascending |n| with n = 0 last; an
        # in-order n = -N..N loop reaches the same sum up to rounding
        p = SpacetimePoint(0.1, 0.3, 0.4, 0.0)
        q = SpacetimePoint(0.0, 0.6, 0.0, 0.0)
        N, L = 500, G.L
        offset = (p.y - q.y) ** 2 + (p.z - q.z) ** 2 - (p.t - q.t) ** 2
        total = 0.0
        for n in range(-N, N + 1):
            total += 1.0 / ((p.x - q.x - n * L) ** 2 + offset)
        sequential = -total / (4.0 * PI_SQ)
        assert image_sum(-1, p, q, TruncationPolicy(n_terms=N)) == pytest.approx(sequential, rel=1e-12)

    def test_light_cone_guard(self):
        # null-separated from the n=0 image
        p = SpacetimePoint(t=0.5, x=0.3, y=0.4, z=0.0)
        q = SpacetimePoint(t=0.0, x=0.6, y=0.0, z=0.0)
        with pytest.raises(LightConeProximity):
            image_sum(-1, p, q, TruncationPolicy(n_terms=10))

    def test_sign_validated(self):
        p = SpacetimePoint(0.0, 0.3, 0.0, 0.0)
        with pytest.raises(ValueError):
            image_sum(0, p, p, TruncationPolicy(n_terms=1))


class TestTwoPointClosed:
    def test_vacuum_term_at_zero_time(self):
        # the single translated image at s = 0 collapses to 1/(pi^2 y^4)
        for y in (0.5, 1.0, 2.5):
            assert two_point_yy_vacuum(0.0, y) == pytest.approx(1.0 / (PI_SQ * y**4), rel=1e-14)

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


class TestTwoPointStencil:
    def test_agrees_with_closed_form(self):
        policy = TruncationPolicy(n_terms=400)
        for s, x, y in [(0.3, 0.35, 1.1), (0.2, 0.6, 0.9), (0.45, 0.75, 1.4)]:
            point = FieldPoint(x=x, y=y)
            closed = two_point_yy_closed(s, point, G, policy)
            fd = two_point_yy_fd(s, point, G, policy, h=1e-3)
            assert fd == pytest.approx(closed, rel=1e-4)

    def test_second_order_in_h(self):
        policy = TruncationPolicy(n_terms=400)
        point = FieldPoint(x=0.35, y=1.1)
        closed = two_point_yy_closed(0.3, point, G, policy)
        errs = [abs(two_point_yy_fd(0.3, point, G, policy, h=h) - closed) for h in (4e-3, 2e-3, 1e-3)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.2 < r < 4.8 for r in ratios)

    def test_plate_value_within_stencil_error(self):
        policy = TruncationPolicy(n_terms=300)
        v = two_point_yy_fd(0.3, FieldPoint(x=0.0, y=0.9), G, policy, h=1e-3)
        assert abs(v) <= 1e-6

    def test_interior_stencil_near_both_plates(self):
        policy = TruncationPolicy(n_terms=300)
        for x in (5e-4, 1.0 - 5e-4):
            point = FieldPoint(x=x, y=0.9)
            closed = two_point_yy_closed(0.3, point, G, policy)
            fd = two_point_yy_fd(0.3, point, G, policy, h=1e-3)
            assert fd == pytest.approx(closed, rel=5e-4)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            two_point_yy_fd(0.3, FieldPoint(0.5, 1.0), G, TruncationPolicy(n_terms=10), h=0.0)
