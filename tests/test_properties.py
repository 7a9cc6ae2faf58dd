"""Property suites: symmetries, scale covariance, determinism."""
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityspectra.bhd import LOKernel, smeared_density
from cavityspectra.imagesum import SpacetimePoint, TruncationPolicy, image_sum
from cavityspectra.spectral import sigma_yy, sigma_yy_diag
from cavityspectra.units import CavityGeometry, FieldPoint, build_grid

G = CavityGeometry(1.0)
PI = math.pi

# frequencies chosen off the discontinuities, spanning below and above cutoff
OMEGAS = (2.3, 5.1, 7.9, 11.3)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=60.0),
    omega=st.sampled_from(OMEGAS),
)
def test_y_parity_is_exact_at_every_cutoff(x, y, omega):
    policy = TruncationPolicy(n_terms=200)
    plus = sigma_yy(omega, FieldPoint(x=x, y=y), G, policy)
    minus = sigma_yy(omega, FieldPoint(x=x, y=-y), G, policy)
    assert plus.value == minus.value and plus.err == minus.err


# All spectral quantities obey S(omega; a) = lam^-3 * S(lam*omega; a/lam) with
# transverse coordinates scaled by 1/lam.
def rescale_geometry(geometry: CavityGeometry, lam: float) -> CavityGeometry:
    return CavityGeometry(a=geometry.a / lam)


def rescale_point(point: FieldPoint, lam: float) -> FieldPoint:
    return FieldPoint(x=point.x / lam, y=point.y / lam)


def rescale_frequency(omega: float, lam: float) -> float:
    return omega * lam


def test_rescaling_is_the_covariant_triple():
    geometry = CavityGeometry(1.0)
    point = FieldPoint(0.5, 12.0)
    assert rescale_geometry(geometry, 2.0).a == 0.5
    assert rescale_point(point, 2.0) == FieldPoint(0.25, 6.0)
    assert rescale_frequency(3.0, 2.0) == 6.0


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    omega=st.sampled_from(OMEGAS),
    lam_exp=st.sampled_from((-2, -1, 1, 2, 3)),
)
def test_scale_covariance_is_exact_for_binary_scalings(x, omega, lam_exp):
    # S(omega; a) = lam^-3 S(lam omega; a/lam) holds term by term; powers of
    # two keep every floating-point operation exactly scaled
    lam = 2.0**lam_exp
    policy = TruncationPolicy(n_terms=150)
    base = sigma_yy_diag(omega, x, G, policy)
    point = rescale_point(FieldPoint(x=x, y=0.0), lam)
    scaled = sigma_yy_diag(
        rescale_frequency(omega, lam), point.x, rescale_geometry(G, lam), policy
    )
    assert base.value == scaled.value / lam**3
    assert base.err == scaled.err / lam**3


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("x", [0.1, 0.3])
@pytest.mark.parametrize("n_terms", [100, 1000, 10_000])
def test_mirror_symmetry_within_twice_the_error_estimate(omega, x, n_terms):
    policy = TruncationPolicy(n_terms=n_terms)
    near = sigma_yy_diag(omega, x, G, policy)
    far = sigma_yy_diag(omega, 1.0 - x, G, policy)
    assert abs(near.value - far.value) <= 2.0 * max(near.err, far.err)


SMEAR_KERNEL = LOKernel(omega_lo=2.0 * PI, width=PI / 10.0)
NARROW_KERNEL = LOKernel(omega_lo=2.0 * PI, width=PI / 100.0)


@pytest.mark.parametrize("kernel", [SMEAR_KERNEL, NARROW_KERNEL], ids=("readme", "narrow"))
@pytest.mark.parametrize("y", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("x", [0.02, 0.3, 0.45])
def test_smeared_density_is_mirror_symmetric(x, y, kernel):
    # the sums of x and a - x differ by the images at the sized cutoff, which
    # the LO damps below rounding, so they differ by rounding only
    near = smeared_density(FieldPoint(x, 0.0), FieldPoint(x, y), kernel, G)
    far = smeared_density(FieldPoint(1.0 - x, 0.0), FieldPoint(1.0 - x, y), kernel, G)
    assert far == pytest.approx(near, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lam", [0.5, 0.7, 3.0, 10.0])
@pytest.mark.parametrize("x, y", [(0.3, 0.0), (0.75, 1.0)])
def test_smeared_density_scale_covariance(lam, x, y):
    # a -> lam a with the points, omega_lo and the width -> 1/lam: the density
    # scales as lam^-3 and the frequency measure as lam^-1
    base = smeared_density(FieldPoint(x, 0.0), FieldPoint(x, y), SMEAR_KERNEL, G)
    kernel = LOKernel(SMEAR_KERNEL.omega_lo / lam, SMEAR_KERNEL.width / lam)
    scaled = smeared_density(FieldPoint(lam * x, 0.0), FieldPoint(lam * x, lam * y), kernel,
                             CavityGeometry(lam))
    assert scaled * lam**4 == pytest.approx(base, rel=1e-12, abs=0.0)


def test_truncated_density_is_positive_above_cutoff():
    # the exact density is a positive measure; above the cavity cutoff the
    # truncated sum may undershoot by at most the reported estimate
    grid = build_grid(PI + 0.05, 4.0 * PI, 40).points
    for policy in (TruncationPolicy(n_terms=500), TruncationPolicy(n_terms=1000)):
        for omega in grid:
            for x in np.linspace(0.05, 0.95, 7):
                s = sigma_yy_diag(float(omega), float(x), G, policy)
                assert s.value >= -s.err


@settings(max_examples=30, deadline=None)
@given(
    qx=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=-2.0, max_value=2.0),
    z=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=0.15),
)
def test_plate_cancellation_for_arbitrary_partners(qx, y, z, t):
    # with the first event on the plate the translated and reflected bases
    # are -qx and +qx, so the N = oo sums agree to the bit
    p = SpacetimePoint(t=t, x=0.0, y=0.0, z=0.0)
    q = SpacetimePoint(t=0.0, x=qx, y=y, z=z)
    interval = qx * qx + y * y + z * z - t * t
    if abs(interval) < 1e-3:  # stay clear of the n = 0 light cone guard
        return
    assert image_sum(-1, p, q) - image_sum(+1, p, q) == 0.0


def test_repeated_evaluation_is_bit_identical():
    policy = TruncationPolicy(n_terms=400)
    point = FieldPoint(x=0.37, y=4.2)
    reference = sigma_yy(9.1, point, G, policy)
    for _ in range(3):
        again = sigma_yy(9.1, point, G, policy)
        assert (again.value, again.err) == (reference.value, reference.err)


def test_parallel_evaluation_matches_sequential():
    # the library keeps no shared mutable state, so concurrent callers get the
    # values a single caller gets
    policy = TruncationPolicy(n_terms=300)
    points = [FieldPoint(x=float(x), y=float(y))
              for x in np.linspace(0.0, 1.0, 5) for y in (0.0, 3.3)]
    sequential = [sigma_yy(5.1, pt, G, policy).value for pt in points]
    parallel = [None] * len(points)

    def evaluate(i):
        parallel[i] = sigma_yy(5.1, points[i], G, policy).value

    threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(points))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    assert sequential == parallel
