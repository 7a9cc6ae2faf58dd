"""The finite-difference reference of tests/stencil.py, against long sums and the lattice.

Acceptance criterion 7 compares the lattice with this stencil, and the
plate-cancellation property compares its two scalar sums, so both hold only
as far as the stencil itself does: its scalar sum S(b, c) must be the sum
over every image, and its Laplacian must converge to the lattice at second
order in h.
"""
import math

import numpy as np
import pytest

from cavityspectra import imagesum
from cavityspectra.imagesum import two_point_yy_lattice
from cavityspectra.units import CavityGeometry, FieldPoint
from stencil import lattice_sum, two_point_fd

G = CavityGeometry(1.0)
FOUR_PI_SQ = 4.0 * math.pi**2


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


class TestLatticeSum:
    # S(b, c) = sum over every n in Z of 1/((b - n L)^2 + c)
    def test_single_term_is_the_free_space_kernel(self):
        # the sum in a cavity of a = 1e8, whose n != 0 images add about
        # 2 zeta(2)/L^2 = 8e-17, 3e-18 of the n = 0 term alone
        base, offset = 0.3 - 0.5, 0.1**2 - 0.2**2
        assert lattice_sum(base, offset, CavityGeometry(1e8).L) == pytest.approx(1.0 / (base**2 + offset), rel=1e-15)

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
                assert lattice_sum(base, offset, G.L) == pytest.approx(want, rel=1e-12), (base, offset)

    @pytest.mark.parametrize("base, offset", [(0.04 - 0.05, 0.06**2 - 0.02**2), (0.03 - 0.02, 0.05**2 - 0.01**2),
                                              (0.04 + 0.05, 0.06**2 - 0.02**2), (0.03 + 0.02, 0.05**2 - 0.01**2)])
    def test_truncation_converges(self, base, offset):
        # spacelike rows of closely separated events: the tail decays like 1/(nL)^2
        n = np.arange(-100, 101, dtype=float)
        truncated = float(np.sum(1.0 / ((base - n * G.L) ** 2 + offset)))
        whole = lattice_sum(base, offset, G.L)
        assert abs(truncated - whole) / abs(whole) < 1e-4

    def test_sequential_accumulation_plus_its_tails_agrees(self):
        # an in-order n = -N..N loop plus the tails |n| > N reaches the whole sum up to rounding
        N, L = 500, G.L
        base, offset = 0.3 - 0.6, 0.4**2 - 0.1**2
        total = 0.0
        for n in range(-N, N + 1):
            total += 1.0 / ((base - n * L) ** 2 + offset)
        assert lattice_sum(base, offset, L) == pytest.approx(total + _tails(base, offset, L, N), rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.13, 0.9, 3.0])
    def test_plate_cancellation_is_exact(self, t):
        # with one event on the plate the translated and reflected bases are -qx and +qx: the same sum, to the bit
        rng = np.random.default_rng(44)
        compared = 0
        for _ in range(50):
            qx, qy = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-2.0, 2.0))
            offset = (0.2 - qy) ** 2 + 0.05**2 - t * t
            if imagesum._nearest_pole(qx, offset, G.L)[1] < imagesum.GUARD_BAND:
                continue
            assert lattice_sum(-qx, offset, G.L) - lattice_sum(qx, offset, G.L) == 0.0
            compared += 1
        assert compared > 40


def _lattice_at_real_time(s, x, y):
    return two_point_yy_lattice(np.array([s * s + 0j]), FieldPoint(x=x, y=y), G)[0].real


class TestTwoPointStencil:
    # the stencil of the whole-lattice scalar sums against the lattice, also over every image
    def test_agrees_with_the_lattice(self):
        for s, x, y in [(0.3, 0.35, 1.1), (0.2, 0.6, 0.9), (0.45, 0.75, 1.4)]:
            assert two_point_fd(s, x, y, G.L, h=1e-3) == pytest.approx(_lattice_at_real_time(s, x, y), rel=1e-4)

    def test_second_order_in_h(self):
        lattice = _lattice_at_real_time(0.3, 0.35, 1.1)
        errs = [abs(two_point_fd(0.3, 0.35, 1.1, G.L, h=h) - lattice) for h in (4e-3, 2e-3, 1e-3)]
        assert all(3.2 < errs[i] / errs[i + 1] < 4.8 for i in range(2))

    def test_vanishes_on_the_plate(self):
        # at x = 0 every stencil point's rows have bases px and -px, so its two sums cancel exactly
        assert two_point_fd(0.3, 0.0, 0.9, G.L, h=1e-3) == 0.0

    @pytest.mark.parametrize("x", [5e-4, G.a - 5e-4])
    def test_a_point_within_h_of_a_plate(self, x):
        # the central stencil reaches past the plate, where the difference of the sums continues smoothly
        fd = two_point_fd(0.3, x, 0.9, G.L, h=1e-3)
        assert fd == pytest.approx(_lattice_at_real_time(0.3, x, 0.9), rel=5e-4)
