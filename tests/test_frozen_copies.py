"""Bit-for-bit sweeps against frozen copies of three former code paths.

The copies below are the coincident-point density as it was before it went
through ``_sigma_yy_values`` (its own loop over x and frequency into
``_image_sum``), ``sigma_modes`` as it was before it added its modes by a
seeded cumsum in blocks (one Python addition per mode, with every mode's
Bessel values at once), and ``smeared_modes_diag`` as it was before it summed
its modes in blocks (one erfc window over all of them).  Each sweep compares
values, errors and refusal messages exactly.
"""
import math
import tracemalloc

import numpy as np
import pytest

import cavityspectra.spectral as sp
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.units import CavityGeometry, FieldPoint, validate_point

G = CavityGeometry(1.0)
PI = math.pi
CUTOFFS = (0, 1, 500, 1000, 10_000)


def _former_check_omegas(omegas):
    if not np.all((omegas > 0.0) & (omegas <= sp._MAX_OMEGA)):
        raise ValueError(f"frequencies must be positive and at most {sp._MAX_OMEGA:g}")


def _former_diag_values(omegas, xs, geometry, policy):
    _former_check_omegas(omegas)
    values, errs = np.empty((2, len(xs), omegas.size))
    y2 = np.zeros(1)
    for i, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        for j, omega in enumerate(omegas.tolist()):
            (values[i, j],), (errs[i, j],) = sp._image_sum(sp._Pointwise(omega), x, y2, policy.n_terms, geometry.L)
    return values, errs


def _former_diag(omega, x, geometry, policy):
    validate_point(FieldPoint(x=x, y=0.0), geometry)
    values, errs = _former_diag_values(np.asarray([omega], dtype=float), [x], geometry, policy)
    return sp.SpectralSample(omega=omega, value=float(values[0, 0]), err=float(errs[0, 0]), terms=policy.n_terms)


def _former_sigma_modes(omega, xs, ys, geometry):
    _former_check_omegas(np.array([omega], dtype=float))
    y = np.abs(np.asarray(ys, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError("transverse offsets must be finite")
    q, folded = sp._guided_modes(omega, xs, geometry)
    guided = q <= omega
    q, weight = q[guided], np.where(q < omega, 1.0, 0.5)[guided]
    kappa = np.sqrt((omega - q) * (omega + q))
    r, index = np.unique(np.multiply.outer(kappa, y), return_inverse=True)
    if r.size and not np.floor(r[-1]) + sp._BESSEL_MARGIN <= sp.MAX_BESSEL_NODES:
        raise ValueError(f"kappa |y| = {r[-1]:g} at omega = {omega:g}: J_0 and J_2 there would take more than "
                         f"{sp.MAX_BESSEL_NODES} trapezoid nodes (every |y| up to "
                         f"{(sp.MAX_BESSEL_NODES - sp._BESSEL_MARGIN) / omega:.3g} a fits)")
    j0, j2 = sp._bessel_j0_j2(r)
    j0, j2 = j0[index].reshape(q.size, y.size), j2[index].reshape(q.size, y.size)
    bracket = (j0 + j2) + ((q / omega) ** 2)[:, None] * (j0 - j2)
    values = np.zeros((folded.size, y.size))
    step = max(1, sp._WORKING_SET // max(1, folded.size))
    for lo in range(0, q.size, step):
        s2w = sp._sine_squares(folded, q[lo:lo + step]) * weight[lo:lo + step]
        for n in range(s2w.shape[1]):
            values += np.multiply.outer(s2w[:, n], bracket[lo + n])
    return values * (omega * omega / (4.0 * math.pi * geometry.a))


def _former_smeared_modes_diag(omega_lo, width, x, geometry):
    if not 0.0 < omega_lo <= sp._MAX_OMEGA:
        raise ValueError(f"frequencies must be positive and at most {sp._MAX_OMEGA:g}")
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError("LO width must be positive and finite")
    q, folded = sp._guided_modes(omega_lo + sp._WINDOW_EDGES[-1] * width, [x], geometry)
    s2 = sp._sine_squares(folded, q)
    c = (q - omega_lo) + np.arange(1, q.size + 1) * (sp._PI_LO / geometry.a)
    with np.errstate(over="ignore"):
        gauss, erfc = sp._gauss_erfc(c / width)
    bracket = width * (q + omega_lo) * gauss
    bracket += sp._SQRT_PI * (q * q + omega_lo * omega_lo + 0.5 * width * width) * erfc
    total = np.cumsum(s2[0] * bracket)[-1]
    return float(total) * width / (8.0 * math.pi * geometry.a)


def _outcome(f, *args):
    """What a call gives: the bytes of its value (and err), or its refusal's type and message."""
    try:
        result = f(*args)
    except ValueError as exc:
        return "refused", str(exc)
    if isinstance(result, sp.SpectralSample):
        return repr(result)
    if isinstance(result, tuple):
        return tuple(np.asarray(r).tobytes() for r in result)
    return np.asarray(result).tobytes()


def _omega(rng):
    """A frequency up to 4 pi, now and then a threshold k pi, or one the check refuses."""
    pick = rng.random()
    if pick < 0.9:
        return float(rng.uniform(0.01, 4.0 * PI))
    if pick < 0.97:
        return PI * int(rng.integers(1, 5))
    return float(rng.choice([0.0, -2.0, 2e100, math.nan]))


class TestCoincidentEntry:
    def test_sigma_yy_diag_equals_its_frozen_copy(self):
        # 2 000 seeded (omega, x, N): both plates, a repeated x, and x outside the strip
        rng = np.random.default_rng(32)
        refused = 0
        for k in range(2000):
            policy = TruncationPolicy(n_terms=CUTOFFS[k % 5])
            x = float(rng.choice([0.0, G.a, 0.25, 0.5, rng.uniform(0.0, G.a), rng.uniform(-0.1, 1.1)]))
            omega = _omega(rng)
            want = _outcome(_former_diag, omega, x, G, policy)
            assert _outcome(sp.sigma_yy_diag, omega, x, G, policy) == want, (omega, x, policy)
            refused += want[0] == "refused"
        assert 100 < refused < 400

    def test_the_batched_coincident_density_equals_its_frozen_copy(self):
        # 100 seeded batches of 4 frequencies at 5 x, 2 000 (omega, x, N) in all
        rng = np.random.default_rng(33)
        for k in range(100):
            policy = TruncationPolicy(n_terms=CUTOFFS[k % 5])
            omegas = np.array([_omega(rng) if k % 10 == 0 else float(rng.uniform(0.01, 4.0 * PI))
                               for _ in range(4)])
            xs = [0.0, G.a, *rng.uniform(0.0, G.a, 2).tolist()]
            xs.append(xs[int(rng.integers(0, 4))])  # a repeated x
            want = _outcome(_former_diag_values, omegas, xs, G, policy)
            assert _outcome(sp._sigma_diag_values, omegas, xs, G, policy) == want, (omegas, xs, policy)

    def test_the_coincident_density_is_the_two_point_density_at_y_zero(self, monkeypatch):
        seen = []

        def recording(omegas, points, geometry, policy, engine=sp._sigma_yy_values):
            seen.append(points)
            return engine(omegas, points, geometry, policy)

        monkeypatch.setattr(sp, "_sigma_yy_values", recording)
        policy = TruncationPolicy(n_terms=10)
        sp.sigma_yy_diag(5.0, 0.3, G, policy)
        sp._sigma_diag_values(np.array([2.0, 5.0]), [0.1, 0.7], G, policy)
        assert seen == [[FieldPoint(0.3, 0.0)], [FieldPoint(0.1, 0.0), FieldPoint(0.7, 0.0)]]


class TestModeBlocks:
    @pytest.mark.parametrize("block", [sp._WORKING_SET, 40, 7, 1])
    def test_sigma_modes_equals_its_frozen_copy(self, block, monkeypatch):
        # 300 seeded cases over four block sizes: plates, a mirror pair, y = 0 and -0.0,
        # thresholds k pi, and offsets past the Bessel node cap
        monkeypatch.setattr(sp, "_WORKING_SET", block)
        rng = np.random.default_rng(34 + block)
        refused = 0
        for k in range(75):
            omega = float(rng.choice([rng.uniform(0.5, 200.0), PI * rng.integers(1, 64)]))
            xs = [0.0, G.a, 0.3, 0.7, *rng.uniform(0.0, G.a, int(rng.integers(0, 4))).tolist()]
            ys = [0.0, -0.0, *rng.uniform(-3.0, 3.0, int(rng.integers(0, 5))).tolist()]
            if k % 15 == 0:
                ys.append(float(rng.choice([2e4, 1e5, 1e300])))
            want = _outcome(_former_sigma_modes, omega, xs, ys, G)
            assert _outcome(sp.sigma_modes, omega, xs, ys, G) == want, (omega, xs, ys)
            refused += want[0] == "refused"
        assert refused >= 2

    def test_smeared_modes_diag_equals_its_frozen_copy(self):
        # 1 500 seeded LOs: omega_lo 0.1-3e4 (up to 5 blocks of modes), width/omega_lo 1e-4-0.1,
        # x on the plates, 1e-3 from them and inside; then the refusals
        rng = np.random.default_rng(35)
        for _ in range(1500):
            omega_lo = float(np.exp(rng.uniform(math.log(0.1), math.log(3e4))))
            width = omega_lo * float(np.exp(rng.uniform(math.log(1e-4), math.log(0.1))))
            x = float(rng.choice([0.0, G.a, 1e-3, G.a - 1e-3, rng.uniform(0.0, G.a)]))
            want = _outcome(_former_smeared_modes_diag, omega_lo, width, x, G)
            assert _outcome(sp.smeared_modes_diag, omega_lo, width, x, G) == want, (omega_lo, width, x)
        for args in [(0.0, 1.0, 0.5), (2e100, 1.0, 0.5), (5.0, 0.0, 0.5), (5.0, math.nan, 0.5), (5.0, math.inf, 0.5),
                     (5.0, 0.1, 1.5), (1.4e6, 7e4, 0.5), (5.0, 1e-320, 0.3)]:
            want = _outcome(_former_smeared_modes_diag, *args, G)
            assert _outcome(sp.smeared_modes_diag, *args, G) == want, args

    @pytest.mark.parametrize("call, mib", [
        (lambda: sp.sigma_modes(1e6, np.linspace(0.0, 1.0, 21).tolist(), [0.0], G), 11),
        (lambda: sp.smeared_modes_diag(1.39e6, 6.95e4, 0.5, G), 20),
    ], ids=["sigma_modes", "smeared_modes_diag"])
    def test_the_high_frequency_sums_hold_blocks_of_modes(self, call, mib):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20
