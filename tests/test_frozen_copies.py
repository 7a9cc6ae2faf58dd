"""Bit-for-bit sweeps against frozen copies of former code paths.

The copies below are the coincident-point density as it was before it went
through ``_sigma_yy_values`` (its own loop over x and frequency into
``_image_sum``), ``sigma_modes`` as it was before it added its modes by a
seeded cumsum in blocks (one Python addition per mode, with every mode's
Bessel values at once), ``smeared_modes_diag`` as it was before it summed
its modes in blocks (one erfc window over all of them, with exp(-z^2) and
erfc(z) computed only where they are not constants), ``sigma_modes_diag``
and ``laplace_modes_diag`` as they were before they went through
``_mode_sum`` (numpy's pairwise sum over every mode at once), and the per-point
loops that ``validate`` ran before they became array calls: the vacuum
densities per y, ``laplace_modes_diag`` per x, and the bodies of checks 2, 3,
4 and 7.  All of them build the wave numbers of every mode at once, as the
former ``_guided_modes`` did.  Each sweep
compares values, errors and refusal messages exactly, except where a pairwise
sum meets the sequential one of ``_mode_sum`` over more than 7 modes.
"""
import math
import tracemalloc

import numpy as np
import pytest

import cavityspectra.spectral as sp
from cavityspectra import oracle
from cavityspectra.bhd import LOKernel, smeared_density
from cavityspectra.cli import _FOUR_PI, _INTERNAL, _TWO_PI
from cavityspectra.imagesum import TruncationPolicy, two_point_yy_lattice
from cavityspectra.units import CavityGeometry, FieldPoint, build_grid, validate_point

G = CavityGeometry(1.0)
PI = math.pi
CUTOFFS = (0, 1, 500, 1000, 10_000)


def _former_check_omegas(omegas):
    if not np.all((omegas > 0.0) & (omegas <= sp._MAX_OMEGA)):
        raise ValueError(f"frequencies must be positive and at most {sp._MAX_OMEGA:g}")


def _former_guided_modes(reach, xs, geometry):
    for x in xs:
        validate_point(FieldPoint(x=x, y=0.0), geometry)
    q = np.arange(1, sp._mode_count(reach, geometry) + 1) * math.pi / geometry.a
    return q, np.array([min(x, geometry.a - x) for x in xs], dtype=float)


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
    q, folded = _former_guided_modes(omega, xs, geometry)
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


def _former_sigma_modes_diag(omega, x, geometry):
    arr = np.asarray(omega, dtype=float)
    w = np.atleast_1d(arr).ravel()
    sp._check_omegas(w)
    xs = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
    q, folded = _former_guided_modes(float(np.max(w, initial=0.0)), xs, geometry)
    w = w[:, None]
    weight = np.where(q < w, 1.0, np.where(q == w, 0.5, 0.0))
    values = (weight * sp._sine_squares(folded, q)[:, None, :] * (w * w + q * q)).sum(axis=-1)
    values /= 4.0 * math.pi * geometry.a
    if np.ndim(x) == 0:
        return float(values[0, 0]) if arr.ndim == 0 else values[0].reshape(arr.shape)
    return values.reshape((len(xs),) + arr.shape)


#: Edges of the former windows in z: math.erfc is exactly 2.0 below -5.9 and
#: 0.0 above 27.3, and exp(-z^2) is 0.0 outside +-27.3.
_WINDOW_EDGES = (-27.3, -5.9, 27.3)


def _former_gauss_erfc(z):
    """exp(-z^2) and erfc(z) at ascending z, each computed only within its window."""
    gauss, erfc = np.zeros(z.size), np.zeros(z.size)
    i_gauss, i_erfc, top = np.searchsorted(z, _WINDOW_EDGES).tolist()
    inner = z[i_gauss:top]
    gauss[i_gauss:top] = np.exp(-(inner * inner))
    erfc[:i_erfc] = 2.0
    erfc[i_erfc:top] = list(map(math.erfc, z[i_erfc:top].tolist()))
    return gauss, erfc


def _former_smeared_modes_diag(omega_lo, width, x, geometry):
    if not 0.0 < omega_lo <= sp._MAX_OMEGA:
        raise ValueError(f"frequencies must be positive and at most {sp._MAX_OMEGA:g}")
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError("LO width must be positive and finite")
    q, folded = _former_guided_modes(omega_lo + _WINDOW_EDGES[-1] * width, [x], geometry)
    s2 = sp._sine_squares(folded, q)
    c = (q - omega_lo) + np.arange(1, q.size + 1) * (sp._PI_LO / geometry.a)
    with np.errstate(over="ignore"):
        gauss, erfc = _former_gauss_erfc(c / width)
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

    def test_the_diagonal_and_laplace_sums_meet_their_pairwise_copies(self):
        # 600 seeded calls of each: exact where numpy's pairwise sum is still sequential (at most
        # 7 modes), within count ulp-halves of the value beyond; then the refusals
        rng = np.random.default_rng(39)
        summed = [0, 0]
        for _ in range(600):
            omegas = np.concatenate([rng.uniform(0.05, rng.choice([7.0, 25.0, 400.0]), rng.integers(1, 12)),
                                     PI * rng.integers(1, 9, 2)])
            xs = [0.0, G.a, *rng.uniform(0.0, G.a, int(rng.integers(1, 5))).tolist()]
            eps = float(np.exp(rng.uniform(math.log(2e-3), math.log(40.0))))
            x = xs[-1]
            for k, (count, got, want) in enumerate([
                (int(omegas.max() / PI) + 1, sp.sigma_modes_diag(omegas, xs, G),
                 _former_sigma_modes_diag(omegas, xs, G)),
                (int(sp._LAPLACE_REACH / eps / PI) + 1, sp.laplace_modes_diag(eps, x, G),
                 _former_laplace_modes_diag(eps, x, G)),
            ]):
                if count <= 7:
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (omegas, xs, eps)
                else:
                    assert np.all(np.abs(got - want) <= count * 2.0**-53 * np.abs(want)), (omegas, xs, eps)
                summed[k] += count > 7
        assert all(100 < n < 500 for n in summed), summed
        for args in [(0.0, 0.5), (1e7, 0.5), (5.0, 1.5), (1e100, 0.5), (5.0, [0.5, -0.1])]:
            assert _outcome(sp.sigma_modes_diag, *args, G) == _outcome(_former_sigma_modes_diag, *args, G), args

    @pytest.mark.parametrize("call, mib", [
        (lambda: sp.sigma_modes(1e6, np.linspace(0.0, 1.0, 21).tolist(), [0.0], G), 1),
        (lambda: sp.smeared_modes_diag(1.39e6, 6.95e4, 0.5, G), 2),
        (lambda: sp.sigma_modes_diag(np.linspace(1.0, 1e5, 96), 0.5, G), 1),
        (lambda: sp.laplace_modes_diag(6e-5, 0.5, G), 1),
    ], ids=["sigma_modes", "smeared_modes_diag", "sigma_modes_diag", "laplace_modes_diag"])
    def test_the_high_frequency_sums_hold_blocks_of_modes(self, call, mib):
        # each block forms its own wave numbers: no array spans every mode
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


def _former_sigma_vacuum(omega, y=0.0):
    arr = np.asarray(omega, dtype=float)
    sp._check_omegas(np.atleast_1d(arr))
    u = arr * abs(y)
    bracket = sp._spliced(u, sp._VAC)[0]
    value = (arr * arr * arr) / (2.0 * PI**2) * bracket
    return float(value) if arr.ndim == 0 else value


def _former_sigma_vacuum_from_kernels(omega, y):
    sp._check_omegas(np.asarray([omega], dtype=float))
    pref = (omega * omega * omega) / (4.0 * PI**2)
    if y == 0.0:
        return pref * sp.q_kernel(0.0)
    q, w = sp._spliced(omega * abs(y), sp._Q, sp._W)
    return pref * (q - w)


def _former_laplace_modes_diag(eps, x, geometry):
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("the Laplace variable must be positive and finite")
    q, folded = _former_guided_modes(sp._LAPLACE_REACH / eps, [x], geometry)
    s2 = sp._sine_squares(folded, q)
    terms = s2[0] * np.exp(-eps * q) * (2.0 * q * q / eps + 2.0 * q / eps ** 2 + 2.0 / eps ** 3)
    return float(terms.sum()) / (4.0 * math.pi * geometry.a)


def _sequential_laplace_modes_diag(eps, x, geometry):
    """The former copy with its terms added one by one in ascending n: the order of ``_mode_sum``."""
    q, folded = _former_guided_modes(sp._LAPLACE_REACH / eps, [x], geometry)
    moments = 2.0 * q * q / eps + 2.0 * q / eps ** 2 + 2.0 / eps ** 3
    terms = sp._sine_squares(folded, q)[0] * np.exp(-eps * q) * moments
    return float(np.cumsum(terms)[-1]) / (4.0 * math.pi * geometry.a)


def _repr_outcome(f, *args):
    """repr of a call's value, or its exception's type and message."""
    try:
        return repr(f(*args))
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestValidateLoops:
    def test_the_vacuum_densities_over_a_column_of_y_equal_the_per_y_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            omegas = np.sort(rng.uniform(0.01, 4.0 * PI, int(rng.integers(1, 30))))
            ys = [0.0, -0.0, *rng.uniform(-8.0, 8.0, int(rng.integers(0, 20))).tolist(),
                  float(rng.choice([1e-9, 0.5 / omegas[-1], 1e3]))]
            column = np.array(ys)[:, None]
            for new, former in ((sp.sigma_vacuum, _former_sigma_vacuum),
                                (sp.sigma_vacuum_from_kernels, _former_sigma_vacuum_from_kernels)):
                got = new(omegas, column)
                want = np.array([former(omegas, y) for y in ys])
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                w, y = float(omegas[0]), ys[-1]
                assert repr(new(w, y)) == repr(former(w, y))
            pref = (omegas * omegas * omegas) / (4.0 * PI**2)
            assert sp.sigma_vacuum_from_kernels(omegas, column)[0].tobytes() == (pref * (2.0 / 3.0)).tobytes()
        omegas = np.array([1.0, 2.0])
        for bad in (math.nan, math.inf, -math.inf):
            for f in (sp.sigma_vacuum, sp.sigma_vacuum_from_kernels):
                with pytest.raises(ValueError, match="kernel argument must be finite"):
                    f(omegas, np.array([[0.5], [bad]]))
                with pytest.raises(ValueError, match="kernel argument must be finite"):
                    f(2.0, bad)

    def test_laplace_modes_over_many_x_equal_one_call_per_x(self):
        # 300 seeded (eps, xs): plates, a mirror pair and near-plate x; eps down to 2e-3 (9 550 modes);
        # each x adds its modes one by one in ascending n
        rng = np.random.default_rng(38)
        for k in range(300):
            eps = float(np.exp(rng.uniform(math.log(2e-3), math.log(5.0))))
            xs = [0.0, G.a, 0.3, 0.7, 1e-3, *rng.uniform(0.0, G.a, int(rng.integers(0, 12))).tolist()]
            rng.shuffle(xs)
            got = sp.laplace_modes_diag(eps, xs, G)
            want = np.array([sp.laplace_modes_diag(eps, x, G) for x in xs])
            assert got.tobytes() == want.tobytes(), (eps, xs)
            x = xs[0]
            assert repr(sp.laplace_modes_diag(eps, x, G)) == repr(_sequential_laplace_modes_diag(eps, x, G))
        for eps, x in [(0.0, 0.5), (math.nan, 0.5), (1e-5, 0.5), (1e-310, 0.5), (0.3, 1.5), (0.3, -0.1), (1e-5, 1.5)]:
            assert _repr_outcome(sp.laplace_modes_diag, eps, x, G) == _repr_outcome(_former_laplace_modes_diag, eps, x, G)
            assert _repr_outcome(sp.laplace_modes_diag, eps, [0.5, x], G) == \
                _repr_outcome(_former_laplace_modes_diag, eps, x, G)

    def test_the_laplace_modes_go_in_blocks_with_the_bits_of_one(self, monkeypatch):
        xs = np.linspace(0.0, 1.0, 9).tolist()
        whole = sp.laplace_modes_diag(0.3, xs, G)  # 64 modes: blocks of 14 modes below
        monkeypatch.setattr(sp, "_WORKING_SET", 2 * 64)
        assert sp.laplace_modes_diag(0.3, xs, G).tobytes() == whole.tobytes()


def _former_check_vacuum_embedding():
    omegas = build_grid(0.5, _FOUR_PI, 20)
    worst = 0.0
    for y in np.linspace(0.0, 8.0, 20).tolist():
        ref = _former_sigma_vacuum(omegas, y)
        got = _former_sigma_vacuum_from_kernels(omegas, y)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    return worst <= 1e-12, f"max relative deviation {worst:.2e} on a 20x20 grid (tolerance 1e-12)"


def _former_check_boundary_zeros():
    policy_small = TruncationPolicy(n_terms=500)
    policy_big = TruncationPolicy(n_terms=10_000)
    details = []
    ok = True
    for w in (2.0, 5.0, 8.0, 11.0):
        at0 = sp.sigma_yy_diag(w, 0.0, _INTERNAL, policy_small).value
        ok &= at0 == 0.0
        resid = abs(sp.sigma_yy_diag(w, 1.0, _INTERNAL, policy_big).value) / _former_sigma_vacuum(w, 0.0)
        ok &= resid <= 1e-3
        details.append(f"omega={w:g}: plate0={at0:g}, plate-a residual {resid:.2e}")
    return ok, "; ".join(details)


def _former_check_sub_cutoff():
    policy = TruncationPolicy(n_terms=1000)
    worst = 0.0
    for w in (1.0, 2.0, 3.0):
        for x in (0.25, 0.5, 0.75):
            ratio = abs(sp.sigma_yy_diag(w, x, _INTERNAL, policy).value) / _former_sigma_vacuum(w, 0.0)
            worst = max(worst, ratio)
    return worst < 0.05, f"max |sigma|/sigma_vacuum = {worst:.4f} below cutoff (tolerance 5%)"


def _former_check_exact_modes():
    policy = TruncationPolicy(n_terms=1000)
    schedule = {0.25: (3.6, 6.9, 9.7), 0.5: (4.4, 7.6, 10.6, 12.2), 0.75: (5.2, 8.4, 11.4)}
    worst = 0.0
    for x, omegas in schedule.items():
        omegas = np.asarray(omegas)
        values, _ = sp._sigma_diag_values(omegas, [x], _INTERNAL, policy)
        exact = sp.sigma_modes_diag(omegas, x, _INTERNAL)
        scale = np.maximum(np.abs(exact), _former_sigma_vacuum(omegas, 0.0))
        worst = max(worst, float(np.max(np.abs(values[0] - exact) / scale)))
    off_axis = ((7.6, 0.3, 0.4), (10.6, 0.5, 2.2), (5.2, 0.75, 1.3))
    off = 0.0
    for w, x, y in off_axis:
        value = sp._sigma_yy_values(np.asarray([w]), [FieldPoint(x=x, y=y)], _INTERNAL, policy)[0][0, 0]
        exact = sp.sigma_modes(w, [x], [y], _INTERNAL)[0, 0]
        off = max(off, abs(value - exact) / max(abs(exact), _former_sigma_vacuum(w, 0.0)))
    eps = np.array([0.05, 0.3, 1.0, 3.0])
    xs = (0.1, 0.25, 0.5, 0.75, 0.97)
    rule = 0.0
    for x in xs:
        lattice = two_point_yy_lattice(-(eps * eps) + 0j, FieldPoint(x=x, y=0.0), _INTERNAL).real
        modes = np.array([_former_laplace_modes_diag(e, x, _INTERNAL) for e in eps.tolist()])
        rule = max(rule, float(np.max(np.abs(modes - lattice) * math.pi**2 * eps**4)))
    smears = ((3.0, 0.15, 0.5), (_TWO_PI, _TWO_PI / 20.0, 0.75), (_TWO_PI, _TWO_PI / 200.0, 0.02), (11.4, 0.57, 0.9))
    smear = 0.0
    for w0, w, x in smears:
        kernel, point = LOKernel(w0, w), FieldPoint(x=x, y=0.0)
        gap = abs(smeared_density(point, point, kernel, _INTERNAL) - sp.smeared_modes_diag(w0, w, x, _INTERNAL))
        smear = max(smear, gap / (kernel.squared_integral() * w0**3 / (6.0 * math.pi**2)))
    ok = worst <= 1e-3 and off <= 1e-3 and rule <= 1e-12 and smear <= 1e-13
    count = sum(len(omegas) for omegas in schedule.values())
    return ok, (f"max kernels-vs-modes gap {worst:.1e} of scale over {count} points (tolerance 1e-3), "
                f"the truncation error of N = {policy.n_terms}; off the axis {off:.1e} over {len(off_axis)} "
                "points (tolerance 1e-3); max Laplace sum-rule gap, modes vs the "
                f"untruncated lattice, {rule:.1e} of 1/(pi^2 eps^4) over {eps.size * len(xs)} (eps, x) "
                f"(tolerance 1e-12); max LO-smear gap at y = 0, images vs modes, {smear:.1e} of scale over "
                f"{len(smears)} LOs (tolerance 1e-13)")


@pytest.mark.parametrize("check, former", [
    (oracle._check_vacuum_embedding, _former_check_vacuum_embedding),
    (oracle._check_boundary_zeros, _former_check_boundary_zeros),
    (oracle._check_sub_cutoff, _former_check_sub_cutoff),
    (oracle._check_exact_modes, _former_check_exact_modes),
], ids=["2", "3", "4", "7"])
def test_the_batched_check_reads_as_its_frozen_copy(check, former):
    ok, detail = check()
    assert (type(ok), ok, detail) == (bool, *former())
