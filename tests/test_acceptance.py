"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Figure baselines live in tests/baselines/ and were pinned at
the first build that passed criteria 1-8.
"""
import math
from pathlib import Path

import numpy as np

import cavityspectra as cs
from cavityspectra.bhd import DetectorConfig, LOKernel, LOMode
from cavityspectra.cli import FIG2_OMEGA, main
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.spectral import _sigma_yy_values
from cavityspectra.units import CavityGeometry, FieldPoint, build_grid
from stencil import two_point_fd

G = CavityGeometry(1.0)
PI = math.pi
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
BASELINES = Path(__file__).parent / "baselines"


def _report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_01_vacuum_diagonal():
    omegas = build_grid(4.0 * PI / 50.0, FOUR_PI, 50)
    worst = 0.0
    for omega in omegas:
        exact = float(omega) ** 3 / (6.0 * PI**2)
        worst = max(worst, abs(cs.sigma_vacuum(float(omega), 0.0) - exact) / exact)
    ok = _report(1, "vacuum diagonal equals omega^3/6pi^2",
                 worst <= 1e-12, f"max rel dev {worst:.2e} over 50 frequencies (tol 1e-12)")
    assert ok


def test_criterion_02_vacuum_embedding():
    omegas = build_grid(0.5, FOUR_PI, 20)
    ys = np.linspace(0.0, 8.0, 20)
    worst = 0.0
    for omega in omegas:
        for y in ys:
            ref = cs.sigma_vacuum(float(omega), float(y))
            got = cs.sigma_vacuum_from_kernels(float(omega), float(y))
            worst = max(worst, abs(got - ref) / abs(ref))
    ok = _report(2, "image-sum restriction reproduces the vacuum density",
                 worst <= 1e-12, f"max rel dev {worst:.2e} on a 20x20 (omega, y) grid (tol 1e-12)")
    assert ok


def test_criterion_03_boundary_zeros():
    exact_zero = True
    for n_terms in (1, 10, 1000):
        for omega in (2.0, 5.0, 8.0, 11.0):
            exact_zero &= cs.sigma_yy_diag(omega, 0.0, G, TruncationPolicy(n_terms=n_terms)).value == 0.0
    policy = TruncationPolicy(n_terms=10_000)
    worst = 0.0
    for omega in (2.0, 5.0, 8.0, 11.0):
        resid = abs(cs.sigma_yy_diag(omega, 1.0, G, policy).value) / cs.sigma_vacuum(omega, 0.0)
        worst = max(worst, resid)
    ok = _report(3, "boundary zeros at the plates",
                 exact_zero and worst <= 1e-3,
                 f"plate 0 exact: {exact_zero}; far-plate residual {worst:.2e} at N=10^4 (tol 1e-3)")
    assert ok


def test_criterion_04_sub_cutoff_vanishing():
    policy = TruncationPolicy(n_terms=1000)
    worst = 0.0
    for omega in (1.0, 2.0, 3.0):
        for x in (0.25, 0.5, 0.75):
            ratio = abs(cs.sigma_yy_diag(omega, x, G, policy).value) / cs.sigma_vacuum(omega, 0.0)
            worst = max(worst, ratio)
    ok = _report(4, "density vanishes below the cavity cutoff",
                 worst < 0.05, f"max |sigma|/vacuum {worst:.2%} at N=1000 (tol 5%)")
    assert ok


def test_criterion_05_off_diagonal_decay():
    # the exact mode sum at the fig2-left frequency, the guard point just below the
    # jump at 2 pi; on the jump itself the n = 2 mode sits at threshold and does
    # not decay, so the ratio there (0.62) is reported beside the gate
    ys = [s * y for y in (40.0, 42.5, 45.0, 47.5, 50.0) for s in (1.0, -1.0)] + [0.0]
    ratios = {}
    for name, omega in (("fig2", FIG2_OMEGA), ("jump", TWO_PI)):
        values = cs.sigma_modes(omega, [0.75], ys, G)[0]
        ratios[name] = float(np.max(np.abs(values[:-1] / values[-1])))
    worst = ratios["fig2"]
    ok = _report(5, "off-diagonal density subdominant for |y| in [40a, 50a]", worst < 0.10,
                 f"max |sigma(x,y)/sigma(x,x)| {worst:.2%} at omega=2pi-1e-3 (tol 10%); "
                 f"{ratios['jump']:.2%} on the jump omega=2pi")
    assert ok


def test_criterion_06_three_db_suppression(tmp_path):
    out = tmp_path / "fig4-right.csv"
    assert main(["figure", "fig4-right", "--out", str(out)]) == 0
    deepest = math.inf
    for line in out.read_text().splitlines()[1:]:
        w, db025, db05 = (float(v) for v in line.split(","))
        if PI < w < FOUR_PI:
            deepest = min(deepest, db025, db05)
    ok = _report(6, "suppression reaches -3 dB between cutoff and 4pi",
                 deepest <= -3.0, f"deepest point {deepest:.2f} dB (needs <= -3.0)")
    assert ok


def _guarded_samples(count=20, seed=20240817, n_terms=400):
    """Random spacelike samples with >= 0.05 clearance from every image cone."""
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < count:
        x = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.3, 1.6))
        s = float(rng.uniform(0.1, 0.8))
        n = np.arange(0, n_terms + 2)
        a2 = (2.0 * n) ** 2 + y * y
        b2p = (2.0 * x - 2.0 * n) ** 2 + y * y
        b2n = (2.0 * x + 2.0 * n) ** 2 + y * y
        gaps = np.concatenate([np.abs(s * s - a2), np.abs(s * s - b2p), np.abs(s * s - b2n)])
        if gaps.min() >= 0.05:
            samples.append((s, x, y))
    return samples


def _lattice_at_real_time(s, point):
    """The untruncated (N = oo) closed form at real time separation s: the lattice at z^2 = s^2."""
    return float(cs.two_point_yy_lattice(np.array([s * s + 0j]), point, G)[0].real)


def test_criterion_07_stencil_matches_closed_form():
    # both routes at N = oo: the tests' stencil over the closed-form scalar sums, the lattice at z^2 = s^2
    worst = 0.0
    samples = _guarded_samples()
    for s, x, y in samples:
        closed = _lattice_at_real_time(s, FieldPoint(x=x, y=y))
        fd = two_point_fd(s, x, y, G.L, h=1e-3)
        worst = max(worst, abs(fd - closed) / abs(closed))
    # measured convergence order on three of the samples
    orders_ok = True
    for s, x, y in samples[:3]:
        closed = _lattice_at_real_time(s, FieldPoint(x=x, y=y))
        errs = [abs(two_point_fd(s, x, y, G.L, h=h) - closed) for h in (4e-3, 2e-3, 1e-3)]
        orders_ok &= all(3.2 < errs[i] / errs[i + 1] < 4.8 for i in range(2))
    ok = _report(7, "finite-difference route matches the closed form",
                 worst <= 1e-4 and orders_ok,
                 f"max rel gap {worst:.2e} over 20 guarded samples (tol 1e-4), both at N = infinity; "
                 f"second-order h-convergence: {orders_ok}")
    assert ok


def test_criterion_08_exact_reference_agreement():
    policy = TruncationPolicy(n_terms=1000)
    # the 10 points, grouped by x: one mode-sum call per point x
    schedule = {0.25: (3.6, 6.9, 9.7), 0.5: (4.4, 7.6, 10.6, 12.2), 0.75: (5.2, 8.4, 11.4)}
    worst = 0.0
    for x, omegas in schedule.items():
        got = cs.sigma_modes_diag(np.asarray(omegas), x, G)
        for omega, value in zip(omegas, got.tolist()):
            ref = cs.sigma_yy_diag(omega, x, G, policy).value
            worst = max(worst, abs(value - ref) / max(abs(ref), cs.sigma_vacuum(omega, 0.0)))
    ok = _report(8, "the exact guided-mode sum agrees with the kernel route",
                 worst <= 0.02, f"max rel gap {worst:.2%} over 10 points (tol 2%)")
    assert ok


def test_criterion_09_detector_consistency():
    kernel = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0)
    config = DetectorConfig(FieldPoint(0.75, 0.0), FieldPoint(0.75, 50.0), calibration=1.3)

    variance, approx = cs.variance_current(config, kernel, G)
    gap = abs(variance - approx) / approx

    doubled = LOKernel(omega_lo=TWO_PI, width=TWO_PI / 20.0, amplitude=2.0)
    quadrupled, _ = cs.variance_current(config, doubled, G)
    scaling_dev = abs(quadrupled / variance - 4.0)

    p = PI / 50.0
    mode = LOMode(omega=TWO_PI, n=1, p=p, k=math.sqrt(TWO_PI**2 - PI**2 - p * p))
    components = cs.mode_field_components(mode, config, G)
    scale = config.calibration * float(kernel(mode.omega)) * abs(components[0].amplitude1)
    mean_rel = abs(cs.mean_current(config, kernel, components)) / scale

    ok = _report(9, "detector variance consistency",
                 gap <= 0.10 and scaling_dev <= 1e-12 and mean_rel <= 1e-12,
                 f"four-term vs far-separation gap {gap:.2%} (tol 10%); "
                 f"amplitude-doubling deviation from x4: {scaling_dev:.1e} (tol 1e-12); "
                 f"balanced mean current {mean_rel:.1e} of scale (tol 1e-12)")
    assert ok


def test_criterion_10_property_suites():
    # mirror symmetry within twice the error estimate
    mirror_ok = True
    for omega in (2.3, 5.1, 7.9, 11.3):
        for x in (0.1, 0.3):
            for n_terms in (100, 1000, 10_000):
                policy = TruncationPolicy(n_terms=n_terms)
                near = cs.sigma_yy_diag(omega, x, G, policy)
                far = cs.sigma_yy_diag(omega, 1.0 - x, G, policy)
                mirror_ok &= abs(near.value - far.value) <= 2.0 * max(near.err, far.err)

    # y-parity, exact
    policy = TruncationPolicy(n_terms=500)
    parity_ok = all(
        cs.sigma_yy(omega, FieldPoint(0.4, y), G, policy).value
        == cs.sigma_yy(omega, FieldPoint(0.4, -y), G, policy).value
        for omega in (2.3, 7.9) for y in (0.7, 13.0, 44.0)
    )

    # scale covariance, exact at every cutoff for binary scalings
    scaling_ok = True
    for lam in (0.5, 2.0, 4.0):
        for n_terms in (0, 7, 150):
            pol = TruncationPolicy(n_terms=n_terms)
            base = cs.sigma_yy_diag(5.1, 0.3, G, pol).value
            scaled = cs.sigma_yy_diag(5.1 * lam, 0.3 / lam, CavityGeometry(1.0 / lam), pol).value
            scaling_ok &= base == scaled / lam**3

    # blocked grid: at 3000 pairs one block holds 3 distinct y^2, so the 25
    # distinct y^2 > 0 of each 51-point row span nine blocks; the 3 x 51 grid in
    # one call equals per-point sigma_yy bit for bit, y = 0 and the plates included
    grid_policy = TruncationPolicy(n_terms=3000)
    points = [FieldPoint(x, y) for x in (0.0, 0.5, 1.0) for y in np.linspace(-5.0, 5.0, 51).tolist()]
    values, errs = _sigma_yy_values(np.array([7.3]), points, G, grid_policy)
    blocked_ok = True
    for point, value, err in zip(points, values[:, 0].tolist(), errs[:, 0].tolist()):
        want = cs.sigma_yy(7.3, point, G, grid_policy)
        blocked_ok &= (value, err) == (want.value, want.err)

    ok = _report(10, "property suites",
                 mirror_ok and parity_ok and scaling_ok and blocked_ok,
                 f"mirror<=2err: {mirror_ok}; y-parity exact: {parity_ok}; "
                 f"scaling exact: {scaling_ok}; blocked grid = per-point bits: {blocked_ok}")
    assert ok


FIGURES = ("fig2-left", "fig2-right", "fig4-left", "fig4-right")


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    rows = [[float(v) if v else math.nan for v in line.split(",")] for line in lines[1:]]
    return lines[0], rows


def test_criterion_11_figure_regression(tmp_path):
    details = []
    all_ok = True
    for name in FIGURES:
        fresh = tmp_path / f"{name}.csv"
        assert main(["figure", name, "--out", str(fresh)]) == 0
        same = fresh.read_bytes() == (BASELINES / f"{name}.csv").read_bytes()
        header_new, rows_new = _read_csv(fresh)
        header_ref, rows_ref = _read_csv(BASELINES / f"{name}.csv")
        worst = 0.0
        if header_new == header_ref and len(rows_new) == len(rows_ref):
            for row_new, row_ref in zip(rows_new, rows_ref):
                for a, b in zip(row_new, row_ref):
                    worst = max(worst, abs(a - b))
        all_ok &= same
        details.append(f"{name}: {'match' if same else 'MISMATCH'} (max |delta| {worst:.1e})")

    # qualitative shape checks; fig4-left is the exact mode sum, -1 at every
    # omega < pi, and its plateau check keeps its margin below the jump at pi
    _, slice_rows = _read_csv(tmp_path / "fig2-right.csv")
    slice_ok = all(abs(r[3]) < 0.1 for r in slice_rows if abs(r[2]) >= 40.0)
    _, nd_rows = _read_csv(tmp_path / "fig4-left.csv")
    left_ok = all(abs(r[2] + 1.0) < 0.01 for r in nd_rows if r[0] < PI - 0.01)
    plate_ok = all(r[2] == -1.0 for r in nd_rows if r[1] == 0.0)
    shape_ok = slice_ok and left_ok and plate_ok
    all_ok &= shape_ok
    details.append(f"shapes: far-|y| ratio decay {slice_ok}, sub-cutoff map -1 {left_ok}, plate -1 exact {plate_ok}")

    ok = _report(11, "figure regression against pinned baselines", all_ok, "; ".join(details))
    assert ok
