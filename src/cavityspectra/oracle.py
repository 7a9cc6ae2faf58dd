"""The references ``validate`` checks the library against.

Each check compares a computed quantity with a closed form, an exact
reference (the guided-mode sums, the untruncated image lattice) or an
invariant, and returns (ok, detail); ``CHECKS`` lists them with their names
in the order ``validate`` prints them.  The CLI imports this module only when
``validate`` runs.
"""
from __future__ import annotations

import math

import numpy as np

from .bhd import LOKernel, smeared_density
from .cli import _FOUR_PI, _INTERNAL, _TWO_PI, FIG2_OMEGA, _fig4_right_rows
from .imagesum import TruncationPolicy, two_point_yy_fd, two_point_yy_lattice
from .spectral import (
    _sigma_diag_values,
    _sigma_yy_values,
    laplace_modes_diag,
    sigma_modes,
    sigma_modes_diag,
    sigma_vacuum,
    sigma_vacuum_from_kernels,
    sigma_yy,
    smeared_modes_diag,
)
from .units import DEFAULT_GUARD, FieldPoint, build_grid


def _check_vacuum_diagonal():
    omegas = build_grid(0.1, _FOUR_PI, 50).points
    exact = omegas**3 / (6.0 * math.pi**2)
    dev = float(np.max(np.abs(sigma_vacuum(omegas, 0.0) - exact) / exact))
    return dev <= 1e-12, f"max relative deviation {dev:.2e} (tolerance 1e-12)"

def _check_vacuum_embedding():
    omegas = build_grid(0.5, _FOUR_PI, 20).points
    ys = np.linspace(0.0, 8.0, 20)[:, None]  # a column of y against the row of omega: the 20x20 grid
    ref = sigma_vacuum(omegas, ys)
    got = sigma_vacuum_from_kernels(omegas, ys)
    worst = float(np.max(np.abs(got - ref) / np.abs(ref)))
    return worst <= 1e-12, f"max relative deviation {worst:.2e} on a 20x20 grid (tolerance 1e-12)"

def _check_boundary_zeros():
    omegas = np.array([2.0, 5.0, 8.0, 11.0])
    at0 = _sigma_diag_values(omegas, [0.0], _INTERNAL, TruncationPolicy(n_terms=500))[0][0]
    at_a = _sigma_diag_values(omegas, [1.0], _INTERNAL, TruncationPolicy(n_terms=10_000))[0][0]
    resid = np.abs(at_a) / sigma_vacuum(omegas, 0.0)
    ok = bool(np.all(at0 == 0.0) and np.all(resid <= 1e-3))
    return ok, "; ".join(f"omega={w:g}: plate0={v:g}, plate-a residual {r:.2e}"
                         for w, v, r in zip(omegas.tolist(), at0.tolist(), resid.tolist()))

def _check_sub_cutoff():
    omegas = np.array([1.0, 2.0, 3.0])
    values, _ = _sigma_diag_values(omegas, [0.25, 0.5, 0.75], _INTERNAL, TruncationPolicy(n_terms=1000))
    worst = float(np.max(np.abs(values) / sigma_vacuum(omegas, 0.0)))
    return worst < 0.05, f"max |sigma|/sigma_vacuum = {worst:.4f} below cutoff (tolerance 5%)"

def _check_offdiagonal_decay():
    # the fig2-right ratio from the exact mode sum at the fig2-left frequency, and on the jump beside it
    ys = np.linspace(40.0, 50.0, 5).tolist()
    ys += [-y for y in ys] + [0.0]
    ratios = []
    for w in (FIG2_OMEGA, _TWO_PI):
        values = sigma_modes(w, [0.75], ys, _INTERNAL)[0]
        ratios.append(float(np.max(np.abs(values[:-1] / values[-1]))))
    worst, jump = ratios
    return worst < 0.10, (f"max |sigma(x,y)/sigma(x,x)| = {worst:.4f} for |y| in [40a, 50a] (tolerance 10%), "
                          f"from the exact mode sum at the fig2-left frequency omega = 2 pi - {DEFAULT_GUARD:g}; "
                          f"on the jump omega = 2 pi it is {jump:.2f}: the n = 2 mode sits at threshold "
                          "and does not decay (see README)")

def _check_two_point_routes():
    # two N = oo routes: the stencil over the closed-form scalar sums against the lattice at z^2 = s^2
    samples = [(0.3, 0.35, 1.1), (0.2, 0.6, 0.9), (0.45, 0.75, 1.4), (0.15, 0.5, 0.7), (0.55, 0.25, 1.2)]
    worst = 0.0
    for s, x, y in samples:
        point = FieldPoint(x=x, y=y)
        lattice = float(two_point_yy_lattice(np.array([s * s + 0j]), point, _INTERNAL)[0].real)
        fd = two_point_yy_fd(s, point, _INTERNAL, h=1e-3)
        worst = max(worst, abs(fd - lattice) / abs(lattice))
    return worst <= 1e-4, f"max relative gap closed-form vs stencil {worst:.2e} (tolerance 1e-4)"

def _check_exact_modes():
    # (a) the kernels against the exact mode sum at y = 0, one call per point x
    policy = TruncationPolicy(n_terms=1000)
    schedule = {0.25: (3.6, 6.9, 9.7), 0.5: (4.4, 7.6, 10.6, 12.2), 0.75: (5.2, 8.4, 11.4)}
    worst = 0.0
    for x, omegas in schedule.items():
        omegas = np.asarray(omegas)
        values, _ = _sigma_diag_values(omegas, [x], _INTERNAL, policy)
        exact = sigma_modes_diag(omegas, x, _INTERNAL)
        scale = np.maximum(np.abs(exact), sigma_vacuum(omegas, 0.0))
        worst = max(worst, float(np.max(np.abs(values[0] - exact) / scale)))
    # (b) the same off the axis, one point per call: the two-point kernels against the mode sum
    off_axis = ((7.6, 0.3, 0.4), (10.6, 0.5, 2.2), (5.2, 0.75, 1.3))
    off = 0.0
    for w, x, y in off_axis:
        value = _sigma_yy_values(np.asarray([w]), [FieldPoint(x=x, y=y)], _INTERNAL, policy)[0][0, 0]
        exact = sigma_modes(w, [x], [y], _INTERNAL)[0, 0]
        off = max(off, abs(value - exact) / max(abs(exact), sigma_vacuum(w, 0.0)))
    # (c) the mode sum against the untruncated lattice: its Laplace transform
    # is the correlation at z^2 = -eps^2, scaled by its vacuum term 1/(pi^2 eps^4)
    eps = np.array([0.05, 0.3, 1.0, 3.0])
    xs = (0.1, 0.25, 0.5, 0.75, 0.97)
    lattice = np.array([two_point_yy_lattice(-(eps * eps) + 0j, FieldPoint(x=x, y=0.0), _INTERNAL).real for x in xs])
    modes = np.array([laplace_modes_diag(e, xs, _INTERNAL) for e in eps.tolist()]).T  # (x, eps), as lattice
    rule = float(np.max(np.abs(modes - lattice) * math.pi**2 * eps**4))
    # (d) the LO smear at y = 0: the image smear against the modes' closed form, in units of
    # A^2 width sqrt(pi) sigma_vacuum(omega_lo); below the cutoff only mode 1's Gaussian tail counts
    smears = ((3.0, 0.15, 0.5), (_TWO_PI, _TWO_PI / 20.0, 0.75), (_TWO_PI, _TWO_PI / 200.0, 0.02), (11.4, 0.57, 0.9))
    smear = 0.0
    for w0, w, x in smears:
        kernel, point = LOKernel(w0, w), FieldPoint(x=x, y=0.0)
        gap = abs(smeared_density(point, point, kernel, _INTERNAL) - smeared_modes_diag(w0, w, x, _INTERNAL))
        smear = max(smear, gap / (kernel.squared_integral() * w0**3 / (6.0 * math.pi**2)))
    ok = worst <= 1e-3 and off <= 1e-3 and rule <= 1e-12 and smear <= 1e-13
    count = sum(len(omegas) for omegas in schedule.values())
    return ok, (f"max kernels-vs-modes gap {worst:.1e} of scale over {count} points (tolerance 1e-3), "
                f"the truncation error of N = {policy.n_terms}; off the axis {off:.1e} over {len(off_axis)} "
                "points (tolerance 1e-3); max Laplace sum-rule gap, modes vs the "
                f"untruncated lattice, {rule:.1e} of 1/(pi^2 eps^4) over {eps.size * len(xs)} (eps, x) "
                f"(tolerance 1e-12); max LO-smear gap at y = 0, images vs modes, {smear:.1e} of scale over "
                f"{len(smears)} LOs (tolerance 1e-13)")

def _check_convergence_table():
    # the density at (a/4, 0) on the jump 2 pi for three cutoffs N; the differences between rows shrink
    point = FieldPoint(x=0.25, y=0.0)
    rows = [sigma_yy(_TWO_PI, point, _INTERNAL, TruncationPolicy(n_terms=n)) for n in (100, 1000, 10000)]
    print("    N        value          err")
    for r in rows:
        print(f"    {r.terms:<8d} {r.value:<14.8g} {r.err:.3e}")
    deltas = [abs(b.value - a.value) for a, b in zip(rows, rows[1:])]
    ok = all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    return ok, "successive differences " + " > ".join(f"{d:.2e}" for d in deltas)

def _check_suppression_dip():
    # the rows fig4-right emits; check 7 ties the truncated kernels to the same mode sum
    table, _, _ = _fig4_right_rows()
    best = float(table[(math.pi < table[:, 0]) & (table[:, 0] < _FOUR_PI), 1:].min())
    return best <= -3.0, (f"deepest suppression {best:.2f} dB in (pi, 4 pi) (needs <= -3 dB), "
                          "on the fig4-right rows, from the exact mode sum")


CHECKS = (
    ("vacuum diagonal closed form", _check_vacuum_diagonal),
    ("vacuum embedding of the image sum", _check_vacuum_embedding),
    ("boundary zeros at the plates", _check_boundary_zeros),
    ("sub-cutoff vanishing", _check_sub_cutoff),
    ("off-diagonal decay at large |y|", _check_offdiagonal_decay),
    ("two-point closed form vs stencil", _check_two_point_routes),
    ("exact mode sum on and off the axis", _check_exact_modes),
    ("image-sum convergence table", _check_convergence_table),
    ("suppression dips below -3 dB", _check_suppression_dip),
)
