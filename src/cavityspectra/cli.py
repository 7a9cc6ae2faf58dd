"""Command-line interface: density grids, figure data, detector predictions, validation.

Outputs are deterministic: fixed evaluation order and shortest round-trip
float formatting.  CSV is the contract; JSON mirrors it and SVG renderings
are a convenience.

All numeric I/O is in internal units: lengths in units of the plate
separation a, frequencies in units of c/a.  The ``bhd`` command's
--a-microns flag fixes the physical scale those units refer to (it feeds the
SI frequency column).  Each subcommand accepts only the flags it reads.

Exit codes: 0 success, 1 validation failure, 2 argument error, 3 numerical
guard violation, 4 I/O failure.  ``main`` returns them, usage errors
included, and builds its parser once per process.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .bhd import (
    DetectorConfig,
    LOKernel,
    LOMode,
    check_balance,
    mean_current,
    variance_current,
)
from .errors import NumericalGuardError
from .imagesum import TruncationPolicy, two_point_yy_closed, two_point_yy_fd
from .oracle import OracleConfig, sigma_via_numeric_ft
from .spectral import (
    _sigma_diag_values,
    _sigma_yy_values,
    convergence_report,
    sigma_vacuum,
    sigma_vacuum_from_kernels,
    sigma_yy,
    sigma_yy_diag,
)
from .units import (
    CavityGeometry,
    FieldPoint,
    build_grid,
    from_internal,
    near_discontinuity,
    validate_point,
    DEFAULT_GUARD,
)
from . import svgplot

DENSITY_COLUMNS = ("omega", "x", "y", "sigma", "err", "n_terms")
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

_INTERNAL = CavityGeometry(1.0)


# -- output plumbing ---------------------------------------------------------

def _fmt(value) -> str:
    if type(value) is float:  # nearly every cell: one repr, no isinstance chain
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows) -> str:
    payload = [dict(zip(header, row)) for row in rows]
    return json.dumps(payload, indent=1, default=float) + "\n"


def _emit(ns, header, rows) -> None:
    text = _rows_to_csv(header, rows) if ns.format == "csv" else _rows_to_json(header, rows)
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note_discontinuities(omegas) -> None:
    flagged = sorted({float(w) for w in np.atleast_1d(omegas) if near_discontinuity(w)})
    if flagged:
        listed = ", ".join(f"{w:g}" for w in flagged)
        print(
            f"note: omega in {{{listed}}} lies within {DEFAULT_GUARD:g} of a spectral "
            "discontinuity at n*pi; the truncated sum there is midpoint-like",
            file=sys.stderr,
        )


# -- argument plumbing -------------------------------------------------------

def _add_cutoff(p: argparse.ArgumentParser, n_terms_default: int | None = 1000, accelerate: bool = True) -> None:
    p.add_argument("--n-terms", type=int, default=n_terms_default,
                   help="symmetric image-sum cutoff N"
                        + ("" if n_terms_default else " (default: the figure recipe's own count)"))
    if accelerate:
        p.add_argument("--accelerate", action="store_true",
                       help="average trailing partial sums to damp the oscillatory tail")


def _add_output(p: argparse.ArgumentParser, include_svg: bool = False) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if include_svg:
        p.add_argument("--svg", help="also render a simple SVG to this path")


def _explicit_dests(argv) -> set[str]:
    dests = set()
    for token in argv:
        if token.startswith("--"):
            dests.add(token[2:].split("=", 1)[0].replace("-", "_"))
    return dests


#: Namespace entries that are not flags a config file may set: the
#: subcommand, the config path and the figure name argument.
_NOT_CONFIGURABLE = frozenset({"command", "config", "name"})


def _apply_config(ns: argparse.Namespace, argv) -> None:
    path = getattr(ns, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object of option values")
    explicit = _explicit_dests(argv)
    options = set(vars(ns)) - _NOT_CONFIGURABLE
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in options:
            raise ValueError(f"config key {key!r} is not an option of {ns.command}")
        if dest not in explicit:
            setattr(ns, dest, value)


def _policy(ns) -> TruncationPolicy:
    return TruncationPolicy(n_terms=ns.n_terms, accelerate=ns.accelerate)


# -- density commands --------------------------------------------------------

def _grid(lo: float, hi: float, count: int, flag: str) -> list[float]:
    if count < 1:
        raise ValueError(f"{flag} must be at least 1, got {count}")
    return np.linspace(lo, hi, count).tolist()


def _density_row(omega: float, x: float, ys, policy):
    """sigma_yy at (x, y) for each y: [values, errs] (spectral bounds the memory of the row)."""
    values, errs = _sigma_yy_values(np.asarray([omega], dtype=float), [FieldPoint(x=x, y=y) for y in ys],
                                    _INTERNAL, policy)
    return values[:, 0].tolist(), errs[:, 0].tolist()


def cmd_spectral_diag(ns) -> int:
    policy = _policy(ns)
    if ns.x is not None:
        xs = [float(ns.x)]
        validate_point(FieldPoint(x=xs[0], y=0.0), _INTERNAL)
    else:
        xs = _grid(0.0, 1.0, ns.x_steps, "--x-steps")
    values, errs = _sigma_diag_values(np.asarray([ns.omega], dtype=float), xs, _INTERNAL, policy)
    _note_discontinuities([ns.omega])
    sub = bool(ns.omega < math.pi)
    rows = [(ns.omega, x, 0.0, v, e, policy.n_terms, sub)
            for x, v, e in zip(xs, values[:, 0].tolist(), errs[:, 0].tolist())]
    _emit(ns, DENSITY_COLUMNS + ("sub_cutoff",), rows)
    if getattr(ns, "svg", None):
        svgplot.render_line_plot(ns.svg, xs, [[r[3] for r in rows]],
                                 labels=("sigma",), title=f"diagonal density, omega={ns.omega:g}")
    return 0


def cmd_spectral_map(ns) -> int:
    policy = _policy(ns)
    xs = _grid(0.0, 1.0, ns.x_steps, "--x-steps")
    ys = _grid(ns.y_range[0], ns.y_range[1], ns.y_steps, "--y-steps")
    rows = []
    for x in xs:
        values, errs = _density_row(ns.omega, x, ys, policy)
        rows += [(ns.omega, x, y, v, e, policy.n_terms) for y, v, e in zip(ys, values, errs)]
    _note_discontinuities([ns.omega])
    _emit(ns, DENSITY_COLUMNS, rows)
    if getattr(ns, "svg", None):
        grid = [[rows[i * len(ys) + j][3] for j in range(len(ys))] for i in range(len(xs))]
        svgplot.render_heatmap(ns.svg, xs, ys, grid, title=f"density map, omega={ns.omega:g}")
    return 0


def cmd_spectral_slice(ns) -> int:
    if ns.x in (0.0, _INTERNAL.a):
        raise ValueError(f"--x {ns.x!r} lies on a plate, where the coincident density "
                         "that normalizes the slice vanishes")
    policy = _policy(ns)
    ys = _grid(ns.y_range[0], ns.y_range[1], ns.y_steps, "--y-steps")
    diagonal = sigma_yy_diag(ns.omega, ns.x, _INTERNAL, policy)
    values, _ = _density_row(ns.omega, ns.x, ys, policy)
    _note_discontinuities([ns.omega])
    if abs(diagonal.value) <= diagonal.err:
        # near a plate the truncated coincident density is residual, not signal
        print(f"note: the coincident density at x = {ns.x:g}, omega = {ns.omega:g} is "
              f"{diagonal.value:.3g}, within its truncation estimate err = {diagonal.err:.3g}; "
              "the ratios are normalized by truncation residual", file=sys.stderr)
    rows = [(ns.omega, ns.x, y, v / diagonal.value) for y, v in zip(ys, values)]
    _emit(ns, ("omega", "x", "y", "ratio"), rows)
    if getattr(ns, "svg", None):
        svgplot.render_line_plot(ns.svg, ys, [[r[3] for r in rows]], labels=("ratio",),
                                 title=f"normalized density, x={ns.x:g}, omega={ns.omega:g}")
    return 0


# -- figure data -------------------------------------------------------------

def _fig4_omega_grid(count: int):
    return build_grid(_FOUR_PI / count, _FOUR_PI, count).points


def _fig4_left_rows(policy, omega_count=96, x_count=41):
    omegas = _fig4_omega_grid(omega_count)
    xs = np.linspace(0.0, 1.0, x_count)
    vac = sigma_vacuum(omegas, 0.0)
    values, _ = _sigma_diag_values(omegas, xs.tolist(), _INTERNAL, policy)
    columns = (values - vac) / vac
    rows = []
    for j, w in enumerate(omegas):
        for i, x in enumerate(xs):
            rows.append((float(w), float(x), float(columns[i, j])))
    return rows, omegas, xs, columns


def _fig4_right_rows(policy, omega_count=160):
    omegas = _fig4_omega_grid(omega_count)
    vac = sigma_vacuum(omegas, 0.0)
    xs = (0.25, 0.5)
    values, _ = _sigma_diag_values(omegas, xs, _INTERNAL, policy)
    dbs = {x: [10.0 * math.log10(r) if r > 0.0 else None for r in ratio]
           for x, ratio in zip(xs, values / vac)}
    rows = []
    for j, w in enumerate(omegas):
        d025, d05 = dbs[0.25][j], dbs[0.5][j]
        if d025 is None or d05 is None:
            continue
        rows.append((float(w), d025, d05))
    return rows, omegas, dbs


#: Image-sum truncation used by the bundled density-map recipes: the maps are
#: drawn with 1000 image terms included symmetrically, i.e. n in [-500, 500].
#: (A cutoff of 1000 pairs leaves the well-known slow transverse transient at
#: the map frequency 2 pi c/a and pushes the far-|y| normalized density above
#: the 10% envelope it is supposed to stay under.)
FIG2_CUTOFF = 500

_FIGURE_CUTOFFS = {"fig2-left": FIG2_CUTOFF, "fig2-right": FIG2_CUTOFF,
                   "fig4-left": 1000, "fig4-right": 1000}


def cmd_figure(ns) -> int:
    name = ns.name
    n_terms = ns.n_terms if ns.n_terms is not None else _FIGURE_CUTOFFS[name]
    ns.n_terms = n_terms
    policy = _policy(ns)
    out = ns.out or f"{name}.csv"

    if name == "fig2-left":
        sub = argparse.Namespace(
            omega=_TWO_PI, x_steps=21, y_range=(-50.0, 50.0), y_steps=101,
            n_terms=n_terms, accelerate=ns.accelerate, out=out,
            format=ns.format, svg=ns.svg,
        )
        return cmd_spectral_map(sub)
    if name == "fig2-right":
        sub = argparse.Namespace(
            omega=_TWO_PI, x=0.75, y_range=(-50.0, 50.0), y_steps=201,
            n_terms=n_terms, accelerate=ns.accelerate, out=out,
            format=ns.format, svg=ns.svg,
        )
        return cmd_spectral_slice(sub)
    if name == "fig4-left":
        rows, omegas, xs, columns = _fig4_left_rows(policy)
        ns.out = out
        _emit(ns, ("omega", "x", "normdiff"), rows)
        if ns.svg:
            svgplot.render_heatmap(ns.svg, xs.tolist(), omegas.tolist(),
                                   [c.tolist() for c in columns],
                                   title="normalized difference vs (x, omega)")
        return 0
    # fig4-right
    rows, omegas, dbs = _fig4_right_rows(policy)
    ns.out = out
    _emit(ns, ("omega_over_c_per_a", "db_x025", "db_x05"), rows)
    if ns.svg:
        svgplot.render_line_plot(ns.svg, omegas.tolist(), [dbs[0.25], dbs[0.5]],
                                 labels=("x=0.25a", "x=0.5a"),
                                 title="suppression of vacuum fluctuations [dB]")
    return 0


# -- two-point and detector commands ------------------------------------------

def cmd_twopoint(ns) -> int:
    policy = TruncationPolicy(n_terms=ns.n_terms)
    value = two_point_yy_closed(ns.s, FieldPoint(x=ns.x, y=ns.y), _INTERNAL, policy)
    _emit(ns, ("s", "x", "y", "value", "n_terms"), [(ns.s, ns.x, ns.y, value, policy.n_terms)])
    return 0


def cmd_bhd(ns) -> int:
    width = ns.width if ns.width is not None else ns.omega_lo / 20.0
    kernel = LOKernel(omega_lo=ns.omega_lo, width=width, amplitude=ns.amplitude)
    config = DetectorConfig(
        diode1=FieldPoint(x=ns.x1, y=ns.y1),
        diode2=FieldPoint(x=ns.x2, y=ns.y2),
        calibration=ns.calibration,
    )
    mean = mean_current(config, kernel)
    variance, approx = variance_current(config, kernel, _INTERNAL)

    if ns.lo_p is not None:
        p = ns.lo_p
    elif ns.y2 != ns.y1:
        p = math.pi / abs(ns.y2 - ns.y1)  # half-period diode spacing balances the LO
    else:
        p = 0.0
    ksq = ns.omega_lo**2 - math.pi**2 - p * p
    if ksq >= 0.0:
        mode = LOMode(omega=ns.omega_lo, n=1, p=p, k=math.sqrt(ksq))
        residual = check_balance(config, mode, _INTERNAL)
    else:
        residual = None
        print("note: omega_lo below the cavity dispersion for the requested p; "
              "no running mode, balance residual omitted", file=sys.stderr)

    omega_si = from_internal(ns.omega_lo, "frequency", CavityGeometry(ns.a_microns))
    header = ("omega_lo", "omega_lo_rad_per_s", "mean_current", "variance",
              "variance_approx", "balance_residual")
    _emit(ns, header, [(ns.omega_lo, omega_si, mean, variance, approx, residual)])
    return 0


# -- validation --------------------------------------------------------------

def _check_vacuum_diagonal():
    omegas = build_grid(0.1, _FOUR_PI, 50).points
    exact = omegas**3 / (6.0 * math.pi**2)
    dev = float(np.max(np.abs(sigma_vacuum(omegas, 0.0) - exact) / exact))
    return dev <= 1e-12, f"max relative deviation {dev:.2e} (tolerance 1e-12)"

def _check_vacuum_embedding():
    omegas = build_grid(0.5, _FOUR_PI, 20).points
    ys = np.linspace(0.0, 8.0, 20)
    worst = 0.0
    for w in omegas:
        for y in ys:
            ref = sigma_vacuum(float(w), float(y))
            got = sigma_vacuum_from_kernels(float(w), float(y))
            worst = max(worst, abs(got - ref) / abs(ref))
    return worst <= 1e-12, f"max relative deviation {worst:.2e} on a 20x20 grid (tolerance 1e-12)"

def _check_boundary_zeros():
    policy_small = TruncationPolicy(n_terms=500)
    policy_big = TruncationPolicy(n_terms=10_000)
    details = []
    ok = True
    for w in (2.0, 5.0, 8.0, 11.0):
        at0 = sigma_yy_diag(w, 0.0, _INTERNAL, policy_small).value
        ok &= at0 == 0.0
        resid = abs(sigma_yy_diag(w, 1.0, _INTERNAL, policy_big).value) / sigma_vacuum(w, 0.0)
        ok &= resid <= 1e-3
        details.append(f"omega={w:g}: plate0={at0:g}, plate-a residual {resid:.2e}")
    return ok, "; ".join(details)

def _check_sub_cutoff():
    policy = TruncationPolicy(n_terms=1000, accelerate=True)
    worst = 0.0
    for w in (1.0, 2.0, 3.0):
        for x in (0.25, 0.5, 0.75):
            ratio = abs(sigma_yy_diag(w, x, _INTERNAL, policy).value) / sigma_vacuum(w, 0.0)
            worst = max(worst, ratio)
    return worst < 0.05, f"max |sigma|/sigma_vacuum = {worst:.4f} below cutoff (tolerance 5%)"

def _check_offdiagonal_decay():
    policy = TruncationPolicy(n_terms=FIG2_CUTOFF)  # the density-map recipe: 1000 symmetric terms
    diag = sigma_yy_diag(_TWO_PI, 0.75, _INTERNAL, policy).value
    worst = 0.0
    for y in np.linspace(40.0, 50.0, 5):
        for sign in (1.0, -1.0):
            off = sigma_yy(_TWO_PI, FieldPoint(x=0.75, y=sign * float(y)), _INTERNAL, policy).value
            worst = max(worst, abs(off / diag))
    return worst < 0.10, (f"max |sigma(x,y)/sigma(x,x)| = {worst:.4f} for |y| in [40a, 50a] (tolerance 10%), "
                          f"at the fig2 cutoff N = {FIG2_CUTOFF} on the spectral jump omega = 2 pi; "
                          "not converged in N (see README)")

def _check_two_point_routes():
    policy = TruncationPolicy(n_terms=400)
    samples = [(0.3, 0.35, 1.1), (0.2, 0.6, 0.9), (0.45, 0.75, 1.4), (0.15, 0.5, 0.7), (0.55, 0.25, 1.2)]
    worst = 0.0
    for s, x, y in samples:
        point = FieldPoint(x=x, y=y)
        closed = two_point_yy_closed(s, point, _INTERNAL, policy)
        fd = two_point_yy_fd(s, point, _INTERNAL, policy, h=1e-3)
        worst = max(worst, abs(fd - closed) / abs(closed))
    return worst <= 1e-4, f"max relative gap closed-form vs stencil {worst:.2e} (tolerance 1e-4)"

def _check_oracle(full: bool):
    policy = TruncationPolicy(n_terms=1000)
    config = OracleConfig() if full else OracleConfig(s_max=60.0)
    vac_ref = sigma_vacuum(_TWO_PI, 0.3)
    vac_got = sigma_via_numeric_ft(_TWO_PI, FieldPoint(x=0.5, y=0.3), _INTERNAL, config,
                                   vacuum_only=True)
    vac_dev = abs(vac_got - vac_ref) / abs(vac_ref)
    ok = vac_dev <= 0.01
    details = [f"free-space calibration {vac_dev:.2%}"]

    # frequencies per diagonal point x: one transform call evaluates all of them
    if full:
        schedule = {0.25: (3.6, 6.9, 9.7), 0.5: (4.4, 7.6, 10.6, 12.2), 0.75: (5.2, 8.4, 11.4)}
    else:
        schedule = {0.5: (4.4, 7.6, 10.6)}
    worst = 0.0
    for x, omegas in schedule.items():
        got = sigma_via_numeric_ft(omegas, FieldPoint(x=x, y=0.0), _INTERNAL, config)
        for w, value in zip(omegas, got.tolist()):
            closed = sigma_yy_diag(w, x, _INTERNAL, policy)
            scale = max(abs(closed.value), sigma_vacuum(w, 0.0))
            worst = max(worst, abs(value - closed.value) / scale)
    ok &= worst <= 0.02
    count = sum(len(omegas) for omegas in schedule.values())
    details.append(f"max transform-vs-kernels gap {worst:.2%} over {count} points (tolerance 2%): "
                   f"transform of the untruncated image lattice (N = inf) against the kernels at "
                   f"N = {policy.n_terms}, plus quadrature error")
    return ok, "; ".join(details)

def _check_convergence_table():
    rows = convergence_report(_TWO_PI, FieldPoint(x=0.25, y=0.0), _INTERNAL, [100, 1000, 10000])
    print("    N        value          err")
    for r in rows:
        print(f"    {r.terms:<8d} {r.value:<14.8g} {r.err:.3e}")
    deltas = [abs(b.value - a.value) for a, b in zip(rows, rows[1:])]
    ok = all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    return ok, "successive differences " + " > ".join(f"{d:.2e}" for d in deltas)

def _check_suppression_dip():
    policy = TruncationPolicy(n_terms=1000)
    rows, _, _ = _fig4_right_rows(policy)
    best = min(min(r[1], r[2]) for r in rows if math.pi < r[0] < _FOUR_PI)
    return best <= -3.0, f"deepest suppression {best:.2f} dB in (pi, 4 pi) (needs <= -3 dB)"


def cmd_validate(ns) -> int:
    full = not ns.quick
    checks = [
        ("vacuum diagonal closed form", _check_vacuum_diagonal),
        ("vacuum embedding of the image sum", _check_vacuum_embedding),
        ("boundary zeros at the plates", _check_boundary_zeros),
        ("sub-cutoff vanishing", _check_sub_cutoff),
        ("off-diagonal decay at large |y|", _check_offdiagonal_decay),
        ("two-point closed form vs stencil", _check_two_point_routes),
        ("numeric Fourier transform", lambda: _check_oracle(full)),
        ("image-sum convergence table", _check_convergence_table),
        ("suppression dips below -3 dB", _check_suppression_dip),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} validation checks passed")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any token opening with '-' and a digit as a value.

    argparse's own pattern misses scientific notation, so `--y1 -1e-05` would
    read as a flag with no value; no flag of this CLI starts with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityspectra",
        description="Ground-state field spectra between conducting plates and homodyne-detector response",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of option defaults (explicit flags win)")
        return p

    p = command("spectral-diag", "coincident-point density over x at fixed omega")
    p.add_argument("--omega", type=float, required=True, help="frequency in c/a units")
    p.add_argument("--x", type=float, help="single evaluation point (units of a)")
    p.add_argument("--x-steps", type=int, default=21, help="grid size over [0, a] when --x is absent")
    _add_cutoff(p)
    _add_output(p, include_svg=True)

    p = command("spectral-map", "two-point density over the (x, y) plane")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x-steps", type=int, default=21)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=101)
    _add_cutoff(p)
    _add_output(p, include_svg=True)

    p = command("spectral-slice", "density normalized by its coincident value, over y")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x", type=float, default=0.75)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=201)
    _add_cutoff(p)
    _add_output(p, include_svg=True)

    p = command("figure", "reproduce a bundled figure data set")
    p.add_argument("name", choices=("fig2-left", "fig2-right", "fig4-left", "fig4-right"))
    _add_cutoff(p, n_terms_default=None)
    _add_output(p, include_svg=True)

    p = command("twopoint", "closed-form two-point function at time separation s")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=0.0)
    _add_cutoff(p, accelerate=False)
    _add_output(p)

    p = command("bhd", "balanced-homodyne-detector response prediction")
    p.add_argument("--omega-lo", type=float, required=True, help="LO frequency in c/a units")
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--y1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--y2", type=float, required=True)
    p.add_argument("--width", type=float, help="LO kernel width (default omega_lo/20)")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--calibration", type=float, default=1.0)
    p.add_argument("--lo-p", type=float, help="LO transverse wave number (default pi/|y2-y1|)")
    p.add_argument("--a-microns", type=float, default=1.0,
                   help="plate separation in micrometres (scale of the SI frequency column)")
    _add_output(p)  # no cutoff: the LO width sizes the smear's image sum

    p = command("validate", "run oracle cross-checks and invariant suites")
    p.add_argument("--quick", action="store_true", help="shorter oracle schedule (3 points)")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call of main, then reused."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 for --help
        return exc.code
    # the handler is looked up at call time, so a replaced cmd_* is the one that runs
    handler = globals()["cmd_" + ns.command.replace("-", "_")]
    try:
        _apply_config(ns, argv)
        return handler(ns)
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
