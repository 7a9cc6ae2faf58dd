"""Command-line interface: density grids, figure data, detector predictions.

Outputs are deterministic: fixed evaluation order and shortest round-trip
float formatting.  CSV is the contract; JSON mirrors it and SVG renderings
are a convenience.  A float grid (a map, a slice, a figure) reaches the
writers as one table, formatted column by column; the other outputs, whose
cells include ints, bools or empty cells, are formatted cell by cell.

All numeric I/O is in internal units: lengths in units of the plate
separation a, frequencies in units of c/a.  The ``bhd`` command's
--a-microns flag fixes the physical scale those units refer to (it feeds the
SI frequency column).  Each subcommand accepts only the flags it reads.

Exit codes: 0 success, 1 validation failure, 2 argument error, 3 numerical
guard violation, 4 I/O failure.  ``main`` returns them, usage errors
included.  It builds its parser once per process and parses a line that
names a command once, with that command's own parser, so a usage error
names the command; any other line goes to the top-level parser.  A flag
is read only when spelt in full, and one given twice is an argument error.
Every option comes from the command line; there is no option file.  A
command imports the modules only it uses (the detector, json, the SVG
renderer, the ``oracle`` checks that ``validate`` prints) when it runs, so
each launch loads only what it runs.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .errors import NumericalGuardError
from .imagesum import TruncationPolicy, two_point_yy_closed
from .spectral import _sigma_yy_values, sigma_modes, sigma_modes_diag, sigma_vacuum
from .units import (
    CavityGeometry,
    FieldPoint,
    build_grid,
    from_internal,
    near_discontinuity,
    DEFAULT_GUARD,
)

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

_INTERNAL = CavityGeometry(1.0)


# -- output plumbing ---------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _rows_to_csv(header, rows) -> str:
    """CSV text of rows as _fmt writes each cell: a 2-D float table column by column, any other rows cell by cell.

    A table formats each distinct bit pattern of a column once, so 0.0, -0.0 and every nan keep their own text.
    """
    if isinstance(rows, np.ndarray):
        columns = []
        for bits in rows.view(np.int64).T:
            distinct, index = np.unique(bits, return_inverse=True)
            texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
            columns.append(texts[index].tolist())
        body = zip(*columns)
    else:
        body = ([repr(v) if type(v) is float else _fmt(v) for v in row] for row in rows)
    return "\n".join([",".join(header), *map(",".join, body)]) + "\n"


def _rows_to_json(header, rows) -> str:
    import json
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
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
            "discontinuity at n*pi; the threshold mode weighs 1/2",
            file=sys.stderr,
        )


# -- argument plumbing -------------------------------------------------------

def _add_output(p: argparse.ArgumentParser, include_svg: bool = False) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if include_svg:
        p.add_argument("--svg", help="also render a simple SVG to this path")


# -- density commands --------------------------------------------------------

def _grid(lo: float, hi: float, count: int, flag: str) -> list[float]:
    if count < 1:
        raise ValueError(f"{flag} must be at least 1, got {count}")
    return np.linspace(lo, hi, count).tolist()


def _y_grid(ns) -> list[float]:
    """The --y-range grid of --y-steps points; inf or nan bounds, or a span that overflows, are refused."""
    lo, hi = ns.y_range
    if not math.isfinite(hi - lo):
        raise ValueError(f"--y-range must be finite bounds with a finite span, got {lo!r} {hi!r}")
    return _grid(lo, hi, ns.y_steps, "--y-steps")


def _slice_rows(omega: float, x: float, ys: list[float], values: np.ndarray):
    """The table of rows (omega, x, y, ratio): the densities at ys over the last of values, the one at y = 0."""
    return np.column_stack(np.broadcast_arrays(omega, x, ys, values[:-1] / values[-1]))


def _emit_slice(ns, table) -> int:
    omega, x = table[0, :2].tolist()
    _note_discontinuities([omega])
    _emit(ns, ("omega", "x", "y", "ratio"), table)
    if ns.svg:
        from . import svgplot
        svgplot.render_line_plot(ns.svg, table[:, 2].tolist(), [table[:, 3].tolist()], labels=("ratio",),
                                 title=f"normalized density, x={x:g}, omega={omega:g}")
    return 0


# The density commands draw from the finite sums over the guided modes, off the
# axis (sigma_modes) and on it (sigma_modes_diag): exact, with no cutoff to choose,
# and one call over all the x of a command.

def cmd_spectral_diag(ns) -> int:
    xs = [float(ns.x)] if ns.x is not None else _grid(0.0, 1.0, ns.x_steps, "--x-steps")
    values = sigma_modes_diag(ns.omega, xs, _INTERNAL).tolist()
    _note_discontinuities([ns.omega])
    sub = bool(ns.omega < math.pi)
    rows = [(ns.omega, x, 0.0, v, sub) for x, v in zip(xs, values)]
    _emit(ns, ("omega", "x", "y", "sigma", "sub_cutoff"), rows)
    if ns.svg:
        from . import svgplot
        svgplot.render_line_plot(ns.svg, xs, [values], labels=("sigma",),
                                 title=f"diagonal density, omega={ns.omega:g}")
    return 0


def cmd_spectral_map(ns) -> int:
    xs = _grid(0.0, 1.0, ns.x_steps, "--x-steps")
    ys = _y_grid(ns)
    grid = sigma_modes(ns.omega, xs, ys, _INTERNAL)
    # rows (omega, x, y, sigma): x outer, y inner
    table = np.column_stack((np.full(grid.size, ns.omega), np.repeat(xs, len(ys)), np.tile(ys, len(xs)), grid.ravel()))
    _note_discontinuities([ns.omega])
    _emit(ns, ("omega", "x", "y", "sigma"), table)
    if ns.svg:
        from . import svgplot
        svgplot.render_heatmap(ns.svg, xs, ys, grid.tolist(), title=f"density map, omega={ns.omega:g}")
    return 0


def cmd_spectral_slice(ns) -> int:
    if ns.omega < math.pi / _INTERNAL.a:
        raise ValueError(f"--omega {ns.omega!r} lies below the first cutoff pi/a = {math.pi / _INTERNAL.a!r}, "
                         "where the coincident density that normalizes the slice vanishes")
    ys = _y_grid(ns)
    # the coincident point (x, 0) rides along as the last column of the row
    values = sigma_modes(ns.omega, [ns.x], ys + [0.0], _INTERNAL)[0]
    # mode 1 has the smallest sine next to a plate; once its square is subnormal the ratios lose their digits
    sine = math.sin(min(ns.x, _INTERNAL.a - ns.x) * (math.pi / _INTERNAL.a))
    if sine * sine < sys.float_info.min:
        raise ValueError(f"--x {ns.x!r} lies on a plate or so near one that sin^2(pi x/a) is below the smallest "
                         "normal float, where the slice's normalizing density vanishes or loses its digits")
    return _emit_slice(ns, _slice_rows(ns.omega, ns.x, ys, values))


# -- figure data -------------------------------------------------------------

def _fig4_omega_grid(count: int):
    return build_grid(_FOUR_PI / count, _FOUR_PI, count).points


# fig2-left and the fig4 recipes draw from the guided-mode sums as the density
# commands do; fig2-right still sums images.

#: Frequency of fig2-left: the guard point just below the jump at 2 pi, where
#: build_grid would place it.  On the jump itself the n = 2 mode sits at
#: threshold and does not decay in y.
FIG2_OMEGA = _TWO_PI - DEFAULT_GUARD

#: Image-sum truncation of fig2-right, which still sums images on the jump
#: 2 pi: 1000 image terms included symmetrically, i.e. n in [-500, 500].  Its
#: far-|y| ratio there is a truncation residual: the exact one is 0.62 (see
#: validate check 5 and README).
FIG2_CUTOFF = 500


def _fig2_right_rows():
    """The N = FIG2_CUTOFF image sum at x = 3a/4 over y in [-50 a, 50 a], divided by its value at y = 0."""
    ys = np.linspace(-50.0, 50.0, 201).tolist()
    points = [FieldPoint(x=0.75, y=y) for y in ys + [0.0]]
    values, _ = _sigma_yy_values(np.asarray([_TWO_PI]), points, _INTERNAL, TruncationPolicy(n_terms=FIG2_CUTOFF))
    return _slice_rows(_TWO_PI, 0.75, ys, values[:, 0])


def _fig4_left_rows():
    omegas = _fig4_omega_grid(96)
    xs = np.linspace(0.0, 1.0, 41)
    vac = sigma_vacuum(omegas, 0.0)
    columns = (sigma_modes_diag(omegas, xs, _INTERNAL) - vac) / vac
    # row order: omega outer, x inner
    table = np.column_stack((np.repeat(omegas, xs.size), np.tile(xs, omegas.size), columns.T.ravel()))
    return table, omegas, xs, columns


def _fig4_right_rows():
    """Suppression in dB at x = a/4 and a/2; a row where the density is 0 (omega < pi) has none and is dropped."""
    omegas = _fig4_omega_grid(160)
    xs = (0.25, 0.5)
    ratios = sigma_modes_diag(omegas, xs, _INTERNAL) / sigma_vacuum(omegas, 0.0)
    dbs = {x: [10.0 * math.log10(r) if r > 0.0 else None for r in row] for x, row in zip(xs, ratios.tolist())}
    table = np.column_stack([omegas] + [np.array(dbs[x], dtype=float) for x in xs])  # None reads as nan
    return table[(ratios > 0.0).all(axis=0)], omegas, dbs


def cmd_figure(ns) -> int:
    name = ns.name
    ns.out = ns.out or f"{name}.csv"

    if name == "fig2-left":  # spectral-map --omega FIG2_OMEGA, on the map's default grid
        spectral_map = _shared_parser().commands["spectral-map"]
        return cmd_spectral_map(spectral_map.parse_args(["--omega", repr(FIG2_OMEGA)], ns))
    if name == "fig2-right":
        return _emit_slice(ns, _fig2_right_rows())
    if name == "fig4-left":
        table, omegas, xs, columns = _fig4_left_rows()
        _emit(ns, ("omega", "x", "normdiff"), table)
        if ns.svg:
            from . import svgplot
            svgplot.render_heatmap(ns.svg, xs.tolist(), omegas.tolist(),
                                   [c.tolist() for c in columns],
                                   title="normalized difference vs (x, omega)")
        return 0
    # fig4-right
    table, omegas, dbs = _fig4_right_rows()
    _emit(ns, ("omega_over_c_per_a", "db_x025", "db_x05"), table)
    if ns.svg:
        from . import svgplot
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
    if ns.lo_p is not None and not ns.lo_p >= 0.0:  # nan included
        raise ValueError(f"--lo-p must be a nonnegative wave number, got {ns.lo_p!r}")
    from .bhd import DetectorConfig, LOKernel, LOMode, check_balance, mean_current, variance_current
    width = ns.width if ns.width is not None else ns.omega_lo / 20.0
    kernel = LOKernel(omega_lo=ns.omega_lo, width=width, amplitude=ns.amplitude)
    config = DetectorConfig(
        diode1=FieldPoint(x=ns.x1, y=ns.y1),
        diode2=FieldPoint(x=ns.x2, y=ns.y2),
        calibration=ns.calibration,
    )
    omega_si = from_internal(ns.omega_lo, "frequency", CavityGeometry(ns.a_microns))
    mean = mean_current(config, kernel)
    variance, approx = variance_current(config, kernel, _INTERNAL)

    if ns.lo_p is not None:
        p = ns.lo_p
    elif ns.y2 != ns.y1:
        # half-period diode spacing balances the LO; a spacing past the float range is halved first, exactly
        spacing = abs(ns.y2 - ns.y1)
        p = math.pi / spacing if math.isfinite(spacing) else (0.5 * math.pi) / abs(0.5 * ns.y2 - 0.5 * ns.y1)
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

    header = ("omega_lo", "omega_lo_rad_per_s", "mean_current", "variance",
              "variance_approx", "balance_residual")
    _emit(ns, header, [(ns.omega_lo, omega_si, mean, variance, approx, residual)])
    return 0


# -- validation --------------------------------------------------------------

def cmd_validate(ns) -> int:
    from .oracle import CHECKS
    failures = 0
    for name, fn in CHECKS:
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} validation checks passed")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads any token opening with '-' and a digit, inf or nan as a value.

    argparse's own pattern misses scientific notation and the non-finite
    floats, so `--y1 -1e-05` or `--lo-p -inf` would read as a flag with no
    value; no flag of this CLI starts with a single dash.
    ``dests`` maps each flag added to its dest, by which repeated flags are
    found.
    """

    def __init__(self, *args, **kwargs):
        self.dests = {}
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.update(dict.fromkeys(action.option_strings, action.dest))
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityspectra",
        description="Ground-state field spectra between conducting plates and homodyne-detector response",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> the subcommand's parser

    def command(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=False)  # a flag is read only when spelt in full

    p = command("spectral-diag", "coincident-point density over x at fixed omega")
    p.add_argument("--omega", type=float, required=True, help="frequency in c/a units")
    p.add_argument("--x", type=float, help="single evaluation point (units of a)")
    p.add_argument("--x-steps", type=int, default=21, help="grid size over [0, a] when --x is absent")
    _add_output(p, include_svg=True)

    p = command("spectral-map", "two-point density over the (x, y) plane")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x-steps", type=int, default=21)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=101)
    _add_output(p, include_svg=True)

    p = command("spectral-slice", "density normalized by its coincident value, over y")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x", type=float, default=0.75)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=201)
    _add_output(p, include_svg=True)

    p = command("figure", "reproduce a bundled figure data set")
    p.add_argument("name", choices=("fig2-left", "fig2-right", "fig4-left", "fig4-right"))
    _add_output(p, include_svg=True)

    p = command("twopoint", "closed-form two-point function at time separation s")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--n-terms", type=int, default=1000, help="symmetric image-sum cutoff N")
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
    _add_output(p)  # no cutoff: R(1,1) is a mode sum, and the LO width sizes the cross term's image sum

    command("validate", "run exact-reference cross-checks and invariant suites")

    return parser


def _refuse_repeated_flags(command: _Parser, args) -> None:
    """Refuse a flag that args give twice, as --flag value or --flag=value."""
    seen = set()
    for token in args:
        flag = token.split("=", 1)[0]
        if flag in command.dests:  # once args parse, a token that reads as a flag is one
            if command.dests[flag] in seen:
                raise ValueError(f"{flag} is given more than once")
            seen.add(command.dests[flag])


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on the first call of main, then reused."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        if argv and argv[0] in parser.commands:  # one parse, by the command's own parser
            ns = parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:  # no command, --help or an unknown one: the top-level parser answers
            ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 for --help
        return exc.code
    # the handler is looked up at call time, so a replaced cmd_* is the one that runs
    handler = globals()["cmd_" + ns.command.replace("-", "_")]
    try:
        _refuse_repeated_flags(parser.commands[ns.command], argv[1:])
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
