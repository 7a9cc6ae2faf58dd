"""Command-line interface: density grids, figure data, detector predictions.

Outputs are deterministic: fixed evaluation order and shortest round-trip
float formatting.  CSV is the contract; JSON mirrors it and SVG renderings
are a convenience.

All numeric I/O is in internal units: lengths in units of the plate
separation a, frequencies in units of c/a.  The ``bhd`` command's
--a-microns flag fixes the physical scale those units refer to (it feeds the
SI frequency column).  Each subcommand accepts only the flags it reads.

Exit codes: 0 success, 1 validation failure, 2 argument error, 3 numerical
guard violation, 4 I/O failure.  ``main`` returns them, usage errors
included, and builds its parser once per process.  A command imports the
modules only it uses (the detector, json, the SVG renderer, the ``oracle``
checks that ``validate`` prints) when it runs, so each launch loads only what
it runs.
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
from .spectral import _sigma_diag_values, _sigma_yy_values, sigma_modes, sigma_modes_diag, sigma_vacuum
from .units import (
    CavityGeometry,
    FieldPoint,
    build_grid,
    from_internal,
    near_discontinuity,
    validate_point,
    DEFAULT_GUARD,
)

DENSITY_COLUMNS = ("omega", "x", "y", "sigma", "err", "n_terms")
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


class _Reprs(dict):
    """repr of each float cell, made once per distinct value.

    0.0 and -0.0 are equal keys with different reprs, and a nan never finds
    itself, so neither is stored.
    """

    def __missing__(self, v):
        text = repr(v)
        if v != 0.0 and v == v:
            self[v] = text
        return text


def _rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    # nearly every cell is a float, and most repeat (grid coordinates): a dict
    # lookup, no call and no isinstance chain
    reprs = _Reprs()
    lines.extend(",".join([reprs[v] if type(v) is float else _fmt(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows) -> str:
    import json
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

def _add_output(p: argparse.ArgumentParser, include_svg: bool = False) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if include_svg:
        p.add_argument("--svg", help="also render a simple SVG to this path")


#: Options a config file may not set: help, the config path and the figure name argument.
_NOT_CONFIGURABLE = frozenset({"help", "config", "name"})


def _config_value(key: str, value, action: argparse.Action):
    """A config value converted and checked as the flag's command-line text would be.

    It is a JSON string or number, or a list of nargs of them where the flag
    takes nargs values; each goes through str(), the flag's type and choices.
    """
    items = value if action.nargs and isinstance(value, list) else [value]
    if len(items) != (action.nargs or 1) or not all(type(v) in (str, int, float) for v in items):  # a bool is not
        what = f"a list of {action.nargs} strings or numbers" if action.nargs else "a string or a number"
        raise ValueError(f"config key {key!r} takes {what}, got {value!r}")
    convert = action.type or str
    try:
        items = [convert(str(v)) for v in items]
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {convert.__name__} value {value!r}") from None
    if action.choices is not None and any(v not in action.choices for v in items):
        raise ValueError(f"config key {key!r} must be one of {', '.join(map(repr, action.choices))}, got {value!r}")
    return items if action.nargs else items[0]


def _apply_config(ns: argparse.Namespace, argv) -> argparse.Namespace:
    """ns with the values of its --config file, which the flags of argv override."""
    if not getattr(ns, "config", None):
        return ns
    import json
    with open(ns.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object of option values")
    command = _shared_parser().commands[ns.command]
    config = argparse.Namespace(command=ns.command)
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in command.options or dest in _NOT_CONFIGURABLE:
            raise ValueError(f"config key {key!r} is not an option of {ns.command}")
        setattr(config, dest, _config_value(key, value, command.options[dest]))
    # argparse fills in only what its namespace lacks: the config's values stand where no flag is given
    return command.parse_args(argv[1:], config)


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


def _densities(omega: float, points, policy):
    """sigma_yy at each point: [values, errs] (one call; spectral bounds its memory)."""
    values, errs = _sigma_yy_values(np.asarray([omega], dtype=float), points, _INTERNAL, policy)
    return values[:, 0].tolist(), errs[:, 0].tolist()


def cmd_spectral_diag(ns) -> int:
    policy = TruncationPolicy(n_terms=ns.n_terms)
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
        from . import svgplot
        svgplot.render_line_plot(ns.svg, xs, [[r[3] for r in rows]],
                                 labels=("sigma",), title=f"diagonal density, omega={ns.omega:g}")
    return 0


def cmd_spectral_map(ns) -> int:
    policy = TruncationPolicy(n_terms=ns.n_terms)
    xs = _grid(0.0, 1.0, ns.x_steps, "--x-steps")
    ys = _y_grid(ns)
    points = [FieldPoint(x=x, y=y) for x in xs for y in ys]
    values, errs = _densities(ns.omega, points, policy)
    rows = [(ns.omega, p.x, p.y, v, e, policy.n_terms) for p, v, e in zip(points, values, errs)]
    _note_discontinuities([ns.omega])
    _emit(ns, DENSITY_COLUMNS, rows)
    if getattr(ns, "svg", None):
        from . import svgplot
        grid = [[rows[i * len(ys) + j][3] for j in range(len(ys))] for i in range(len(xs))]
        svgplot.render_heatmap(ns.svg, xs, ys, grid, title=f"density map, omega={ns.omega:g}")
    return 0


def cmd_spectral_slice(ns) -> int:
    if ns.x in (0.0, _INTERNAL.a):
        raise ValueError(f"--x {ns.x!r} lies on a plate, where the coincident density "
                         "that normalizes the slice vanishes")
    policy = TruncationPolicy(n_terms=ns.n_terms)
    ys = _y_grid(ns)
    validate_point(FieldPoint(x=ns.x, y=0.0), _INTERNAL)
    # the coincident point (x, 0) rides along as the last point of the row
    values, errs = _densities(ns.omega, [FieldPoint(x=ns.x, y=y) for y in ys + [0.0]], policy)
    diagonal, diagonal_err = values.pop(), errs[-1]
    _note_discontinuities([ns.omega])
    if abs(diagonal) <= diagonal_err:
        # near a plate the truncated coincident density is residual, not signal
        print(f"note: the coincident density at x = {ns.x:g}, omega = {ns.omega:g} is "
              f"{diagonal:.3g}, within its truncation estimate err = {diagonal_err:.3g}; "
              "the ratios are normalized by truncation residual", file=sys.stderr)
    rows = [(ns.omega, ns.x, y, v / diagonal) for y, v in zip(ys, values)]
    _emit(ns, ("omega", "x", "y", "ratio"), rows)
    if getattr(ns, "svg", None):
        from . import svgplot
        svgplot.render_line_plot(ns.svg, ys, [[r[3] for r in rows]], labels=("ratio",),
                                 title=f"normalized density, x={ns.x:g}, omega={ns.omega:g}")
    return 0


# -- figure data -------------------------------------------------------------

def _fig4_omega_grid(count: int):
    return build_grid(_FOUR_PI / count, _FOUR_PI, count).points


# fig2-left and the fig4 recipes draw from the finite sum over the guided
# modes: off the axis (sigma_modes) and on it, y = 0 (sigma_modes_diag).  Each
# is exact, with no cutoff to choose.

#: Frequency of fig2-left: the guard point just below the jump at 2 pi, where
#: build_grid would place it.  On the jump itself the n = 2 mode sits at
#: threshold and does not decay in y.
FIG2_OMEGA = _TWO_PI - DEFAULT_GUARD

#: Image-sum truncation of fig2-right, which still sums images on the jump
#: 2 pi: 1000 image terms included symmetrically, i.e. n in [-500, 500].  Its
#: far-|y| ratio there is a truncation residual: the exact one is 0.62 (see
#: validate check 5 and README).
FIG2_CUTOFF = 500


def _fig2_left_rows(x_count=21, y_count=101):
    """The density over x in [0, a] and y in [-50 a, 50 a]; rows x outer, y inner."""
    xs = np.linspace(0.0, 1.0, x_count).tolist()
    ys = np.linspace(-50.0, 50.0, y_count).tolist()
    grid = sigma_modes(FIG2_OMEGA, xs, ys, _INTERNAL)
    rows = list(zip([FIG2_OMEGA] * grid.size, np.repeat(xs, y_count).tolist(), ys * x_count,
                    grid.ravel().tolist()))
    return rows, xs, ys, grid


def _fig4_left_rows(omega_count=96, x_count=41):
    omegas = _fig4_omega_grid(omega_count)
    xs = np.linspace(0.0, 1.0, x_count)
    vac = sigma_vacuum(omegas, 0.0)
    columns = np.array([(sigma_modes_diag(omegas, x, _INTERNAL) - vac) / vac for x in xs.tolist()])
    # row order: omega outer, x inner
    rows = list(zip(np.repeat(omegas, x_count).tolist(), np.tile(xs, omega_count).tolist(),
                    columns.T.ravel().tolist()))
    return rows, omegas, xs, columns


def _fig4_right_rows(omega_count=160):
    """Suppression in dB at x = a/4 and a/2; a row where the density is 0 (omega < pi) has none and is dropped."""
    omegas = _fig4_omega_grid(omega_count)
    vac = sigma_vacuum(omegas, 0.0)
    dbs = {x: [10.0 * math.log10(r) if r > 0.0 else None
               for r in (sigma_modes_diag(omegas, x, _INTERNAL) / vac).tolist()]
           for x in (0.25, 0.5)}
    rows = [(w, d025, d05) for w, d025, d05 in zip(omegas.tolist(), dbs[0.25], dbs[0.5])
            if d025 is not None and d05 is not None]
    return rows, omegas, dbs


def cmd_figure(ns) -> int:
    name = ns.name
    out = ns.out or f"{name}.csv"
    if name != "fig2-right" and ns.n_terms is not None:
        raise ValueError(f"{name} draws from the exact guided-mode sum: --n-terms applies to fig2-right only")
    ns.out = out

    if name == "fig2-left":
        rows, xs, ys, grid = _fig2_left_rows()
        _emit(ns, ("omega", "x", "y", "sigma"), rows)
        if ns.svg:
            from . import svgplot
            svgplot.render_heatmap(ns.svg, xs, ys, grid.tolist(), title=f"density map, omega={FIG2_OMEGA:g}")
        return 0
    if name == "fig2-right":
        sub = argparse.Namespace(
            omega=_TWO_PI, x=0.75, y_range=(-50.0, 50.0), y_steps=201,
            n_terms=ns.n_terms if ns.n_terms is not None else FIG2_CUTOFF,
            out=out, format=ns.format, svg=ns.svg,
        )
        return cmd_spectral_slice(sub)
    if name == "fig4-left":
        rows, omegas, xs, columns = _fig4_left_rows()
        _emit(ns, ("omega", "x", "normdiff"), rows)
        if ns.svg:
            from . import svgplot
            svgplot.render_heatmap(ns.svg, xs.tolist(), omegas.tolist(),
                                   [c.tolist() for c in columns],
                                   title="normalized difference vs (x, omega)")
        return 0
    # fig4-right
    rows, omegas, dbs = _fig4_right_rows()
    _emit(ns, ("omega_over_c_per_a", "db_x025", "db_x05"), rows)
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
    ``options`` maps the dest of each argument added to its action, which
    converts and checks the values of a config file.
    """

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityspectra",
        description="Ground-state field spectra between conducting plates and homodyne-detector response",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> the subcommand's parser

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of option defaults (explicit flags win)")
        return p

    cutoff = {"type": int, "default": 1000, "help": "symmetric image-sum cutoff N"}

    p = command("spectral-diag", "coincident-point density over x at fixed omega")
    p.add_argument("--omega", type=float, required=True, help="frequency in c/a units")
    p.add_argument("--x", type=float, help="single evaluation point (units of a)")
    p.add_argument("--x-steps", type=int, default=21, help="grid size over [0, a] when --x is absent")
    p.add_argument("--n-terms", **cutoff)
    _add_output(p, include_svg=True)

    p = command("spectral-map", "two-point density over the (x, y) plane")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x-steps", type=int, default=21)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=101)
    p.add_argument("--n-terms", **cutoff)
    _add_output(p, include_svg=True)

    p = command("spectral-slice", "density normalized by its coincident value, over y")
    p.add_argument("--omega", type=float, default=_TWO_PI)
    p.add_argument("--x", type=float, default=0.75)
    p.add_argument("--y-range", type=float, nargs=2, default=(-50.0, 50.0), metavar=("YMIN", "YMAX"))
    p.add_argument("--y-steps", type=int, default=201)
    p.add_argument("--n-terms", **cutoff)
    _add_output(p, include_svg=True)

    p = command("figure", "reproduce a bundled figure data set")
    p.add_argument("name", choices=("fig2-left", "fig2-right", "fig4-left", "fig4-right"))
    # fig2-right has its own count, and the other recipes need none
    p.add_argument("--n-terms", type=int, help=f"symmetric image-sum cutoff N (default: fig2-right's own count, "
                   f"{FIG2_CUTOFF}); fig2-right only, the other recipes draw from the exact mode sum")
    _add_output(p, include_svg=True)

    p = command("twopoint", "closed-form two-point function at time separation s")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--n-terms", **cutoff)
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

    command("validate", "run exact-reference cross-checks and invariant suites")

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
        return handler(_apply_config(ns, argv))
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
