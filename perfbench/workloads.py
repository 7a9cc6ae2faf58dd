"""The four benchmark workloads: their inputs, operations and correctness gates.

A workload builds one *round* of operations at a time.  Each operation is a
zero-argument callable that does the measured work and a check that judges
its output afterwards, outside the timed region; the check returns None when
the output is correct and a one-line reason otherwise.  Inputs that depend
on the seed are drawn from ``random.Random`` seeded with (seed, round), so a
seed fixes every input of every round.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

N_TERMS = 1000  # the library's default image-sum cutoff


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"{seed}/{round_index}")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cavityspectra.cli.main`` in-process; returns (exit code, stdout)."""
    from cavityspectra import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- figures -----------------------------------------------------------------

FIGURES = ("fig2-left", "fig2-right", "fig4-left", "fig4-right")


class Figures:
    """The four ``cavityspectra figure`` recipes, byte-compared to the baselines."""

    def __init__(self, baselines: Path, scratch: Path):
        self.expected = {name: (baselines / f"{name}.csv").read_bytes() for name in FIGURES}
        self.scratch = scratch

    def round(self, seed: int, index: int) -> list[Op]:
        return [self._op(name) for name in FIGURES]

    def _op(self, name: str) -> Op:
        # always an explicit --out: without it the command writes <name>.csv into the cwd
        path = self.scratch / f"{name}.csv"

        def run():
            path.unlink(missing_ok=True)
            return _cli(["figure", name, "--out", str(path)])[0]

        def check(code):
            if code != 0:
                return f"figure {name} exited {code}"
            if path.read_bytes() != self.expected[name]:
                return f"figure {name} differs from its baseline"
            return None

        return Op(name, run, check)


# -- detector ----------------------------------------------------------------

README_ARGS = ["--omega-lo", repr(2.0 * math.pi), "--x1", "0.75", "--y1", "0", "--x2", "0.75", "--y2", "50"]
#: variance and variance_approx of the README example, as computed at the
#: commit this benchmark was defined on.
README_PINNED = (5.788430355070873, 5.788430355070876)
#: Ten times the smearing quadrature's own rel_tol (1e-9): a correct change of
#: the smearing method stays inside it.
README_REL_TOL = 1e-8
NEAR_PAIRS = 8
#: LO width of the near pairs as a fraction of omega_lo: a nearly
#: monochromatic LO (the library requires width <= omega_lo/10).
NEAR_WIDTH = 1.0 / 200.0
BALANCE_TOL = 1e-9
BHD_COLUMNS = "omega_lo,omega_lo_rad_per_s,mean_current,variance,variance_approx,balance_residual"


def check_bhd_output(code: int, text: str, pinned: tuple[float, float] | None = None) -> str | None:
    """Gate for one ``bhd`` CSV: exit 0, mean 0, balance, 0 <= variance <= 2 approx."""
    if code != 0:
        return f"bhd exited {code}"
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != BHD_COLUMNS:
        return "bhd output is not one CSV row under the expected header"
    fields = lines[1].split(",")
    mean, variance, approx = float(fields[2]), float(fields[3]), float(fields[4])
    if mean != 0.0:
        return f"ground-state mean current {mean!r} is not 0"
    if fields[5] and not float(fields[5]) <= BALANCE_TOL:
        return f"balance residual {fields[5]} above {BALANCE_TOL}"
    # the equal-x 2x2 smeared matrix is positive semidefinite with r11 = r22
    if not 0.0 <= variance <= 2.0 * approx:
        return f"variance {variance!r} outside [0, 2 * approx = {2.0 * approx!r}]"
    if pinned is not None:
        for got, want in zip((variance, approx), pinned):
            if abs(got - want) > README_REL_TOL * abs(want):
                return f"README value {got!r} differs from pinned {want!r}"
    return None


class Detector:
    """The README ``bhd`` example plus seed-drawn near diode pairs.

    A near pair has equal x, |y2 - y1| in [0.5, 2] and omega_lo in
    [1.5 pi, 3.5 pi].  omega_lo and x are drawn stratified, one from each of
    NEAR_PAIRS equal slices of their ranges: the quadrature cost follows
    omega_lo closely, and stratifying keeps the seed from setting the round
    time.
    """

    def round(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index)
        ops = [self._op("readme", README_ARGS, README_PINNED)]
        x_slices = rng.sample(range(NEAR_PAIRS), NEAR_PAIRS)
        for k in range(NEAR_PAIRS):
            omega = math.pi * (1.5 + 2.0 * (k + rng.random()) / NEAR_PAIRS)
            x = 0.1 + 0.8 * (x_slices[k] + rng.random()) / NEAR_PAIRS
            y1 = rng.uniform(-1.0, 1.0)
            y2 = y1 + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
            args = ["--omega-lo", repr(omega), "--width", repr(omega * NEAR_WIDTH),
                    "--x1", repr(x), "--y1", repr(y1), "--x2", repr(x), "--y2", repr(y2)]
            ops.append(self._op("near", args, None))
        return ops

    @staticmethod
    def _op(kind, args, pinned) -> Op:
        return Op(kind, lambda: _cli(["bhd", *args]), lambda out: check_bhd_output(*out, pinned=pinned))


# -- validate ----------------------------------------------------------------

class Validate:
    """The full ``cavityspectra validate``: exit 0 and all nine checks passed."""

    def round(self, seed: int, index: int) -> list[Op]:
        def check(out):
            code, text = out
            if code != 0:
                return f"validate exited {code}"
            if "9/9 validation checks passed" not in text:
                return "validate did not report 9/9"
            return None

        return [Op("validate", lambda: _cli(["validate"]), check)]


# -- points ------------------------------------------------------------------

POINTS_PER_ROUND = 600  # equal thirds of the three query kinds
#: Agreement with the plain-numpy reference, relative to the density scale.
POINT_TOL = 1e-9


def _omega(rng: random.Random) -> float:
    while True:
        w = rng.uniform(0.2, 4.0 * math.pi)
        if abs(w - math.pi * round(w / math.pi)) > 0.01:  # off the jumps at k pi
            return w


def _agree(got: float, want: float, scale: float) -> str | None:
    if abs(got - want) <= POINT_TOL * scale:
        return None
    return f"value {got!r} differs from reference {want!r} by more than {POINT_TOL} of {scale!r}"


class Points:
    """Single-point library queries at N = 1000, one after another.

    Equal thirds of two_point_yy_closed, sigma_yy_diag and off-diagonal
    sigma_yy, shuffled.  Every image stays spacelike (s < 0.9 |y|) and every
    frequency stays 0.01 away from a multiple of pi.  References are computed
    when the round is built, outside the timed region.
    """

    def __init__(self):
        import cavityspectra as cs

        self.cs = cs
        self.geometry = cs.CavityGeometry(1.0)
        self.policy = cs.TruncationPolicy(n_terms=N_TERMS)

    def round(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index)
        kinds = ["twopoint", "diag", "offdiag"] * (POINTS_PER_ROUND // 3)
        rng.shuffle(kinds)
        return [getattr(self, f"_{kind}")(rng) for kind in kinds]

    def _twopoint(self, rng) -> Op:
        x = rng.uniform(0.0, 1.0)
        y = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0)
        s = rng.uniform(0.0, 0.9) * abs(y)
        want = reference.two_point(s, x, y, N_TERMS)
        scale = max(abs(want), reference.two_point_scale(s, y))
        point = self.cs.FieldPoint(x=x, y=y)
        return Op("twopoint",
                  lambda: self.cs.two_point_yy_closed(s, point, self.geometry, self.policy),
                  lambda got: _agree(got, want, scale))

    def _diag(self, rng) -> Op:
        w, x = _omega(rng), rng.uniform(0.0, 1.0)
        want = reference.density(w, x, 0.0, N_TERMS)
        return Op("diag",
                  lambda: self.cs.sigma_yy_diag(w, x, self.geometry, self.policy).value,
                  lambda got: _agree(got, want, reference.density_scale(w)))

    def _offdiag(self, rng) -> Op:
        w, x = _omega(rng), rng.uniform(0.0, 1.0)
        y = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 50.0)
        want = reference.density(w, x, y, N_TERMS)
        point = self.cs.FieldPoint(x=x, y=y)
        return Op("offdiag",
                  lambda: self.cs.sigma_yy(w, point, self.geometry, self.policy).value,
                  lambda got: _agree(got, want, reference.density_scale(w)))


def make(name: str, root: Path, scratch: Path):
    if name == "figures":
        return Figures(root / "tests" / "baselines", scratch)
    if name == "detector":
        return Detector()
    if name == "validate":
        return Validate()
    if name == "points":
        return Points()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("figures", "detector", "validate", "points")
