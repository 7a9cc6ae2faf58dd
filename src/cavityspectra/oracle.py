"""Independent validation of the frequency-domain densities.

The spectral module obtains the density by Fourier-transforming each image
term analytically.  Here the same density is computed the hard way instead:
the closed-form time-domain two-point function is continued to complex time
s -> s - i*eps, which lifts its poles off the real axis, and

    sigma(omega) = (1/2 pi) * integral ds  e^{i omega s} G(s - i eps)

is evaluated by trapezoid quadrature over a finite window for a decreasing
schedule of regulators, then polynomial-extrapolated to eps -> 0 (Richardson
via Neville's scheme).  The regulated integrand is analytic along the real
axis with all poles a distance eps above it, so the uniform trapezoid rule is
exponentially accurate once the step resolves eps; the sign of the exponent
(s - i*eps, e^{+i omega s}) is fixed by requiring the free-space run to
reproduce the positive vacuum density.

G is even in s with real coefficients, so the full-line integral reduces to
(1/pi) Re of the half-line one.  Only images whose light cones fall inside
the time window contribute appreciably; the window is snapped to end midway
between image distances so the boundary never cuts through a regulated pole.

One call takes any number of frequencies at one point.  The grid depends on
the frequency only through the step, which is eps/6 for every frequency
below 1.5 pi/eps (about 94 c/a at the default largest eps), so at each eps
the frequencies share one evaluation of G per distinct grid and only the
e^{i omega s} weighting is done per frequency.  G is the untruncated image
lattice (N = oo) of ``imagesum.two_point_yy_lattice``, summed in closed form:
one complex tangent per sample, whatever the number of images.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExtrapolationDivergence, TailTooLarge
from .imagesum import two_point_yy_lattice as _correlation_complex
from .spectral import sigma_vacuum
from .units import CavityGeometry, FieldPoint, validate_point

#: Relative budget for the estimated out-of-window tail.
_TAIL_BUDGET = 0.01
#: Noise floor (relative to the density scale) below which the regulator
#: sequence is considered converged rather than divergent.
_DIVERGENCE_FLOOR = 5e-3


@dataclass(frozen=True)
class OracleConfig:
    """Regulator schedule and quadrature density for the numeric transform."""

    eps_schedule: tuple[float, ...] = (0.05, 0.025, 0.0125)
    s_max: float = 200.0
    samples_per_cycle: int = 8

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", eps)
        if len(eps) < 2:
            raise ValueError("need at least two regulator values to extrapolate")
        if any(e <= 0.0 for e in eps):
            raise ValueError("regulator values must be positive")
        if any(nxt >= cur for cur, nxt in zip(eps, eps[1:])):
            raise ValueError("regulator schedule must be strictly decreasing")
        if self.s_max <= 0.0:
            raise ValueError("integration window must be positive")
        if self.samples_per_cycle < 8:
            raise ValueError("need at least 8 quadrature samples per oscillation")


def _window_end(s_max: float, point: FieldPoint, geometry: CavityGeometry, vacuum_only: bool) -> float:
    """Snap the window end into the widest gap between nearby pole positions.

    The integrand has regulated poles at every translated and reflected image
    distance; ending the window on one would corrupt the trapezoid endpoint
    and the tail estimate.
    """
    if vacuum_only:
        return s_max
    L = geometry.L
    y = point.y
    lo, hi = s_max - 1.5 * L, s_max + 1.5 * L
    # an image at transverse offset y lies at D = hypot(base, y): the bases
    # that reach [lo, hi] run from sqrt(lo^2 - y^2) to sqrt(hi^2 - y^2)
    base_lo = math.sqrt(max(lo * lo - y * y, 0.0))
    base_hi = math.sqrt(max(hi * hi - y * y, 0.0))
    candidates = set()
    for n in range(max(0, int(base_lo / L) - 2), int(base_hi / L) + 3):
        for base in (n * L, abs(2.0 * point.x - n * L), 2.0 * point.x + n * L):
            d = math.hypot(base, y)
            if lo <= d <= hi:
                candidates.add(d)
    poles = sorted(candidates)
    if len(poles) < 2:
        return s_max
    best_mid, best_gap = s_max, 0.0
    for a, b in zip(poles, poles[1:]):
        mid = 0.5 * (a + b)
        if abs(mid - s_max) <= L and (b - a) > best_gap:
            best_gap, best_mid = b - a, mid
    return best_mid


def _windowed_integral(omega: float, s: np.ndarray, step: float, g: np.ndarray) -> tuple[float, float]:
    """Trapezoid transform of G on the grid s: (density estimate, estimated window tail)."""
    m = s.size - 1
    f = np.exp(1j * omega * s) * g

    partial = np.cumsum(f)
    def integral_to(j: int) -> float:
        return step * float(np.real(partial[j] - 0.5 * f[0] - 0.5 * f[j])) / math.pi

    value = integral_to(m)
    # Window-sensitivity tail estimate: the trailing image contributions
    # alternate, so the median of several truncated integrals sits near the
    # settled value and is robust to a cut landing on a regulated pole ring.
    cuts = [int(round(frac * m)) for frac in np.linspace(0.80, 0.95, 8)]
    settled = float(np.median([integral_to(j) for j in cuts]))
    tail = abs(value - settled)
    return value, tail


def _regulated_transforms(
    omegas: list[float],
    s_end: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    eps: float,
    config: OracleConfig,
    vacuum_only: bool,
) -> list[tuple[float, float]]:
    """Regulated transforms at one eps: (density estimate, estimated window tail) per frequency.

    Frequencies whose steps give the same sample count share the grid, and G
    is evaluated once per grid.
    """
    # The step must resolve both the oscillation and the regulated poles; the
    # pole factor is cubic, whose spectrum decays like xi^2 e^{-eps xi}, so
    # eps/6 is needed for the aliasing terms to be negligible.
    sizes = [int(math.ceil(s_end / min(2.0 * math.pi / (w * config.samples_per_cycle), eps / 6.0)))
             for w in omegas]
    estimates = [None] * len(omegas)
    for m in dict.fromkeys(sizes):
        step = s_end / m
        s = np.arange(m + 1) * step
        z = s - 1j * eps
        g = _correlation_complex(z * z, point, geometry, vacuum_only)
        for i, size in enumerate(sizes):
            if size == m:
                estimates[i] = _windowed_integral(omegas[i], s, step, g)
    return estimates


def _extrapolate_to_zero(eps: Sequence[float], values: Sequence[float]) -> float:
    """Neville polynomial extrapolation of (eps, value) pairs to eps = 0."""
    work = list(values)
    m = len(work)
    for level in range(1, m):
        for i in range(m - level):
            e_lo, e_hi = eps[i], eps[i + level]
            work[i] = (e_hi * work[i] - e_lo * work[i + 1]) / (e_hi - e_lo)
    return work[0]


def _check_contraction(values: Sequence[float], scale: float) -> None:
    """Raise unless the last two regulator refinements contract (or sit in noise)."""
    d_prev = values[-2] - values[-3]
    d_last = values[-1] - values[-2]
    floor = _DIVERGENCE_FLOOR * scale
    if max(abs(d_prev), abs(d_last)) <= floor:
        return
    if abs(d_last) > abs(d_prev) or d_prev * d_last < 0.0:
        raise ExtrapolationDivergence(
            f"regulator estimates not contracting: successive changes "
            f"{d_prev:.3e} then {d_last:.3e}"
        )


def _settle(omega: float, estimates: Sequence[tuple[float, float]], eps_schedule: Sequence[float]) -> float:
    """Extrapolate one frequency's regulated estimates to eps = 0, enforcing both guards."""
    values = [value for value, _ in estimates]
    scale = max(abs(values[-1]), sigma_vacuum(omega, 0.0))
    if len(values) >= 3:
        try:
            _check_contraction(values, scale)
        except ExtrapolationDivergence as exc:
            raise ExtrapolationDivergence(f"omega = {omega!r}: {exc}") from None
    result = _extrapolate_to_zero(eps_schedule, values)

    tail = max(tail for _, tail in estimates)
    # The budget is taken against the density scale (result or the vacuum
    # diagonal, whichever is larger), matching how oracle agreement is scored;
    # a pure |result| denominator would reject sub-cutoff and far-off-diagonal
    # points whose exact values are legitimately tiny.
    if tail > _TAIL_BUDGET * max(abs(result), sigma_vacuum(omega, 0.0)):
        raise TailTooLarge(
            f"omega = {omega!r}: estimated tail {tail:.3e} beyond the window exceeds "
            f"{_TAIL_BUDGET:.0%} of the density scale"
        )
    return result


def sigma_via_numeric_ft(
    omega,
    point: FieldPoint,
    geometry: CavityGeometry,
    config: OracleConfig = OracleConfig(),
    vacuum_only: bool = False,
):
    """Spectral density from the regulated numeric Fourier transform.

    ``omega`` is one frequency or a 1-D sequence of them at the one point: a
    float returns a float and a sequence an array, as ``sigma_vacuum`` does.
    The frequencies share the correlation grids, so a sequence costs about
    as much as a single frequency.

    The transformed correlation is the untruncated image lattice (N = oo),
    summed in closed form.  ``vacuum_only`` restricts it to its n = 0
    translated term, which must reproduce the free-space density -- the
    oracle's own calibration run.

    Raises TailTooLarge when the window ends before the light cone at s = |y|
    or the estimated out-of-window contribution exceeds 1% of the larger of
    |result| and a vacuum-scale floor, and ExtrapolationDivergence when the
    regulator sequence stops contracting above the noise floor; either names
    the offending frequency.
    """
    omegas = np.asarray(omega, dtype=float)
    if omegas.ndim > 1:
        raise ValueError("frequencies must be one value or a 1-D sequence")
    if not np.all(np.isfinite(omegas) & (omegas > 0.0)):
        raise ValueError("frequency must be positive")
    validate_point(point, geometry)
    s_end = _window_end(config.s_max, point, geometry, vacuum_only)

    ws = omegas.reshape(-1).tolist()
    if s_end <= abs(point.y):  # the truncated integrals would all be about 0 and pass the tail guard
        raise TailTooLarge(f"omega = {ws[0]!r}: the window ends at s = {s_end:g}, "
                           f"before the nearest light cone at s = |y| = {abs(point.y):g}")
    runs = [_regulated_transforms(ws, s_end, point, geometry, eps, config, vacuum_only)
            for eps in config.eps_schedule]
    results = [_settle(w, [run[i] for run in runs], config.eps_schedule) for i, w in enumerate(ws)]
    return results[0] if omegas.ndim == 0 else np.array(results)
