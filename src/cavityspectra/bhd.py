"""Balanced-homodyne-detector response between the plates.

A balanced homodyne detector subtracts the photocurrents of two diodes that
share a strong, nearly monochromatic local oscillator (LO) with opposite
field signs at the two diode positions.  For the cavity ground state the
mean output current vanishes and the variance is built from the spectral
density smeared in frequency by the squared LO amplitude profile,

    R(p1, p2) = integral dw k(w)^2 sigma_yy(w, p1, p2),

with four position pairs entering the variance.  When the diodes are far
apart transversely the cross terms are small and the variance is close to
twice the single-diode diagonal term.

The LO is the lowest transverse-electric running mode of the cavity with a
small wave number along y, which makes the detector sensitive to the
y-component of the field only; all microscopic diode physics is absorbed
into one calibration constant, so currents are in "detector units" relative
to that calibration.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import _FOUR_PI_SQ, _accumulate, q_kernel, w_kernel
from .imagesum import TruncationPolicy
from .units import CavityGeometry, FieldPoint, validate_point

_Y_AXIS = (0.0, 1.0, 0.0)
_KERNEL_SUPPORT_SIGMAS = 6.0
_DISPERSION_TOL = 1e-12


@dataclass(frozen=True)
class LOKernel:
    """Gaussian local-oscillator amplitude profile k(omega).

    Sharp concentration is enforced as width <= omega_lo/10.  ``t0`` shifts
    the LO phase; ``polarization`` must be the y axis for cavity use (the
    density computed here is the yy component only).
    """

    omega_lo: float
    width: float
    amplitude: float = 1.0
    polarization: tuple[float, float, float] = _Y_AXIS
    t0: float = 0.0

    def __post_init__(self):
        if not (self.omega_lo > 0.0 and math.isfinite(self.omega_lo)):
            raise ValueError("LO frequency must be positive")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("kernel width must be positive")
        if self.amplitude < 0.0:
            raise ValueError("kernel amplitude must be nonnegative")
        if self.width > self.omega_lo / 10.0:
            raise ValueError("kernel must be sharply concentrated: width <= omega_lo/10")
        norm = math.sqrt(sum(c * c for c in self.polarization))
        if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("polarization must be a unit vector")

    def __call__(self, omega):
        d = (np.asarray(omega, dtype=float) - self.omega_lo) / self.width
        return self.amplitude * np.exp(-0.5 * d * d)

    def squared_integral(self) -> float:
        """Closed form of integral k(omega)^2 domega for the Gaussian profile."""
        return self.amplitude * self.amplitude * self.width * math.sqrt(math.pi)

    def support(self) -> tuple[float, float]:
        half = _KERNEL_SUPPORT_SIGMAS * self.width
        return (self.omega_lo - half, self.omega_lo + half)


def _require_y_polarization(kernel: LOKernel) -> None:
    off = max(abs(kernel.polarization[0] - _Y_AXIS[0]),
              abs(kernel.polarization[1] - _Y_AXIS[1]),
              abs(kernel.polarization[2] - _Y_AXIS[2]))
    if off > 1e-12:
        raise ValueError("only y-polarized local oscillators are supported by the yy density")


@dataclass(frozen=True)
class DetectorConfig:
    """Two diode positions and the single calibration constant."""

    diode1: FieldPoint
    diode2: FieldPoint
    calibration: float = 1.0

    def __post_init__(self):
        if not (self.calibration > 0.0 and math.isfinite(self.calibration)):
            raise ValueError("calibration constant must be positive")


@dataclass(frozen=True)
class LOMode:
    """Running transverse-electric cavity mode: index n, wave numbers p (y) and k (z)."""

    omega: float
    n: int = 1
    p: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("transverse mode index must be >= 1")
        if self.p < 0.0 or self.k < 0.0:
            raise ValueError("wave numbers must be nonnegative")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError("mode frequency must be positive")

    @classmethod
    def from_wavenumbers(cls, geometry: CavityGeometry, n: int = 1, p: float = 0.0, k: float = 0.0) -> "LOMode":
        return cls(omega=dispersion_omega(n, p, k, geometry), n=n, p=p, k=k)

    def dispersion_residual(self, geometry: CavityGeometry) -> float:
        """Relative mismatch between omega^2 and (n pi/a)^2 + p^2 + k^2."""
        target = (self.n * math.pi / geometry.a) ** 2 + self.p * self.p + self.k * self.k
        return abs(self.omega * self.omega - target) / (self.omega * self.omega)


def dispersion_omega(n: int, p: float, k: float, geometry: CavityGeometry) -> float:
    """Mode frequency sqrt((n pi/a)^2 + p^2 + k^2) in internal units (c = 1)."""
    if n < 1:
        raise ValueError("transverse mode index must be >= 1")
    return math.sqrt((n * math.pi / geometry.a) ** 2 + p * p + k * k)


def _check_mode(mode: LOMode, geometry: CavityGeometry) -> None:
    if mode.dispersion_residual(geometry) > _DISPERSION_TOL:
        raise ValueError("mode frequency inconsistent with the dispersion relation")


def lo_mode_fields(mode: LOMode, t: float, x: float, y: float, z: float, geometry: CavityGeometry) -> tuple[float, float]:
    """Electric field components (F_x, F_y) of the LO mode at (t, x, y, z).

    F_y dominates for small p:
        F_x = -omega p  cos(k z - omega t) cos(n pi x/a) sin(p y)
        F_y =  omega q_n cos(k z - omega t) sin(n pi x/a) cos(p y),  q_n = n pi/a.
    """
    _check_mode(mode, geometry)
    if not (0.0 <= x <= geometry.a):
        raise ValueError(f"x = {x!r} outside the cavity strip [0, {geometry.a!r}]")
    qn = mode.n * math.pi / geometry.a
    running = math.cos(mode.k * z - mode.omega * t)
    f_x = -mode.omega * mode.p * running * math.cos(qn * x) * math.sin(mode.p * y)
    f_y = mode.omega * qn * running * math.sin(qn * x) * math.cos(mode.p * y)
    return f_x, f_y


def _mode_amplitude(mode: LOMode, point: FieldPoint, geometry: CavityGeometry) -> float:
    """Time-peak F_y amplitude at a diode (z = 0 plane)."""
    qn = mode.n * math.pi / geometry.a
    return mode.omega * qn * math.sin(qn * point.x) * math.cos(mode.p * point.y)


def check_balance(
    config: DetectorConfig,
    mode: LOMode,
    geometry: CavityGeometry,
    tolerance: float = 1e-9,
) -> float:
    """Balance residual of the LO field at the two diodes.

    Both diodes sit in the z = 0 plane, so the mode's time dependence is a
    common cos(omega t) factor and the maximum over a period reduces to the
    spatial amplitudes:  residual = |A1 + A2| / max(|A1|, |A2|).  A perfectly
    balanced arrangement (A2 = -A1) gives 0; coincident diodes give 2.  The
    configuration counts as balanced when the residual is at most
    ``tolerance``.  Returns 0 for the degenerate case of both amplitudes
    vanishing.
    """
    _check_mode(mode, geometry)
    validate_point(config.diode1, geometry)
    validate_point(config.diode2, geometry)
    amp1 = _mode_amplitude(mode, config.diode1, geometry)
    amp2 = _mode_amplitude(mode, config.diode2, geometry)
    peak = max(abs(amp1), abs(amp2))
    if peak == 0.0:
        return 0.0
    return abs(amp1 + amp2) / peak


#: Gauss-Legendre nodes across the smearing window.  Every kept image term
#: turns through at most 12 * _REACH radians over the window (about 25
#: periods), which this rule integrates to rounding.
_SMEAR_NODES = 160
#: Smearing with k^2 damps an image at distance D by about exp(-(width D)^2/4);
#: images with width * D beyond this contribute below 5e-19 of their size.
_REACH = 13.0


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_SMEAR_NODES)


def smeared_density(
    pt1: FieldPoint,
    pt2: FieldPoint,
    kernel: LOKernel,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
    quadrature: None = None,
) -> float:
    """Frequency-smeared density integral k(omega)^2 sigma_yy over the kernel support.

    One fixed Gauss-Legendre rule over the window of +-6 kernel widths around
    the LO frequency.  Each translated or reflected image term enters only if
    its distance D satisfies width * D <= 13, and only for image indices the
    policy's cutoff allows; the smearing damps every dropped term below
    rounding.  The kept terms are smooth in omega (the jumps at multiples of
    pi/a come from the infinite sum only), and their oscillation across the
    window is bounded, so one node count serves every LO.  Terms are
    accumulated pairwise as in :func:`~cavityspectra.spectral.sigma_yy`, which
    makes the result vanish exactly on a plate.  Both points must share the
    plate distance x (the closed-form density covers equal-x pairs only; that
    is the geometry of the proposed detector).

    ``quadrature`` is not a setting: it must be None.  It stays in the
    signature because perfbench's span recorder keys smear calls by it.
    """
    if quadrature is not None:
        raise ValueError("the smearing rule is fixed; quadrature must be None")
    _require_y_polarization(kernel)
    validate_point(pt1, geometry)
    validate_point(pt2, geometry)
    if pt1.x != pt2.x:
        raise ValueError("smearing requires both points at the same plate distance x")
    x = pt1.x
    dy = pt2.y - pt1.y
    y2 = dy * dy
    L = geometry.L
    reach2 = (_REACH / kernel.width) ** 2

    nodes, weights = _legendre_rule()
    lo, hi = kernel.support()
    half = 0.5 * (hi - lo)
    omegas = 0.5 * (lo + hi) + half * nodes
    w = omegas[:, None, None]

    def terms(dist2: np.ndarray) -> np.ndarray:
        """Q(omega D) - y^2 W(omega D)/D^2 per node and distance; 0 beyond the reach."""
        u = w * np.sqrt(dist2)
        values = q_kernel(u)
        if y2 != 0.0:  # y2 == 0, also by underflow, leaves no W part (and D = 0 at n = 0)
            values = values - y2 * (w_kernel(u) / dist2)
        return np.where(dist2 <= reach2, values, 0.0)

    n = np.arange(1, policy.n_terms + 1, dtype=float)
    # rows: translated, reflected at 2x - nL, reflected at 2x + nL; for n >= 1
    # the first reflected image is the nearest, so the kept indices are a prefix
    dist2 = np.stack([(n * L) ** 2, (2.0 * x - n * L) ** 2, (2.0 * x + n * L) ** 2]) + y2
    kept = int(np.count_nonzero(dist2[1] <= reach2))
    ta, tbp, tbn = np.moveaxis(terms(dist2[:, :kept]), 1, 0)
    pairs = (ta - tbp) + (ta - tbn)
    if policy.accelerate:
        # dropped pairs smear to zero, so their partial sums repeat the last kept one
        pairs = np.pad(pairs, ((0, 0), (0, policy.n_terms - kept)))
    t0a, t0b = terms(np.array([[y2], [4.0 * x * x + y2]]))[:, :, 0].T
    totals, _ = _accumulate(pairs, t0a - t0b, policy.accelerate)

    k = kernel(omegas)
    density = (omegas * omegas * omegas) / _FOUR_PI_SQ * totals
    return float(half * (weights @ (k * k * density)))


@dataclass(frozen=True)
class ClassicalComponent:
    """One monochromatic classical-field component seen by the two diodes.

    The field at diode i along y is amplitude_i * cos(frequency * t + phase).
    """

    frequency: float
    amplitude1: float
    amplitude2: float
    phase: float = 0.0


def mode_field_components(
    mode: LOMode,
    config: DetectorConfig,
    geometry: CavityGeometry,
) -> tuple[ClassicalComponent, ...]:
    """The LO mode's own field as a classical-component list (z = 0 diodes)."""
    _check_mode(mode, geometry)
    return (
        ClassicalComponent(
            frequency=mode.omega,
            amplitude1=_mode_amplitude(mode, config.diode1, geometry),
            amplitude2=_mode_amplitude(mode, config.diode2, geometry),
            phase=0.0,
        ),
    )


def mean_current(
    config: DetectorConfig,
    kernel: LOKernel,
    classical_field: Sequence[ClassicalComponent] | None = None,
) -> float:
    """Expected detector current.

    For the ground state (no classical field) the mean vanishes.  For a
    coherent state described by monochromatic components the kernel filters
    each component:  calibration * sum_c k(w_c) (amp1 + amp2) cos(w_c t0 + phase).
    A field that is balanced like the LO itself (opposite amplitudes) gives 0.
    """
    _require_y_polarization(kernel)
    if not classical_field:
        return 0.0
    total = 0.0
    for comp in classical_field:
        weight = float(kernel(comp.frequency))
        total += weight * (comp.amplitude1 + comp.amplitude2) * math.cos(
            comp.frequency * kernel.t0 + comp.phase
        )
    return config.calibration * total


def variance_current(
    config: DetectorConfig,
    kernel: LOKernel,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> float:
    """Ground-state variance of the detector output (four smeared-density terms).

    calibration^2 * [R(1,1) + R(1,2) + R(2,1) + R(2,2)]; the cross term is
    symmetric and computed once, and R(2,2) equals R(1,1) because both
    diodes share the plate distance x.
    """
    if config.diode1.x != config.diode2.x:
        raise ValueError("the detector variance requires both diodes at the same plate distance x")
    r11 = smeared_density(config.diode1, config.diode1, kernel, geometry, policy)
    r12 = smeared_density(config.diode1, config.diode2, kernel, geometry, policy)
    c2 = config.calibration * config.calibration
    return c2 * ((r11 + r12) + (r12 + r11))


def variance_approx(
    diode: FieldPoint,
    kernel: LOKernel,
    config: DetectorConfig,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> float:
    """Far-separation variance: twice the single-diode diagonal term.

    Valid when the diodes are transversely far apart, so the cross terms of
    :func:`variance_current` are small against the diagonal ones.
    """
    r = smeared_density(diode, diode, kernel, geometry, policy)
    return 2.0 * config.calibration * config.calibration * r
