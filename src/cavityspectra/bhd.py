"""Balanced-homodyne-detector response between the plates.

A balanced homodyne detector subtracts the photocurrents of two diodes that
share a strong, nearly monochromatic local oscillator (LO) with opposite
field signs at the two diode positions.  For the cavity ground state the
mean output current vanishes and the variance is built from the spectral
density smeared in frequency by the squared LO amplitude profile,

    R(p1, p2) = integral dw k(w)^2 sigma_yy(w, p1, p2),

with four position pairs entering the variance.  When the diodes are far
apart transversely the cross terms are small and the variance is close to
twice the single-diode diagonal term.  That diagonal term R(1,1) is a finite
sum over the guided modes in closed form (``spectral.smeared_modes_diag``);
the cross term of diodes at different y is the Gaussian-damped image smear
of ``smeared_density``.

The LO is the lowest transverse-electric running mode of the cavity with a
small wave number along y, which makes the detector sensitive to the
y-component of the field only; all microscopic diode physics is absorbed
into one calibration constant, so currents are in "detector units" relative
to that calibration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import _image_sum, _SmearedLO, smeared_modes_diag
from .units import CavityGeometry, FieldPoint, validate_point

_DISPERSION_TOL = 1e-12


@dataclass(frozen=True)
class LOKernel:
    """Gaussian local-oscillator amplitude profile k(omega).

    Sharp concentration is enforced as width <= omega_lo/10.  ``t0`` shifts
    the LO phase.  The LO is polarized along y: the density computed here is
    the yy component only.
    """

    omega_lo: float
    width: float
    amplitude: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        if not (self.omega_lo > 0.0 and math.isfinite(self.omega_lo)):
            raise ValueError("LO frequency must be positive")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("kernel width must be positive")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("kernel amplitude must be nonnegative and finite")
        if self.width > self.omega_lo / 10.0:
            raise ValueError("kernel must be sharply concentrated: width <= omega_lo/10")

    def __call__(self, omega):
        d = (np.asarray(omega, dtype=float) - self.omega_lo) / self.width
        return self.amplitude * np.exp(-0.5 * d * d)

    def squared_integral(self) -> float:
        """Closed form of integral k(omega)^2 domega for the Gaussian profile."""
        return self.amplitude * self.amplitude * self.width * math.sqrt(math.pi)


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

    def dispersion_residual(self, geometry: CavityGeometry) -> float:
        """Relative mismatch between omega^2 and (n pi/a)^2 + p^2 + k^2."""
        target = (self.n * math.pi / geometry.a) ** 2 + self.p * self.p + self.k * self.k
        return abs(self.omega * self.omega - target) / (self.omega * self.omega)


def _check_mode(mode: LOMode, geometry: CavityGeometry) -> None:
    if mode.dispersion_residual(geometry) > _DISPERSION_TOL:
        raise ValueError("mode frequency inconsistent with the dispersion relation")


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


def smeared_density(
    pt1: FieldPoint,
    pt2: FieldPoint,
    kernel: LOKernel,
    geometry: CavityGeometry,
    policy: None = None,
    quadrature: None = None,
) -> float:
    """Frequency-smeared density: integral k(omega)^2 sigma_yy over all frequencies.

    The image sum of the two-point density of :mod:`~cavityspectra.spectral`
    with each image term smeared in closed form (``spectral._SmearedLO``) and
    damped by exp(-(width D)^2/4), summed for this one pair, at its one y^2,
    by the loop of the pointwise densities (``spectral._image_sum``) to the
    N that the LO width sizes (``_SmearedLO.image_terms``, about
    6/(width a)): the terms beyond it are
    bounded below rounding of the scale A^2 width sqrt(pi) sigma_vacuum(omega_lo),
    so the result is the N = infinity smear.  Both points must share the
    plate distance x (the closed-form density covers equal-x pairs only;
    that is the geometry of the proposed detector).  ``variance_current``
    takes it for the cross term of diodes at different y; at y = 0
    ``spectral.smeared_modes_diag`` gives the same number from the guided
    modes, and ``validate`` check 7 compares the two.

    ``policy`` and ``quadrature`` are not settings: both must be None.  They
    stay in the signature because perfbench's span recorder keys smear calls
    by them.
    """
    if policy is not None or quadrature is not None:
        raise ValueError("the smear is in closed form at N = infinity; policy and quadrature must be None")
    validate_point(pt1, geometry)
    validate_point(pt2, geometry)
    if pt1.x != pt2.x:
        raise ValueError("smearing requires both points at the same plate distance x")
    lo = _SmearedLO(kernel.omega_lo, kernel.width, kernel.squared_integral())
    y = pt2.y - pt1.y
    values, _ = _image_sum(lo, pt1.x, np.array([y * y]), lo.image_terms(geometry.L), geometry.L)
    return float(values[0])


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
) -> tuple[float, float]:
    """Ground-state variance of the detector output and its far-separation approximation.

    The variance is calibration^2 * [R(1,1) + R(1,2) + R(2,1) + R(2,2)] (four
    smeared-density terms); the cross term is symmetric and computed once,
    and R(2,2) equals R(1,1) because both diodes share the plate distance x.
    The approximation is twice the single-diode diagonal term,
    2 calibration^2 R(1,1), valid when the diodes are transversely far apart
    so that the cross terms are small against the diagonal ones.  R(1,1) is
    amplitude^2 times the guided-mode closed form ``smeared_modes_diag``,
    whose cost does not grow as the LO narrows; R(1,2) is the image smear
    ``smeared_density``, or R(1,1) itself for diodes at the same y, so that
    the variance is then exactly twice the approximation, and 0 where
    R(1,1) is 0 (the 2 x 2 matrix of smears is positive semidefinite).  Returns
    (variance, approximation).  A squared amplitude or calibration that
    overflows is refused with a ValueError naming it before any smear runs,
    and so is a variance or approximation that is not finite.
    """
    if config.diode1.x != config.diode2.x:
        raise ValueError("the detector variance requires both diodes at the same plate distance x")
    a2, c2 = kernel.amplitude * kernel.amplitude, config.calibration * config.calibration
    for name, value, square in (("LO amplitude", kernel.amplitude, a2), ("calibration", config.calibration, c2)):
        if math.isinf(square):
            raise ValueError(f"the detector variance overflows: {name} {value!r} squared exceeds the float range")
    r11 = a2 * smeared_modes_diag(kernel.omega_lo, kernel.width, config.diode1.x, geometry)
    # |R(1,2)| <= R(1,1) = R(2,2): R(1,2) is R(1,1) itself at the same y, and 0 where R(1,1)
    # is, as on the plates, where the image smear at x = a would leave its residual
    if config.diode1.y == config.diode2.y or r11 == 0.0:
        r12 = r11
    else:
        r12 = smeared_density(config.diode1, config.diode2, kernel, geometry)
    variance, approx = c2 * ((r11 + r12) + (r12 + r11)), 2.0 * c2 * r11
    if not (math.isfinite(variance) and math.isfinite(approx)):  # nan included
        raise ValueError(f"the detector variance overflows at LO amplitude {kernel.amplitude!r} "
                         f"and calibration {config.calibration!r}")
    return variance, approx
