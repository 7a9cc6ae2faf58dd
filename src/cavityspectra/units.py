"""Dimensionless unit system and guarded frequency grids.

Internally every computation sets c = 1 and measures lengths in units of the
plate separation, frequencies in units of c over the separation.  Conversions
to and from physical units (micrometres, rad/s, seconds) happen only at the
I/O boundary.  Frequency grids are "guarded": the spectral density of the
cavity ground state is discontinuous at integer multiples of pi (in these
units), so grid points are kept a guard distance away from them.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
MICRON = 1e-6  # m

#: Guard distance around multiples of pi for frequency grids.
DEFAULT_GUARD = 1e-3

_UNIT_TAGS = ("length", "frequency", "time")


@dataclass(frozen=True)
class CavityGeometry:
    """Plate separation ``a`` and the derived image period ``L = 2a``.

    ``a`` is a length in whatever unit the caller works in: micrometres at the
    I/O boundary, or the canonical internal value 1.0 for the dimensionless
    computations.
    """

    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"plate separation must be positive and finite, got {self.a!r}")

    @property
    def L(self) -> float:
        """Image period: exactly twice the plate separation."""
        return 2.0 * self.a


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation point between the plates.

    ``x`` is the distance from the first plate (0 <= x <= a, checked against a
    geometry by the operations that take one); ``y`` is the transverse offset
    along the plates.  The evaluation plane is z = 0.
    """

    x: float
    y: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"field point coordinates must be finite, got ({self.x!r}, {self.y!r})")


def validate_point(point: FieldPoint, geometry: CavityGeometry) -> None:
    """Raise ValueError unless ``point`` lies in the physical strip 0 <= x <= a."""
    if not (0.0 <= point.x <= geometry.a):
        raise ValueError(
            f"x = {point.x!r} outside the cavity strip [0, {geometry.a!r}]"
        )


def _separation_in_metres(value: float, unit: str, geometry: CavityGeometry) -> float:
    """The plate separation in metres, once the arguments of a conversion pass their checks.

    A separation below the smallest normal float in metres is refused: its
    product with MICRON underflows, so the conversions would divide by 0 or
    lose precision.
    """
    if unit not in _UNIT_TAGS:
        raise ValueError(f"unknown unit tag {unit!r}; expected one of {_UNIT_TAGS}")
    if not math.isfinite(value):
        raise ValueError(f"cannot convert non-finite value {value!r}")
    a_m = geometry.a * MICRON
    if not a_m >= sys.float_info.min:
        raise ValueError(f"plate separation {geometry.a!r} micrometres is below the smallest "
                         "normal float in metres")
    return a_m


def _finite_result(result: float, value: float, unit: str) -> float:
    if not math.isfinite(result):
        raise ValueError(f"{unit} {value!r} overflows in the conversion")
    return result


def to_internal(value: float, unit: str, geometry: CavityGeometry) -> float:
    """Convert a physical value to internal units (c = 1, lengths in units of a).

    ``geometry.a`` is interpreted in micrometres here.  Supported unit tags:
    ``length`` (micrometres), ``frequency`` (rad/s), ``time`` (seconds).
    """
    a_m = _separation_in_metres(value, unit, geometry)
    if unit == "length":
        result = value / geometry.a
    elif unit == "frequency":
        result = value * a_m / SPEED_OF_LIGHT
    else:  # time
        result = value * SPEED_OF_LIGHT / a_m
    return _finite_result(result, value, unit)


def from_internal(value: float, unit: str, geometry: CavityGeometry) -> float:
    """Inverse of :func:`to_internal`."""
    a_m = _separation_in_metres(value, unit, geometry)
    if unit == "length":
        result = value * geometry.a
    elif unit == "frequency":
        result = value * SPEED_OF_LIGHT / a_m
    else:  # time
        result = value * a_m / SPEED_OF_LIGHT
    return _finite_result(result, value, unit)


def _distance_to_pi_multiple(omega):
    k = np.round(np.asarray(omega, dtype=float) / math.pi)
    return np.abs(omega - k * math.pi)


def _inside_band(omega):
    # displaced points sit at distance exactly DEFAULT_GUARD; allow rounding slack
    return _distance_to_pi_multiple(omega) < DEFAULT_GUARD * (1.0 - 1e-12)


def near_discontinuity(omega: float) -> bool:
    """True when ``omega`` (internal units) lies within DEFAULT_GUARD of n*pi, n >= 1 (no mode starts at 0)."""
    n = max(round(omega / math.pi, 0), 1.0)  # round(., 0) keeps a nan or an inf, which is near no jump
    return bool(abs(omega - n * math.pi) < DEFAULT_GUARD)


def build_grid(omega_min: float, omega_max: float, count: int) -> np.ndarray:
    """Uniform frequency grid with points displaced off multiples of pi, as a read-only float64 array.

    Any point falling within DEFAULT_GUARD of an integer multiple of pi is
    pushed outward to distance exactly DEFAULT_GUARD (a point sitting exactly
    on the multiple, including 0, is pushed upward).  The points are
    strictly increasing and none lies inside a guard band.  Raises
    ValueError when the requested range is degenerate, not finite or
    entirely swallowed by one guard band, and when a point cannot leave its
    band because the floats there are too coarse.
    """
    if not (0.0 <= omega_min < omega_max < math.inf):
        raise ValueError(f"need 0 <= omega_min < omega_max, both finite, got [{omega_min!r}, {omega_max!r}]")
    if count < 2:
        raise ValueError("grid needs at least two points")

    k_mid = round(0.5 * (omega_min + omega_max) / math.pi)
    if k_mid * math.pi - DEFAULT_GUARD < omega_min and omega_max < k_mid * math.pi + DEFAULT_GUARD:
        raise ValueError(
            f"guard band around {k_mid}*pi swallows the range [{omega_min!r}, {omega_max!r}]"
        )

    pts = np.linspace(omega_min, omega_max, count)
    k = np.round(pts / math.pi)
    d = pts - k * math.pi
    inside = np.abs(d) < DEFAULT_GUARD
    shift = np.where(d >= 0.0, DEFAULT_GUARD, -DEFAULT_GUARD)
    pts = np.where(inside, k * math.pi + shift, pts)
    # k*pi + shift can round to just inside the band when ulp(k*pi) exceeds
    # the slack (k >= 11), or onto k*pi itself when it exceeds twice the
    # guard: step such points outward an ulp, each step moving them away
    # from k*pi, or refuse the grid where a step cannot
    short = _inside_band(pts)
    while np.any(short):
        stepped = np.where(short, np.nextafter(pts, np.copysign(np.inf, shift)), pts)
        if not np.all(_distance_to_pi_multiple(stepped[short]) > _distance_to_pi_multiple(pts[short])):
            raise ValueError(f"the floats near {float(pts[short][0])!r} are too coarse to keep a point "
                             f"{DEFAULT_GUARD!r} away from a multiple of pi")
        pts = stepped
        short = _inside_band(pts)
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("guard displacement produced a non-increasing grid")
    pts.setflags(write=False)
    return pts
