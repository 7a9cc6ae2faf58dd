"""Image sums for the equal-time-slice two-point function between the plates.

The ground-state correlation of the transverse (y) electric-field component
between two perfectly conducting plates at x = 0 and x = a is built from sums
over mirror images spaced by the period L = 2a.  Two routes are provided:

* a closed form for the equal-x two-point function, with image distances
  A_n = sqrt((nL)^2 + y^2) (translated copies) and
  B_n = sqrt((2x - nL)^2 + y^2) (reflected copies), truncated at real time
  separations and summed over the whole image lattice (N = oo) at complex
  ones;
* the scalar image sums themselves, over the whole lattice in closed form,
  plus a finite-difference Laplacian (d^2/dx^2 + d^2/dz^2), which serves as
  an independent cross-check of the lattice.

Everything operates in internal units (c = 1).  Evaluations near a pole of
the correlation function (time separation on an image light cone) raise
:class:`~cavityspectra.errors.LightConeProximity` instead of returning a
meaningless huge number.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LightConeProximity
from .units import CavityGeometry, FieldPoint, validate_point

#: Refuse to evaluate when a squared pole separation is closer than this.
GUARD_BAND = 1e-6

_FOUR_PI_SQ = 4.0 * math.pi**2
_PI_SQ = math.pi**2

#: Most image pairs one sum may include: a density holds a few floats per
#: image, so a cutoff beyond this would ask for gigabytes before any value.
MAX_IMAGE_TERMS = 2**20


@dataclass(frozen=True)
class SpacetimePoint:
    """Event (t, x, y, z) in internal units."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coordinate {name} must be finite")


@dataclass(frozen=True)
class TruncationPolicy:
    """Symmetric truncation of the image sums.

    ``n_terms`` is the cutoff N: image indices n in [-N, N] are included.
    Every sum accumulates the +n and -n terms together in ascending |n| and
    adds the n = 0 term last; this symmetric order is what makes several
    boundary cancellations exact in floating point.  A numpy integer cutoff
    is stored as an int; one that is not an integer (a bool included), is
    negative or is above MAX_IMAGE_TERMS is refused with a ValueError.
    """

    n_terms: int = 1000

    def __post_init__(self):
        if isinstance(self.n_terms, bool) or not isinstance(self.n_terms, (int, np.integer)):
            raise ValueError(f"cutoff must be an integer, got {self.n_terms!r}")
        # stored as an int: a small numpy integer would overflow in the block sizes
        object.__setattr__(self, "n_terms", int(self.n_terms))
        if self.n_terms < 0:
            raise ValueError("cutoff must be nonnegative")
        if self.n_terms > MAX_IMAGE_TERMS:
            raise ValueError(f"cutoff {self.n_terms} exceeds the {MAX_IMAGE_TERMS} image pairs one sum may include")


def _raise_near_cone(gaps: np.ndarray, indices: np.ndarray, branch: str) -> None:
    bad = np.abs(gaps) < GUARD_BAND
    if np.any(bad):
        pos = int(np.argmin(np.abs(np.where(bad, gaps, np.inf))))
        raise LightConeProximity(int(indices[pos]), branch, float(abs(gaps[pos])), GUARD_BAND)


_CANONICAL = CavityGeometry(1.0)


def _nearest_pole(base: float, offset: float, L: float):
    """(n, |gap|) of the image n in Z whose gap (base - n L)^2 + offset lies nearest 0.

    With u = base - n L the gap |u^2 + offset| falls towards u = 0 when
    offset >= 0, and towards u = +-sqrt(-offset) when offset < 0, rising on
    either side, so its least value over the lattice sits at one of the two
    lattice points around one of those roots.  Ties go to the smaller |n|,
    then to the n > 0 image.
    """
    roots = (base,) if offset >= 0.0 else (base - math.sqrt(-offset), base + math.sqrt(-offset))
    candidates = {n for r in roots for n in (math.floor(r / L), math.floor(r / L) + 1)}

    def gap(n):
        u = base - n * L
        return abs(u * u + offset)  # u * u: u ** 2 would raise where u^2 overflows

    nearest, _, _, n = min((gap(n), abs(n), n < 0, n) for n in candidates)
    return n, nearest


def _lattice_sum(base: float, offset: float, L: float) -> float:
    """S(b, c) = sum over all n in Z of 1/((b - n L)^2 + c), in closed form.

    S has period L in b, so b is taken as base's remainder modulo L.  With
    k = pi/L, the Mittag-Leffler expansion of cot (DLMF 4.22.3) sums it as

        c > 0:  (k/g) coth(k g) / (1 + (sin(k b)/sinh(k g))^2),  g = sqrt(c),
                written through e = exp(-2 k g) and 1 - e = -expm1(-2 k g)
                as (k/g) (1 - e)(1 + e) / ((1 - e)^2 + 4 e sin^2(k b)),
                so that neither a huge nor a tiny c overflows;
        c < 0:  (k/2a) sin(2 k a) / (sin(k (b - a)) sin(k (b + a))),  a = sqrt(-c),
                whose sines keep their product under a -> a + L (two of
                them change sign), so a enters them modulo L;
        c = 0:  k^2 / sin^2(k b).

    A timelike row exactly on a pole gives inf in place of a division by
    zero: where the spacing of floats near |c| exceeds the guard band (|c| of
    about 1e10 and more), the rounded gap of that pole can lie outside it.
    """
    k = math.pi / L
    b = math.remainder(base, L)
    if offset > 0.0:
        g = math.sqrt(offset)
        e, one_minus_e = math.exp(-2.0 * k * g), -math.expm1(-2.0 * k * g)
        sine = math.sin(k * b)
        return (k / g) * one_minus_e * (1.0 + e) / (one_minus_e * one_minus_e + 4.0 * e * sine * sine)
    if offset < 0.0:
        alpha = math.sqrt(-offset)
        ar = math.remainder(alpha, L)
        poles = math.sin(k * (b - ar)) * math.sin(k * (b + ar))
        return (0.5 * k / alpha) * math.sin(2.0 * k * ar) / poles if poles else math.inf
    sine = math.sin(k * b)
    return k * k / (sine * sine)


def image_sum(
    sign: int,
    p: SpacetimePoint,
    q: SpacetimePoint,
    geometry: CavityGeometry = _CANONICAL,
) -> float:
    """Scalar image sum over the whole image lattice (N = oo).

    ``sign=-1`` sums the translated images (relative x coordinate enters) and
    ``sign=+1`` the reflected ones (the x coordinates add):

        -(1/4 pi^2) * sum_n 1 / ((p.x + sign*q.x - n L)^2 + dy^2 + dz^2 - dt^2),  n in Z,

    in closed form (``_lattice_sum``), one O(1) evaluation whatever the
    offset.  Coordinates are in internal units; the default geometry is the
    canonical a = 1 (image period L = 2).  Raises LightConeProximity, naming
    the image, when the nearest of all the lattice's poles lies inside the
    guard band, and a ValueError when p.x + sign*q.x or the offset
    dy^2 + dz^2 - dt^2 overflows.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    base = p.x + sign * q.x
    if not math.isfinite(base):
        raise ValueError(f"the image base p.x {'+' if sign == 1 else '-'} q.x = {base!r} overflows")
    dy, dz, dt = p.y - q.y, p.z - q.z, p.t - q.t
    offset = dy * dy + dz * dz - dt * dt  # products: a Python float ** raises OverflowError where they give inf
    if not math.isfinite(offset):
        raise ValueError(f"the image offset dy^2 + dz^2 - dt^2 = {offset!r} overflows")
    n, gap = _nearest_pole(base, offset, geometry.L)
    total = _lattice_sum(base, offset, geometry.L) if gap >= GUARD_BAND else math.inf
    if math.isinf(total):
        raise LightConeProximity(n, "translated" if sign == -1 else "reflected", gap, GUARD_BAND)
    return -total / _FOUR_PI_SQ


def _squared_image_distances(point: FieldPoint, N: int, L: float):
    """(A^2, B^2 at -n, B^2 at +n) for n = 1..N plus the n = 0 values."""
    y2 = point.y * point.y
    n = np.arange(1, N + 1, dtype=float)
    a2 = (n * L) ** 2 + y2
    b2_pos = (2.0 * point.x - n * L) ** 2 + y2
    b2_neg = (2.0 * point.x + n * L) ** 2 + y2
    a2_0 = y2
    b2_0 = (2.0 * point.x) ** 2 + y2
    return a2, b2_pos, b2_neg, a2_0, b2_0


def two_point_yy_closed(
    s: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> float:
    """Equal-x two-point function of E_y at time separation ``s``, closed form.

    The correlated pair sits at (x, 0) and (x, y); per image index the value is

        (1/pi^2) [ (A^2+s^2)/(s^2-A^2)^3 - (B^2+s^2)/(s^2-B^2)^3 ]
      + (2 y^2/pi^2) [ 1/(s^2-B^2)^3 - 1/(s^2-A^2)^3 ]

    summed pairwise over +-n with the n = 0 term last.  The n = 0, y = 0
    term needs no special handling: A = 0 there and the expression reduces to
    its analytic limit s^2/s^6 = 1/s^4 with the y^2 part vanishing.  A
    time separation within the guard band of any image's light cone, beyond
    the cutoff too (``_nearest_pole``), raises LightConeProximity.
    """
    validate_point(point, geometry)
    if not math.isfinite(s):
        raise ValueError(f"time separation s must be finite, got {s!r}")
    N = policy.n_terms
    # every gap s^2 - D^2 is at most s^2 + y^2 + ((N + 1) L)^2 in size and the
    # closed form cubes it: refuse where that overflows rather than return nan
    reach = s * s + point.y * point.y + ((N + 1) * geometry.L) ** 2
    if not math.isfinite(reach * reach * reach):
        raise ValueError(f"time separation s = {s!r} at offset y = {point.y!r}: "
                         "the cubed light-cone gaps s^2 - D^2 overflow")
    a2, b2_pos, b2_neg, a2_0, b2_0 = _squared_image_distances(point, N, geometry.L)
    s2 = s * s
    y2 = point.y * point.y

    dA0 = s2 - a2_0
    dB0 = s2 - b2_0
    if abs(dA0) < GUARD_BAND:
        raise LightConeProximity(0, "translated", abs(dA0), GUARD_BAND)
    if abs(dB0) < GUARD_BAND:
        raise LightConeProximity(0, "reflected", abs(dB0), GUARD_BAND)
    dA = s2 - a2
    dBp = s2 - b2_pos
    dBn = s2 - b2_neg
    idx = np.arange(1, N + 1)
    _raise_near_cone(dA, idx, "translated")
    _raise_near_cone(dBp, idx, "reflected")
    _raise_near_cone(dBn, -idx, "reflected")
    for base, branch in ((0.0, "translated"), (2.0 * point.x, "reflected")):
        n, gap = _nearest_pole(base, y2 - s2, geometry.L)
        if gap < GUARD_BAND:
            raise LightConeProximity(n, branch, gap, GUARD_BAND)

    def per_image(translated, inv_a3, b2v, db3):
        # translated = (A^2 + s^2)/dA^3 and inv_a3 = 1/dA^3 are shared by both
        # reflected families; every gap is cubed once, always by **3, whose
        # numpy and Python float results differ in the last bit from a*a*a
        main = translated - (b2v + s2) / db3
        trans = 1.0 / db3 - inv_a3
        return main + 2.0 * y2 * trans

    dA0_3 = dA0**3
    term0 = per_image((a2_0 + s2) / dA0_3, 1.0 / dA0_3, b2_0, dB0**3)
    if N == 0:
        return term0 / _PI_SQ
    dA3 = dA**3
    translated, inv_a3 = (a2 + s2) / dA3, 1.0 / dA3
    del a2, dA, dA3  # spent: at large N each is megabytes
    pairs = per_image(translated, inv_a3, b2_pos, dBp**3)
    pairs += per_image(translated, inv_a3, b2_neg, dBn**3)
    total = float(np.cumsum(pairs)[-1]) + term0
    return total / _PI_SQ


#: Samples the lattice sum handles at once: its dozen complex temporaries
#: stay small however many samples a call takes.
_BLOCK_SAMPLES = 8192


def two_point_yy_lattice(
    z2: np.ndarray,
    point: FieldPoint,
    geometry: CavityGeometry,
) -> np.ndarray:
    """Untruncated (N = oo) two-point function on a 1-D array of complex squared times z2.

    With zeta^2 = z2 - y^2, an image at distance D^2 = b^2 + y^2 contributes
    (zeta^2 + b^2)/(zeta^2 - b^2)^3 / pi^2, translated images (b = m L) with
    weight +1 and reflected ones (b = m L + beta, beta = 2x mod L) with -1;
    the n = 0 translated term alone is the free-space 1/(pi^2 zeta^4).  Over all m in Z a lattice sums to
    d/dt (t dP/dt) at t = zeta^2, where the Mittag-Leffler expansion of cot
    (DLMF 4.22.3) gives P = sum 1/(t - b^2) =
    (k/2 zeta) [cot(k(zeta - beta)) + cot(k(zeta + beta))], k = pi/L.  The
    cot addition formula writes both lattices in T = cot(k zeta): with
    E = 1 + T^2, u = sin^2(k beta) E and r = 1/(1 - u), translated minus
    reflected lattice is

        G = -k u r [2 k^2 T (E + (E + 2) r + 4 T^2 r^2)
                    + k (E + 2 T^2 r)/zeta + T/zeta^2] / (4 pi^2 zeta),

    so every sample costs one complex tangent, whatever the number of images,
    and G is exactly 0 on a plate, where beta = 0.  At real z2 = s^2 it is
    the N = oo limit of :func:`two_point_yy_closed`; at z2 = -eps^2 it is the
    Laplace transform of the spectral density (``spectral.laplace_modes_diag``).
    """
    y2 = point.y * point.y
    k = math.pi / geometry.L
    q = math.sin(k * math.fmod(2.0 * point.x, geometry.L)) ** 2
    total = np.empty_like(z2)
    for start in range(0, z2.size, _BLOCK_SAMPLES):
        zeta2 = z2[start:start + _BLOCK_SAMPLES] - y2
        zeta = np.sqrt(zeta2)
        t = np.reciprocal(np.tan(k * zeta))
        t2 = t * t
        e = 1.0 + t2
        r = np.reciprocal(1.0 - q * e)
        bracket = (2.0 * k * k) * t * (e + (e + 2.0) * r + 4.0 * t2 * r * r)
        bracket += k * (e + 2.0 * t2 * r) / zeta
        bracket += t / zeta2
        total[start:start + _BLOCK_SAMPLES] = (-0.25 * k * q) * e * r * bracket / zeta
    return total / _PI_SQ


def two_point_yy_fd(
    s: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    h: float = 1e-3,
) -> float:
    """Two-point function via finite differences of the scalar image sums (N = oo).

    Applies the five-point Laplacian stencil (d^2/dx^2 + d^2/dz^2, step ``h``,
    second-order accurate) to the difference of direct and reflected image
    sums, differentiating with respect to the first event only.  Within 2h of
    a plate the x part switches to a one-sided interior stencil so that all
    sample points stay inside the physical strip.  Each stencil evaluation
    enforces the light-cone guard band over the whole lattice (effectively
    widening it by the stencil extent), point by point in the order below.
    A step that is not finite and positive, or whose square is not a normal
    float, is refused with a ValueError that names h.
    """
    validate_point(point, geometry)
    if not (h > 0.0 and sys.float_info.min <= h * h <= sys.float_info.max):
        raise ValueError(f"stencil step h must be positive and finite with a normal square h^2, got {h!r}")
    q = SpacetimePoint(t=0.0, x=point.x, y=point.y, z=0.0)

    def diff(px, pz):
        pp = SpacetimePoint(t=s, x=px, y=0.0, z=pz)
        return image_sum(-1, pp, q, geometry) - image_sum(+1, pp, q, geometry)

    x = point.x
    f0 = diff(x, 0.0)
    dzz = (diff(x, h) - 2.0 * f0 + diff(x, -h)) / (h * h)
    if x < 2.0 * h:
        dxx = (2.0 * f0 - 5.0 * diff(x + h, 0.0) + 4.0 * diff(x + 2.0 * h, 0.0) - diff(x + 3.0 * h, 0.0)) / (h * h)
    elif x > geometry.a - 2.0 * h:
        dxx = (2.0 * f0 - 5.0 * diff(x - h, 0.0) + 4.0 * diff(x - 2.0 * h, 0.0) - diff(x - 3.0 * h, 0.0)) / (h * h)
    else:
        dxx = (diff(x + h, 0.0) - 2.0 * f0 + diff(x - h, 0.0)) / (h * h)
    return dxx + dzz
