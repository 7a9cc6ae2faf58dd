"""Image sums for the equal-time-slice two-point function between the plates.

The ground-state correlation of the transverse (y) electric-field component
between two perfectly conducting plates at x = 0 and x = a is built from sums
over mirror images spaced by the period L = 2a.  Two routes are provided:

* a closed form for the equal-x two-point function, with image distances
  A_n = sqrt((nL)^2 + y^2) (translated copies) and
  B_n = sqrt((2x - nL)^2 + y^2) (reflected copies), truncated at real time
  separations and summed over the whole image lattice (N = oo) at complex
  ones;
* the scalar image sums themselves plus a finite-difference Laplacian
  (d^2/dx^2 + d^2/dz^2), which serves as an independent cross-check of the
  closed form.

Everything operates in internal units (c = 1).  Evaluations near a pole of
the correlation function (time separation on an image light cone) raise
:class:`~cavityspectra.errors.LightConeProximity` instead of returning a
meaningless huge number.
"""
from __future__ import annotations

import math
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

#: Most elements one array of a blocked loop holds: a chunk of image-sum rows
#: here, and in ``spectral`` an image block, a chunk of its y^2 rows, an x
#: block of sigma_modes_diag or laplace_modes_diag, an (x, mode, y) block of
#: sigma_modes, a mode block of smeared_modes_diag or a node block of
#: _bessel_j0_j2.  64 KiB of floats, which the allocator keeps from call to
#: call: at 2^17 (images) and 2^15 (chunks) a validate run took 2 100 minor
#: faults, as glibc handed each 240 KiB temporary back to the kernel, and
#: 29 ms; at 2^13 it takes none after its first run, and 25 ms (2-vCPU VM).
_WORKING_SET = 2**13


def _image_row(sign: int, p: SpacetimePoint, q: SpacetimePoint):
    """(base, offset, branch) of one image sum, in Python floats as the one-point sum has always formed them."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    offset = (p.y - q.y) ** 2 + (p.z - q.z) ** 2 - (p.t - q.t) ** 2
    return p.x + sign * q.x, offset, "translated" if sign == -1 else "reflected"


def _image_sums(rows, N: int, L: float) -> np.ndarray:
    """Truncated scalar image sums of the rows (base, offset, branch), in one array pass per chunk of rows.

    Row r is -(1/4 pi^2) sum_n 1/((base - n L)^2 + offset) over |n| <= N.
    Its gaps, the +n images, the -n ones and n = 0 last, are one row of a
    2-D array, and a cumsum along it adds the +-n pairs in ascending |n| and
    then the n = 0 term, as one row alone would.  The rows go in chunks of
    at most _WORKING_SET gaps, one row each at large N.  A row with a gap
    inside the guard band raises LightConeProximity before anything is
    summed: the first such row, and in it the n = 0 gap, then the nearest
    of the +n gaps, then of the -n ones.
    """
    values = np.empty(len(rows))
    nL = np.arange(1, N + 1, dtype=float) * L
    shifts = np.concatenate([-nL, nL, [0.0]])  # base - n L, base + n L, base
    step = max(1, _WORKING_SET // shifts.size)
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        base, offset = np.array([row[:2] for row in chunk]).T[:, :, None]
        gaps = (base + shifts) ** 2 + offset
        near = (np.abs(gaps) < GUARD_BAND).any(axis=1)
        if near.any():
            r = int(np.argmax(near))
            branch = chunk[r][2]
            if abs(gaps[r, -1]) < GUARD_BAND:
                raise LightConeProximity(0, branch, float(abs(gaps[r, -1])), GUARD_BAND)
            _raise_near_cone(gaps[r, :N], np.arange(1, N + 1), branch)
            _raise_near_cone(gaps[r, N:-1], -np.arange(1, N + 1), branch)
        inv = np.reciprocal(gaps, out=gaps)
        inv[:, N:-1] += inv[:, :N]  # the +-n pairs, then 1/d0
        values[lo:lo + step] = -inv[:, N:].cumsum(axis=1)[:, -1] / _FOUR_PI_SQ
    return values


def image_sum(
    sign: int,
    p: SpacetimePoint,
    q: SpacetimePoint,
    policy: TruncationPolicy,
    geometry: CavityGeometry = _CANONICAL,
) -> float:
    """Truncated scalar image sum.

    ``sign=-1`` sums the translated images (relative x coordinate enters) and
    ``sign=+1`` the reflected ones (the x coordinates add):

        -(1/4 pi^2) * sum_n 1 / ((p.x + sign*q.x - n L)^2 + dy^2 + dz^2 - dt^2)

    Coordinates are in internal units; the default geometry is the canonical
    a = 1 (image period L = 2).  The +-n terms are accumulated together in
    ascending |n| and the n = 0 term added last.  Raises LightConeProximity
    when any denominator lies inside the guard band.  The one-row use of the
    array sum that ``two_point_yy_fd`` gives all its stencil points at once.
    """
    return float(_image_sums([_image_row(sign, p, q)], policy.n_terms, geometry.L)[0])


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
    its analytic limit s^2/s^6 = 1/s^4 with the y^2 part vanishing.
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
    policy: TruncationPolicy,
    h: float = 1e-3,
) -> float:
    """Two-point function via finite differences of the scalar image sums.

    Applies the five-point Laplacian stencil (d^2/dx^2 + d^2/dz^2, step ``h``,
    second-order accurate) to the difference of direct and reflected image
    sums, differentiating with respect to the first event only.  Within 2h of
    a plate the x part switches to a one-sided interior stencil so that all
    sample points stay inside the physical strip.  Each stencil evaluation
    enforces the light-cone guard band (effectively widening it by the
    stencil extent).  The translated and reflected sums of all five or six
    stencil points are rows of one array sum, and a refusal is the one the
    points would raise taken one at a time.
    """
    validate_point(point, geometry)
    if h <= 0.0:
        raise ValueError("stencil step must be positive")
    q = SpacetimePoint(t=0.0, x=point.x, y=point.y, z=0.0)
    x = point.x
    if x < 2.0 * h:
        along_x = (x + h, x + 2.0 * h, x + 3.0 * h)
    elif x > geometry.a - 2.0 * h:
        along_x = (x - h, x - 2.0 * h, x - 3.0 * h)
    else:
        along_x = (x + h, x - h)
    # the points in the order the sums were once taken, one at a time: each
    # point's translated row, then its reflected one
    rows = []
    try:
        for px, pz in [(x, 0.0), (x, h), (x, -h), *((px, 0.0) for px in along_x)]:
            pp = SpacetimePoint(t=s, x=px, y=0.0, z=pz)
            rows += [_image_row(-1, pp, q), _image_row(+1, pp, q)]
    except (ValueError, OverflowError):  # a point that cannot be formed: a refusal before it comes first
        _image_sums(rows, policy.n_terms, geometry.L)
        raise
    sums = _image_sums(rows, policy.n_terms, geometry.L)
    f0, z_plus, z_minus, *fx = (sums[0::2] - sums[1::2]).tolist()
    dzz = (z_plus - 2.0 * f0 + z_minus) / (h * h)
    if len(fx) == 3:
        dxx = (2.0 * f0 - 5.0 * fx[0] + 4.0 * fx[1] - fx[2]) / (h * h)
    else:
        dxx = (fx[0] - 2.0 * f0 + fx[1]) / (h * h)
    return dxx + dzz
