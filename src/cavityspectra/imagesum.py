"""Image sums for the equal-time-slice two-point function between the plates.

The ground-state correlation of the transverse (y) electric-field component
between two perfectly conducting plates at x = 0 and x = a is built from sums
over mirror images spaced by the period L = 2a.  Its closed form for the
equal-x two-point function has image distances A_n = sqrt((nL)^2 + y^2)
(translated copies) and B_n = sqrt((2x - nL)^2 + y^2) (reflected copies); it
is truncated at real time separations and summed over the whole image
lattice (N = oo) at complex squared times.  The lattice's cross-check is the
guided-mode sum of ``spectral``: its Laplace transform at complex eps is the
lattice at z^2 = -eps^2.

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

_PI_SQ = math.pi**2

#: Most image pairs one sum may include: a density holds a few floats per
#: image, so a cutoff beyond this would ask for gigabytes before any value.
MAX_IMAGE_TERMS = 2**20


@dataclass(frozen=True)
class TruncationPolicy:
    """Symmetric truncation of the image sums.

    ``n_terms`` is the cutoff N: image indices n in [-N, N] are included.
    Two sums still take it, while the lattice sums every image (N = oo):
    the pointwise densities of ``spectral`` (``sigma_yy`` and
    ``sigma_yy_diag``) and :func:`two_point_yy_closed`.  Both accumulate the
    +n and -n terms together in ascending |n| and add the n = 0 term last;
    this symmetric order is what makes several boundary cancellations exact
    in floating point.  A numpy integer cutoff
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


def _refuse_near_cone(point: FieldPoint, s2: float, L: float) -> None:
    """Raise LightConeProximity when s^2 lies within GUARD_BAND of the light cone of an image of ``point``.

    ``_nearest_pole`` searches every image n in Z of the translated family
    (base 0), then of the reflected one (base 2x), so at x = a, where the two
    share their cones, the translated image is named.
    """
    y2 = point.y * point.y
    for base, branch in ((0.0, "translated"), (2.0 * point.x, "reflected")):
        n, gap = _nearest_pole(base, y2 - s2, L)
        if gap < GUARD_BAND:
            raise LightConeProximity(n, branch, gap, GUARD_BAND)


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
    its analytic limit s^2/s^6 = 1/s^4 with the y^2 part vanishing.  Before
    any image array is built, ``_nearest_pole`` finds the nearest light cone
    over every image n in Z (beyond the cutoff too), translated family
    first; a time separation within its guard band raises LightConeProximity
    naming that image (at x = a, where the two families share their cones,
    the translated one).
    """
    validate_point(point, geometry)
    if not math.isfinite(s):
        raise ValueError(f"time separation s must be finite, got {s!r}")
    N = policy.n_terms
    s2 = s * s
    y2 = point.y * point.y
    # every gap s^2 - D^2 is at most s^2 + y^2 + ((N + 1) L)^2 in size and the
    # closed form cubes it: refuse where that overflows rather than return nan
    reach = s2 + y2 + ((N + 1) * geometry.L) ** 2
    if not math.isfinite(reach * reach * reach):
        raise ValueError(f"time separation s = {s!r} at offset y = {point.y!r}: "
                         "the cubed light-cone gaps s^2 - D^2 overflow")
    _refuse_near_cone(point, s2, geometry.L)
    a2, b2_pos, b2_neg, a2_0, b2_0 = _squared_image_distances(point, N, geometry.L)
    dA0 = s2 - a2_0
    dB0 = s2 - b2_0
    dA = s2 - a2
    dBp = s2 - b2_pos
    dBn = s2 - b2_neg

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
    All samples go through in one pass, each element with its own arithmetic,
    so a call's result equals its samples' one-sample calls bit for bit.
    Before any arithmetic, a sample with an infinite or nan part raises
    ValueError naming it, and every real z2 = s^2 goes through the light-cone
    guard of :func:`two_point_yy_closed`: one within GUARD_BAND of an image's
    cone raises LightConeProximity naming that image.
    """
    zs = np.asarray(z2)
    bad = zs[~np.isfinite(zs)].tolist()
    if bad:
        raise ValueError(f"squared time z2 = {bad[0]!r} is not finite")
    for s2 in zs[zs.imag == 0.0].real.tolist():
        _refuse_near_cone(point, s2, geometry.L)
    y2 = point.y * point.y
    k = math.pi / geometry.L
    q = math.sin(k * math.fmod(2.0 * point.x, geometry.L)) ** 2
    zeta2 = z2 - y2
    zeta = np.sqrt(zeta2)
    t = np.reciprocal(np.tan(k * zeta))
    t2 = t * t
    e = 1.0 + t2
    r = np.reciprocal(1.0 - q * e)
    bracket = (2.0 * k * k) * t * (e + (e + 2.0) * r + 4.0 * t2 * r * r)
    bracket += k * (e + 2.0 * t2 * r) / zeta
    bracket += t / zeta2
    return (-0.25 * k * q) * e * r * bracket / zeta / _PI_SQ
