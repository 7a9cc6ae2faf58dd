"""Spectral densities of the cavity ground state and of free space.

The frequency-domain counterparts of the image sums involve two oscillatory
kernels,

    Q(u) = sin(u)/u + cos(u)/u^2 - sin(u)/u^3
    W(u) = sin(u)/u + 3 cos(u)/u^2 - 3 sin(u)/u^3,

whose three terms individually blow up like 1/u^2 as u -> 0 while the sums
stay finite (Q -> 2/3, W -> 0).  Below a splice point the kernels are
evaluated from exact Taylor coefficients to avoid the catastrophic
cancellation; above it the direct formulas are accurate.

The cavity density at frequency omega for a pair of points at equal plate
distance x and transverse offset y is

    sigma_yy = (omega^3 / 4 pi^2) * sum_n { [Q(omega A_n) - Q(omega B_n)]
               + y^2 [W(omega B_n)/B_n^2 - W(omega A_n)/A_n^2] }

with the translated/reflected image distances A_n, B_n.  Restricting the sum
to the n = 0 translated term reproduces the free-space (vacuum) density; the
remainder encodes the plates.  The sums are accumulated pairwise over +-n in
ascending |n| with the n = 0 term last, which keeps several boundary
identities exact in floating point.  One loop, ``_image_sum``, sums the
images of one plate distance x at its distinct y^2: blocks of ascending |n|,
chunks of y^2 rows within each, and the running total carried from block to
block, so a sum in many blocks equals one in a single block, bit for bit.
Its blocks, like those of the mode sums, keep every array within one budget,
_WORKING_SET (2^13 floats, 64 KiB, which the allocator reuses).  Its
kernels are those of one frequency (``_Pointwise``) or, smeared by a
Gaussian LO profile, the exact Gaussian integrals of the image terms
(``_SmearedLO``); at y = 0 the guided modes give that smear in
closed form too (``smeared_modes_diag``).  All quantities are in internal
units (c = 1), so results scale as omega^3 while every other argument
appears as a frequency-distance product.

The two-point density depends on y only through y^2, so the points of one
x that share a y^2 share its evaluation; the 201 y of the ``fig2-right``
slice hold 100 distinct y^2 > 0 and y = 0.  Element for
element the arithmetic is that of a single point: a grid equals its points
evaluated one by one, bit for bit.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import sys
from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .imagesum import MAX_IMAGE_TERMS, TruncationPolicy
from .units import CavityGeometry, FieldPoint, validate_point

#: Kernel arguments below this use the Taylor series; above, the direct form.
SERIES_THRESHOLD = 0.5
_SERIES_TERMS = 10

#: Most elements one array of a blocked loop holds: an image block, a chunk
#: of its y^2 rows, an (x, mode, column) block of _mode_sum or a node block
#: of _bessel_j0_j2.  64 KiB of floats, which the allocator keeps
#: from call to call: at 2^17 (images) and 2^15 (chunks) a validate run took
#: 2 100 minor faults, as glibc handed each 240 KiB temporary back to the
#: kernel, and 29 ms; at 2^13 it takes none after its first run, and 25 ms
#: (2-vCPU VM).
_WORKING_SET = 2**13

_FOUR_PI_SQ = 4.0 * math.pi**2
_TWO_PI_SQ = 2.0 * math.pi**2
_TWO_THIRDS = 2.0 / 3.0
#: Unit roundoff of a float: a smear sums images until its tail bound is below this share of its scale.
_ROUNDING = 2.0**-53
#: exp(-t) rounds to 0.0 for every t above this (at 745.13 it is the smallest subnormal).
_EXP_UNDERFLOW = 745.2
#: u^3 is finite at and below this float cube root of the largest float, which rounds below the true bound.
_CUBE_MAX = sys.float_info.max ** (1.0 / 3.0)
#: Largest frequency a density takes: its omega^3 prefactor, at most 1e300,
#: keeps every density finite (a cube above the largest float would print inf).
_MAX_OMEGA = 1e100


def _series_coefficients(sin_weight: int, cos_weight: int) -> np.ndarray:
    """Taylor coefficients in u^2 of v sin(u)/u + w cos(u)/u^2 - w sin(u)/u^3.

    The m-th is (-1)^m [v/(2m+1)! - w (2m+2)/(2m+3)!], one exact ratio of
    integers whose true division is correctly rounded; with ten terms the
    truncation error at the splice point is ~1e-26.  Q is (v, w) = (1, 1),
    W is (1, 3) and the vacuum bracket sin(u)/u^3 - cos(u)/u^2 is (0, -1).
    """
    coeffs = []
    for m in range(_SERIES_TERMS):
        c = (sin_weight * (2 * m + 2) * (2 * m + 3) - cos_weight * (2 * m + 2)) / factorial(2 * m + 3)
        coeffs.append(c if m % 2 == 0 else -c)
    return np.asarray(coeffs)


def _polyval(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Horner sum of coeffs[j] x^j: numpy.polynomial.polynomial.polyval, operation for operation."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


def _q_family(k: int):
    """Q (k = 1) or W (k = 3): Taylor coefficients and the direct form s/u + k c/u^2 - k s/u^3."""

    def k_times_over(v, d, out=None):
        """k * v / d; the product by k = 1 is exact and is skipped."""
        if k == 1:
            return np.divide(v, d, out=out)
        t = np.multiply(v, k, out=out)
        t /= d
        return t

    def direct(u, s, c):
        # s / u + k * c / u2 - k * s / (u2 * u), operation for operation, with
        # the temporaries reused in place
        u2 = u * u
        out = s / u
        t = k_times_over(c, u2)
        out += t
        u2 *= u
        out -= k_times_over(s, u2, out=t)
        return out

    return _series_coefficients(1, k), direct


def _vac_direct(u, s, c):
    u2 = u * u
    out = u2 * u
    np.divide(s, out, out=out)
    np.divide(c, u2, out=u2)
    out -= u2
    return out


_Q = _q_family(1)
_W = _q_family(3)
_VAC = (_series_coefficients(0, -1), _vac_direct)


def _spliced(u, *kernels):
    """Kernels at u >= 0 from one argument check, one splice and one sin/cos.

    Each kernel is (Taylor coefficients in u^2, direct form f(u, sin u, cos u));
    the direct form is evaluated over the whole array and the series then
    overwrites the entries with u < SERIES_THRESHOLD.  Returns one value per
    kernel, a float for scalar u and an array of u's shape otherwise.
    """
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    lo, hi = flat.min(initial=math.inf), flat.max(initial=0.0)  # a nan fails the check; an empty array passes
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("kernel argument must be finite and nonnegative")
    us2 = None
    if lo < SERIES_THRESHOLD:  # most arrays have no small u, and the series has a fixed cost
        small = flat < SERIES_THRESHOLD
        us = flat[small]
        us2 = us * us
        # the series overwrites these entries; 1 keeps the direct form free of 0/0
        flat = np.where(small, 1.0, flat)
    s, c = np.sin(flat), np.cos(flat)
    results = []
    for coeffs, direct in kernels:
        # above _CUBE_MAX u^3 (and further up u^2) overflows to inf, and the terms over it are exactly 0
        with np.errstate(over="ignore") if hi > _CUBE_MAX else contextlib.nullcontext():
            out = direct(flat, s, c)
        if us2 is not None:
            out[small] = _polyval(us2, coeffs)
        results.append(float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape))
    return results


def q_kernel(u):
    """Oscillatory kernel Q; accepts scalars or arrays, u >= 0.

    Q(0) = 2/3; Q(n pi) = (-1)^n / (n pi)^2.
    """
    return _spliced(u, _Q)[0]


@dataclass(frozen=True)
class SpectralSample:
    """One spectral-density evaluation: value, truncation-error estimate, cutoff."""

    omega: float
    value: float
    err: float
    terms: int

    def __post_init__(self):
        if self.err < 0.0 or self.terms < 0:
            raise ValueError("error estimate and term count must be nonnegative")


def _check_omegas(omegas: np.ndarray) -> None:
    # a nan propagates into the minimum and fails the check
    if omegas.size and not (omegas.min() > 0.0 and omegas.max() <= _MAX_OMEGA):
        raise ValueError(f"frequencies must be positive and at most {_MAX_OMEGA:g}")


class _Pointwise:
    """The density at one frequency omega, for ``_image_sum``: kernels at omega D, prefactor omega^3 / 4 pi^2."""

    def __init__(self, omega: float):
        self.omega, self.q0 = omega, _TWO_THIRDS  # q0 = Q(0)
        self.pref = (omega * omega * omega) / _FOUR_PI_SQ

    def kernels(self, d, count=2):
        """Q, then W unless count is 1, at omega d."""
        u = self.omega * d
        return [q_kernel(u)] if count == 1 else _spliced(u, _Q, _W)


class _SmearedLO:
    """A Gaussian LO's smear of the image terms, for ``_image_sum``: the density smeared by k(omega)^2.

    For k^2 = A^2 exp(-(omega - omega_lo)^2 / width^2), c = omega_lo + i width^2 D/2
    and P2 = c^2 + width^2/2, the Gaussian integrates each image term exactly:
    per unit A^2 width sqrt(pi) (the prefactor carries it), omega^3 K(omega D)
    with K = Q (kappa = 1) or W (kappa = 3) smears to

        Kbar(D) = e^{-width^2 D^2/4} [Im(e^{i omega_lo D} P2)/D
                  + kappa Re(e^{i omega_lo D} c)/D^2 - kappa sin(omega_lo D)/D^3],

    or below the splice to sum_j c_j M_{2j+3} D^{2j}: K's Taylor coefficients
    times the Gaussian moments M.  At D (omega_lo + 6 width) = SERIES_THRESHOLD
    the direct Wbar would lose 1e-12 of itself, so the splice sits at 1.

    The Gaussian factor makes the image sum converge: ``image_terms`` sizes
    it from ``tail_bound``, so a smear needs no cutoff of its own.
    """

    def __init__(self, omega_lo: float, width: float, weight: float):
        self.omega_lo, self.width, self.half_w2, self.top = omega_lo, width, 0.5 * width * width, omega_lo + 6.0 * width
        self.reach = 2.0 * math.sqrt(_EXP_UNDERFLOW) / width  # e^{-(width D)^2/4} is 0.0 beyond
        self.pref = weight / _FOUR_PI_SQ
        moments = [1.0, omega_lo]  # M_m = omega_lo M_{m-1} + (m - 1) (width^2/2) M_{m-2}
        for m in range(2, 2 * _SERIES_TERMS + 2):
            moments.append(omega_lo * moments[-1] + (m - 1) * self.half_w2 * moments[-2])
        if not math.isfinite(moments[-1]):  # about omega_lo^21: overflows above omega_lo ~ 1e14
            raise ValueError(f"LO frequency {omega_lo!r} is too large: the Gaussian moments of its smear overflow")
        self.series = [coeffs * moments[3::2] for coeffs in (_Q[0], _W[0])]
        self.q0 = self.series[0][0]  # Qbar(0) = (2/3) M3, as the series gives it

    def tail_bound(self, n: int, L: float) -> float:
        """Bound on the summed image terms of index |m| > n, per unit prefactor (inf while w n L < sqrt 2).

        With |c| <= omega_lo + w^2 D/2 and |P2| <= |c|^2 + w^2/2, and y^2 <= D^2
        for the y^2 Wbar/D^2 terms, each image contributes at most

            f(D) = e^{-w^2 D^2/4} [(2 omega_lo^2 + 3 w^2)/D + w^4 D/2 + 4 omega_lo/D^2 + 4/D^3],

        which decreases for w D >= sqrt 2.  Index m holds four images (two
        translated at m L, the reflected ones at |2x -+ m L| with 0 <= 2x <= L),
        all at D >= (m - 1) L, so m = n + 1 + k adds at most
        4 f(D_n + k L) with D_n = n L.  Since (D_n + k L)^2 >= D_n^2 + 2 k D_n L,
        the Gaussian there is at most e^{-w^2 D_n^2/4} r^k with
        r = e^{-w^2 D_n L/2}, and the sum over k is geometric.
        """
        w2, d = 2.0 * self.half_w2, n * L
        if w2 * d * d < 2.0:
            return math.inf
        r = math.exp(-0.5 * w2 * d * L)
        s = -1.0 / math.expm1(-0.5 * w2 * d * L)  # 1/(1 - r)
        w0 = self.omega_lo
        poly = (2.0 * w0 * w0 + 3.0 * w2) / d + 4.0 * w0 / (d * d) + 4.0 / (d * d * d)
        return 4.0 * math.exp(-0.25 * w2 * d * d) * s * (poly + 0.5 * w2 * w2 * (d + L * r * s))

    def image_terms(self, L: float) -> int:
        """Smallest N whose tail bound is below rounding of the scale A^2 w sqrt(pi) sigma_vac(omega_lo).

        Per unit prefactor that scale is (2/3) omega_lo^3.  The bound is
        nonincreasing in N wherever it is finite, so bisection finds the
        smallest N once doubling from its estimate 12/(w L), a cost of O(1/w)
        image terms, brackets it: between the last N whose bound failed, or 0
        (whose bound is inf) if the estimate held, and the first N whose bound
        holds.  Where the estimate held, the bisection's midpoints are the
        halvings of the estimate until one fails.  An N above MAX_IMAGE_TERMS is refused.
        """
        tol = _ROUNDING * _TWO_THIRDS * self.omega_lo ** 3
        lo, hi = 0, max(1, math.ceil(12.0 / max(self.width * L, 12.0 / MAX_IMAGE_TERMS)))  # capped, also where w L is 0
        while self.tail_bound(hi, L) > tol:  # up by doubling until the bound holds at hi
            if hi >= MAX_IMAGE_TERMS:
                raise ValueError(f"the LO is too narrow: its smear would sum more than {MAX_IMAGE_TERMS} "
                                 "image pairs (about 6/(width a))")
            lo, hi = hi, min(2 * hi, MAX_IMAGE_TERMS)
        while hi - lo > 1:  # the bound fails at lo and holds at hi
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.tail_bound(mid, L) > tol else (lo, mid)
        return hi

    def kernels(self, d, count=2):
        """Qbar, then Wbar unless count is 1, at the distances d >= 0, inf included.

        Both are exactly 0 beyond ``reach``, where the Gaussian factor underflows.
        """
        small = d * self.top < 1.0
        far = d > self.reach
        # the series overwrites the small entries; at the far ones the bracket at d
        # may be inf or nan, and the zero Gaussian times the bracket at 1 is exactly 0
        dd = np.where(small | far, 1.0, d)
        w0, b = self.omega_lo, self.half_w2 * dd  # b = Im c
        phase = w0 * dd
        s, c = np.sin(phase), np.cos(phase)
        re1 = w0 * c - b * s  # Re(e^{i omega_lo D} c)
        im2 = w0 * (w0 * s + b * c) + b * re1 + self.half_w2 * s  # Im(e^{i omega_lo D} P2)
        gauss = np.exp(-0.5 * b * dd)
        gauss[far] = 0.0
        out = []
        for kappa, coeffs in zip((1.0, 3.0)[:count], self.series):
            k = gauss * (im2 + kappa * (re1 - s / dd) / dd) / dd
            if small.any():
                k[small] = _polyval(d[small] ** 2, coeffs)
            out.append(k)
        return out


def _image_sum(kernels, x: float, y2: np.ndarray, n: int, L: float):
    """Density between (x, 0) and (x, y) at one or more distinct, ascending y^2, summed to |n| = N: (values, errs).

    ``kernels`` is a ``_Pointwise`` frequency or a ``_SmearedLO``: its image
    terms K(D) for K = Q and W, K(0) = ``q0`` and the prefactor ``pref``,
    which scales both results; errs is the magnitude of the last +-n pair.
    Off the axis the terms are Q(D) and W(D)/D^2 at D^2 = b^2 + y^2 over the
    squared bases b^2: (n L)^2, (2x - n L)^2 and (2x + n L)^2, and for n = 0
    the bases 0 and (2x)^2.  A zero y^2 (the first, as they ascend; a
    subnormal y whose square underflows included) takes the coincident form:
    Q only, at n L, |2x - n L|, 2x + n L and 2x, with Q(0) = ``q0``.  Each
    family is a slice of one kernel array.  The images go in blocks of
    ascending n = 1..N, whose three families and the two n = 0 terms fit
    _WORKING_SET (one empty block at N = 0, the n = 0 terms with the last);
    each block's +-n pairs are added by one cumsum seeded with the running
    total and the n = 0 term comes last, so a sum in many blocks equals one
    in a single block, bit for bit.  The rows of y^2 go in chunks whose
    kernel arrays stay within _WORKING_SET, one row each when the images
    span blocks, so memory is bounded in N.  Every y^2 is finite: a
    pointwise density refuses an offset whose square overflows, and a smear
    returns 0 for an offset beyond the LO's reach before it sums.
    """
    x2 = 2.0 * x
    on_axis = int(y2[0] == 0.0)
    values, errs = np.empty(y2.size), np.zeros(y2.size)  # values holds the running total until the last block
    step = max(1, (_WORKING_SET - 2) // 3)
    per_chunk = max(1, _WORKING_SET // (3 * min(n, step) + 2))
    chunks = [0] * on_axis + [slice(r, r + per_chunk) for r in range(on_axis, y2.size, per_chunk)]
    for lo in range(0, max(n, 1), step):
        hi = min(n, lo + step)
        nL, last_block, m = np.arange(lo + 1, hi + 1, dtype=float) * L, hi == n, hi - lo
        if on_axis:  # n L, |2x - n L| and 2x + n L, then (last block) 2x
            distances = np.concatenate([nL, np.abs(x2 - nL), x2 + nL, [x2] if last_block else []])
        if on_axis < y2.size:
            # (n L)^2, (2x - n L)^2 and (2x + n L)^2, then (last block) 0 and (2x)^2, a Python float power as
            # in the pinned baselines: numpy's x*x differs from it in the last bit for about 1 in 1000 x
            bases = np.concatenate([nL ** 2, (x2 - nL) ** 2, (x2 + nL) ** 2, [0.0, x2 ** 2] if last_block else []])
        for rows in chunks:
            if on_axis and rows == 0:  # the coincident form
                (q,), w = kernels.kernels(distances, 1), None
            else:
                dist2 = bases[:, None] + y2[rows]
                q, w = kernels.kernels(np.sqrt(dist2))
                w /= dist2  # D^2 >= y^2 > 0 for every image, so the W/D^2 terms are regular
            # ((qa - q_b-) + (qa - q_b+)) + y^2 ((w_b- - wa) + (w_b+ - wa)), over (images, rows)
            qa, pairs, q_bn = q[:m], q[m:2 * m], q[2 * m:3 * m]
            np.subtract(qa, pairs, out=pairs)
            np.subtract(qa, q_bn, out=q_bn)
            pairs += q_bn
            if w is not None:
                wa, w_pairs, w_bn = w[:m], w[m:2 * m], w[2 * m:3 * m]
                w_pairs -= wa
                w_bn -= wa
                w_pairs += w_bn
                w_pairs *= y2[rows]
                pairs += w_pairs
            if m:
                errs[rows] = kernels.pref * abs(pairs[-1])
                if lo:  # a block after the first takes the running total
                    pairs[0] += values[rows]
                values[rows] = pairs.cumsum(axis=0)[-1]
            if last_block:
                if w is None:
                    term0 = kernels.q0 - q[3 * m]
                else:
                    term0 = (q[3 * m] - q[3 * m + 1]) + y2[rows] * (w[3 * m + 1] - w[3 * m])
                values[rows] = kernels.pref * (values[rows] + term0 if m else term0)
    return values, errs


def _sigma_diag_values(omegas, xs: Sequence[float], geometry: CavityGeometry, policy: TruncationPolicy):
    """Vectorized coincident-point density: (values, errs), shape (xs, omegas).

    ``_sigma_yy_values`` at the points (x, 0).  Kept for its callers; it goes
    with the truncated pointwise engine.
    """
    return _sigma_yy_values(omegas, [FieldPoint(x=x) for x in xs], geometry, policy)


def _sigma_yy_values(omegas, points: Sequence[FieldPoint], geometry: CavityGeometry, policy: TruncationPolicy):
    """Vectorized two-point density: (values, errs), shape (points, omegas).

    The points are taken one plate distance x at a time.  The density depends
    on y only through y^2: each distinct y^2 of an x is evaluated once, in one
    ``_image_sum`` per frequency, and its values are copied to every point
    that shares it.  Element for element the arithmetic is that of a single
    point, so a grid evaluated at once equals its points evaluated one by
    one, bit for bit.  An offset whose square overflows is refused.
    """
    _check_omegas(omegas)
    y2 = np.array([p.y * p.y for p in points], dtype=float)
    if np.isinf(y2).any():
        y = points[int(np.argmax(np.isinf(y2)))].y
        raise ValueError(f"transverse offset y = {y!r}: its square y^2 overflows")
    x_of = np.array([p.x for p in points], dtype=float)
    values, errs = np.empty((2, len(points), omegas.size))
    for x in dict.fromkeys(x_of.tolist()):
        at = np.flatnonzero(x_of == x)
        y2_x, rows = np.unique(y2[at], return_inverse=True) if at.size > 1 else (y2[at], slice(None))
        for j, omega in enumerate(omegas.tolist()):
            v, e = _image_sum(_Pointwise(omega), x, y2_x, policy.n_terms, geometry.L)
            values[at, j], errs[at, j] = v[rows], e[rows]
    return values, errs


def sigma_yy(
    omega: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> SpectralSample:
    """Cavity spectral density between (x, 0) and (x, y) at frequency omega.

    One ``_image_sum`` at y^2.  The y^2 W/A^2 combination is evaluated as a
    single expression; its only singular configuration (translated distance
    0) occurs at n = 0, y = 0, where the whole combination has the analytic
    limit 0 and the sum takes the coincident-point form, as it does for a
    subnormal y whose square underflows.  ``err`` is the magnitude of the
    last symmetric pair's contribution -- a practical truncation indicator,
    not a rigorous bound.
    """
    validate_point(point, geometry)
    values, errs = _sigma_yy_values(np.asarray([omega], dtype=float), [point], geometry, policy)
    return SpectralSample(omega=omega, value=float(values[0, 0]), err=float(errs[0, 0]), terms=policy.n_terms)


def sigma_yy_diag(
    omega: float,
    x: float,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> SpectralSample:
    """Coincident-point cavity density: (omega^3/4 pi^2) sum_n [Q(omega n L) - Q(omega |2x - n L|)].

    :func:`sigma_yy` at y = 0.  The n = 0 term is 2/3 - Q(2 omega x).  Vanishes
    identically at x = 0 (every translated term cancels its reflected partner exactly).
    """
    return sigma_yy(omega, FieldPoint(x=x, y=0.0), geometry, policy)


def sigma_vacuum(omega, y=0.0):
    """Free-space spectral density at transverse offset y.

    (omega^3 / 2 pi^2) [sin(omega y)/(omega y)^3 - cos(omega y)/(omega y)^2],
    evaluated through a series splice so the y -> 0 limit omega^3/6 pi^2 comes
    out without cancellation.  Accepts scalar or array omega and y, which
    broadcast against each other (a column of y against a row of omega gives
    a grid); each element is the value of its own scalar call.  A float when
    both are scalars.
    """
    arr = np.asarray(omega, dtype=float)
    _check_omegas(np.atleast_1d(arr))
    u = arr * np.abs(y)
    bracket = _spliced(u, _VAC)[0]
    value = (arr * arr * arr) / _TWO_PI_SQ * bracket
    return float(value) if np.ndim(value) == 0 else value


def sigma_vacuum_from_kernels(omega, y):
    """Vacuum density via the n = 0 translated term of the cavity sum; omega and y broadcast as in sigma_vacuum.

    That term is Q(omega A0) - (y^2/A0^2) W(omega A0) with A0 = |y|, so the
    ratio is exactly 1, times omega^3/4 pi^2.  At y = 0 the series gives
    Q(0) - W(0) = 2/3 - 0.0, the combination's limit, exactly.  Agreement with
    :func:`sigma_vacuum` is the embedding check between the cavity sum and
    the free-space closed form.
    """
    arr = np.asarray(omega, dtype=float)
    _check_omegas(np.atleast_1d(arr))
    pref = (arr * arr * arr) / _FOUR_PI_SQ
    q, w = _spliced(arr * np.abs(y), _Q, _W)
    value = pref * (q - w)
    return float(value) if np.ndim(value) == 0 else value


def _mode_count(reach: float, geometry: CavityGeometry) -> int:
    """Number of modes n = 1 .. floor(reach a/pi) + 1; more than MAX_IMAGE_TERMS, or an infinite reach, are refused."""
    scaled = reach * geometry.a / math.pi
    count = int(scaled) + 1 if math.isfinite(scaled) else math.inf
    if count > MAX_IMAGE_TERMS:
        raise ValueError(f"{count:.3g} guided modes exceed the {MAX_IMAGE_TERMS} one mode sum may include")
    return count


def _sine_squares(folded: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sin^2(q_n x) at the folded x and the wave numbers q, shape (xs, modes); a block of q gives the same bits."""
    s = np.sin(np.multiply.outer(folded, q))
    return s * s


def _mode_sum(reach: float, xs, columns: int, geometry: CavityGeometry, terms) -> np.ndarray:
    """sum_n terms(s2, q, n) over the modes n = 1 .. floor(reach a/pi) + 1 at each x: the loop of every mode sum.

    The xs, a float or a sequence of them, are checked first, then folded to
    min(x, a - x), so both plates give exact zeros and the mirror a - x the
    same sines up to the rounding of a - x; more than MAX_IMAGE_TERMS modes
    are refused before any sine.  The modes go in ascending blocks whose
    (x, mode, column) terms fit _WORKING_SET.  A block forms q_n = n pi/a and
    s2 = sin^2(q_n x), shape (xs, modes) (``_sine_squares``), and
    ``terms(s2, q, n)`` gives its terms, shape (xs, modes, columns).  The
    running total is added to a block's first mode and a cumsum along the
    modes adds the rest, so each (x, column) adds its modes one by one in
    ascending n, whatever the blocks, and an x gives the bits of its own
    call.  Returns the sums, shape (len(xs), columns).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float)).tolist()
    for x in xs:
        validate_point(FieldPoint(x=x, y=0.0), geometry)
    folded = np.array([min(x, geometry.a - x) for x in xs])
    count = _mode_count(reach, geometry)
    total = np.zeros((folded.size, columns))
    step = max(1, _WORKING_SET // max(1, folded.size * columns))
    for lo in range(0, count, step):
        n = np.arange(lo + 1, min(count, lo + step) + 1)
        q = n * math.pi / geometry.a
        block = terms(_sine_squares(folded, q), q, n)
        block[:, 0] += total
        total = block.cumsum(axis=1)[:, -1]
    return total


def sigma_modes_diag(omega, x, geometry: CavityGeometry):
    """Exact coincident-point density from the guided modes: sigma_yy_diag at N = infinity.

    The image sum is the Poisson dual of the mode expansion, and at y = 0 it
    sums to the finite

        sigma(omega; x, 0) = (1/4 pi a) sum_n sin^2(q_n x) (omega^2 + q_n^2),  q_n = n pi/a,

    over the modes with q_n <= omega.  A mode exactly at its threshold
    (q_n == omega) has weight 1/2, the image sum's midpoint at the jump.  The
    density is 0 below the first cutoff pi/a and on the plates, and symmetric
    under x -> a - x.  Accepts scalar or array omega, and a scalar x or a
    sequence of them, which gives shape (len(x),) + omega's shape.  All x
    share the modes up to the largest omega (``_mode_sum``), and each
    (x, omega) adds its own terms in ascending n, so a row equals its x's own
    call bit for bit.
    """
    arr = np.asarray(omega, dtype=float)
    w = np.atleast_1d(arr).ravel()
    _check_omegas(w)

    def terms(s2, q, n):
        q = q[:, None]
        weight = np.where(q < w, 1.0, np.where(q == w, 0.5, 0.0))
        return weight * s2[:, :, None] * (w * w + q * q)

    values = _mode_sum(float(np.max(w, initial=0.0)), x, w.size, geometry, terms)
    values /= 4.0 * math.pi * geometry.a
    if np.ndim(x) == 0:
        return float(values[0, 0]) if arr.ndim == 0 else values[0].reshape(arr.shape)
    return values.reshape(values.shape[:1] + arr.shape)


#: Modes of R(1,1) reach z = (q_n - omega_lo)/width = 27.3: above it exp(-z^2)
#: and math.erfc(z) are both exactly 0.0 (exp(-z^2) underflows above |z| = 27.298).
_ERFC_REACH = 27.3
#: sqrt(pi), and the part of pi below math.pi, both correctly rounded.
_SQRT_PI = 1.772453850905516
_PI_LO = 1.2246467991473532e-16


def smeared_modes_diag(omega_lo: float, width: float, x, geometry: CavityGeometry):
    """LO-smeared coincident-point density from the guided modes, per unit A^2: R(1,1)/A^2 in closed form.

    For k^2 = A^2 exp(-(omega - omega_lo)^2/width^2), each mode of
    :func:`sigma_modes_diag` integrates from its threshold q_n = n pi/a on.  With
    c = q_n - omega_lo and the Gaussian moments

        M0 = (width sqrt(pi)/2) erfc(c/width),  M1 = (width^2/2) e^{-c^2/width^2},
        M2 = (width^2/2) (c e^{-c^2/width^2} + M0),

    the smear is

        R(1,1)/A^2 = (1/4 pi a) sum_n sin^2(q_n x) [M2 + 2 omega_lo M1 + (omega_lo^2 + q_n^2) M0],

    summed as (width/8 pi a) sum_n sin^2(q_n x) [width (q_n + omega_lo)
    e^{-c^2/width^2} + sqrt(pi) (q_n^2 + omega_lo^2 + width^2/2) erfc(c/width)].
    The modes reach omega_lo + 27.3 width: beyond it c/width > 27.3, where
    e^{-c^2/width^2} and erfc(c/width) are both 0.0 in floats, so every later
    mode adds exactly 0.0 and the sum is the whole sum.  The cost is
    O((omega_lo + 27.3 width) a/pi) modes, each with one exp and one
    ``math.erfc`` (the standard library's, as numpy has none).  c carries the
    part of n pi/a below the float pi.  The plates give exact zeros
    (``_mode_sum`` folds x), and more than MAX_IMAGE_TERMS modes (omega_lo a
    above about 1.39e6 at ``bhd``'s default width omega_lo/20) are refused.
    Takes a scalar x, which gives a float, or a sequence of them, which gives
    an array; each element equals its x's own call bit for bit (``_mode_sum``).

    This is the image smear of ``bhd.smeared_density`` at y = 0, up to the
    Gaussian's weight below omega = 0, where the image form continues the
    density oddly: at most e^{-omega_lo^2/width^2} of the value, e^{-100}
    within the LO kernel's width <= omega_lo/10.
    """
    if not 0.0 < omega_lo <= _MAX_OMEGA:  # _check_omegas, for one float
        raise ValueError(f"frequencies must be positive and at most {_MAX_OMEGA:g}")
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError("LO width must be positive and finite")

    def terms(s2, q, n):
        c = (q - omega_lo) + n * (_PI_LO / geometry.a)
        with np.errstate(over="ignore"):  # a width below about 1e-308 sends c/width to +-inf, where both are constants
            z = c / width
            gauss = np.exp(-(z * z))
        erfc = np.fromiter(map(math.erfc, z.tolist()), float, z.size)
        bracket = width * (q + omega_lo) * gauss
        bracket += _SQRT_PI * (q * q + omega_lo * omega_lo + 0.5 * width * width) * erfc
        return (s2 * bracket)[:, :, None]

    values = _mode_sum(omega_lo + _ERFC_REACH * width, x, 1, geometry, terms)[:, 0]
    values = values * width / (8.0 * math.pi * geometry.a)
    return float(values[0]) if np.ndim(x) == 0 else values


#: Most trapezoid nodes one Bessel argument r may take: r needs floor(r) + 100,
#: so r = kappa |y| of 130 973 and above is refused.
MAX_BESSEL_NODES = 2**17
_BESSEL_MARGIN = 100


def _bessel_j0_j2(r: np.ndarray):
    """J_0(r) and J_2(r) at distinct r >= 0, by the periodic trapezoid rule on DLMF 10.9.2.

    J_n(r) = (i^-n/pi) integral_0^pi cos(r cos t) cos(n t) dt for even n.
    The integrand is smooth and 2 pi-periodic, so the trapezoid rule converges
    geometrically once its node count exceeds r (Trefethen & Weideman, SIAM
    Rev. 56, 2014): with 2M nodes its error is of the order of J_2M(r), below
    rounding for M = floor(r) + 100.  By the symmetry t -> 2 pi - t the 2M
    nodes take M values, the midpoints t_k = pi (k + 1/2)/M of [0, pi].  The
    nodes of all r lie in one flat array, in blocks of whole r within
    _WORKING_SET, and each r's sums are one segment of it, so an r gives
    the same bits in any call.  J_0(0) = 1 and J_2(0) = 0 exactly.
    """
    counts = np.floor(r).astype(np.intp) + _BESSEL_MARGIN
    j0, j2 = np.ones(r.size), np.zeros(r.size)
    ends = np.cumsum(counts)
    lo = 0
    while lo < r.size:
        # the r in [lo, hi) fill one block; an r that needs more nodes than a
        # block holds (at most MAX_BESSEL_NODES in sigma_modes) takes one of its own
        hi = max(int(np.searchsorted(ends, ends[lo] - counts[lo] + _WORKING_SET, side="right")), lo + 1)
        m = counts[lo:hi]
        starts = np.cumsum(m) - m
        per_node = np.repeat(m, m)
        t = (np.arange(starts[-1] + m[-1]) - np.repeat(starts, m) + 0.5) * (math.pi / per_node)
        c = np.cos(t)
        terms = np.cos(np.repeat(r[lo:hi], m) * c)
        j0[lo:hi] = np.add.reduceat(terms, starts) / m
        j2[lo:hi] = -np.add.reduceat(terms * (2.0 * c * c - 1.0), starts) / m  # cos 2t
        lo = hi
    zero = r == 0.0
    j0[zero], j2[zero] = 1.0, 0.0
    return j0, j2


def sigma_modes(omega: float, xs: Sequence[float], ys: Sequence[float], geometry: CavityGeometry) -> np.ndarray:
    """Exact two-point density from the guided modes, over the grid xs x ys: sigma_yy at N = infinity.

    Between (x, 0) and (x, y) the image sum adds up to the finite

        sigma = sigma_vacuum(omega, 0) (3 pi/2 omega a) sum_n w_n sin^2(q_n x)
                [(J_0 + J_2)(kappa_n |y|) + (q_n/omega)^2 (J_0 - J_2)(kappa_n |y|)],

    q_n = n pi/a, kappa_n = sqrt(omega^2 - q_n^2), with the weights w_n of
    :func:`sigma_modes_diag` (1 below omega, 1/2 at threshold, where kappa_n = 0
    and the mode does not decay in y).  At y = 0 it is sigma_modes_diag.  J_0
    and J_2 are evaluated once per distinct kappa_n |y| of a block of modes
    (``_bessel_j0_j2``); an argument that would need more than
    MAX_BESSEL_NODES nodes is refused with a ValueError before any block.
    Returns an array of shape (len(xs), len(ys)).
    """
    _check_omegas(np.array([omega], dtype=float))
    y = np.abs(np.asarray(ys, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError("transverse offsets must be finite")
    q1 = math.pi / geometry.a
    if q1 <= omega and y.size:  # mode 1 has the largest kappa, so its largest argument is the largest of all
        r_max = np.sqrt((omega - q1) * (omega + q1)) * y.max()
        if not np.floor(r_max) + _BESSEL_MARGIN <= MAX_BESSEL_NODES:
            raise ValueError(f"kappa |y| = {r_max:g} at omega = {omega:g}: J_0 and J_2 there would take more "
                             f"than {MAX_BESSEL_NODES} trapezoid nodes (every |y| up to "
                             f"{(MAX_BESSEL_NODES - _BESSEL_MARGIN) / omega:.3g} a fits)")

    def terms(s2, q, n):
        weight = np.where(q < omega, 1.0, np.where(q == omega, 0.5, 0.0))
        q = np.minimum(q, omega)  # the mode above omega that _mode_sum adds: kappa = 0 and weight 0, so +0.0
        kappa = np.sqrt((omega - q) * (omega + q))
        r, index = np.unique(np.multiply.outer(kappa, y), return_inverse=True)
        j0, j2 = _bessel_j0_j2(r)
        j0, j2 = j0[index].reshape(q.size, y.size), j2[index].reshape(q.size, y.size)
        bracket = (j0 + j2) + ((q / omega) ** 2)[:, None] * (j0 - j2)
        return (s2 * weight)[:, :, None] * bracket

    return _mode_sum(omega, xs, y.size, geometry, terms) * (omega * omega / (4.0 * math.pi * geometry.a))


#: Modes of a Laplace sum reach eps q_n = 60, where e^{-eps q_n} (eps q_n)^2 is 3e-23.
_LAPLACE_REACH = 60.0


def laplace_modes_diag(eps, x, geometry: CavityGeometry):
    """Laplace transform of :func:`sigma_modes_diag`, integral_0^oo sigma e^{-eps omega} d omega, exactly.

    Each mode contributes from its threshold q on:
    integral_q^oo (omega^2 + q^2) e^{-eps omega} d omega = e^{-eps q} (2 q^2/eps + 2 q/eps^2 + 2/eps^3),
    so the transform is (1/4 pi a) sum_n sin^2(q_n x) e^{-eps q_n} (...), summed
    while Re(eps) q_n <= 60.  The time-domain correlation at complex time
    s = -i eps is the same number (the Laplace sum rule):
    ``imagesum.two_point_yy_lattice`` at z^2 = -eps^2, whose n = 0 image alone
    gives 1/(pi^2 eps^4).  eps is a real or a complex number with Re(eps) > 0;
    a complex one gives complex values, and a real one the same bits as when
    only a real eps was taken.  Takes a scalar x, which gives a scalar, or a
    sequence of them, which gives an array; each row equals its x's own call
    bit for bit (``_mode_sum``).  Since |e^{-eps omega}| = e^{-Re(eps) omega}
    and sigma >= 0, the transform is at most its value at Re(eps) in size.  So
    it is exactly 0, summed over one mode of zeros, where Re(eps) pi/a exceeds
    745.2 (every e^{-eps q_n} is 0.0) or Re(eps) exceeds _CUBE_MAX (the
    transform, of order 1/(pi^2 Re(eps)^4), lies below 1e-400), whatever the
    plate separation; and it is exactly 0 at a point on a plate, whose sines
    are 0 where 2/eps^3 may be inf.  A transform beyond the largest float, at
    |eps| below about 1e-77 a, is refused.
    """
    if np.iscomplexobj(eps):
        eps = complex(eps)
        if not (eps.real > 0.0 and cmath.isfinite(eps)):
            raise ValueError("the Laplace variable must be finite with a positive real part")
    elif not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("the Laplace variable must be positive and finite")
    zero = eps.real > _CUBE_MAX or eps.real * (math.pi / geometry.a) > _EXP_UNDERFLOW

    def terms(s2, q, n):
        if zero:
            return np.zeros(s2.shape + (1,), dtype=np.result_type(eps, 0.0))
        if isinstance(eps, complex):  # in w = 1/eps, which goes to 0 where eps^3 overflows at a large Im(eps)
            w = 1.0 / eps
            moments = 2.0 * w * (q * q + w * (q + w))
        else:  # a float64 eps^3 that underflows to 0.0 divides to inf, which is refused below
            moments = 2.0 * q * q / eps + 2.0 * q / eps ** 2 + 2.0 / np.float64(eps ** 3)
        return (s2 * np.exp(-eps * q) * moments)[:, :, None]

    reach = 0.0 if zero else _LAPLACE_REACH / eps.real
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = _mode_sum(reach, x, 1, geometry, terms)[:, 0] / (4.0 * math.pi * geometry.a)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    values[(xs == 0.0) | (xs == geometry.a)] = 0.0
    if not np.isfinite(values).all():
        raise ValueError(f"the Laplace transform at eps = {eps!r} lies beyond the largest float")
    return values[0].item() if np.ndim(x) == 0 else values
