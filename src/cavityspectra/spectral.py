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
identities exact in floating point.  All quantities are in internal units
(c = 1), so results scale as omega^3 while every other argument appears as a
frequency-distance product.  Smeared by a Gaussian LO profile, the same sums
take each image term's exact Gaussian integral in place of omega (``_SmearedLO``).

Grids evaluate each distinct image term once.  A coincident-point call
over many x evaluates Q once per distinct image distance: the translated
distances n L do not depend on x, on a grid symmetric under x -> a - x the
reflected distance |2x - n L| at x equals 2(a - x) + (n - 1) L at a - x, and
on an evenly spaced grid the reflected families of different x overlap (the
fig4-left grid needs 83 041 distances, 20 106 of them distinct).  The
two-point density depends on y only through y^2, so points of a row that
share y^2 (a grid symmetric in y holds each value twice) are evaluated
once.  Neither changes the floating-point operations of any element: equal
distance bits give equal kernel bits, and a grid equals its points
evaluated one by one, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .imagesum import SMOOTHING_WINDOW, TruncationPolicy
from .units import CavityGeometry, FieldPoint, validate_point

#: Kernel arguments below this use the Taylor series; above, the direct form.
SERIES_THRESHOLD = 0.5
_SERIES_TERMS = 10

_FOUR_PI_SQ = 4.0 * math.pi**2
_TWO_PI_SQ = 2.0 * math.pi**2
_TWO_THIRDS = 2.0 / 3.0
#: Unit roundoff of a float: a smear sums images until its tail bound is below this share of its scale.
_ROUNDING = 2.0**-53
#: Most image pairs one smear sums (its arrays hold a few floats per image):
#: an LO narrower than about 6e-6 c/a needs more and is refused.
_MAX_SMEAR_TERMS = 2**20

#: Most elements one vectorised kernel or gather array holds: density calls
#: split their frequencies or points into blocks that stay within it.
_BLOCK_ELEMENTS = 2**17


def _series_coefficients(cos_weight: int) -> np.ndarray:
    """Taylor coefficients in u^2 of sin(u)/u + w cos(u)/u^2 - w sin(u)/u^3.

    Computed as exact rationals so each coefficient is correctly rounded;
    with ten terms the truncation error at the splice point is ~1e-26.
    """
    coeffs = []
    for m in range(_SERIES_TERMS):
        c = Fraction(1, factorial(2 * m + 1)) - Fraction(cos_weight * (2 * m + 2), factorial(2 * m + 3))
        coeffs.append(float(c if m % 2 == 0 else -c))
    return np.asarray(coeffs)


def _vacuum_coefficients() -> np.ndarray:
    """Taylor coefficients in u^2 of sin(u)/u^3 - cos(u)/u^2 (limit 1/3)."""
    coeffs = []
    for m in range(_SERIES_TERMS):
        c = Fraction(2 * m + 2, factorial(2 * m + 3))
        coeffs.append(float(c if m % 2 == 0 else -c))
    return np.asarray(coeffs)


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

    return _series_coefficients(k), direct


def _vac_direct(u, s, c):
    u2 = u * u
    out = u2 * u
    np.divide(s, out, out=out)
    np.divide(c, u2, out=u2)
    out -= u2
    return out


_Q = _q_family(1)
_W = _q_family(3)
_VAC = (_vacuum_coefficients(), _vac_direct)


def _spliced(u, *kernels):
    """Kernels at u >= 0 from one argument check, one splice and one sin/cos.

    Each kernel is (Taylor coefficients in u^2, direct form f(u, sin u, cos u));
    the direct form is evaluated over the whole array and the series then
    overwrites the entries with u < SERIES_THRESHOLD.  Returns one value per
    kernel, a float for scalar u and an array of u's shape otherwise.
    """
    arr = np.asarray(u, dtype=float)
    flat = np.atleast_1d(arr)
    if np.any(flat < 0.0) or not np.all(np.isfinite(flat)):
        raise ValueError("kernel argument must be finite and nonnegative")
    small = flat < SERIES_THRESHOLD
    us2 = None
    if small.any():  # most arrays have no small u, and polyval has a large fixed cost
        us = flat[small]
        us2 = us * us
        # the series overwrites these entries; 1 keeps the direct form free of 0/0
        flat = np.where(small, 1.0, flat)
    s, c = np.sin(flat), np.cos(flat)
    results = []
    for coeffs, direct in kernels:
        out = direct(flat, s, c)
        if us2 is not None:
            out[small] = npoly.polyval(us2, coeffs)
        results.append(float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape))
    return results


def q_kernel(u):
    """Oscillatory kernel Q; accepts scalars or arrays, u >= 0.

    Q(0) = 2/3; Q(n pi) = (-1)^n / (n pi)^2.
    """
    return _spliced(u, _Q)[0]


def w_kernel(u):
    """Oscillatory kernel W; accepts scalars or arrays, u >= 0.

    W(0) = 0 with leading term -u^2/15; W(n pi) = 3 (-1)^n / (n pi)^2.
    """
    return _spliced(u, _W)[0]


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
    if np.any(omegas <= 0.0) or not np.all(np.isfinite(omegas)):
        raise ValueError("frequencies must be positive and finite")


def _accumulate(pairs: np.ndarray, term0: np.ndarray, accelerate: bool):
    """Row-wise pairwise accumulation: pairs in ascending |n|, n = 0 last.

    Acceleration replaces the plain total with the mean of the trailing
    SMOOTHING_WINDOW symmetric partial sums.  Returns (totals, |last pair|).
    """
    if pairs.shape[-1] == 0:
        return term0.copy(), np.zeros_like(term0)
    partial = np.cumsum(pairs, axis=-1)
    if accelerate:
        k = min(SMOOTHING_WINDOW, pairs.shape[-1])
        totals = term0 + partial[..., -k:].mean(axis=-1)
    else:
        totals = partial[..., -1] + term0
    return totals, np.abs(pairs[..., -1])


class _Frequencies:
    """Pointwise frequency axis of a density: kernels at omega D, prefactor omega^3 / 4 pi^2."""

    def __init__(self, omegas):
        self.omegas, self.size, self.q0 = omegas, omegas.size, _TWO_THIRDS  # q0 = Q(0)
        self.pref = (omegas * omegas * omegas) / _FOUR_PI_SQ

    def __getitem__(self, block):
        return _Frequencies(self.omegas[block])

    def kernels(self, distances, count=2):
        """Q, then W unless count is 1, at omega D: the frequencies take the axis -2 of distances."""
        u = self.omegas[:, None] * distances
        return [q_kernel(u)] if count == 1 else _spliced(u, _Q, _W)


class _SmearedLO:
    """The LO in place of the frequency axis: one row, the density smeared by k(omega)^2.

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
        self.omega_lo, self.half_w2, self.top = omega_lo, 0.5 * width * width, omega_lo + 6.0 * width
        self.size, self.pref = 1, np.array([weight / _FOUR_PI_SQ])
        moments = [1.0, omega_lo]  # M_m = omega_lo M_{m-1} + (m - 1) (width^2/2) M_{m-2}
        for m in range(2, 2 * _SERIES_TERMS + 2):
            moments.append(omega_lo * moments[-1] + (m - 1) * self.half_w2 * moments[-2])
        self.series = [coeffs * moments[3::2] for coeffs in (_Q[0], _W[0])]
        self.q0 = self.series[0][0]  # Qbar(0) = (2/3) M3, as the series gives it

    def __getitem__(self, block):
        return self

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
        smallest N; it is about 12/(w L), a cost of O(1/w) image terms.  An N
        above _MAX_SMEAR_TERMS is refused with a ValueError.
        """
        tol = _ROUNDING * _TWO_THIRDS * self.omega_lo ** 3
        lo, hi = 0, 1  # the bound fails at lo and holds at hi once the doubling ends
        while self.tail_bound(hi, L) > tol:
            if hi >= _MAX_SMEAR_TERMS:
                raise ValueError(f"the LO is too narrow: its smear would sum more than {_MAX_SMEAR_TERMS} "
                                 "image pairs (about 6/(width a))")
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.tail_bound(mid, L) > tol else (lo, mid)
        return hi

    def kernels(self, d, count=2):
        """Qbar, then Wbar unless count is 1, at the distances d >= 0."""
        small = d * self.top < 1.0
        dd = np.where(small, 1.0, d)  # the series overwrites these entries
        w0, b = self.omega_lo, self.half_w2 * dd  # b = Im c
        s, c = np.sin(w0 * dd), np.cos(w0 * dd)
        re1 = w0 * c - b * s  # Re(e^{i omega_lo D} c)
        im2 = w0 * (w0 * s + b * c) + b * re1 + self.half_w2 * s  # Im(e^{i omega_lo D} P2)
        gauss = np.exp(-0.5 * b * dd)
        out = []
        for kappa, coeffs in zip((1.0, 3.0)[:count], self.series):
            k = gauss * (im2 + kappa * (re1 - s / dd) / dd) / dd
            if small.any():
                k[small] = npoly.polyval(d[small] ** 2, coeffs)
            out.append(k)
        return out


def _axis(omegas):
    if not isinstance(omegas, np.ndarray):
        return omegas  # a _SmearedLO, or a block of _Frequencies
    _check_omegas(omegas)
    return _Frequencies(omegas)


def _sigma_diag_values(omegas, xs: Sequence[float], geometry: CavityGeometry, policy: TruncationPolicy):
    """Vectorized coincident-point density: (values, errs), shape (xs, omegas).

    Q is evaluated once per distinct image distance of a pool of x: the
    translated n L, and per x the reflected |2x - n L| and 2x + n L and the
    n = 0 term 2x.  On symmetric or evenly spaced grids many of them coincide
    (see the module docstring).  The families are gathered back from the
    distinct values and accumulated as for a single x.  Pools of x and blocks
    of frequencies keep every kernel and gather array within _BLOCK_ELEMENTS
    (one x per pool when its 3 n + 1 distances alone exceed it).
    """
    axis = _axis(omegas)
    n = policy.n_terms
    nL = np.arange(1, n + 1, dtype=float) * geometry.L
    values, errs = np.empty((2, len(xs), axis.size))
    pool = max(1, _BLOCK_ELEMENTS // (3 * n + 1))
    for start in range(0, len(xs), pool):
        x2 = 2.0 * np.asarray(xs[start:start + pool], dtype=float)[:, None]
        # per x: the n terms of |2x - n L|, the n of 2x + n L, then 2x
        distances = np.concatenate([nL, np.concatenate([np.abs(x2 - nL), x2 + nL, x2], axis=1).ravel()])
        if x2.size > 1:
            distances, index = np.unique(distances, return_inverse=True)
        else:
            index = np.arange(distances.size)
        translated, index = index[:n], index[n:].reshape(x2.size, 2 * n + 1)
        rows = max(1, _BLOCK_ELEMENTS // distances.size)
        for lo in range(0, axis.size, rows):
            block = slice(lo, lo + rows)
            rows_axis = axis[block]
            q = rows_axis.kernels(distances[None], 1)[0]
            # np.take copies into C-ordered (frequencies, x, images) arrays: only in
            # that layout does _accumulate's accelerated mean round as for one x
            qa = np.take(q, translated, axis=1)[:, None, :]
            # (qa - Q(omega B-)) + (qa - Q(omega B+)), each reflected term folded in as it is gathered
            pairs = np.take(q, index[:, :n], axis=1)
            np.subtract(qa, pairs, out=pairs)
            reflected = np.take(q, index[:, n:2 * n], axis=1)
            np.subtract(qa, reflected, out=reflected)
            pairs += reflected
            term0 = rows_axis.q0 - np.take(q, index[:, 2 * n], axis=1)
            totals, last = _accumulate(pairs, term0, policy.accelerate)
            scale = rows_axis.pref[:, None]
            values[start:start + pool, block], errs[start:start + pool, block] = (scale * totals).T, (scale * last).T
    return values, errs


def _sigma_yy_values(omegas, points: Sequence[FieldPoint], geometry: CavityGeometry, policy: TruncationPolicy):
    """Vectorized two-point density for points of one x: (values, errs), shape (points, omegas).

    The density depends on y only through y^2: each distinct y^2 is evaluated
    once and its values are copied to every point that shares it.  Blocks of
    distinct y^2 and of frequencies keep every (points, frequencies, images)
    array within _BLOCK_ELEMENTS.  Element for element the arithmetic is that
    of a single point, so a row evaluated at once equals its points evaluated
    one by one, bit for bit.
    """
    axis = _axis(omegas)
    x = points[0].x
    if any(p.x != x for p in points):
        raise ValueError("one density call takes points of a single plate distance x")
    y2 = np.array([p.y * p.y for p in points], dtype=float)
    inverse = None
    if y2.size > 1:
        y2, inverse = np.unique(y2, return_inverse=True)
    values, errs = np.empty((2, y2.size, axis.size))
    # y^2 == 0 includes subnormal y whose square underflows: the y^2 terms are
    # then identically zero and the coincident-point form is the analytic limit
    on_axis = y2 == 0.0
    if np.any(on_axis):
        values[on_axis], errs[on_axis] = _sigma_diag_values(axis, [x], geometry, policy)
    nL = np.arange(1, policy.n_terms + 1, dtype=float) * geometry.L
    # points x frequencies per block: as many frequencies as fit, then points
    rows = max(1, _BLOCK_ELEMENTS // max(1, nL.size))
    freqs = max(1, min(axis.size, rows))
    off_axis = np.flatnonzero(~on_axis)
    for start in range(0, off_axis.size, rows // freqs):
        pool = off_axis[start:start + rows // freqs]
        for lo in range(0, axis.size, freqs):
            block = slice(lo, lo + freqs)
            values[pool, block], errs[pool, block] = _off_axis_block(
                axis[block], y2[pool], x, nL, policy.accelerate)
    if inverse is None:
        return values, errs
    return values[inverse], errs[inverse]


def _off_axis_block(axis, y2: np.ndarray, x: float, nL: np.ndarray, accelerate: bool):
    """Two-point density at plate distance x for y^2 > 0: (values, errs), shape (y2, omegas)."""
    y2 = y2[:, None, None]

    def images(dist2):
        """Q(omega D) and W(omega D)/D^2 over (points, omegas, images)."""
        # dist2 >= y^2 > 0 for every image, so the W/dist^2 terms are regular
        q, wk = axis.kernels(np.sqrt(dist2))
        wk /= dist2
        return q, wk

    qa, wa = images(nL ** 2 + y2)

    def reflected(dist2):
        """qa - Q(omega B) and W(omega B)/B^2 - wa for one reflected family."""
        q, wk = images(dist2)
        np.subtract(qa, q, out=q)
        wk -= wa
        return q, wk

    # ((qa - q_b-) + (qa - q_b+)) + y^2 ((w_b- - wa) + (w_b+ - wa))
    pairs, w_pairs = reflected((2.0 * x - nL) ** 2 + y2)
    q_bn, w_bn = reflected((2.0 * x + nL) ** 2 + y2)
    pairs += q_bn
    w_pairs += w_bn
    w_pairs *= y2
    pairs += w_pairs
    q_a0, w_a0 = images(y2)
    # (2x)^2 stays a Python float power, as in the pinned baselines: numpy's
    # x*x differs from it in the last bit for about 1 in 1000 x
    q_b0, w_b0 = images((2.0 * x) ** 2 + y2)
    term0 = ((q_a0 - q_b0) + y2 * (w_b0 - w_a0))[..., 0]
    totals, last = _accumulate(pairs, term0, accelerate)
    return axis.pref * totals, axis.pref * last


def sigma_yy(
    omega: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    policy: TruncationPolicy,
) -> SpectralSample:
    """Cavity spectral density between (x, 0) and (x, y) at frequency omega.

    The y^2 W/A^2 combination is evaluated as a single expression; its only
    singular configuration (translated distance 0) occurs at n = 0, y = 0,
    where the whole combination has the analytic limit 0 and the computation
    falls back to the coincident-point form.  ``err`` is the magnitude of the
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

    The n = 0 term is 2/3 - Q(2 omega x).  Vanishes identically at x = 0
    (every translated term cancels its reflected partner exactly).
    """
    validate_point(FieldPoint(x=x, y=0.0), geometry)
    values, errs = _sigma_diag_values(np.asarray([omega], dtype=float), [x], geometry, policy)
    return SpectralSample(omega=omega, value=float(values[0, 0]), err=float(errs[0, 0]), terms=policy.n_terms)


def sigma_vacuum(omega, y: float = 0.0):
    """Free-space spectral density at transverse offset y.

    (omega^3 / 2 pi^2) [sin(omega y)/(omega y)^3 - cos(omega y)/(omega y)^2],
    evaluated through a series splice so the y -> 0 limit omega^3/6 pi^2 comes
    out without cancellation.  Accepts scalar or array omega.
    """
    arr = np.asarray(omega, dtype=float)
    _check_omegas(np.atleast_1d(arr))
    u = arr * abs(y)
    bracket = _spliced(u, _VAC)[0]
    value = (arr * arr * arr) / _TWO_PI_SQ * bracket
    return float(value) if arr.ndim == 0 else value


def sigma_vacuum_from_kernels(omega: float, y: float) -> float:
    """Vacuum density via the n = 0 translated term of the cavity sum.

    That term is Q(omega A0) - (y^2/A0^2) W(omega A0) with A0 = |y| (so the
    ratio is exactly 1 for y != 0 and the combination limits to Q(0) = 2/3 at
    y = 0), times omega^3/4 pi^2.  Agreement with :func:`sigma_vacuum` is the
    embedding check between the cavity sum and the free-space closed form.
    """
    _check_omegas(np.asarray([omega], dtype=float))
    pref = (omega * omega * omega) / _FOUR_PI_SQ
    if y == 0.0:
        return pref * q_kernel(0.0)
    q, w = _spliced(omega * abs(y), _Q, _W)
    return pref * (q - w)


def convergence_report(
    omega: float,
    point: FieldPoint,
    geometry: CavityGeometry,
    n_list: Sequence[int],
    accelerate: bool = False,
) -> list[SpectralSample]:
    """Density at a fixed point for increasing cutoffs, for convergence studies.

    Successive differences between rows are expected to shrink; the cli
    validation command renders this as a table.
    """
    if len(n_list) == 0:
        raise ValueError("cutoff list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("cutoff list must be strictly increasing")
    return [sigma_yy(omega, point, geometry, TruncationPolicy(n_terms=int(n), accelerate=accelerate))
            for n in n_list]
