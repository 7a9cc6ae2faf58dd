"""Plain-numpy image sums used to check the ``points`` answers.

Independent of the library's kernels: Q and W are written through spherical
Bessel functions, Q = (2 j0 - j2)/3 and W = -j2, with j2 from its power
series below u = 1 and from the closed form above.  The two-point function
uses the collapsed per-image form (D^2 + s^2 - 2 y^2)/(s^2 - D^2)^3.  The
sums run over image indices -N..N in plain index order.
"""
from __future__ import annotations

import math

import numpy as np

_J2_SERIES_BELOW = 1.0
_J2_SERIES_TERMS = 10
# u^2 * sum_k (-u^2/2)^k / (k! (2k+5)!!)
_J2_COEFFS = np.array([
    (-0.5) ** k / (math.factorial(k) * math.prod(range(1, 2 * k + 6, 2)))
    for k in range(_J2_SERIES_TERMS)
])


def _j2(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    small = u < _J2_SERIES_BELOW
    us = u[small]
    out[small] = us * us * np.polynomial.polynomial.polyval(us * us, _J2_COEFFS)
    ub = u[~small]
    out[~small] = (3.0 / ub**2 - 1.0) * np.sin(ub) / ub - 3.0 * np.cos(ub) / ub**2
    return out


def _q_w(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0 = np.sinc(u / math.pi)
    j2 = _j2(u)
    return (2.0 * j0 - j2) / 3.0, -j2


def density(omega: float, x: float, y: float, n_terms: int) -> float:
    """sigma_yy(omega) between (x, 0) and (x, y) in a cavity with a = 1 (L = 2)."""
    n = np.arange(-n_terms, n_terms + 1, dtype=float)
    y2 = y * y
    a2 = (2.0 * n) ** 2 + y2
    b2 = (2.0 * x - 2.0 * n) ** 2 + y2
    qa, wa = _q_w(omega * np.sqrt(a2))
    qb, wb = _q_w(omega * np.sqrt(b2))
    terms = qa - qb
    if y2 > 0.0:
        terms = terms + y2 * (wb / b2 - wa / a2)
    return omega**3 / (4.0 * math.pi**2) * float(np.sum(terms))


def density_scale(omega: float) -> float:
    """Free-space coincident density omega^3 / 6 pi^2."""
    return omega**3 / (6.0 * math.pi**2)


def two_point(s: float, x: float, y: float, n_terms: int) -> float:
    """Equal-x two-point function of E_y at time separation s (a = 1)."""
    n = np.arange(-n_terms, n_terms + 1, dtype=float)
    y2 = y * y
    s2 = s * s

    def image(d2):
        return (d2 + s2 - 2.0 * y2) / (s2 - d2) ** 3

    terms = image((2.0 * n) ** 2 + y2) - image((2.0 * x - 2.0 * n) ** 2 + y2)
    return float(np.sum(terms)) / math.pi**2


def two_point_scale(s: float, y: float) -> float:
    """Free-space two-point magnitude 1 / (pi^2 (s^2 - y^2)^2)."""
    return 1.0 / (math.pi**2 * (s * s - y * y) ** 2)
