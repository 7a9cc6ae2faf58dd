"""A finite-difference route to the two-point function, kept as a test reference.

The scalar image sums over the whole image lattice (N = oo) in closed form,
and the central five-point Laplacian (d^2/dx^2 + d^2/dz^2, step h, second
order) of translated minus reflected sums.  Nothing guards a light cone:
callers keep their samples clear of every image's cone, and of the plates by
more than h.
"""
import math


def lattice_sum(base, offset, L):
    """S(b, c) = sum over all n in Z of 1/((b - n L)^2 + c), by the Mittag-Leffler expansion of cot (DLMF 4.22.3).

    With k = pi/L and b = base mod L: (k/g) coth(k g) / (1 + (sin(k b)/sinh(k g))^2)
    at c = g^2 > 0, written through e = exp(-2 k g); (k/2 alpha) sin(2 k alpha) /
    (sin(k (b - alpha)) sin(k (b + alpha))) at c = -alpha^2 < 0; k^2 / sin^2(k b) at c = 0.
    """
    k = math.pi / L
    b = math.remainder(base, L)
    sine = math.sin(k * b)
    if offset > 0.0:
        g = math.sqrt(offset)
        e, one_minus_e = math.exp(-2.0 * k * g), -math.expm1(-2.0 * k * g)
        return (k / g) * one_minus_e * (1.0 + e) / (one_minus_e * one_minus_e + 4.0 * e * sine * sine)
    if offset < 0.0:
        alpha = math.sqrt(-offset)
        return (0.5 * k / alpha) * math.sin(2.0 * k * alpha) / (math.sin(k * (b - alpha)) * math.sin(k * (b + alpha)))
    return k * k / (sine * sine)


def two_point_fd(s, x, y, L, h=1e-3):
    """The yy two-point function between (x, 0) at time s and (x, y) at time 0, by the stencil.

    The Laplacian acts on the first event, at (px, 0, pz): its rows have base
    px - x (translated) or px + x (reflected) and offset y^2 + pz^2 - s^2.
    """
    def diff(px, pz):
        offset = y * y + pz * pz - s * s
        return -(lattice_sum(px - x, offset, L) - lattice_sum(px + x, offset, L)) / (4.0 * math.pi**2)

    f0 = diff(x, 0.0)
    dzz = (diff(x, h) - 2.0 * f0 + diff(x, -h)) / (h * h)
    dxx = (diff(x + h, 0.0) - 2.0 * f0 + diff(x - h, 0.0)) / (h * h)
    return dxx + dzz
