"""Compactly supported smooth radial bump test functions on R^2.

The single profile used throughout is

    phi(x) = amplitude * exp(1 - 1/(1 - u^2)),   u = |x - center| / radius

for u < 1 and exactly zero outside.  Value, gradient and Laplacian are
closed-form; all evaluators accept scalars or ndarrays.  The profile and
its Laplacian are defined in s = u^2 (profile_sq, laplacian_sq), which
the off-centre quadrature feeds squared distances directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BumpFunction", "make_bump", "rescale"]

# Inner cutoff: once 1 - u^2 is this small the profile has underflowed to
# zero anyway, and the rational prefactors would overflow.
_EDGE = 1e-12


def _shape(s):
    """f(s) = exp(1 - 1/(1-s)) for s in [0,1), else 0 (s = u^2)."""
    s = np.asarray(s, dtype=float)
    inside = s < 1.0 - _EDGE
    safe = np.where(inside, s, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)


def _shape_d1(s):
    """f'(s) = -f(s)/(1-s)^2."""
    s = np.asarray(s, dtype=float)
    inside = s < 1.0 - _EDGE
    safe = np.where(inside, s, 0.0)
    return np.where(inside, -_shape(safe) / (1.0 - safe) ** 2, 0.0)


def _shape_laplacian(s):
    """s f''(s) + f'(s), f' as in _shape_d1 and f''(s) = f(s)*(2s-1)/(1-s)^4,
    the exponential f taken once."""
    s = np.asarray(s, dtype=float)
    inside = s < 1.0 - _EDGE
    safe = np.where(inside, s, 0.0)
    t = 1.0 - safe
    f = np.exp(1.0 - 1.0 / t)
    return np.where(inside, f * (2.0 * safe - 1.0) / t**4 * s - f / t**2, 0.0)


@dataclass(frozen=True)
class BumpFunction:
    amplitude: float
    radius: float
    center: tuple = field(default=(0.0, 0.0))

    def __post_init__(self):
        if not (math.isfinite(self.amplitude)):
            raise ValueError("bump amplitude must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("bump radius must be positive and finite")
        c = tuple(float(v) for v in self.center)
        if len(c) != 2 or not all(math.isfinite(v) for v in c):
            raise ValueError("bump center must be a finite point in R^2")
        object.__setattr__(self, "center", c)

    @property
    def origin_centered(self):
        return self.center == (0.0, 0.0)

    # -- radial API (distance r from the bump's own center) ---------------

    def profile(self, r):
        return self.profile_sq((np.asarray(r, dtype=float) / self.radius) ** 2)

    def profile_sq(self, s):
        """The profile at squared distance s = (r / radius)^2."""
        return self.amplitude * _shape(s)

    def profile_dr(self, r):
        """d phi / dr at distance r from the center."""
        r = np.asarray(r, dtype=float)
        s = (r / self.radius) ** 2
        return self.amplitude * _shape_d1(s) * 2.0 * r / self.radius**2

    def profile_laplacian(self, r):
        """2D Laplacian at distance r from the center (radial formula)."""
        return self.laplacian_sq((np.asarray(r, dtype=float) / self.radius) ** 2)

    def laplacian_sq(self, s):
        """The Laplacian at squared distance s = (r / radius)^2:
        4 A / R^2 * (s f''(s) + f'(s)) with f(s) = exp(1 - 1/(1 - s))."""
        return (4.0 * self.amplitude / self.radius**2) * _shape_laplacian(s)

    # -- Cartesian API -----------------------------------------------------

    def value_xy(self, x, y):
        cx, cy = self.center
        r = np.hypot(np.asarray(x, dtype=float) - cx, np.asarray(y, dtype=float) - cy)
        return self.profile(r)

    def laplacian_xy(self, x, y):
        cx, cy = self.center
        r = np.hypot(np.asarray(x, dtype=float) - cx, np.asarray(y, dtype=float) - cy)
        return self.profile_laplacian(r)

    def value(self, point):
        x, y = point
        return float(self.value_xy(x, y))

    def gradient(self, point):
        x, y = point
        cx, cy = self.center
        dx, dy = x - cx, y - cy
        s = (dx * dx + dy * dy) / self.radius**2
        g = self.amplitude * float(_shape_d1(s)) * 2.0 / self.radius**2
        return (g * dx, g * dy)

    def laplacian(self, point):
        x, y = point
        return float(self.laplacian_xy(x, y))

    def at_origin(self):
        return self.value((0.0, 0.0))


def make_bump(amplitude, radius, center=(0.0, 0.0)):
    return BumpFunction(float(amplitude), float(radius), tuple(center))


def rescale(phi, L):
    """phi_L with phi_L(x) = phi(L*x); support radius becomes radius/|L|."""
    Lf = float(L)
    if Lf == 0.0 or not math.isfinite(Lf):
        raise ValueError("rescale requires a nonzero finite L")
    cx, cy = phi.center
    return BumpFunction(phi.amplitude, phi.radius / abs(Lf), (cx / Lf, cy / Lf))
