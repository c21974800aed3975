"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the package's own quadrature: K0 reference
values come from the integral representation via QUADPACK, and radial
pairings are cross-checked with scipy.integrate.quad.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning, quad as sciquad

from delta2d import make_bump


def k0_oracle(x):
    """K0 via its integral representation int_0^inf exp(-x*cosh t) dt."""
    t_max = math.acosh(745.0 / x) if x < 745.0 else 1.0
    val, _ = sciquad(lambda t: math.exp(-x * math.cosh(t)), 0.0, t_max,
                     epsabs=1e-300, epsrel=1e-13, limit=300)
    return val


def radial_oracle(g, lo, hi, singular_at_zero=False):
    """2*pi*int g(r) r dr by QUADPACK, independent of integrate_radial."""
    f = lambda r: 2.0 * math.pi * r * g(r)
    kwargs = dict(epsabs=1e-13, epsrel=1e-12, limit=500)
    if singular_at_zero and lo == 0.0:
        val = 0.0
        edges = [0.0] + [hi * 2.0 ** (-k) for k in range(40, -1, -1)]
        for a, b in zip(edges[:-1], edges[1:]):
            val += sciquad(f, a, b, **kwargs)[0]
        return val
    return sciquad(f, lo, hi, **kwargs)[0]


def circle_mean(kind, a, dist, rho):
    """Mean of log|x| (kind "log") or K0(a|x|) (kind "k0") over the circle
    of radius rho about a point at distance dist from the origin:
    log max(rho, dist) by Jensen's formula, K0(a max) I0(a min) by Graf's
    addition theorem."""
    lo, hi = min(dist, rho), max(dist, rho)
    if kind == "log":
        return math.log(hi)
    return float(special.k0e(a * hi) * special.i0e(a * lo)) * math.exp(a * (lo - hi))


def off_centre_oracle(kind, a, phi, laplacian=False):
    """<f, phi> (or <f, lap phi>) for f = log|x| or K0(a|x|) and a bump
    anywhere, as one QUADPACK integral over rho = |x - center| in the
    bump's own coordinates.  Returns (value, tolerance): the tolerance is
    QUADPACK's summed error estimate, at least 1e-13 * (1 + |value|)."""
    dist = math.hypot(*phi.center)
    w = phi.profile_laplacian if laplacian else phi.profile

    def integrand(rho):
        return 2.0 * math.pi * rho * float(w(rho)) * circle_mean(kind, a, dist, rho)

    # split at the kink of the circle mean (rho = dist) and grade toward
    # rho = 0, where the mean of log is singular for an origin-centred bump
    R = phi.radius
    cuts = sorted({0.0, R} | ({dist} if 0.0 < dist < R else set())
                  | {R * 2.0 ** -k for k in range(1, 20)})
    value = err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v, e = sciquad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)
            value += v
            err += e
    return value, max(err, 1e-13 * (1.0 + abs(value)))


def bump_frame_oracle(f, phi, laplacian=False):
    """<f, phi> (or <f, lap phi>) for any scalar radial f, as nested
    QUADPACK integrals in the bump's own polar coordinates: the mean of f
    over each circle |x - center| = rho by QUADPACK in theta, then rho over
    eight equal pieces of [0, R].  Returns (value, tolerance) as
    off_centre_oracle does."""
    dist, R = math.hypot(*phi.center), phi.radius
    w = phi.profile_laplacian if laplacian else phi.profile
    kwargs = dict(epsabs=1e-15, epsrel=1e-13, limit=400)

    def mean(rho):
        a, b = dist * dist + rho * rho, 2.0 * dist * rho
        return sciquad(lambda t: f(math.sqrt(a + b * math.cos(t))), 0.0, math.pi,
                       **kwargs)[0] / math.pi

    value = err = 0.0
    cuts = np.linspace(0.0, R, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            v, e = sciquad(lambda rho: 2.0 * math.pi * rho * float(w(rho)) * mean(rho), lo, hi,
                           **kwargs)
            value += v
            err += e
    return value, max(err, 1e-13 * (1.0 + abs(value)))


def _unit_bump_in_theta(theta, laplacian):
    """The unit bump's profile exp(1 - 1/(1 - s)) (or s f''(s) + f'(s),
    the radial Laplacian over 4) at s = cos^2(theta/2), with 1 - s =
    sin^2(theta/2), written with math alone."""
    t = math.sin(0.5 * theta) ** 2
    if t < 1e-3:  # exp(1 - 1/t) has underflowed
        return 0.0
    f = math.exp(1.0 - 1.0 / t)
    if not laplacian:
        return f
    s = 1.0 - t
    return f * (s * (2.0 * s - 1.0) / t**4 - 1.0 / t**2)


@functools.lru_cache(maxsize=None)
def chebyshev_moments(laplacian, n):
    """mu_j = int_-1^1 eta(x) T_j(x) dx for j = 0..n, eta(x) the unit bump
    profile (or its Laplacian over 4) at s = (1 + x)/2, as QUADPACK's
    cosine-weighted rule (QAWO) in x = cos(theta):
    int_0^pi eta(cos theta) sin(theta) cos(j theta) dtheta."""
    g = lambda theta: _unit_bump_in_theta(theta, laplacian) * math.sin(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return np.array([sciquad(g, 0.0, math.pi, weight="cos", wvar=j, epsabs=1e-15,
                                 epsrel=1e-14, limit=200)[0] for j in range(n + 1)])


def mollified_oracle(f, fam, eps, phi):
    """<f * delta_eps, phi> by QUADPACK for a bump anywhere: the mean of phi
    over each circle |x| = r is a QUADPACK integral in theta of the bump
    profile written with math alone, and r runs over the part of the
    annulus phi covers inside the cutoff of delta_eps, graded toward r = 0
    when it starts there.  Both integrals are relative only (epsabs =
    1e-300), so rows far below 1 keep their digits."""
    dist, R = math.hypot(*phi.center), phi.radius
    lo, hi = max(0.0, dist - R), min(dist + R, fam.cutoff_radius(eps))
    if hi <= lo:
        return 0.0
    kwargs = dict(epsabs=1e-300, epsrel=1e-13, limit=200)

    def bump(rho2):
        s = rho2 / (R * R)
        return phi.amplitude * math.exp(1.0 - 1.0 / (1.0 - s)) if s < 1.0 else 0.0

    def mean(r):
        if dist == 0.0:
            return bump(r * r)
        a, b = r * r + dist * dist, 2.0 * r * dist
        return sciquad(lambda t: bump(a - b * math.cos(t)), 0.0, math.pi, **kwargs)[0] / math.pi

    def integrand(r):
        return 2.0 * math.pi * r * float(f(r)) * float(fam.delta_eps(eps, r)) * mean(r)

    cuts = [lo, hi] if lo > 0.0 else [0.0] + [hi * 2.0 ** -k for k in range(20, -1, -1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(sciquad(integrand, a, b, **kwargs)[0] for a, b in zip(cuts[:-1], cuts[1:]))


def suite_bumps():
    """The standard test-function battery: amplitudes {1,2} x radii
    {0.5,1,2,5} at the origin, plus off-center variants that exclude the
    origin from their support."""
    bumps = [make_bump(a, r) for a in (1.0, 2.0) for r in (0.5, 1.0, 2.0, 5.0)]
    bumps += [make_bump(1.0, 1.0, (5.0, 0.0)),
              make_bump(2.0, 2.0, (0.0, -3.0)),
              make_bump(1.0, 0.5, (1.5, 0.0))]
    return bumps


@pytest.fixture(scope="session")
def suite():
    return suite_bumps()
