"""Reference values for the benchmark, computed without importing delta2d.

Every number the benchmark checks a delta2d result against comes from
here: closed-form identities, mpmath, scipy QUADPACK and the bump and
spectrum formulas written out again from their definitions, and K0 from
scipy.special.

Off-centre pairings reduce exactly to one radial integral in the bump's
own coordinates, because the circle average of the radial factor about
the bump centre c has a closed form:

    log:  (1/2pi) int log|c + rho e^{it}| dt = log max(|c|, rho)     (Jensen)
    K0:   (1/2pi) int K0(a|c + rho e^{it}|) dt
              = I0(a min(|c|, rho)) K0(a max(|c|, rho))              (Graf)

With |c| = 0 both reduce to the radial factor itself, so one integral
serves origin-centred and off-centre bumps alike.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special

EULER_GAMMA = float(mpmath.euler)
SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi
# Smallest positive normal double.
TINY = 2.2250738585072014e-308


# --------------------------------------------------------------------------
# bump test function  phi(rho) = A exp(1 - 1/(1 - u^2)),  u = rho / R


def bump_value(amplitude, radius, rho):
    s = (rho / radius) ** 2
    if s >= 1.0:
        return 0.0
    return amplitude * math.exp(1.0 - 1.0 / (1.0 - s))


def bump_laplacian(amplitude, radius, rho):
    """Radial 2D Laplacian phi'' + phi'/rho, written in s = u^2."""
    s = (rho / radius) ** 2
    if s >= 1.0:
        return 0.0
    t = 1.0 - s
    f = math.exp(1.0 - 1.0 / t)
    d1 = -f / (t * t)
    d2 = f * (2.0 * s - 1.0) / t**4
    return 4.0 * amplitude / radius**2 * (d2 * s + d1)


def bump_at_origin(amplitude, radius, center):
    return bump_value(amplitude, radius, math.hypot(center[0], center[1]))


# --------------------------------------------------------------------------
# radial factors and their circle averages


def radial_factor(kind, p, r):
    """log(p r) for kind 'log', K0(p r) for kind 'k0' (scalar r > 0)."""
    if kind == "log":
        return math.log(p * r)
    return float(special.k0(p * r))


def circle_average(kind, p, dist, rho):
    """Average of the radial factor over the circle of radius rho about a
    point at distance dist from the origin."""
    lo, hi = min(dist, rho), max(dist, rho)
    if kind == "log":
        return math.log(p * hi)
    x_lo, x_hi = p * lo, p * hi
    return float(special.i0e(x_lo) * special.k0e(x_hi)) * math.exp(x_lo - x_hi)


def pairing(kind, p, amplitude, radius, center, laplacian=False):
    """<f, phi> (or <f, lap phi>) over R^2, f = log(p|x|) or K0(p|x|)."""
    dist = math.hypot(center[0], center[1])
    w = bump_laplacian if laplacian else bump_value

    def integrand(rho):
        if rho <= 0.0:
            return 0.0
        return TWO_PI * rho * w(amplitude, radius, rho) * circle_average(kind, p, dist, rho)

    # The average has a kink at rho = dist; split there, and split the
    # remaining range so QUADPACK sees the flat bump edge and the log
    # end point in separate pieces.
    cuts = sorted({0.0, radius} | ({dist} if 0.0 < dist < radius else set())
                  | {radius * 2.0 ** -k for k in range(1, 12)})
    return _quad(integrand, cuts)


def mollified_pairing(kind, p, amplitude, radius, eps):
    """<f * delta_eps, phi> for an origin-centred bump and the gaussian
    mollifier delta_eps(r) = exp(-(r/eps)^2) / (pi eps^2)."""
    r_hi = min(radius, 26.0 * eps)

    def integrand(r):
        if r <= 0.0:
            return 0.0
        return (TWO_PI * r * radial_factor(kind, p, r) * math.exp(-(r / eps) ** 2)
                / (math.pi * eps * eps) * bump_value(amplitude, radius, r))

    return _quad(integrand, [0.0] + [r_hi * 2.0 ** -k for k in range(20, 0, -1)] + [r_hi])


def _quad(f, cuts):
    """Sum of QUADPACK integrals over consecutive cuts.  The tolerances ask
    for more than doubles can always give; QUADPACK then warns of
    round-off, which is expected here and silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))


def k0_delta_coefficient(a, L):
    """K0(a|x|) * delta = -log((1/2) e^gamma a |L|) * delta."""
    return -(math.log(0.5 * a * abs(L)) + EULER_GAMMA)


def k0(x):
    """K0 from scipy (Cephes); relative error <= 1.1e-15 against mpmath's
    besselk on [1e-8, 700], which itself costs 1-9 ms per value here."""
    return float(special.k0(x))


# --------------------------------------------------------------------------
# spectrum in log space


def spectrum_row(hbar, mass, alpha, L):
    """(b*, E, log|E|) in 30-digit log space, from the eigenvalue condition
    hbar^2 pi / m + alpha (log(b |L| / 2) + gamma) = 0 and
    E = -hbar^2 b*^2 / (2 m); b* and E are None where they leave the
    range of normal doubles."""
    with mpmath.workdps(30):
        hbar, mass, alpha, L = (mpmath.mpf(v) for v in (hbar, mass, alpha, L))
        log_b = mpmath.log(2 / abs(L)) - mpmath.euler - mpmath.pi * hbar**2 / (mass * alpha)
        log_abs_e = 2 * mpmath.log(hbar) + 2 * log_b - mpmath.log(2 * mass)
        return _as_double(mpmath.exp(log_b)), _as_double(-mpmath.exp(log_abs_e)), float(log_abs_e)


def _as_double(x):
    v = float(x)
    if not math.isfinite(v) or abs(v) < TINY:
        return None
    return v


def hamiltonian_coefficients(b, hbar, mass, alpha, L):
    """H psi_b = E psi_b + c_delta delta."""
    energy = -hbar * hbar * b * b / (2.0 * mass)
    c_delta = (b / SQRT_PI) * (hbar * hbar * math.pi / mass
                               + alpha * (math.log(0.5 * b * abs(L)) + EULER_GAMMA))
    return energy, c_delta


# --------------------------------------------------------------------------
# distributions as the benchmark writes them: a delta coefficient plus a
# list of regular terms (coeff, kind, p) meaning coeff * log(p r) or
# coeff * K0(p r).


def regular_values(terms, radii):
    return np.array([sum(c * radial_factor(k, p, r) for c, k, p in terms) for r in radii])
