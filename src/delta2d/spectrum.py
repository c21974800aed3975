"""Bound-state solving for the 2D delta-potential Hamiltonian.

The eigenvalue condition

    hbar^2*pi/m + alpha*log((1/2)*e^gamma*b*|L|) = 0

is solved two independent ways (a bracketed secant search in t = log b,
on which the condition is affine, and the closed-form energy), and the
root-found energy at hbar^2/m = 2, L = 1 is compared against the
self-adjoint-extension point-interaction singleton.
"""

import math
from dataclasses import dataclass

from .specfun import EULER_GAMMA

__all__ = [
    "PhysicalParams", "BoundState", "CSpectrumFamily", "AghhComparison",
    "eeq_residual", "energy_from_b", "b_from_energy", "solve_eeq",
    "closed_form_energy", "c_spectrum", "aghh_check",
]


@dataclass(frozen=True)
class PhysicalParams:
    hbar: float
    mass: float
    alpha: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("hbar must be positive")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError("mass must be positive")
        if not (math.isfinite(self.alpha) and self.alpha != 0.0):
            raise ValueError("alpha must be nonzero")
        if not (math.isfinite(self.L) and self.L != 0.0):
            raise ValueError("L must be nonzero")


@dataclass(frozen=True)
class BoundState:
    b: float
    energy: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("b must be positive")
        if not (self.energy < 0.0):
            raise ValueError("bound-state energy must be negative")


@dataclass(frozen=True)
class CSpectrumFamily:
    entries: tuple  # of (L, energy) pairs

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((float(L), float(E)) for L, E in self.entries))


@dataclass(frozen=True)
class AghhComparison:
    """The singleton energy at hbar^2/m = 2, L = +-1, found two ways:
    sigma_p is the root-found energy of solve_eeq, sigma_c the
    point-interaction formula of the reference spectrum, whose coupling
    is the inverse of ours."""
    sigma_c: float
    sigma_p: float
    rel_diff: float
    scattering_length: float
    note: str


def energy_from_b(b, params):
    """E = -hbar^2 b^2 / (2 m) for b > 0."""
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError("b must be positive")
    return -params.hbar**2 * b * b / (2.0 * params.mass)


def b_from_energy(energy, params):
    """b = sqrt(2 m |E|) / hbar for E < 0."""
    if not (math.isfinite(energy) and energy < 0.0):
        raise ValueError("energy must be negative")
    return math.sqrt(2.0 * params.mass * (-energy)) / params.hbar


def eeq_residual(b, params):
    """Left-hand side of the eigenvalue condition; monotone in log(b)."""
    return (params.hbar**2 * math.pi / params.mass
            + params.alpha * (math.log(0.5 * b * abs(params.L)) + EULER_GAMMA))


def solve_eeq(params):
    """Unique b > 0 solving the eigenvalue condition (independent of the
    closed form).

    The residual is affine in t = log b.  From b0 = 2*e^-gamma/|L| the
    search walks t in steps of log 2 until the residual changes sign, then
    runs a bracketed secant (regula falsi) on t, which usually lands on
    the root up to rounding within one to three residual evaluations.  b*
    is taken from the bracket end with the smaller residual.
    """
    f = lambda t: eeq_residual(math.exp(t), params)
    # At b0 the log term vanishes, so f(t0) = hbar^2*pi/m > 0; the root
    # lies below t0 for alpha > 0 (f increasing) and above for alpha < 0.
    t0 = math.log(2.0 * math.exp(-EULER_GAMMA) / abs(params.L))
    step = -math.log(2.0) if params.alpha > 0.0 else math.log(2.0)
    for k in range(1, 4401):
        t = t0 + k * step
        ft = f(t)
        if ft <= 0.0:
            break
    else:
        raise RuntimeError("failed to bracket the eigenvalue condition")
    (lo, f_lo), (hi, f_hi) = sorted([(t - step, f(t - step)), (t, ft)])
    while f_lo != 0.0 and f_hi != 0.0:
        t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < t < hi:
            break
        ft = f(t)
        if (ft < 0.0) == (f_lo < 0.0):
            lo, f_lo = t, ft
        else:
            hi, f_hi = t, ft
    b_star = math.exp(lo if abs(f_lo) <= abs(f_hi) else hi)
    return BoundState(b_star, energy_from_b(b_star, params))


def closed_form_energy(params):
    """E = -(2 hbar^2 / (m L^2)) * exp(-2*gamma - 2*pi*hbar^2/(m*alpha))."""
    return (-2.0 * params.hbar**2 / (params.mass * params.L**2)
            * math.exp(-2.0 * EULER_GAMMA
                       - 2.0 * math.pi * params.hbar**2 / (params.mass * params.alpha)))


def c_spectrum(hbar, mass, alpha, L_values):
    """The L-indexed family of closed-form energies."""
    entries = []
    for L in L_values:
        params = PhysicalParams(hbar, mass, alpha, L)
        entries.append((float(L), closed_form_energy(params)))
    return CSpectrumFamily(tuple(entries))


def aghh_check(alpha):
    """Compare the root-found singleton energy with the reference formula.

    sigma_p solves the eigenvalue condition at hbar = 1, m = 1/2 (so that
    hbar^2/m = 2 exactly) and L = 1.  sigma_c is the point-interaction
    energy -4*exp(-4*pi*alpha' - 2*gamma) with the inverse coupling
    alpha' = 1/alpha (Albeverio, Gesztesy, Hoegh-Krohn & Holden, Solvable
    Models in Quantum Mechanics, sec. I.5); (-2*pi*alpha')^-1 is the 2d
    scattering length.
    """
    sigma_p = solve_eeq(PhysicalParams(1.0, 0.5, alpha, 1.0)).energy
    sigma_c = -4.0 * math.exp(-2.0 * EULER_GAMMA - 4.0 * math.pi / alpha)
    rel_diff = abs(sigma_c - sigma_p) / abs(sigma_c)
    return AghhComparison(
        sigma_c=sigma_c,
        sigma_p=sigma_p,
        rel_diff=rel_diff,
        scattering_length=-alpha / (2.0 * math.pi),
        note="reference coupling is the inverse of ours; "
             "(-2*pi*inverse_coupling)^-1 is the 2d scattering length",
    )
