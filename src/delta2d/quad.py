"""Numerical weak pairings on R^2.

Every radial integral, with at worst a log singularity at an end, is
taken by one tanh-sinh (double-exponential) rule whose nodes cluster at
both ends of the interval; mollified delta families probe products
f*delta classically, and a least-squares fit extracts the logarithmic
divergence structure.

The rule is vector-valued: k integrals, each on its own interval, share
one t-mesh and one call, every column stopping on its own test.  The
mollified probe puts every width eps in one call, and weak_pair_expr
(dexpr) every regular term of an expression that has two or more.

A bump centred at c != 0 (d = |c|, radius R) is paired through its
average over the circles |x| = r.  Each average is taken only over the
arc that meets the support, by a nested trapezoid rule doubled until two
levels agree, and r runs only over the annulus [max(0, d - R), d + R].
When the bump contains the origin (d < R) the annulus is cut at r = R - d,
where the circle leaves the support and the average stops being
analytic; both segments share the one call.  The reported error estimate
is the radial estimate plus the angular part, the largest accepted level
difference times int 2 pi r |f| dr over the annulus (per segment).

All radial integrands must accept numpy arrays.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA

__all__ = [
    "QuadratureError",
    "PairingReport",
    "MollifierFamily",
    "LogFitResult",
    "integrate_radial",
    "pair_regular",
    "pair_delta",
    "pair_mollified_product",
    "fit_log_divergence",
]

TWO_PI = 2.0 * math.pi

# Normalization of the unit bump mollifier profile exp(1 - 1/(1-u^2)) to
# unit integral over the plane (computed by quadrature, frozen; the tests
# re-derive it independently).
_BUMP_PROFILE_NORM = 0.7885737797126772

# Tanh-sinh rule: t runs over [-_TS_SPAN, _TS_SPAN], where the outermost
# nodes lie about 1e-37 of the interval from its ends; level k has step
# 2^-k in t (8 * 2^k + 1 nodes), up to _TS_MAX_LEVEL.
_TS_SPAN = 4.0
_TS_MAX_LEVEL = 12
_ULP = math.ulp(1.0)
# math.exp(x) overflows for x above this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Nested trapezoid rule for arc averages of off-centre bumps: the first
# level has _ARC_START intervals on [0, w]; each further level halves
# them.  Bump profiles have root-exponential Fourier decay: on circles
# through the bump centre the Laplacian needs about 512 intervals.
_ARC_START = 8
_ARC_MAX_LEVEL = 12
# The angular rule stops when two levels agree to this fraction of
# rel_tol * |profile(0)|.
_ARC_TOL = 1e-3


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


@dataclass(frozen=True)
class PairingReport:
    value: float
    abs_error_estimate: float
    table: tuple

    def __post_init__(self):
        if self.table:
            last_inc = abs(self.table[-1][1] - self.table[-2][1]) if len(self.table) > 1 else 0.0
            if self.abs_error_estimate < last_inc:
                raise ValueError("abs_error_estimate below last table increment")


def _tanh_sinh(h, lo, hi, rel_tol):
    """int_lo^hi h(x) dx by the tanh-sinh rule of Takahasi & Mori.

    The nodes are x = lo + gap for t < 0 and hi - gap for t >= 0, with
    gap = half/(e^u cosh u), half = (hi - lo)/2 and u = (pi/2) sinh|t|,
    for t in [-_TS_SPAN, _TS_SPAN].  The gap is formed apart from the end
    it is measured from, so a log singularity at lo = 0 costs no
    cancellation.  Level k has step 2^-k in t and evaluates only the new
    odd nodes.  The rule stops once two levels differ by at most rel_tol
    times int |h| on the same mesh.  Returns (value, estimate, table):
    the estimate is that difference plus 64 ulp * int |h| for round-off,
    the table lists (level, value) rows.

    lo and hi may also be arrays of shape (k,), one interval per column:
    every column then shares one t-mesh, h receives nodes shaped (n, k)
    and returns (n, k), and the value, the estimate and each table value
    are arrays of shape (k,).  Intervals of shape (1,) give every column
    of h the same nodes, shaped (n, 1).  The rule stops once every column
    meets its own test, and a QuadratureError names the column furthest
    from it.  A column with lo = hi has weight 0: it comes out 0 where h
    is finite at lo.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    column = (-1,) + (1,) * half.ndim
    total = absolute = 0.0
    table = []
    for level in range(_TS_MAX_LEVEL + 1):
        step = 2.0 ** -level
        if level == 0:
            t = np.arange(-_TS_SPAN, _TS_SPAN + 0.5)
        else:
            t = np.arange(step - _TS_SPAN, _TS_SPAN, 2.0 * step)
        t = t.reshape(column)
        u = 0.5 * math.pi * np.sinh(np.abs(t))
        cosh_u = np.cosh(u)
        gap = half / (np.exp(u) * cosh_u)
        y = h(np.where(t < 0.0, lo + gap, hi - gap)) * (np.cosh(t) / (cosh_u * cosh_u))
        total = total + y.sum(axis=0)
        absolute = absolute + np.abs(y).sum(axis=0)
        weight = 0.5 * math.pi * half * step
        table.append((level, weight * total))
        if level == 0:
            continue
        diff = abs(table[-1][1] - table[-2][1])
        bound = rel_tol * weight * absolute
        if (diff <= bound).all():
            value, estimate = table[-1][1], diff + 64.0 * _ULP * weight * absolute
            if np.ndim(value) == 0:
                return float(value), float(estimate), tuple((i, float(v)) for i, v in table)
            return value, estimate, tuple(table)
        if not (diff < math.inf).all():  # a NaN or infinite difference never settles
            break
    # name the column furthest outside its own test (a non-finite one first)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(diff <= bound, -1.0, np.nan_to_num(diff / bound, nan=np.inf))
    j = int(np.argmax(excess))
    lo, hi, diff = (np.broadcast_to(a, np.shape(excess)).flat[j] for a in (lo, hi, diff))
    raise QuadratureError(
        "tanh-sinh quadrature on [%r, %r] did not converge: level %d, last difference %r"
        % (float(lo), float(hi), level, float(diff)))


def integrate_radial(g, r_max, rel_tol=1e-10):
    """Integral of g(r) * 2*pi*r over (0, r_max] by the tanh-sinh rule.

    g must be vectorized and integrable with at worst a log singularity at
    the origin.  Returns a PairingReport whose table lists (level, value)
    rows, at least two.
    """
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError("integrate_radial requires r_max > 0")
    return PairingReport(*_tanh_sinh(lambda r: TWO_PI * r * g(r), 0.0, r_max, rel_tol))


def _theta_average(phi, prof, r, tol):
    """Average over each circle |x| = r of a radial function of |x - c|,
    prof (phi.profile or phi.profile_laplacian), c the centre of phi.

    With d = |c| and R = phi.radius, the circle meets the support on the
    arc |theta - theta_c| < w(r), w = arccos((r^2 + d^2 - R^2) / (2 r d)),
    taken here as 2 arcsin of the root of (R^2 - (r - d)^2) / (4 r d),
    which keeps thin arcs far out; w = pi once the circle lies inside the
    support.  The integrand is even in theta - theta_c and flat where the
    arc ends, so the trapezoid rule on [0, w] converges like the periodic
    one.  Levels double, each reusing the nodes of the last, until two
    agree to tol.  Returns the averages and the accepted level
    differences, arrays shaped like r (of any shape).
    """
    d, R = math.hypot(*phi.center), phi.radius
    r = np.asarray(r, dtype=float)
    shape, r = r.shape, r.ravel()
    gap = np.abs(r - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = (R - gap) * (R + gap) / (4.0 * r * d)
    w = 2.0 * np.arcsin(np.sqrt(np.clip(np.nan_to_num(half, nan=0.0), 0.0, 1.0)))

    def arc(rows, frac):
        # rho = |r e^{it} - c| written without cancellation near rho = 0
        rr, t = r[rows, None], w[rows, None] * frac
        return prof(np.hypot(rr - d, 2.0 * np.sqrt(rr * d) * np.sin(0.5 * t)))

    n = _ARC_START
    vals = arc(slice(None), np.arange(n + 1) / n)
    sums = vals[:, 1:-1].sum(axis=1) + 0.5 * (vals[:, 0] + vals[:, -1])
    avg = sums * w / (math.pi * n)
    diff = np.zeros_like(r)
    active = np.flatnonzero(w > 0.0)
    level = 0
    while active.size:
        if level == _ARC_MAX_LEVEL:
            i = active[np.argmax(diff[active])]
            raise QuadratureError(
                "angular average did not converge at r=%r: level %d, last difference %r"
                % (float(r[i]), level, float(diff[i])))
        sums[active] += arc(active, (2.0 * np.arange(n) + 1.0) / (2 * n)).sum(axis=1)
        n *= 2
        level += 1
        new = sums[active] * w[active] / (math.pi * n)
        diff[active] = np.abs(new - avg[active])
        avg[active] = new
        active = active[diff[active] > tol]
    return avg.reshape(shape), diff.reshape(shape)


def _pair_columns(g, phi, prof, cap, rel_tol):
    """int 2 pi r g_j(r) w(r) dr over [max(0, d - R), min(d + R, cap_j)],
    the part of the annulus phi covers below cap_j, for each column j of
    g on one tanh-sinh mesh.  w is prof (phi.profile or
    phi.profile_laplacian) for an origin-centred phi, else its arc average
    (see _theta_average), shared by every column of a node; the estimate
    of column j then adds the angular part, the largest accepted angular
    difference times int 2 pi r |g_j| dr.  cap is a float, or caps of
    shape (k,) or (1,), which shape the nodes g receives as in _tanh_sinh.
    Returns (values, estimates, table) as _tanh_sinh does.

    When the bump contains the origin off its centre (0 < d < R), the arc
    average is smooth but not analytic at r = R - d, where the circle
    leaves the support, and the rule would lose its double-exponential
    convergence there.  Each column is then cut at min(R - d, its upper
    end) into two segments, a leading axis of length 2 in the same call
    (g's nodes gain that axis too); values, estimates (each segment's
    radial and angular parts) and table rows are sums over it.
    """
    d, R = math.hypot(*phi.center), phi.radius
    lo = max(0.0, d - R)
    hi = np.maximum(lo, np.minimum(d + R, cap))
    if phi.origin_centered:
        return _tanh_sinh(lambda r: TWO_PI * r * (g(r) * prof(r)), lo, hi, rel_tol)
    split = d < R
    if split:
        kink = np.minimum(R - d, hi)
        lo, hi = np.stack([np.zeros_like(kink), kink]), np.stack([kink, hi])
    tol = _ARC_TOL * rel_tol * abs(float(prof(0.0)))
    worst = [0.0]

    def h(r):
        avg, diff = _theta_average(phi, prof, r, tol)
        worst[0] = np.maximum(worst[0], diff.max(axis=0))
        return TWO_PI * r * g(r) * avg

    value, err, table = _tanh_sinh(h, lo, hi, rel_tol)
    # int 2 pi r |g| only scales the angular part: a few digits suffice
    moment = _tanh_sinh(lambda r: TWO_PI * r * np.abs(g(r)), lo, hi, 1e-3)[0]
    err = err + worst[0] * moment
    if not split:
        return value, err, table
    if np.ndim(cap) == 0:
        return float(value.sum()), float(err.sum()), tuple((i, float(v.sum())) for i, v in table)
    return value.sum(axis=0), err.sum(axis=0), tuple((i, v.sum(axis=0)) for i, v in table)


def pair_regular(f, phi, move_ops=False, rel_tol=1e-10):
    """Weak pairing <f, phi> (or <f, lap phi> when move_ops is set).

    f is a radial function of r = |x|, locally integrable with at worst a
    log singularity at the origin.  Origin-centered phi reduces to a 1D
    radial integral.  Otherwise f times the arc average of phi (see
    _theta_average) is integrated over the annulus max(0, d - R) <= r <=
    d + R, and the error estimate adds the angular part to the radial one.
    """
    prof = phi.profile_laplacian if move_ops else phi.profile
    if phi.origin_centered:
        return integrate_radial(lambda r: f(r) * prof(r), phi.radius, rel_tol=rel_tol)
    value, err, table = _pair_columns(f, phi, prof, math.inf, rel_tol)
    return PairingReport(value, float(err), table)


def _pair_terms(fs, phi, rel_tol):
    """Lists of <f, phi> and their estimates for the radial functions fs.

    Two or more share one tanh-sinh mesh over the annulus, one column each
    (see _pair_columns); off the origin one arc average per node then
    serves every f.  A single f is paired by pair_regular: with k = 1 the
    column arrays cost more per level than the scalar rule.
    """
    if len(fs) == 1:
        rep = pair_regular(fs[0], phi, rel_tol=rel_tol)
        return [rep.value], [rep.abs_error_estimate]
    values, estimates, _ = _pair_columns(lambda r: np.concatenate([f(r) for f in fs], axis=-1),
                                         phi, phi.profile, (math.inf,), rel_tol)
    return values.tolist(), estimates.tolist()


def pair_delta(c, phi):
    """<c*delta_0, phi> = c * phi(0)."""
    return float(c) * phi.at_origin()


@dataclass(frozen=True)
class MollifierFamily:
    profile: str
    epsilons: tuple

    def __post_init__(self):
        if self.profile not in ("gaussian", "bump"):
            raise ValueError("mollifier profile must be 'gaussian' or 'bump'")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(not (math.isfinite(e) and e > 0.0) for e in eps):
            raise ValueError("epsilons must be positive and finite")
        if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)

    @classmethod
    def default(cls, profile="gaussian"):
        return cls(profile, tuple(2.0 ** (-k) for k in range(4, 15)))

    def unit_profile(self, u):
        """eta(|u|) with unit integral over the plane."""
        u = np.asarray(u, dtype=float)
        if self.profile == "gaussian":
            return np.exp(-u * u) / math.pi
        s = u * u
        inside = s < 1.0
        safe = np.where(inside, s, 0.0)
        return np.where(inside, _BUMP_PROFILE_NORM * np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)

    def delta_eps(self, eps, r):
        """delta_eps(x) = eps^-2 * eta(|x|/eps) evaluated at r = |x|."""
        return self.unit_profile(np.asarray(r, dtype=float) / eps) / eps**2

    def cutoff_radius(self, eps):
        # exp(-26^2) is far below double precision for the gaussian tail.
        return eps if self.profile == "bump" else 26.0 * eps


def pair_mollified_product(f, fam, phi, rel_tol=1e-10):
    """Classical probe <f * delta_eps, phi> for each eps in the family.

    Returns a list of (eps, value) rows.  Each eps must be smaller than the
    support radius of phi.  Every eps is one column of a single tanh-sinh
    call (see _pair_columns): column j runs over the part of the annulus
    phi covers that lies within the cutoff radius of delta_eps_j, and is 0
    where that part is empty.
    """
    if fam.epsilons[0] >= phi.radius:
        raise ValueError("mollifier width %g is not below the bump radius %g"
                         % (fam.epsilons[0], phi.radius))
    eps = np.array(fam.epsilons)
    values = _pair_columns(lambda r: f(r) * fam.delta_eps(eps, r), phi, phi.profile,
                           fam.cutoff_radius(eps), rel_tol)[0]
    return list(zip(fam.epsilons, values.tolist()))


@dataclass(frozen=True)
class LogFitResult:
    slope: float
    intercept: float
    effective_scale_constant: float
    residual: float


def fit_log_divergence(data, phi0, a=1.0):
    """Least-squares fit value = slope*log(eps) + intercept.

    For data of the K0(a*r)*delta_eps type the fitted line is interpreted
    as value = -phi0*log((1/2)*e^gamma*a*eps/c), which defines the
    finite-part scale constant c.  Where e^(intercept/phi0) overflows, c is
    formed from its logarithm: inf past the float range, 0.0 below it.
    """
    eps = [float(e) for e, _ in data]
    vals = [float(v) for _, v in data]
    if len(set(eps)) != len(eps):
        raise ValueError("epsilon values must be distinct")
    if len(eps) < 2:
        raise ValueError("at least two data points are required")
    if phi0 == 0.0:
        raise ValueError("phi0 must be nonzero")
    x = np.log(eps)
    slope, intercept = np.polyfit(x, vals, 1)
    residual = float(np.max(np.abs(slope * x + intercept - np.asarray(vals))))
    power = intercept / phi0
    if not power > _LOG_FLOAT_MAX:
        c = 0.5 * math.exp(EULER_GAMMA) * a * math.exp(power)
    else:
        log_c = math.log(0.5 * a) + EULER_GAMMA + power
        c = math.exp(log_c) if log_c < _LOG_FLOAT_MAX else math.inf
    return LogFitResult(float(slope), float(intercept), c, residual)
