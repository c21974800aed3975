"""Numerical weak pairings on R^2.

Every integral in r = |x|, with at worst a log singularity at an end,
is taken by one tanh-sinh (double-exponential) rule whose nodes cluster
at both ends of the interval; mollified delta families probe products
f*delta classically, and a least-squares fit extracts the logarithmic
divergence structure.

The rule is vector-valued: k integrals, each on its own interval, share
one t-mesh and one call, every column stopping on its own test.  The
mollified probe puts every width eps in one call, and weak_pair_expr
(dexpr) every regular term of an expression that has two or more, when
the bump is origin-centred or in the origin frame below; in the bump
frame each term is one pair_regular call.  Every pairing stops at the
one relative tolerance _REL_TOL = 1e-10.

A bump centred at c != 0 (d = |c|, radius R) is paired in one of two
frames, which pair_regular picks, both through circle averages taken by
a nested trapezoid rule doubled until two levels agree
(_theta_average).  Each node on a circle is placed by its squared
distance in the frame's own unit, R or d, so no root is taken where
none is needed and no r * d overflows:

- Bump frame, d >= _KAPPA * R (1.1 R): <f, w> = int_0^R 2 pi rho w(rho)
  M_f(rho) drho, with w the bump profile (or its Laplacian) and M_f(rho)
  the mean of f(|x|) over the circle |x - c| = rho.  That circle never
  meets the origin, so the angular rule converges like (rho/d)^n, and
  no arc width is formed from r - d, which loses digits as d/R grows.
  M_f is analytic in rho^2, so a Clenshaw-Curtis rule in rho^2 weighted
  by the bump's own shape needs it on few circles (17 for log and K0).
  Its tests take their scale from the mean of |f| over each circle, not
  from M_f, which cancels to 0 for log at d = 1.
- Origin frame, d < _KAPPA * R, and every mollified probe: f times the
  average of the bump (taken in squared distance, profile_sq or
  laplacian_sq) over the circles |x| = r, each taken only over the arc
  that meets the support, with r only over the annulus
  [max(0, d - R), d + R].  When the bump contains the origin (d < R) the
  annulus is cut at r = R - d, where the circle leaves the support and
  the average stops being analytic; both segments share the one call.

A circle's angular tolerance is a fixed floor, _ARC_TOL * _REL_TOL times
|w(0)| or, in the bump frame, times the largest mean of |f| over the
circles of a radial level.  In the origin frame it is raised to _ARC_TOL
times the node's share of the radial test, so nodes that carry little
of the pairing are refined less.  The reported estimate is the radial
one plus the weighted sum, over the nodes used, of each accepted angular
difference; the bump frame adds a round-off term for f at the rounded
distance, |x f'(|x|)| times a few ulp, f' from the first angular level.

All radial integrands must accept numpy arrays.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA
from .testfn import _shape, _shape_laplacian

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
# Relative tolerance of every pairing, the one value the estimate audits check
_REL_TOL = 1e-10
# math.exp(x) overflows for x above this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Nested trapezoid rule for arc averages of off-centre bumps: the first
# level has _ARC_START intervals on [0, w]; each further level halves
# them.  Bump profiles have root-exponential Fourier decay: on circles
# through the bump centre the Laplacian needs about 512 intervals.
_ARC_START = 8
_ARC_MAX_LEVEL = 12
# The angular rule stops when two levels agree to this fraction of
# _REL_TOL * |profile(0)| (origin frame) or _REL_TOL * the largest mean of
# |f| over the circles of one radial level (bump frame), or, where that is
# looser, of the error that would use a node's whole radial budget.
_ARC_TOL = 1e-3
# Round-off of g(|x|) in the bump frame, in ulps of |x|: the distance
# d sqrt(a^2 + b sin^2) carries a few.
_ROUND_ULPS = 8.0
# Bump frame: level k has m = 8 * 2^k Clenshaw-Curtis intervals (a Gaussian
# ring of width 0.05 R through the bump needs 256); weights cached per (laplacian, m)
_CC_MAX_LEVEL = 6
_CC_MOMENT_TOL = 1e-14
_CC_WEIGHTS = {}
# A bump centred at d >= _KAPPA * R is paired in its own frame: its
# circles |x - c| = rho <= R then stay at least d / 11 from the origin.
# At d = R the circle rho = R would pass through it.
_KAPPA = 1.1


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance.

    stage is "radial" for the tanh-sinh rule, whose failing column ran
    over interval = (lo, hi), or "angular" for a circle average, whose
    failing circle has radius r; level is the last level reached and
    last_difference the difference between its last two levels.
    """

    def __init__(self, message, stage=None, interval=None, r=None, level=None,
                 last_difference=None):
        super().__init__(message)
        self.stage, self.interval, self.r = stage, interval, r
        self.level, self.last_difference = level, last_difference


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


def _tanh_sinh(h, lo, hi, rel_tol, nested=False):
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

    With nested set, h is the outer integrand of a product rule whose
    values carry an inner error of their own.  It is called as h(x, cap):
    cap[i, j] is rel_tol times column j's running int |h| (from the levels
    before this one, so 0 at level 0) over node i's weight at this level,
    the error at that node that alone would use the column's whole
    tolerance; a column of weight 0 gets inf.  h returns (y, e): e >= 0
    bounds the inner error of y at each node, and the estimate adds its
    tanh-sinh sum over every node used.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    column = (-1,) + (1,) * half.ndim
    total = absolute = inner = 0.0
    diff, bound = np.full(half.shape, math.inf), 0.0  # what a failure at level 0 reports
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
        x = np.where(t < 0.0, lo + gap, hi - gap)
        dt = np.cosh(t) / (cosh_u * cosh_u)
        if nested:
            # the running int |h| is the last level's weight, twice this one's
            y, e = h(x, np.where(half > 0.0, 2.0 * rel_tol * absolute / dt, math.inf))
            inner = inner + (e * dt).sum(axis=0)
        else:
            y = h(x)
        y = y * dt
        total = total + y.sum(axis=0)
        absolute = absolute + np.abs(y).sum(axis=0)
        weight = 0.5 * math.pi * half * step
        table.append((level, weight * total))
        if level == 0:
            continue
        diff = abs(table[-1][1] - table[-2][1])
        bound = rel_tol * weight * absolute
        if (diff <= bound).all():
            value = table[-1][1]
            estimate = diff + 64.0 * _ULP * weight * absolute + weight * inner
            if np.ndim(value) == 0:
                return float(value), float(estimate), tuple((i, float(v)) for i, v in table)
            return value, estimate, tuple(table)
        if not (diff < math.inf).all():  # a NaN or infinite difference never settles
            break
    # name the column furthest outside its own test (a non-finite one first)
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(diff <= bound, -1.0, np.nan_to_num(diff / bound, nan=np.inf))
    j = int(np.argmax(excess))
    lo, hi, diff = (float(np.broadcast_to(a, np.shape(excess)).flat[j]) for a in (lo, hi, diff))
    raise QuadratureError(
        "tanh-sinh quadrature on [%r, %r] did not converge: level %d, last difference %r"
        % (lo, hi, level, diff), stage="radial", interval=(lo, hi), level=level,
        last_difference=diff)


def integrate_radial(g, r_max):
    """Integral of g(r) * 2*pi*r over (0, r_max] by the tanh-sinh rule.

    g must be vectorized and integrable with at worst a log singularity at
    the origin.  Returns a PairingReport whose table lists (level, value)
    rows, at least two.
    """
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ValueError("integrate_radial requires r_max > 0")
    return PairingReport(*_tanh_sinh(lambda r: TWO_PI * r * g(r), 0.0, r_max, _REL_TOL))


def _theta_average(kernel, d, r, unit, whole, atol, rtol=0.0, budget=None):
    """Mean of kernel(|x - p|^2 / unit^2) over each circle of radius r
    about a point q, where |p - q| = d.

    Measured from the point of the circle nearest p, a node at angle
    theta lies at squared distance a^2 + b sin^2(theta/2) from p, in
    units of unit, with a = (r - d)/unit and b = 4 (r/unit)(d/unit): no
    cancellation near theta = 0, no square root, and no square that
    overflows where r and d do not.  The origin frame averages a bump
    profile taken in squared distance (phi.profile_sq or laplacian_sq;
    p = c, q = 0, unit = R) over the circles |x| = r, only over the arc
    |theta| < w(r) where the circle meets the support: w = 2 arcsin of
    the root of (1 - |a|)(1 + |a|)/b, which keeps thin arcs far out, or pi
    once the circle lies inside the support.  The bump frame (whole set;
    p = 0, q = c, unit = d) averages f(d sqrt(.)) over the whole circles
    |x - c| = r.  The integrand is even in theta and flat where an arc
    ends, so the trapezoid rule on [0, w] converges like the periodic one.

    Levels double, each reusing the nodes of the last, until two agree to
    the circle's tolerance: atol + rtol * scale, where a circle's scale is
    the mean of |kernel| over its first level's nodes and the test takes
    the largest scale among the circles of the call (a circle's own scale
    can be as small as r near a zero of f, log |x| about |c| = 1, where
    f's round-off is not), raised to budget where the caller's radial rule
    allows more.

    r may have any shape, and budget that shape.  kernel receives squared
    distances shaped (nodes, angles) and returns that shape.  Returns the
    averages, the accepted level differences, the scales and
    |kernel(end) - kernel(nearest)| on the first level (in the bump frame
    |f(d + r) - f(d - r)|), each shaped r.
    """
    r = np.asarray(r, dtype=float)
    shape, r = r.shape, r.ravel()
    a, b = (r - d) / unit, 4.0 * (r / unit) * (d / unit)
    near = a * a
    if whole:
        w = np.full(r.shape, math.pi)
    else:
        gap = np.abs(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            half = (1.0 - gap) * (1.0 + gap) / b
        w = 2.0 * np.arcsin(np.sqrt(np.clip(np.nan_to_num(half, nan=0.0), 0.0, 1.0)))

    def arc(rows, frac):
        sin = np.sin(0.5 * math.pi * frac) if whole else np.sin(0.5 * w[rows, None] * frac)
        return kernel(near[rows, None] + b[rows, None] * (sin * sin))

    n = _ARC_START
    vals = arc(slice(None), np.arange(n + 1) / n)
    sums = vals[:, 1:-1].sum(axis=1) + 0.5 * (vals[:, 0] + vals[:, -1])
    avg = sums * w / (math.pi * n)
    ends = np.abs(vals[:, -1] - vals[:, 0])
    vals = np.abs(vals)
    scale = (vals[:, 1:-1].sum(axis=1) + 0.5 * (vals[:, 0] + vals[:, -1])) * w / (math.pi * n)
    tol = atol + rtol * scale.max()
    if budget is not None:  # fmax: a NaN budget (0/0) leaves the tolerance as it is
        tol = np.fmax(tol, np.ravel(budget))
    tol = np.broadcast_to(tol, avg.shape)
    diff = np.zeros_like(avg)
    active = np.flatnonzero(w > 0.0)
    level = 0
    while active.size:
        if level == _ARC_MAX_LEVEL:
            i = active[int(np.argmax(diff[active] - tol[active]))]
            rho, last = float(r[i]), float(diff[i])
            raise QuadratureError(
                "angular average did not converge at r=%r: level %d, last difference %r"
                % (rho, level, last), stage="angular", r=rho, level=level, last_difference=last)
        sums[active] += arc(active, (2.0 * np.arange(n) + 1.0) / (2 * n)).sum(axis=1)
        n *= 2
        level += 1
        new = sums[active] * w[active] / (math.pi * n)
        diff[active] = np.abs(new - avg[active])
        avg[active] = new
        active = active[diff[active] > tol[active]]
    return tuple(v.reshape(shape) for v in (avg, diff, scale, ends))


def _budget(cap, weight):
    """The angular tolerance at which a node's error, times |weight| (the
    outer factor that multiplies the average), takes _ARC_TOL of the
    radial error cap _tanh_sinh passes: inf where weight is 0, NaN where
    both are (see _theta_average)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _ARC_TOL * cap / np.abs(weight)


def _pair_columns(g, phi, laplacian, cap):
    """int 2 pi r g_j(r) w(r) dr over [max(0, d - R), min(d + R, cap_j)],
    the part of the annulus phi covers below cap_j, for each column j of
    g on one tanh-sinh mesh.  w is phi.profile (phi.profile_laplacian
    with laplacian set) for an origin-centred phi, else its arc average
    (see _theta_average), shared by every column of a node.  cap is a
    float, or caps of shape (k,) or (1,), which shape the nodes g
    receives as in _tanh_sinh.  Returns (values, estimates, table) as
    _tanh_sinh does.  This is the origin frame: pair_regular sends a bump
    far from the origin to _pair_in_bump_frame instead.

    Each node's angular tolerance is its share of the radial budget:
    _ARC_TOL times the error that would use column j's whole radial
    tolerance at that node (see _tanh_sinh, nested) over |2 pi r g_j|,
    the smallest over the columns that share the average, and never below
    _ARC_TOL * _REL_TOL * |w(0)|.  The angular part of column j's
    estimate is the tanh-sinh sum of |2 pi r g_j| times the accepted
    angular difference over the nodes used.

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
        prof = phi.profile_laplacian if laplacian else phi.profile
        return _tanh_sinh(lambda r: TWO_PI * r * (g(r) * prof(r)), lo, hi, _REL_TOL)
    split = d < R
    if split:
        kink = np.minimum(R - d, hi)
        lo, hi = np.stack([np.zeros_like(kink), kink]), np.stack([kink, hi])
    kernel = phi.laplacian_sq if laplacian else phi.profile_sq
    tol = _ARC_TOL * _REL_TOL * abs(float(kernel(0.0)))

    def h(r, cap):
        weight = TWO_PI * r * g(r)
        budget = _budget(cap, weight)
        if budget.shape != r.shape:  # columns share the node's average
            budget = np.fmin.reduce(budget, axis=-1, keepdims=True)
        avg, diff, _, _ = _theta_average(kernel, d, r, R, False, tol, budget=budget)
        return weight * avg, np.abs(weight) * diff

    value, err, table = _tanh_sinh(h, lo, hi, _REL_TOL, nested=True)
    if not split:
        return value, err, table
    if np.ndim(cap) == 0:
        return float(value.sum()), float(err.sum()), tuple((i, float(v.sum())) for i, v in table)
    return value.sum(axis=0), err.sum(axis=0), tuple((i, v.sum(axis=0)) for i, v in table)


def _cc_weights(laplacian, m):
    """Weights W_i = int_-1^1 eta l_i dx of the Lobatto nodes cos(pi i/m),
    l_i their Lagrange basis and eta(x) = _shape((1 + x)/2) (or
    _shape_laplacian): W_i = (2/m) c_i sum''_k mu_k cos(pi i k/m), c_0 =
    c_m = 1/2 and the k = 0, m terms halved, with mu_k = int eta T_k from
    one _tanh_sinh call in s = (1 + x)/2, T_k = cos(2k arccos sqrt(s)).
    They integrate each T_j, j <= m <= 512, within 0.65 of 64 ulp of
    sum_i |W_i T_j(x_i)| (tested against QUADPACK), so their own error
    stays under the pairing estimate's 64-ulp floor."""
    if (laplacian, m) not in _CC_WEIGHTS:
        eta = _shape_laplacian if laplacian else _shape
        k = np.arange(m + 1)
        mu = _tanh_sinh(lambda s: 2.0 * eta(s) * np.cos(2.0 * k * np.arccos(np.sqrt(s))),
                        np.zeros(1), np.ones(1), _CC_MOMENT_TOL)[0]
        c = np.where((k == 0) | (k == m), 0.5, 1.0)
        _CC_WEIGHTS[laplacian, m] = (2.0 / m) * c * (
            np.cos(math.pi / m * (np.outer(k, k) % (2 * m))) @ (c * mu))
    return _CC_WEIGHTS[laplacian, m]


def _pair_in_bump_frame(g, phi, laplacian):
    """int 2 pi rho w(rho) M(rho) drho over [0, R], w the profile (or
    Laplacian) of a bump centred at distance d >= _KAPPA * R and M the
    mean of g over the circle |x - c| = rho (_theta_average, in units of
    d).  In x = 2 rho^2/R^2 - 1 this is C int eta M dx, C = pi A R^2/2
    (2 pi A for the Laplacian), M analytic in x, taken by the rule of
    _cc_weights at rho_i = R cos(pi i/2m) = R sin(pi (m - i)/2m).  Level
    k has m = 8 * 2^k and adds the odd nodes, until two levels differ by
    at most _REL_TOL * |C| sum_i |W_i| S_i, S_i the mean of |g| over the
    circle's first angular level.  The estimate adds |C| sum_i |W_i|
    times each circle's accepted angular difference plus |x g'(|x|)| *
    _ROUND_ULPS ulp (g' = (g(d + rho) - g(d - rho))/(2 rho) on that
    level, |x| = d), and 64 ulp of the test's scale.
    """
    d, R, A = math.hypot(*phi.center), phi.radius, phi.amplitude
    C = TWO_PI * A if laplacian else 0.5 * math.pi * A * R * R
    kernel = lambda q: g(d * np.sqrt(q))

    def circles(i, m):
        # mean, accepted angular difference, S and round-off |x g'| ulps at rho_i
        rho = R * np.sin(0.5 * math.pi / m * (m - i))
        parts = np.stack(_theta_average(kernel, d, rho, d, True, 0.0, _ARC_TOL * _REL_TOL))
        parts[3] *= (0.5 * _ROUND_ULPS * _ULP * d) / np.where(rho > 0.0, rho, math.inf)
        return parts

    m, level, diff = 8, 0, math.inf
    parts = circles(np.arange(m + 1), m)
    table = [(0, C * (_cc_weights(laplacian, m) @ parts[0]))]
    for level in range(1, _CC_MAX_LEVEL + 1):
        m *= 2
        grown = np.empty((4, m + 1))
        grown[:, ::2], grown[:, 1::2] = parts, circles(np.arange(1, m, 2), m)
        parts, weights = grown, _cc_weights(laplacian, m)
        mean, angular, scale, slope = parts
        table.append((level, C * (weights @ mean)))
        diff = abs(table[-1][1] - table[-2][1])
        size = abs(C) * (np.abs(weights) @ scale)
        if diff <= _REL_TOL * size:
            estimate = diff + abs(C) * (np.abs(weights) @ (angular + slope)) + 64.0 * _ULP * size
            return float(table[-1][1]), float(estimate), tuple((i, float(v)) for i, v in table)
        if not diff < math.inf:  # a NaN or infinite difference never settles
            break
    last = float(diff)
    raise QuadratureError(
        "Clenshaw-Curtis quadrature on [0.0, %r] did not converge: level %d, last difference %r"
        % (R, level, last), stage="radial", interval=(0.0, R), level=level, last_difference=last)


def pair_regular(f, phi, move_ops=False):
    """Weak pairing <f, phi> (or <f, lap phi> when move_ops is set).

    f is a radial function of r = |x|, locally integrable with at worst a
    log singularity at the origin.  Origin-centered phi reduces to a 1D
    radial integral.  A phi centred at d >= _KAPPA * R is paired in its
    own frame: the profile times the mean of f over each circle
    |x - c| = rho, rho in [0, R], by a Clenshaw-Curtis rule in rho^2
    weighted by the profile (see _pair_in_bump_frame).  Otherwise f
    times the arc average of phi (see _theta_average) is integrated over
    the annulus max(0, d - R) <= r <= d + R, cut at R - d when phi
    contains the origin.  Off the origin the error estimate adds the
    angular part to the radial one.
    """
    if phi.origin_centered:
        prof = phi.profile_laplacian if move_ops else phi.profile
        return integrate_radial(lambda r: f(r) * prof(r), phi.radius)
    if math.hypot(*phi.center) >= _KAPPA * phi.radius:
        return PairingReport(*_pair_in_bump_frame(f, phi, move_ops))
    return PairingReport(*_pair_columns(f, phi, move_ops, math.inf))


def _pair_terms(fs, phi):
    """Lists of <f, phi> and their estimates for the radial functions fs.

    Against a phi centred at d < _KAPPA * R, the origin included, two or
    more f share one tanh-sinh call, one column each (see _pair_columns),
    and off the origin one arc average of phi per node serves every f.
    In the bump frame each f needs its own circle means, so each f is one
    pair_regular call; so is a single f, where the column arrays would
    cost more per level than the scalar rule.
    """
    if len(fs) == 1 or math.hypot(*phi.center) >= _KAPPA * phi.radius:
        reps = [pair_regular(f, phi) for f in fs]
        return [rep.value for rep in reps], [rep.abs_error_estimate for rep in reps]
    values, estimates, _ = _pair_columns(lambda r: np.concatenate([f(r) for f in fs], axis=-1),
                                         phi, False, (math.inf,))
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


def pair_mollified_product(f, fam, phi):
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
    values = _pair_columns(lambda r: f(r) * fam.delta_eps(eps, r), phi, False,
                           fam.cutoff_radius(eps))[0]
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
