"""Standing audit: every pairing's error estimate bounds its actual error.

A seeded sweep of pairings <f, phi> (or <f, lap phi>) over the whole
parameter range, each checked against the QUADPACK oracle in conftest:
bump radii R log-uniform in [1e-3, 1e3], centres at d/R from 1e-3 to
1e12 (bands inside the bump, on either side of 1.6, and far),
f = log|x| or K0(a|x|) with aR in [0.1, 10], move_ops at random, plus the
bumps on the unit circle, where the mean of log|x| over every circle
about the centre is 0.  A second sweep, on its own seed, dwells where
the origin frame averages arcs and at the benchmark's strata, and a
third dwells on either side of quad._KAPPA = 1.1, where the frame
changes.  A fourth pairs sums of two or three regular terms, some under
lap, through weak_pair_expr, against the sum of the terms' oracles.  The
printed median and worst of error / (estimate + oracle tolerance) show
an estimate grown far too loose as well as one that misses.
"""

import math
import random

import numpy as np

from delta2d import (QuadratureError, dexpr, k0, make_bump, pair_regular, print_expr,
                     weak_pair_expr)
from delta2d.quad import _BUMP_PROFILE_NORM

from conftest import off_centre_oracle

AUDIT_SEED = 15
AUDIT_CASES = 48
# d/R bands, cycled: the bump contains the origin, lies on either side of
# 1.6 (the frame boundary before quad._KAPPA fell to 1.1), or lies far away
D_OVER_R_BANDS = ((1e-3, 1.0), (1.0, 1.6), (1.6, 8.0), (8.0, 1e12))
# A second sweep on its own seed, weighted toward d/R < 1.6, where the
# origin frame averaged arcs, and toward the benchmark's strata (0.4,
# 1.75 and 4.5 R, within 3 %)
SWEEP_SEED = 16
SWEEP_CASES = 96
SWEEP_BANDS = ((1e-3, 1.0), (1.0, 1.6), (1e-3, 1.6), (0.388, 0.412), (1.6975, 1.8025),
               (4.365, 4.635), (1.6, 8.0), (8.0, 1e12))
# A third, on either side of quad._KAPPA = 1.1: the origin frame just
# below it, the bump frame just above, where its outer circles pass
# closest to the origin
KAPPA_SEED = 22
KAPPA_CASES = 32
KAPPA_BANDS = ((1.0, 1.1), (1.1, 1.25))
# A fourth, of sums of regular terms: d/R = 0 (origin-centred), inside
# the bump, either side of quad._KAPPA, and far away
MULTI_SEED = 27
MULTI_CASES = 60
MULTI_BANDS = (None, (1e-3, 1.0), (1.0, 1.1), (1.1, 1.25), (1.25, 8.0), (8.0, 1e12))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def audit_cases(seed=AUDIT_SEED, count=AUDIT_CASES, bands=D_OVER_R_BANDS, unit_circle=True):
    """(kind, a, phi, move_ops) tuples, the same on every run."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        R = _log_uniform(rng, 1e-3, 1e3)
        d = R * _log_uniform(rng, *bands[i % len(bands)])
        theta = rng.uniform(0.0, 2.0 * math.pi)
        kind = rng.choice(("log", "k0"))
        a = 1.0 if kind == "log" else _log_uniform(rng, 0.1, 10.0) / R
        phi = make_bump(rng.uniform(0.5, 2.0), R, (d * math.cos(theta), d * math.sin(theta)))
        cases.append((kind, a, phi, rng.random() < 0.5))
    if unit_circle:
        for R in (0.5, 0.25, 1e-4):
            for move_ops in (False, True):
                cases.append(("log", 1.0, make_bump(1.0, R, (0.6, 0.8)), move_ops))
    return cases


def multi_term_cases(seed=MULTI_SEED, count=MULTI_CASES, bands=MULTI_BANDS):
    """(expr, phi, oracle) tuples, the same on every run: expr is a sum of
    two or three regular leaves (log_r, log_r_over(s), K0(a*r), psi(b))
    with coefficients in [-3, 3], every other one under lap, and oracle()
    returns the sum of the leaves' off-centre oracles and of their
    tolerances, each times |coefficient|."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        R = _log_uniform(rng, 1e-3, 1e3)
        band = bands[i % len(bands)]
        d = 0.0 if band is None else R * _log_uniform(rng, *band)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        phi = make_bump(rng.uniform(0.5, 2.0), R, (d * math.cos(theta), d * math.sin(theta)))
        lap = i % 2 == 1
        terms, leaves = [], []
        for _ in range(rng.choice((2, 3))):
            c, kind = rng.uniform(-3.0, 3.0), rng.choice(("log", "log_over", "k0", "psi"))
            if kind == "log":
                leaf, oracle = dexpr.LogRadial(), ("log", 1.0, 1.0, 0.0)
            elif kind == "log_over":
                s = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-3, 1e3)
                # log r - log|s|: the constant pairs to log|s| times the bump's
                # integral, and to 0 under lap
                integral = phi.amplitude * R * R / _BUMP_PROFILE_NORM
                shift = 0.0 if lap else math.log(abs(s)) * integral
                leaf, oracle = dexpr.LogRadialScaled(s), ("log", 1.0, 1.0, shift)
            elif kind == "k0":
                a = _log_uniform(rng, 0.1, 10.0) / R
                leaf, oracle = dexpr.K0Radial(a), ("k0", a, 1.0, 0.0)
            else:
                b = _log_uniform(rng, 0.1, 10.0) / R
                leaf, oracle = dexpr.Psi(b), ("k0", b, b / math.sqrt(math.pi), 0.0)
            terms.append(dexpr.ScalarMul(c, leaf))
            leaves.append((c,) + oracle)
        expr = dexpr.Sum(tuple(terms))

        def oracle(leaves=leaves, phi=phi, lap=lap):
            want = tol = 0.0
            for c, kind, a, pre, shift in leaves:
                v, t = off_centre_oracle(kind, a, phi, laplacian=lap)
                want += c * (pre * v - shift)
                tol += abs(c) * pre * t
            return want, tol

        cases.append((dexpr.Laplacian(expr) if lap else expr, phi, oracle))
    return cases


def _audit(cases):
    """Audit pair_regular on (kind, a, phi, move_ops) cases."""
    pairings = []
    for kind, a, phi, move_ops in cases:
        f = np.log if kind == "log" else (lambda r, a=a: k0(a * np.asarray(r, float)))
        label = "%s a=%.3g R=%.3g c=%r move_ops=%s" % (kind, a, phi.radius, phi.center, move_ops)
        pairings.append((label, lambda f=f, phi=phi, m=move_ops: pair_regular(f, phi, move_ops=m),
                         lambda kind=kind, a=a, phi=phi, m=move_ops:
                             off_centre_oracle(kind, a, phi, laplacian=m)))
    _check(pairings)


def _check(pairings):
    """Check each (label, pair, oracle): the estimate of the report pair()
    returns bounds its error against oracle()'s (value, tolerance)."""
    ratios, misses = [], []
    for label, pair, oracle in pairings:
        try:
            rep = pair()
        except QuadratureError as exc:
            misses.append("%s raised %s" % (label, exc))
            continue
        want, oracle_tol = oracle()
        ratio = abs(rep.value - want) / (rep.abs_error_estimate + oracle_tol)
        ratios.append(ratio)
        if not ratio <= 1.0:
            misses.append("%s: error/(estimate + tolerance) = %.3g" % (label, ratio))
    print("estimate audit: %d pairings, error/(estimate + oracle tolerance) median %.3g, "
          "worst %.3g" % (len(ratios), float(np.median(ratios)), max(ratios)))
    assert not misses, "\n".join(misses)


def test_every_estimate_bounds_its_error():
    _audit(audit_cases())


def test_every_estimate_bounds_its_error_near_the_origin_and_the_strata():
    _audit(audit_cases(SWEEP_SEED, SWEEP_CASES, SWEEP_BANDS, unit_circle=False))


def test_every_estimate_bounds_its_error_on_either_side_of_kappa():
    _audit(audit_cases(KAPPA_SEED, KAPPA_CASES, KAPPA_BANDS, unit_circle=False))


def test_every_multi_term_estimate_bounds_its_error():
    _check([("%s R=%.3g c=%r" % (print_expr(expr), phi.radius, phi.center),
             lambda expr=expr, phi=phi: weak_pair_expr(expr, phi), oracle)
            for expr, phi, oracle in multi_term_cases()])
