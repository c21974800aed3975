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
changes.  The printed median and worst of
error / (estimate + oracle tolerance) show an estimate grown far too
loose as well as one that misses.
"""

import math
import random

import numpy as np

from delta2d import QuadratureError, k0, make_bump, pair_regular

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


def _audit(cases):
    ratios, misses = [], []
    for kind, a, phi, move_ops in cases:
        f = np.log if kind == "log" else (lambda r, a=a: k0(a * np.asarray(r, float)))
        label = "%s a=%.3g R=%.3g c=%r move_ops=%s" % (kind, a, phi.radius, phi.center, move_ops)
        try:
            rep = pair_regular(f, phi, move_ops=move_ops)
        except QuadratureError as exc:
            misses.append("%s raised %s" % (label, exc))
            continue
        want, oracle_tol = off_centre_oracle(kind, a, phi, laplacian=move_ops)
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
