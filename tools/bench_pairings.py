"""Per-call figures of single pairings, for one or more delta2d source trees.

    python tools/bench_pairings.py [--repeat N] [--rounds K] SRC [SRC ...]

SRC is the root of a delta2d checkout (its src/ goes on sys.path).  For
each case -- pair_regular of log, K0(1.) and psi_1 = K0(1.)/sqrt(pi)
against the bump A = 1, R = 1 at (d, 0), d in {0.4, 1.75, 4.5}, with and
without move_ops, plus origin-centred pair_regular and integrate_radial
controls -- every tree reports the points its angular rule evaluates
(the size of every argument passed to quad._theta_average's kernel), the
points its radial rule evaluates (the size of every node array passed to
a quad._tanh_sinh integrand, plus every circle the bump frame averages
outside one, its Clenshaw-Curtis nodes), the value, the estimate, and
the minimum time per call over N calls with the counting hooks removed.
Each case runs once before it is counted, so that work cached on first
use (the Clenshaw-Curtis weights) is counted by no case.  Each round
runs one fresh process per tree, alternating which tree goes first; the
time reported is the minimum over rounds.  Prints JSON.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

STRATA = (0.4, 1.75, 4.5)
FUNCTIONS = ("log", "k0", "psi")


def _cases(np, quad, testfn, k0):
    funcs = {"log": np.log, "k0": lambda r: k0(np.asarray(r)),
             "psi": lambda r: (1.0 / math.sqrt(math.pi)) * k0(np.asarray(r))}
    cases = {}
    for d in STRATA:
        for name in FUNCTIONS:
            for move_ops in (False, True):
                phi = testfn.make_bump(1.0, 1.0, (d, 0.0))
                cases["%s d/R=%g move_ops=%s" % (name, d, move_ops)] = (
                    lambda f=funcs[name], phi=phi, m=move_ops: quad.pair_regular(f, phi, move_ops=m))
    phi = testfn.make_bump(1.0, 1.0)
    for name in ("log", "k0"):
        cases["control pair_regular %s origin" % name] = (
            lambda f=funcs[name]: quad.pair_regular(f, phi))
    cases["control integrate_radial k0*bump"] = (
        lambda: quad.integrate_radial(lambda r: k0(r) * phi.profile(r), 1.0))
    return cases


def worker(src, repeat):
    sys.path.insert(0, str(Path(src) / "src"))
    import numpy as np
    from delta2d import k0, quad, testfn

    counts = {"angular": 0, "radial": 0}
    theta, tanh_sinh = quad._theta_average, quad._tanh_sinh
    depth = [0]  # tanh-sinh calls open: their nodes are counted already

    def counting_theta(kernel, d, r, unit, whole, *args, **kwargs):
        def counted(q):
            counts["angular"] += int(np.size(q))
            return kernel(q)
        if whole and not depth[0]:
            counts["radial"] += int(np.size(r))
        return theta(counted, d, r, unit, whole, *args, **kwargs)

    def counting_tanh_sinh(h, *args, **kwargs):
        def counted(x, *rest):
            counts["radial"] += int(np.size(x))
            return h(x, *rest)
        depth[0] += 1
        try:
            return tanh_sinh(counted, *args, **kwargs)
        finally:
            depth[0] -= 1

    out = {}
    for name, call in _cases(np, quad, testfn, k0).items():
        call()
        counts.update(angular=0, radial=0)
        quad._theta_average, quad._tanh_sinh = counting_theta, counting_tanh_sinh
        try:
            rep = call()
        finally:
            quad._theta_average, quad._tanh_sinh = theta, tanh_sinh
        best = math.inf
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        out[name] = dict(counts, value=rep.value, estimate=rep.abs_error_estimate,
                         time_ms=1e3 * best)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+")
    ap.add_argument("--repeat", type=int, default=30)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(worker(args.src[0], args.repeat), sys.stdout)
        return
    merged = {src: None for src in args.src}
    for k in range(args.rounds):
        order = args.src if k % 2 == 0 else args.src[::-1]
        for src in order:
            run = subprocess.run([sys.executable, __file__, "--worker", "--repeat",
                                  str(args.repeat), src], check=True, capture_output=True,
                                 text=True)
            got = json.loads(run.stdout)
            if merged[src] is None:
                merged[src] = got
            else:
                for name, row in got.items():
                    merged[src][name]["time_ms"] = min(merged[src][name]["time_ms"],
                                                       row["time_ms"])
    for src in args.src:
        lines = sum(len(p.read_text().splitlines())
                    for p in sorted((Path(src) / "src" / "delta2d").glob("*.py")))
        merged[src] = {"src_lines": lines, "cases": merged[src]}
    json.dump(merged, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
