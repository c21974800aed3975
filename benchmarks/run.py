"""delta2d benchmark: one closed-loop client, one process, three workloads.

    python3 benchmarks/run.py --workload offcentre|origin|symbolic \
        --seed N --seconds S --trace 0|1 [--edge]

Run from the repository root.  It imports delta2d from src/, as the
tier-1 tests do.  Each workload runs whole rounds of seeded tasks (see
workloads.py) until S seconds of task time have passed.  Every result is
checked against a reference that does not use delta2d (reference.py),
computed outside the timed region.

--trace 0 reports the end-to-end metrics, with tracing off.  Task times
are reference-speed times: a fixed kernel timed between tasks measures
how fast the machine ran, and the run's task times are scaled to a
machine where the kernel takes its reference time (calibrate.py).  The
raw times are printed beside them.
--trace 1 runs a fixed number of rounds twice, first untraced and then
with the per-layer wrappers of tracing.py installed, and reports the
per-layer metrics; its counts repeat exactly for a given seed.
--edge turns every 20th task into one from the ROADMAP item-4 edge range
(|alpha| <= 0.005, bump radii 1e-4 and 1e6) or a K0 grid past x = 700,
where delta2d has known defects; the default workloads contain none.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Rounds in a traced run, a fixed number so that the counts repeat; each
# pass takes 10-20 s on a 2-CPU machine at this commit.  Offcentre's are
# its verify round and one round of pairings.
TRACE_ROUNDS = {"offcentre": 2, "origin": 6, "symbolic": 700}


def measure_setup():
    """Median time of `import delta2d` in a fresh interpreter, after one
    import that is not counted (it may have to write bytecode caches)."""
    code = "import time; t = time.perf_counter(); import delta2d; print(time.perf_counter() - t)"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def warm_up(workloads):
    """Let lazy set-up finish before timing: one cheap call per layer."""
    workloads.call_cli(["k0", "--x", "1.0", "--format", "json"])
    workloads.call_cli(["pair", "--expr", "lap(psi(1.0)) + log_r", "--format", "json"])
    workloads.call_cli(["spectrum", "--format", "json"])


def execute(tasks, meter=None):
    """Run tasks back to back: [(task, outcome, seconds)].  The meter, if
    any, samples the machine's speed between tasks."""
    done = []
    for task in tasks:
        t0 = time.perf_counter()
        outcome = task.execute()
        dt = time.perf_counter() - t0
        done.append((task, outcome, dt))
        if meter:
            meter.ran(dt)
    return done


def judge(done):
    """[(kind, verdict, seconds)], checked outside the timed region.  A
    failed verdict's message names the task's inputs; nothing else of the
    task is kept, so memory does not grow with the run."""
    judged = []
    for task, outcome, dt in done:
        verdict = task.check(outcome)
        if not verdict.ok:
            verdict.why = "[%s] %s" % (task.label[:200], verdict.why)
        judged.append((task.kind, verdict, dt))
    return judged


def closed_loop(stream, seconds, meter):
    """Whole rounds until `seconds` of task time have passed.  Each round
    is checked as soon as it ends, so that outputs are not kept."""
    results, busy = [], 0.0
    for tasks in stream:
        for task in tasks:
            task.prepare()
        done = execute(tasks, meter)
        busy += sum(dt for _, _, dt in done)
        results.extend(judge(done))
        if busy >= seconds:
            meter.close()
            return results, busy


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(verdicts, busy):
    failed = [(kind, v) for kind, v, _ in verdicts if not v.ok]
    bounds = [v.bound for _, v, _ in verdicts if v.bound is not None]
    misses = sum(1 for est, err in bounds if est < err)
    # A failed task misses every latency limit: it sorts last, and a
    # percentile that lands on one reads as the whole run's task time.
    latencies = sorted(dt if v.ok else math.inf for _, v, dt in verdicts)
    p50, p90 = (min(nearest_rank(latencies, q), busy) * 1e3 for q in (0.5, 0.9))
    by_kind = {}
    for kind, _, dt in verdicts:
        by_kind.setdefault(kind, []).append(dt)
    return {
        "by_kind": by_kind,
        "attempted": len(verdicts),
        "failed": failed,
        "ok": len(verdicts) - len(failed),
        "bounds": len(bounds),
        "misses": misses,
        "p50_ms": p50,
        "p90_ms": p90,
        "busy": busy,
    }


def report(s, workload, args):
    import numpy
    import scipy

    print("delta2d benchmark: workload=%s seed=%d seconds=%d trace=%d edge=%d"
          % (workload, args.seed, args.seconds, args.trace, args.edge))
    print("python %s, numpy %s, scipy %s, %d CPUs; the machine may be shared, so wall "
          "times are indicative and counts are exact" % (platform.python_version(),
                                                         numpy.__version__, scipy.__version__,
                                                         os.cpu_count()))
    print("tasks: %d attempted, %d correct, %d failed (fail_frac %.4f) in %.3f s of task time"
          % (s["attempted"], s["ok"], len(s["failed"]), len(s["failed"]) / s["attempted"],
             s["busy"]))
    if s["bounds"]:
        print("error estimates: %d exact-identity tasks, %d below the actual error "
              "(err_bound_miss_frac %.4f)" % (s["bounds"], s["misses"], s["misses"] / s["bounds"]))
    else:
        print("error estimates: no exact-identity task in this workload")
    above = s["attempted"] - math.ceil(0.9 * s["attempted"])
    print("latency: p50 %.3f ms, p90 %.3f ms over %d tasks (%d above p90)"
          % (s["p50_ms"], s["p90_ms"], s["attempted"], above))
    for kind, times in sorted(s["by_kind"].items()):
        times = sorted(times)
        print("  %-14s %6d tasks, median %.3f ms, p90 %.3f ms"
              % (kind, len(times), statistics.median(times) * 1e3, nearest_rank(times, 0.9) * 1e3))
    for kind, v in s["failed"][:10]:
        print("  FAILED %s %s" % (kind, v.why))


def end_to_end(args, workloads):
    setup_s = measure_setup()
    warm_up(workloads)
    meter = calibrate.Speedometer(calibrate.WORKLOAD_KERNEL[args.workload])
    judged, raw_busy = closed_loop(workloads.rounds(args.workload, args.seed, args.edge),
                                   args.seconds, meter)
    scale = meter.scale()
    busy = raw_busy * scale
    s = summarize([(kind, v, dt * scale) for kind, v, dt in judged], busy)
    report(s, args.workload, args)
    raw = summarize(judged, raw_busy)
    kernel_ms = sorted(x * 1e3 for x in meter.samples)
    print("speed: %d samples of the %s kernel, median %.3f ms (min %.3f, max %.3f), "
          "%.3f ms at reference speed" % (len(kernel_ms), meter.kernel, statistics.median(kernel_ms),
                                         kernel_ms[0], kernel_ms[-1], meter.reference_s * 1e3))
    print("raw, unscaled: task time %.3f s, %.4f ok/s, p50 %.3f ms, p90 %.3f ms"
          % (raw_busy, raw["ok"] / raw_busy, raw["p50_ms"], raw["p90_ms"]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ok_per_s": (s["ok"] / busy, "1/s"),
        "task_p50_ms": (s["p50_ms"], "ms"),
        "task_p90_ms": (s["p90_ms"], "ms"),
        "err_bound_hold_frac": (1.0 - s["misses"] / s["bounds"] if s["bounds"] else 1.0,
                                "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return s, metrics


def per_layer(args, workloads, delta2d):
    import tracing

    stream = workloads.rounds(args.workload, args.seed, args.edge)
    tasks = [t for _, rnd in zip(range(TRACE_ROUNDS[args.workload]), stream) for t in rnd]
    for task in tasks:
        task.prepare()
    warm_up(workloads)
    untraced = sum(dt for _, _, dt in execute(tasks))
    tracer = tracing.Tracer(delta2d)
    tracer.install()
    try:
        done = execute(tasks)
    finally:
        tracer.uninstall()
    traced = sum(dt for _, _, dt in done)
    s = summarize(judge(done), traced)
    report(s, args.workload, args)
    values = tracer.metrics()
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return s, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("offcentre", "origin", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--edge", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "delta2d" / "__init__.py").is_file():
        print("error: %s not found; run from a delta2d checkout" % (SRC / "delta2d"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delta2d
    import workloads

    if args.trace:
        s, metrics = per_layer(args, workloads, delta2d)
    else:
        s, metrics = end_to_end(args, workloads)
    for name, (value, unit) in metrics.items():
        print("  %-32s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not s["failed"],
        "attempted": s["attempted"],
        "failed": len(s["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
