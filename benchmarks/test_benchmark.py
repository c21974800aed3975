"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""

import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import delta2d  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def first_tasks(workload, seed, n, edge=False):
    return list(itertools.islice(itertools.chain.from_iterable(
        W.rounds(workload, seed, edge)), n))


def run_tasks(tasks):
    for task in tasks:
        task.prepare()
    done = run.execute(tasks)
    return run.summarize(run.judge(done), sum(dt for _, _, dt in done))


@pytest.mark.parametrize("workload", sorted(W.ROUNDS))
def test_same_seed_same_task_list(workload):
    n = 10 if workload == "offcentre" else 40
    a = [(t.kind, t.label) for t in first_tasks(workload, 7, n)]
    b = [(t.kind, t.label) for t in first_tasks(workload, 7, n)]
    c = [(t.kind, t.label) for t in first_tasks(workload, 8, n)]
    assert a == b
    assert [k for k, _ in a] == [k for k, _ in c]
    assert a != c


def test_edge_tasks_replace_every_twentieth():
    plain = first_tasks("symbolic", 3, 40)
    edge = first_tasks("symbolic", 3, 40, edge=True)
    assert [t.label for t in edge[:19]] == [t.label for t in plain[:19]]
    assert edge[19].kind == "spectrum_cli"
    alpha = float(edge[19].label.split("--alpha=")[1].split()[0])
    assert 0.0 < abs(alpha) <= 0.005
    assert edge[39].kind == "k0_grid"
    assert float(edge[39].label.split(":")[1]) > 700.0


def test_symbolic_and_origin_tasks_pass_at_this_commit():
    s = run_tasks(first_tasks("symbolic", 1, 40) + first_tasks("origin", 1, 8))
    assert s["failed"] == [], [v.why for _, v in s["failed"]]
    assert s["bounds"] == 4


def test_planted_wrong_reference_is_a_failure():
    task = next(t for t in first_tasks("symbolic", 1, 10) if t.kind == "k0_x")
    task.prepare()
    task.ref = [(x, 2.0 * k) for x, k in task.ref]
    s = run.summarize(run.judge([(task, task.execute(), 0.001)]), 0.001)
    assert len(s["failed"]) == 1
    assert s["failed"][0][1].why.startswith("[k0 --x ")
    assert "] tolerance: " in s["failed"][0][1].why


def test_escaping_exception_is_a_failure_not_raised(monkeypatch):
    def broken(argv=None, stream=None):
        raise RuntimeError("planted")

    monkeypatch.setattr(delta2d.cli, "main", broken)
    task = next(t for t in first_tasks("symbolic", 1, 10) if t.kind == "spectrum_cli")
    task.prepare()
    outcome = task.execute()
    assert isinstance(outcome.exc, RuntimeError)
    verdict = task.check(outcome)
    assert not verdict.ok and verdict.why.startswith("exception: RuntimeError")


@pytest.mark.parametrize("outcome, category", [
    (W.Outcome(rc=3, out="", err=""), "exit-code"),
    (W.Outcome(rc=2, out="", err="error: refused"), "refusal"),
    (W.Outcome(rc=0, out="not json", err=""), "output"),
])
def test_cli_outcomes_that_fail(outcome, category):
    task = next(t for t in first_tasks("symbolic", 1, 10) if t.kind == "k0_x")
    task.prepare()
    verdict = task.check(outcome)
    assert not verdict.ok and verdict.why.startswith(category)


def test_negative_zero_and_non_finite_values_fail():
    with pytest.raises(W.Fail, match="^non-finite"):
        W.expect(-0.0, -1e-300, 1.0, "energy")
    with pytest.raises(W.Fail, match="^non-finite"):
        W.expect(math.inf, 1.0, 1.0, "value")
    W.expect(0.0, 0.0, 0.0, "exact zero")


def test_refusal_allowed_only_outside_the_double_range():
    b, energy, log_e = ref.spectrum_row(1.0, 1.0, 0.002, 1.0)
    assert b is None and energy is None and log_e < -700
    b, energy, _ = ref.spectrum_row(1.0, 1.0, 0.5, 1.0)
    assert energy == pytest.approx(-2.0 * math.exp(-2 * ref.EULER_GAMMA - 4 * math.pi), rel=1e-14)
    assert b > 0


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.2), (4.5, 1.0)])
def test_reference_pairings_meet_the_exact_identities(center):
    amp, radius, a = 1.3, 1.1, 0.7
    phi0 = ref.bump_at_origin(amp, radius, center)
    log_lap = ref.pairing("log", 1.0, amp, radius, center, laplacian=True)
    k0_lap = ref.pairing("k0", a, amp, radius, center, laplacian=True)
    k0_val = ref.pairing("k0", a, amp, radius, center)
    assert log_lap == pytest.approx(2 * math.pi * phi0, abs=1e-12)
    assert k0_lap - a * a * k0_val == pytest.approx(-2 * math.pi * phi0, abs=1e-12)


def _traced_counts(tasks):
    tracer = tracing.Tracer(delta2d)
    originals = (delta2d.specfun.k0, delta2d.cli.k0, delta2d.cli.main,
                 delta2d.quad.pair_regular, delta2d.testfn.BumpFunction.__dict__["profile"])
    tracer.install()
    try:
        run.execute(tasks)
    finally:
        tracer.uninstall()
    assert originals == (delta2d.specfun.k0, delta2d.cli.k0, delta2d.cli.main,
                         delta2d.quad.pair_regular,
                         delta2d.testfn.BumpFunction.__dict__["profile"])
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly_and_see_every_layer():
    tasks = first_tasks("symbolic", 2, 16) + first_tasks("origin", 2, 4)
    for task in tasks:
        task.prepare()
    first, second = _traced_counts(tasks), _traced_counts(tasks)
    assert first == second
    for name in ("specfun.k0.calls", "testfn.eval.points", "quad.calls", "quad.levels",
                 "quad.integrand_points", "dexpr.parse.calls", "dexpr.rewrite.steps",
                 "dexpr.weak_pair.calls", "spectrum.solve.residual_evals", "cli.calls",
                 "cli.bytes_out"):
        assert first[name] > 0, name
    assert first["specfun.k0.points"] > first["specfun.k0.calls"]


def test_speedometer_samples_as_task_time_passes_and_scales_by_the_median():
    meter = calibrate.Speedometer("small")
    meter.ran(0.5 * calibrate.CALIB_EVERY_S)
    assert len(meter.samples) == 1
    meter.ran(0.5 * calibrate.CALIB_EVERY_S)
    assert len(meter.samples) == 2
    meter.samples = [0.004, 0.008, 0.002, 0.001, 0.003]
    assert meter.scale() == pytest.approx(meter.reference_s / 0.003)


@pytest.mark.parametrize("workload", sorted(W.ROUNDS))
def test_every_workload_has_a_kernel(workload):
    assert calibrate.sample(calibrate.WORKLOAD_KERNEL[workload], 1) > 0.0
