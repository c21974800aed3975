import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from delta2d import cli, k0, make_bump, quad
from delta2d.cli import main, _parse_alpha, _parse_range

from conftest import off_centre_oracle


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stream=out)
    return code, out.getvalue()


def test_parse_alpha_literals():
    assert _parse_alpha("1.5") == 1.5
    assert _parse_alpha("4pi") == 4.0 * math.pi
    assert _parse_alpha("pi") == math.pi
    assert _parse_alpha("-pi") == -math.pi
    assert _parse_alpha("-0.5pi") == -0.5 * math.pi


def test_parse_range():
    assert _parse_range("1:2:2") == [1.0, 2.0]
    assert _parse_range("3:7:1") == [3.0]
    assert _parse_range("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        _parse_range("1:2")
    with pytest.raises(ValueError):
        _parse_range("1:2:0")


def test_k0_command_json():
    code, text = run_cli(["k0", "--x", "1.0", "0.1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["rows"][0]["k0"] == pytest.approx(0.4210244382407084, rel=1e-12)
    assert doc["rows"][1]["k0"] == pytest.approx(2.4270690247020166, rel=1e-12)


def test_k0_grid_and_validation():
    code, text = run_cli(["k0", "--grid", "0.1:10:5", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    xs = [row["x"] for row in doc["rows"]]
    assert len(xs) == 5
    assert xs[0] == pytest.approx(0.1) and xs[-1] == pytest.approx(10.0)
    # log spacing: constant ratio
    ratios = [b / a for a, b in zip(xs[:-1], xs[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)
    code, _ = run_cli(["k0", "--grid=-1:10:5"])
    assert code == 2


def test_k0_grid_matches_scalar_loop():
    # one array call gives the bytes the per-x scalar calls gave
    code, text = run_cli(["k0", "--grid", "1e-6:50:30", "--format", "json"])
    assert code == 0
    xs = [row["x"] for row in json.loads(text)["rows"]]
    want = {"schema_version": 1, "command": "k0", "rows": [{"x": x, "k0": k0(x)} for x in xs],
            "summary": {"count": len(xs)}}
    assert text == json.dumps(want, indent=2) + "\n"
    code, text = run_cli(["k0", "--x", "--format", "json"])
    assert code == 0 and json.loads(text)["rows"] == []


def test_k0_underflow_is_refused(capsys):
    code, text = run_cli(["k0", "--x", "800"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: K0(800.0) underflows")


def test_spectrum_unit_case():
    code, text = run_cli(["spectrum", "--alpha", "1", "--L", "1:1:1",
                          "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    row = doc["rows"][0]
    assert row["status"] == "pass"
    assert row["b_star"] == pytest.approx(0.04852572846255832, rel=1e-12)
    assert row["E_closed_form"] == pytest.approx(-0.0011773731614109714, rel=1e-14)
    assert row["rel_diff"] <= 1e-12
    assert doc["summary"]["failed"] == 0


def test_spectrum_L_range_quarter_energy():
    code, text = run_cli(["spectrum", "--alpha", "1", "--L", "1:2:2",
                          "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    rows = [r for r in doc["rows"] if r["row_type"] == "c_spectrum"]
    assert len(rows) == 2
    assert rows[1]["E_closed_form"] == pytest.approx(rows[0]["E_closed_form"] / 4.0,
                                                     rel=1e-14)


def test_spectrum_aghh_row_present_at_collapse_point():
    code, text = run_cli(["spectrum", "--hbar", str(math.sqrt(2.0)), "--mass", "1",
                          "--alpha", "4pi", "--L", "1:1:1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    kinds = [r["row_type"] for r in doc["rows"]]
    assert "aghh_singleton" in kinds
    agh = [r for r in doc["rows"] if r["row_type"] == "aghh_singleton"][0]
    assert agh["E_closed_form"] == pytest.approx(
        -4.0 * math.exp(-2.0 * 0.5772156649015329 - 1.0), rel=1e-12)
    assert agh["status"] == "pass"


def test_spectrum_invalid_alpha_is_usage_error():
    code, _ = run_cli(["spectrum", "--alpha", "0", "--L", "1:1:1"])
    assert code == 2


@pytest.mark.parametrize("alpha", ["-0.001", "-0.003", "-0.005"])
def test_spectrum_overflowing_coupling_is_refused(alpha, capsys):
    # b* exceeds the double range at these weak attractive couplings
    code, text = run_cli(["spectrum", "--alpha=" + alpha, "--L", "1:1:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert text == "" and captured.out == ""


def test_pair_fundamental_solution():
    code, text = run_cli(["pair", "--expr", "lap(log_r)", "--phi-amplitude", "2.0",
                          "--phi-radius", "1.0", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["value"] == pytest.approx(4.0 * math.pi, rel=1e-12)
    kinds = [r["kind"] for r in doc["rows"]]
    assert "trace" in kinds and "canonical" in kinds and "pairing" in kinds


def test_pair_off_centre_log_against_jensen_oracle():
    argv = ["pair", "--phi-center", "3,0", "--expr", "log_r", "--format", "json"]
    code, text = run_cli(argv)
    assert code == 0
    summary = json.loads(text)["summary"]
    want, oracle_tol = off_centre_oracle("log", 1.0, make_bump(1.0, 1.0, (3.0, 0.0)))
    err = abs(summary["value"] - want)
    assert err <= 1e-8 * (1.0 + abs(want))
    assert err <= summary["abs_error_estimate"] + oracle_tol
    assert run_cli(argv) == (code, text)


def test_pair_at_a_centre_near_the_top_of_the_double_range():
    # r * d overflows a double here; the pairing must neither fail nor warn
    argv = ["pair", "--expr", "log_r", "--phi-center", "1e160,0", "--phi-radius", "1e150",
            "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, text = run_cli(argv)
    assert code == 0
    want, _ = off_centre_oracle("log", 1.0, make_bump(1.0, 1e150, (1e160, 0.0)))
    assert json.loads(text)["summary"]["value"] == pytest.approx(want, rel=1e-12)


def test_pair_k0_delta_trace_and_value():
    code, text = run_cli(["pair", "--expr", "K0(1.0*r)*delta", "--L", "1.0",
                          "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    trace_rules = [r["name"] for r in doc["rows"] if r["kind"] == "trace"]
    assert "product-k0-delta" in trace_rules
    gamma = 0.5772156649015329
    assert doc["summary"]["value"] == pytest.approx(-(math.log(0.5) + gamma), rel=1e-12)
    # mollified probe table and its log fit are reported
    kinds = [r["kind"] for r in doc["rows"]]
    assert "mollified" in kinds and "logfit" in kinds


@pytest.mark.parametrize("radius", ["1e-4", "5e-5"])
def test_pair_probe_on_a_tiny_bump(radius):
    # only eps = 2^-14 lies below 1e-4 (one row, too few to fit) and none
    # below 5e-5 (no probe)
    code, text = run_cli(["pair", "--expr", "K0(1.0*r)*delta", "--phi-radius", radius,
                          "--format", "json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    moll = [r["detail"] for r in rows if r["kind"] == "mollified"]
    assert moll == (["eps=%r" % 2.0 ** -14] if radius == "1e-4" else [])
    assert "logfit" not in [r["kind"] for r in rows]


def test_pair_log_fit_scale_overflow_near_the_support_edge():
    # phi(0) = 4e-22 at centre (0.99, 0): intercept/phi0 is about 3e18, so
    # the fitted scale overflows; it is reported as inf and every other row
    # stands (the fit itself means nothing this far from the log regime)
    code, text = run_cli(["pair", "--expr", "K0(1.0*r)*delta", "--phi-center", "0.99,0",
                          "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    phi0 = make_bump(1.0, 1.0, (0.99, 0.0)).at_origin()
    gamma = 0.5772156649015329
    assert doc["summary"]["value"] == pytest.approx(-(math.log(0.5) + gamma) * phi0, rel=1e-12)
    assert len([r for r in doc["rows"] if r["kind"] == "mollified"]) == 11
    (fit,) = [r["detail"] for r in doc["rows"] if r["kind"] == "logfit"]
    assert " scale=inf " in fit


def test_pair_log_delta_mollified_table():
    code, text = run_cli(["pair", "--expr", "log_r*delta", "--phi-radius", "2.0",
                          "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["value"] == 0.0
    moll = [r for r in doc["rows"] if r["kind"] == "mollified"]
    assert len(moll) >= 8
    vals = [float(r["after"]) for r in moll]
    assert vals[-1] < vals[0] < 0.0  # diverges to -infinity as eps -> 0


def test_pair_syntax_error_is_usage_error():
    code, _ = run_cli(["pair", "--expr", "frob(1)"])
    assert code == 2


def test_pair_syntax_error_is_usage_error_in_a_fresh_process():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "delta2d.cli", "pair", "--expr", "log_r +"],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_pair_quadrature_failure_exits_1(monkeypatch, capsys):
    # one refinement level: the radial rule cannot converge
    monkeypatch.setattr(quad, "_TS_MAX_LEVEL", 1)
    code, text = run_cli(["pair", "--expr", "log_r"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("quad_loaded", [True, False])
def test_other_runtime_errors_propagate(monkeypatch, quad_loaded):
    def broken(args, stream):
        raise RuntimeError("not a quadrature failure")

    monkeypatch.setattr(cli, "cmd_spectrum", broken)
    if not quad_loaded:
        monkeypatch.delitem(sys.modules, "delta2d.quad")
    with pytest.raises(RuntimeError, match="not a quadrature failure"):
        run_cli(["spectrum"])


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_rewrite_suite_passes():
    code, text = run_cli(["verify", "--suite", "rewrite", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["failed"] == 0
    assert all(r["status"] == "pass" for r in doc["rows"])


@pytest.mark.slow
def test_verify_identities_suite_passes():
    code, text = run_cli(["verify", "--suite", "identities", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["summary"]["failed"] == 0


def test_output_is_deterministic():
    argv = ["spectrum", "--alpha", "2", "--L", "0.5:2:4", "--format", "csv"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second
    assert first.startswith("schema_version,1\n")

    argv = ["verify", "--suite", "rewrite", "--format", "json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


@pytest.mark.parametrize("argv", [["spectrum"], ["k0", "--x", "1.0", "0.5"]])
def test_text_format_prints_the_json_rows_and_summary(argv):
    # every expected line comes from the JSON output of the same command
    code, text = run_cli(argv + ["--format", "text"])
    json_code, json_text = run_cli(argv + ["--format", "json"])
    assert code == json_code == 0
    doc = json.loads(json_text)
    cell = lambda v: repr(v) if isinstance(v, float) else str(v)
    want = ["== %s ==" % argv[0]]
    want += ["  ".join("%s=%s" % (k, cell(v)) for k, v in row.items()) for row in doc["rows"]]
    want += ["summary %s = %s" % (k, cell(v)) for k, v in doc["summary"].items()]
    assert text.splitlines() == want
