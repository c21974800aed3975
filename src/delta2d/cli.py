"""Command-line front end.

Subcommands: verify (identity/rewrite suites), spectrum (bound-state
tables over a range of reference lengths L), pair (weak pairing of a
parsed expression, with trace and mollified probe for singular products),
and k0 (MacDonald function values).

Exit codes: 0 all checks pass, 1 some check failed, 2 usage/validation
error or a result outside the double range.  Output is deterministic:
identical inputs produce byte-identical CSV/JSON.
"""

import argparse
import json
import math
import random
import sys

from . import dexpr, spectrum
from .specfun import EULER_GAMMA, k0, k0_log_form

SCHEMA_VERSION = 1

_VERIFY_BUMPS = (
    (1.0, 0.5, (0.0, 0.0)),
    (1.0, 1.0, (0.0, 0.0)),
    (1.0, 2.0, (0.0, 0.0)),
    (2.0, 1.0, (0.0, 0.0)),
    (1.0, 1.0, (5.0, 0.0)),
)


def _parse_alpha(text):
    """Decimal literal, optionally with a trailing 'pi' factor ('4pi')."""
    t = text.strip()
    if t.endswith("pi"):
        head = t[:-2]
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        return float(head) * math.pi
    return float(t)


def _parse_range(text):
    """'start:stop:count' -> inclusive list of floats."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be start:stop:count")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _emit(fmt, command, rows, summary, stream):
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "rows": rows, "summary": summary}
    if fmt == "json":
        stream.write(json.dumps(doc, indent=2) + "\n")
        return
    if fmt == "csv":
        stream.write("schema_version,%d\n" % SCHEMA_VERSION)
        if rows:
            header = list(rows[0].keys())
            stream.write(",".join(header) + "\n")
            for row in rows:
                stream.write(",".join(_csv_cell(row.get(k, "")) for k in header) + "\n")
        for key in summary:
            stream.write("summary.%s,%s\n" % (key, _csv_cell(summary[key])))
        return
    # text
    stream.write("== %s ==\n" % command)
    for row in rows:
        stream.write("  ".join("%s=%s" % (k, _csv_cell(v)) for k, v in row.items()) + "\n")
    for key in summary:
        stream.write("summary %s = %s\n" % (key, _csv_cell(summary[key])))


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _check_row(name, identity, measured, expected, tolerance):
    ok = abs(measured - expected) <= tolerance
    return {"name": name, "identity": identity, "measured": float(measured),
            "expected": float(expected), "tolerance": float(tolerance),
            "status": "pass" if ok else "fail"}


# --------------------------------------------------------------------------
# verify


def _identity_checks():
    import numpy as np
    from . import quad, testfn
    rows = []
    bumps = [testfn.make_bump(a, r, c) for a, r, c in _VERIFY_BUMPS]
    for i, phi in enumerate(bumps):
        rep = quad.pair_regular(np.log, phi, move_ops=True)
        rows.append(_check_row(
            "fundamental_solution_bump%d" % i, "<log|x|, lap phi> = 2*pi*phi(0)",
            rep.value, 2.0 * math.pi * phi.at_origin(), 1e-8 * max(1.0, abs(phi.at_origin()))))
    for b in (0.5, 1.0, 2.0):
        psi = dexpr._radial_callable(dexpr.Psi(b))
        rep = quad.integrate_radial(lambda r: psi(r) ** 2, 30.0 / b)
        rows.append(_check_row(
            "normalization_b%s" % b, "<psi_b, psi_b> = 1", rep.value, 1.0, 1e-8))
    b = 1.0
    psi = dexpr._radial_callable(dexpr.Psi(b))
    for i, phi in enumerate(bumps[:3]):
        lhs = quad.pair_regular(psi, phi, move_ops=True).value
        mid = quad.pair_regular(psi, phi).value
        rows.append(_check_row(
            "weak_laplacian_bump%d" % i,
            "<psi_b, lap phi> - b^2 <psi_b, phi> = -2*sqrt(pi)*b*phi(0)",
            lhs - b * b * mid, -2.0 * math.sqrt(math.pi) * b * phi.at_origin(), 1e-6))
    x = 1e-3
    rows.append(_check_row(
        "k0_small_argument", "K0(x) ~ -log((1/2)*e^gamma*x) as x -> 0",
        k0(x), k0_log_form(1.0, x), 1e-5))
    phi = bumps[1]
    expr = dexpr.parse_expr("lap(psi(1.0)) + 3*delta")
    base = dexpr.weak_pair_expr(expr, phi).value
    for s in (2.0, 0.5):
        scaled, _ = dexpr.scale_expr(expr, s)
        val = s * s * dexpr.weak_pair_expr(scaled, testfn.rescale(phi, s)).value
        rows.append(_check_row(
            "scale_invariance_s%s" % s,
            "s^2 * <T(s x), phi(s x)> = <T, phi>", val, base, 1e-8 * max(1.0, abs(base))))
    return rows


def _rewrite_checks():
    rows = []
    rng = random.Random(20240817)
    bad = 0
    for _ in range(100):
        e = dexpr.random_rewritable_expr(rng)
        text = dexpr.print_expr(e)
        if dexpr.parse_expr(dexpr.print_expr(dexpr.parse_expr(text))) != dexpr.parse_expr(text):
            bad += 1
    rows.append(_check_row("parser_round_trip", "parse . print . parse = parse", bad, 0, 0))
    bad = 0
    for _ in range(40):
        e = dexpr.random_rewritable_expr(rng)
        ref, _ = dexpr.rewrite_full(e, L=1.5)
        ref_c = dexpr.canonical_coeffs(ref)
        for _ in range(4):
            out, _ = dexpr.rewrite_full(e, L=1.5, rng=rng)
            if not _coeffs_close(dexpr.canonical_coeffs(out), ref_c):
                bad += 1
    rows.append(_check_row("rewrite_confluence", "rule order does not change the canonical form",
                           bad, 0, 0))
    bad = 0
    for _ in range(25):
        e1 = dexpr.random_rewritable_expr(rng, depth=2)
        e2 = dexpr.random_rewritable_expr(rng, depth=2)
        c1, c2 = 1.25, -0.75
        combo, _ = dexpr.rewrite_full(
            dexpr.Sum((dexpr.ScalarMul(c1, e1), dexpr.ScalarMul(c2, e2))), L=1.5)
        r1, _ = dexpr.rewrite_full(e1, L=1.5)
        r2, _ = dexpr.rewrite_full(e2, L=1.5)
        want = {}
        for node, v in dexpr.canonical_coeffs(r1).items():
            want[node] = want.get(node, 0.0) + c1 * v
        for node, v in dexpr.canonical_coeffs(r2).items():
            want[node] = want.get(node, 0.0) + c2 * v
        if not _coeffs_close(dexpr.canonical_coeffs(combo), want):
            bad += 1
    rows.append(_check_row("rewrite_linearity", "rewriting is linear in the expression",
                           bad, 0, 0))
    out, _ = dexpr.rewrite_full(dexpr.parse_expr("log_r*delta"), L=1.0)
    rows.append(_check_row("log_delta_vanishes", "log|x|*delta = 0",
                           sum(abs(v) for v in dexpr.canonical_coeffs(out).values()), 0.0, 0.0))
    a, L = 2.0, 1.5
    out, _ = dexpr.rewrite_singular_products(dexpr.parse_expr("K0(2.0*r)*delta"), L)
    coeff = dexpr.canonical_coeffs(dexpr.normalize(out)).get(dexpr.Delta(), 0.0)
    rows.append(_check_row("k0_delta_coefficient",
                           "K0(a|x|)*delta = -log((1/2)*e^gamma*a*|L|)*delta",
                           coeff, -(math.log(0.5 * a * L) + EULER_GAMMA), 1e-14))
    params = spectrum.PhysicalParams(1.0, 1.0, 1.0, 1.0)
    b_star = spectrum.solve_eeq(params).b
    _, c_delta = dexpr.hamiltonian_coefficients(b_star, params)
    rows.append(_check_row("delta_coefficient_vanishes_at_root",
                           "c_delta(b*) = 0 at the eigenvalue condition root",
                           c_delta, 0.0, 1e-12 * b_star / math.sqrt(math.pi) * math.pi))
    return rows


def _coeffs_close(got, want, tol=1e-9):
    keys = set(got) | set(want)
    return all(abs(got.get(k, 0.0) - want.get(k, 0.0)) <= tol * (1.0 + abs(want.get(k, 0.0)))
               for k in keys)


def cmd_verify(args, stream):
    rows = []
    if args.suite in ("identities", "all"):
        rows.extend(_identity_checks())
    if args.suite in ("rewrite", "all"):
        rows.extend(_rewrite_checks())
    failed = sum(1 for r in rows if r["status"] == "fail")
    summary = {"total": len(rows), "passed": len(rows) - failed, "failed": failed}
    _emit(args.format, "verify --suite %s" % args.suite, rows, summary, stream)
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args, stream):
    alpha = _parse_alpha(args.alpha)
    L_values = _parse_range(args.L)
    rows = []
    failed = 0
    for L in L_values:
        params = spectrum.PhysicalParams(args.hbar, args.mass, alpha, L)
        state = spectrum.solve_eeq(params)
        closed = spectrum.closed_form_energy(params)
        rel = abs(state.energy - closed) / abs(closed)
        ok = rel <= 1e-12
        failed += 0 if ok else 1
        rows.append({"row_type": "c_spectrum", "L": float(L), "b_star": state.b,
                     "E_rootfind": state.energy, "E_closed_form": closed,
                     "rel_diff": rel, "status": "pass" if ok else "fail"})
    if abs(args.hbar**2 / args.mass - 2.0) <= 1e-12:
        for L in L_values:
            if L in (1.0, -1.0):
                cmp_ = spectrum.aghh_check(alpha)
                ok = cmp_.rel_diff <= 1e-14
                failed += 0 if ok else 1
                rows.append({"row_type": "aghh_singleton", "L": float(L), "b_star": float("nan"),
                             "E_rootfind": cmp_.sigma_p, "E_closed_form": cmp_.sigma_c,
                             "rel_diff": cmp_.rel_diff, "status": "pass" if ok else "fail"})
    summary = {"total": len(rows), "failed": failed}
    _emit(args.format, "spectrum", rows, summary, stream)
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# pair


def _collect_products(e):
    found = []
    def walk(node):
        if isinstance(node, dexpr.Product):
            found.append(node)
        for attr in ("child", "regular"):
            sub = getattr(node, attr, None)
            if sub is not None:
                walk(sub)
        for t in getattr(node, "terms", ()):
            walk(t)
    walk(e)
    return found


def cmd_pair(args, stream):
    from . import quad, testfn
    expr = dexpr.parse_expr(args.expr)
    center = tuple(float(v) for v in args.phi_center.split(","))
    phi = testfn.make_bump(args.phi_amplitude, args.phi_radius, center)
    canon, trace = dexpr.rewrite_full(expr, L=args.L)
    report = dexpr.weak_pair_expr(expr, phi, L=args.L)
    rows = [{"kind": "trace", "name": step.rule, "detail": step.identity,
             "before": step.before, "after": step.after} for step in trace]
    rows.append({"kind": "canonical", "name": "canonical_form",
                 "detail": dexpr.print_expr(canon), "before": "", "after": ""})
    rows.append({"kind": "pairing", "name": "value",
                 "detail": repr(report.value), "before": "",
                 "after": "err<=%s" % repr(report.abs_error_estimate)})
    phi0 = phi.at_origin()
    # the probe needs widths below the bump radius, the fit two of them
    eps = tuple(e for e in quad.MollifierFamily.default("gaussian").epsilons if e < phi.radius)
    for prod in _collect_products(expr) if eps else ():
        fam = quad.MollifierFamily("gaussian", eps)
        f = dexpr._radial_callable(prod.regular)
        data = quad.pair_mollified_product(f, fam, phi)
        for e, val in data:
            rows.append({"kind": "mollified", "name": dexpr.print_expr(prod),
                         "detail": "eps=%s" % repr(e), "before": "", "after": repr(val)})
        if phi0 != 0.0 and len(data) >= 2:
            a = prod.regular.a if isinstance(prod.regular, dexpr.K0Radial) else 1.0
            fit = quad.fit_log_divergence(data, phi0, a=a)
            rows.append({"kind": "logfit", "name": dexpr.print_expr(prod),
                         "detail": "slope=%s intercept=%s scale=%s residual=%s" % (
                             repr(fit.slope), repr(fit.intercept),
                             repr(fit.effective_scale_constant), repr(fit.residual)),
                         "before": "", "after": ""})
    summary = {"value": report.value, "abs_error_estimate": report.abs_error_estimate}
    _emit(args.format, "pair", rows, summary, stream)
    return 0


# --------------------------------------------------------------------------
# k0


def cmd_k0(args, stream):
    import numpy as np
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:count")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if lo <= 0 or hi <= lo or n < 2:
            raise ValueError("grid requires 0 < start < stop and count >= 2")
        xs = [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1))
              for i in range(n)]
    else:
        xs = [float(v) for v in args.x]
    values = k0(np.array(xs)).tolist() if xs else []
    rows = [{"x": x, "k0": v} for x, v in zip(xs, values)]
    for row in rows:
        # k0 itself refuses x <= 0 and non-finite x; 0.0 here is underflow
        if row["k0"] == 0.0:
            raise ValueError("K0(%r) underflows to 0.0 in double precision" % row["x"])
    _emit(args.format, "k0", rows, {"count": len(rows)}, stream)
    return 0


# --------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="delta2d",
                                description="2D delta-potential distributional calculus")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run identity-verification suites")
    v.add_argument("--suite", choices=("identities", "rewrite", "all"), default="all")
    v.add_argument("--format", choices=("csv", "json", "text"), default="text")

    s = sub.add_parser("spectrum", help="bound-state table over a range of L")
    s.add_argument("--hbar", type=float, default=1.0)
    s.add_argument("--mass", type=float, default=1.0)
    s.add_argument("--alpha", type=str, default="1",
                   help="coupling; accepts 'pi' literals such as 4pi")
    s.add_argument("--L", type=str, default="1:1:1", help="start:stop:count")
    s.add_argument("--format", choices=("csv", "json", "text"), default="text")

    pr = sub.add_parser("pair", help="weak pairing of an expression against a bump")
    pr.add_argument("--expr", type=str, required=True)
    pr.add_argument("--phi-amplitude", type=float, default=1.0)
    pr.add_argument("--phi-radius", type=float, default=1.0)
    pr.add_argument("--phi-center", type=str, default="0,0")
    pr.add_argument("--L", type=float, default=1.0)
    pr.add_argument("--format", choices=("csv", "json", "text"), default="text")

    kk = sub.add_parser("k0", help="MacDonald function values")
    kk.add_argument("--x", type=str, nargs="*", default=["1.0"])
    kk.add_argument("--grid", type=str, default=None, help="start:stop:count (log spaced)")
    kk.add_argument("--format", choices=("csv", "json", "text"), default="text")
    return p


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "verify":
            return cmd_verify(args, stream)
        if args.cmd == "spectrum":
            return cmd_spectrum(args, stream)
        if args.cmd == "pair":
            return cmd_pair(args, stream)
        if args.cmd == "k0":
            return cmd_k0(args, stream)
    except (ValueError, ArithmeticError, dexpr.ExprSyntaxError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a QuadratureError can only come from a loaded quad module
        quad = sys.modules.get(__package__ + ".quad")
        if quad is None or not isinstance(exc, quad.QuadratureError):
            raise
        print("error: %s" % exc, file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
