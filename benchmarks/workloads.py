"""The three workloads: seeded rounds of tasks, their references and checks.

A task is one request of a closed loop.  `execute` is the timed call into
delta2d's public API (`cli.main(argv, stream=...)` or the public
functions of quad, dexpr and spectrum); `prepare` computes the reference
before it and `check` judges the outcome after it, both untimed.  Every
exception, exit code and value is captured, so a failing task never
aborts a run.

Workloads are made of rounds with a fixed sequence of task kinds; only
the parameters are drawn from the seed.  A run measures whole rounds, so
every run sees the same mix of kinds.  Where a task's cost depends on its
parameters (bump radius, distance and rate in the pairings), each slot of
a round has a fixed anchor and the seed jitters it by a few percent, so
that runs with different seeds do the same amount of work.
"""

import contextlib
import io
import itertools
import json
import math
import random
import re

import numpy as np
from delta2d import cli, dexpr, quad, specfun, spectrum, testfn

import exprs
import reference as ref

EDGE_EVERY = 20
SAMPLE_RADII = (0.37, 1.13, 2.9)
PAIR_TOL = 1e-8       # pairings: delta2d's default rel_tol is 1e-10
# An identity's actual error counts as beating the reported estimate only
# past round-off: 1e-13 relative to the pairings' size, some 500 ulp.
ROUNDOFF = 1e-13
K0_TOL = 1e-10        # relative; the documented accuracy of delta2d's k0
SPECTRUM_TOL = 1e-11  # relative; exp() of an argument up to ~700 loses ~1e-13
SYMBOLIC_TOL = 1e-9


class Fail(Exception):
    """A failed check; the message starts with its category."""


class Outcome:
    __slots__ = ("value", "exc", "rc", "out", "err")

    def __init__(self, value=None, exc=None, rc=None, out="", err=""):
        self.value, self.exc, self.rc, self.out, self.err = value, exc, rc, out, err


class Verdict:
    __slots__ = ("ok", "why", "bound")

    def __init__(self):
        self.ok, self.why = True, ""
        # (reported error estimate plus round-off, actual error) on exact identities
        self.bound = None


class Task:
    def __init__(self, kind, label, execute, reference, check):
        self.kind = kind
        self.label = label   # the inputs, for reports and for comparing task lists
        self.execute = execute
        self._reference = reference
        self._check = check
        self.ref = None

    def prepare(self):
        if self.ref is None:
            self.ref = self._reference()

    def check(self, outcome):
        verdict = Verdict()
        try:
            if outcome.exc is not None:
                raise Fail("exception: %s: %s" % (type(outcome.exc).__name__, outcome.exc))
            self._check(outcome, self.ref, verdict)
        except Fail as exc:
            verdict.ok, verdict.why = False, str(exc)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            verdict.ok, verdict.why = False, "output: unreadable (%s: %s)" % (
                type(exc).__name__, exc)
        return verdict


# --------------------------------------------------------------------------
# calling delta2d


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv, stream=out)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:
        return Outcome(exc=exc, out=out.getvalue(), err=err.getvalue())
    return Outcome(rc=rc, out=out.getvalue(), err=err.getvalue())


def cli_task(kind, argv, reference, check):
    return Task(kind, " ".join(argv), lambda: call_cli(argv), reference, check)


def call_lib(fn):
    def execute():
        try:
            return Outcome(value=fn())
        except Exception as exc:
            return Outcome(exc=exc)
    return execute


def cli_doc(outcome, refusable=False):
    """The JSON document of a CLI call, or None for an allowed refusal."""
    if outcome.rc not in (0, 1, 2):
        raise Fail("exit-code: %r" % (outcome.rc,))
    if outcome.rc != 0:
        if refusable and outcome.err.strip():
            return None
        raise Fail("refusal: exit %d: %s" % (outcome.rc, outcome.err.strip()[:160]))
    try:
        return json.loads(outcome.out)
    except ValueError:
        raise Fail("output: not JSON")


def expect(got, want, tol, what):
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise Fail("output: %s is %r, not a number" % (what, got))
    if not math.isfinite(got) or (got == 0.0 and want != 0.0 and math.copysign(1.0, got) < 0):
        raise Fail("non-finite: %s = %r where the reference is %r" % (what, got, want))
    if abs(got - want) > tol:
        raise Fail("tolerance: %s = %r, reference %r, tolerance %.3g" % (what, got, want, tol))


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def jitter(rng, anchor, frac=0.05):
    """anchor times a seeded factor in [1 - frac, 1 + frac]."""
    return anchor * rng.uniform(1.0 - frac, 1.0 + frac)


# --------------------------------------------------------------------------
# symbolic meaning of delta2d's canonical forms


def canonical_sem(coeffs):
    """(delta coefficient, regular terms) of a canonical_coeffs() result,
    read through the documented meaning of each node type."""
    delta, regular = 0.0, []
    for node, c in coeffs.items():
        name = type(node).__name__
        if name == "Delta":
            delta += c
        elif name == "LogRadial":
            regular.append((c, "log", 1.0))
        elif name == "LogRadialScaled":
            regular.append((c, "log", 1.0 / abs(node.scale)))
        elif name == "K0Radial":
            regular.append((c, "k0", node.a))
        elif name == "Psi":
            regular.append((c * node.b / ref.SQRT_PI, "k0", node.b))
        else:
            raise Fail("output: unexpected canonical node %s" % name)
    return delta, regular


def sem_reference(sem, L):
    delta, regular = sem.resolved(L)
    delta_scale = 1.0 + abs(sem.delta) + sum(abs(a * ref.k0_delta_coefficient(p, L))
                                             for a, k, p in sem.products if k == "k0")
    values = ref.regular_values(regular, SAMPLE_RADII)
    mags = np.array([sum(abs(a * ref.radial_factor(k, p, r)) for a, k, p in regular)
                     for r in SAMPLE_RADII])
    return delta, delta_scale, values, mags


def check_sem(coeffs, want):
    delta, delta_scale, values, mags = want
    got_delta, got_regular = canonical_sem(coeffs)
    expect(got_delta, delta, SYMBOLIC_TOL * delta_scale, "delta coefficient")
    got_values = ref.regular_values(got_regular, SAMPLE_RADII)
    for r, g, w, m in zip(SAMPLE_RADII, got_values, values, mags):
        expect(float(g), float(w), SYMBOLIC_TOL * (1.0 + m), "regular part at r=%g" % r)


# --------------------------------------------------------------------------
# symbolic workload


def roundtrip_task(rng):
    e = exprs.any_expr(rng)
    L = rng.uniform(0.5, 2.0)

    def execute():
        ast = dexpr.parse_expr(dexpr.print_expr(dexpr.parse_expr(e.text)))
        again = dexpr.parse_expr(dexpr.print_expr(ast))
        out, trace = dexpr.rewrite_full(ast, L=L)
        return ast, again, out

    def check(o, want, v):
        # print folds stacked coefficients, so parse . print is checked on
        # printed forms, and the printed form for its meaning.
        ast, again, out = o.value
        if again != ast:
            raise Fail("tolerance: parse(print(e)) != e for e = %s" % dexpr.print_expr(ast))
        check_sem(dexpr.canonical_coeffs(out), want)

    return Task("roundtrip", "%s L=%r" % (e.text, L), call_lib(execute),
                lambda: sem_reference(e.sem, L), check)


def weak_pair_task(rng):
    e = exprs.singular_expr(rng)
    L = rng.uniform(0.5, 2.0)
    amp, radius = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    theta, dist = rng.uniform(0.0, ref.TWO_PI), radius * rng.uniform(0.0, 1.5)
    center = (dist * math.cos(theta), dist * math.sin(theta))

    def execute():
        phi = testfn.make_bump(amp, radius, center)
        return dexpr.weak_pair_expr(dexpr.parse_expr(e.text), phi, L=L)

    def reference():
        delta, regular = e.sem.resolved(L)
        assert not regular
        _, scale, _, _ = sem_reference(e.sem, L)
        phi0 = ref.bump_at_origin(amp, radius, center)
        return delta * phi0, SYMBOLIC_TOL * scale * max(1.0, abs(phi0))

    def check(o, want, v):
        expect(o.value.value, want[0], want[1], "pairing")

    return Task("weak_pair", "%s L=%r phi=%r" % (e.text, L, (amp, radius, center)),
                call_lib(execute), reference, check)


def _physics(rng):
    hbar, mass = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    # x = pi hbar^2 / (m |alpha|) from strong (0.03) to weak (100) coupling
    # keeps |log E| below ~220, inside the double range, and the root of
    # the eigenvalue condition well conditioned (delta log b ~ eps pi / |alpha|)
    x = log_uniform(rng, 0.03, 100.0)
    alpha = rng.choice((-1.0, 1.0)) * math.pi * hbar * hbar / (mass * x)
    return hbar, mass, alpha


def hamiltonian_task(rng):
    hbar, mass, alpha = _physics(rng)
    b, L = log_uniform(rng, 0.1, 10.0), log_uniform(rng, 0.1, 10.0)

    def execute():
        return dexpr.apply_hamiltonian(b, spectrum.PhysicalParams(hbar, mass, alpha, L))

    def reference():
        energy, c_delta = ref.hamiltonian_coefficients(b, hbar, mass, alpha, L)
        sem = exprs.Sem(delta=c_delta, regular=[(energy * b / ref.SQRT_PI, "k0", b)])
        return sem_reference(sem, L)

    def check(o, want, v):
        out, trace = o.value
        if not trace:
            raise Fail("output: empty rewrite trace")
        check_sem(dexpr.canonical_coeffs(out), want)

    return Task("hamiltonian", "b=%r params=%r" % (b, (hbar, mass, alpha, L)),
                call_lib(execute), reference, check)


def _expect_energy(got, want, what):
    """want = (value or None, log|value|): values outside the double range
    are compared in log space."""
    value, log_abs = want
    if value is not None:
        expect(got, value, SPECTRUM_TOL * abs(value), what)
        return
    if isinstance(got, bool) or not isinstance(got, (int, float)) or got == 0.0 \
            or not math.isfinite(got):
        raise Fail("non-finite: %s = %r where log|reference| is %r" % (what, got, log_abs))
    expect(math.log(abs(got)), log_abs, SPECTRUM_TOL * (1.0 + abs(log_abs)), "log|%s|" % what)


def _L_values(text):
    start, stop, count = text.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def spectrum_cli_task(rng, edge=False):
    hbar, mass, alpha = _physics(rng)
    if edge:
        # at the CLI's default hbar = m = 1, where E leaves the double range
        hbar, mass = 1.0, 1.0
        alpha = rng.choice((-1.0, 1.0)) * rng.uniform(1e-4, 0.005)
    alpha_text = repr(alpha)
    if not edge and rng.random() < 0.25:
        # the singleton point: hbar^2/m = 2 at L = 1, with a 'pi' literal
        hbar, mass = 1.0, 0.5
        k = round(rng.uniform(0.2, 4.0), 2) * rng.choice((-1.0, 1.0))
        alpha_text, alpha = "%rpi" % k, k * math.pi
        L_text = "0.5:1.5:3"
    else:
        lo = log_uniform(rng, 0.01, 100.0)
        L_text = "%r:%r:%d" % (lo, lo * log_uniform(rng, 1.0, 10.0), rng.randint(1, 6))
    argv = ["spectrum", "--hbar", repr(hbar), "--mass", repr(mass), "--alpha=" + alpha_text,
            "--L", L_text, "--format", "json"]
    Ls = _L_values(L_text)
    singleton = abs(hbar * hbar / mass - 2.0) <= 1e-12

    def reference():
        rows = []
        for L in Ls:
            b, energy, log_e = ref.spectrum_row(hbar, mass, alpha, L)
            rows.append((L, b, (energy, log_e)))
        return rows

    def check(o, want, v):
        representable = all(b is not None and e[0] is not None for _, b, e in want)
        doc = cli_doc(o, refusable=not representable)
        if doc is None:
            return
        rows = [r for r in doc["rows"] if r["row_type"] == "c_spectrum"]
        if len(rows) != len(want):
            raise Fail("output: %d c_spectrum rows for %d L values" % (len(rows), len(want)))
        for row, (L, b, energy) in zip(rows, want):
            expect(row["L"], L, 1e-12 * abs(L), "L")
            if b is not None:
                expect(row["b_star"], b, SPECTRUM_TOL * b, "b_star")
            _expect_energy(row["E_rootfind"], energy, "E_rootfind")
            _expect_energy(row["E_closed_form"], energy, "E_closed_form")
            if row["status"] != "pass":
                raise Fail("tolerance: row marked %r" % row["status"])
        singles = [r for r in doc["rows"] if r["row_type"] == "aghh_singleton"]
        want_singles = [w for w in want if singleton and w[0] in (1.0, -1.0)]
        if len(singles) != len(want_singles):
            raise Fail("output: %d singleton rows, expected %d"
                       % (len(singles), len(want_singles)))
        for row, (L, _, energy) in zip(singles, want_singles):
            _expect_energy(row["E_rootfind"], energy, "singleton E_rootfind")
            _expect_energy(row["E_closed_form"], energy, "singleton E_closed_form")
        if doc["summary"]["failed"] != 0:
            raise Fail("tolerance: summary reports failed rows")

    return cli_task("spectrum_cli", argv, reference, check)


def spectrum_lib_task(rng):
    hbar, mass, alpha = _physics(rng)
    Ls = sorted(log_uniform(rng, 0.01, 100.0) for _ in range(rng.randint(1, 4)))

    def execute():
        states, closed = [], []
        for L in Ls:
            params = spectrum.PhysicalParams(hbar, mass, alpha, L)
            states.append(spectrum.solve_eeq(params))
            closed.append(spectrum.closed_form_energy(params))
        family = spectrum.c_spectrum(hbar, mass, alpha, Ls)
        return states, closed, family

    def reference():
        return [ref.spectrum_row(hbar, mass, alpha, L) for L in Ls]

    def check(o, want, v):
        states, closed, family = o.value
        for state, cf, (L, fe), (b, energy, log_e) in zip(states, closed, family.entries, want):
            expect(state.b, b, SPECTRUM_TOL * b, "b")
            for got, what in ((state.energy, "energy"), (cf, "closed form"), (fe, "family")):
                _expect_energy(got, (energy, log_e), what)

    return Task("spectrum_lib", "params=%r L=%r" % ((hbar, mass, alpha), Ls),
                call_lib(execute), reference, check)


def k0_x_task(rng):
    xs = [log_uniform(rng, 1e-6, 50.0) for _ in range(rng.randint(1, 4))]
    argv = ["k0", "--x"] + [repr(x) for x in xs] + ["--format", "json"]
    return cli_task("k0_x", argv, lambda: [(x, ref.k0(x)) for x in xs], _check_k0_rows)


def k0_grid_task(rng, edge=False):
    if edge:
        # past the documented accuracy range [1e-8, 700], up to where K0
        # underflows
        lo, hi = log_uniform(rng, 1.0, 10.0), rng.uniform(700.0, 740.0)
    else:
        lo = log_uniform(rng, 1e-4, 0.5)
        hi = lo * log_uniform(rng, 10.0, 1000.0)
    n = rng.randint(8, 48)
    argv = ["k0", "--grid", "%r:%r:%d" % (lo, hi, n), "--format", "json"]

    def reference():
        xs = [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1))
              for i in range(n)]
        return [(x, ref.k0(x)) for x in xs]

    return cli_task("k0_grid", argv, reference, _check_k0_rows)


def _check_k0_rows(o, want, v):
    rows = cli_doc(o)["rows"]
    if len(rows) != len(want):
        raise Fail("output: %d rows for %d arguments" % (len(rows), len(want)))
    for row, (x, k) in zip(rows, want):
        expect(row["x"], x, 1e-13 * x, "x")
        expect(row["k0"], k, K0_TOL * k, "K0(%r)" % x)


# --------------------------------------------------------------------------
# pairings (origin and offcentre workloads)

FUNCTIONS = ("log", "k0", "psi")


def _radial(func, p):
    """The radial factor a library user passes to quad.pair_regular, and
    its reference as (kind, rate, prefactor)."""
    if func == "log":
        return np.log, ("log", 1.0, 1.0)
    pre = 1.0 if func == "k0" else p / ref.SQRT_PI
    return (lambda r: pre * specfun.k0(p * np.asarray(r))), ("k0", p, pre)


def identity_task(func, amp, radius, center, p):
    """<f, lap phi> and <f, phi> for f = log, K0(p.) or psi_p, checked
    against the exact identities
        <log, lap phi> = 2 pi phi(0),
        <K0(p.), lap phi> - p^2 <K0(p.), phi> = -2 pi phi(0)
    and each pairing against its one-dimensional reference."""
    f, (kind, rate, pre) = _radial(func, p)

    def execute():
        phi = testfn.make_bump(amp, radius, center)
        return (quad.pair_regular(f, phi, move_ops=True), quad.pair_regular(f, phi))

    def reference():
        on = pre * ref.pairing(kind, rate, amp, radius, center, laplacian=True)
        off = pre * ref.pairing(kind, rate, amp, radius, center)
        phi0 = ref.bump_at_origin(amp, radius, center)
        return on, off, (2.0 if func == "log" else -2.0) * math.pi * pre * phi0

    def check(o, want, v):
        on, off = o.value
        on_ref, off_ref, exact = want
        w = 0.0 if func == "log" else p * p
        combo = on.value - w * off.value
        size = 1.0 + abs(exact) + abs(on_ref) + w * abs(off_ref)
        v.bound = (on.abs_error_estimate + w * off.abs_error_estimate + ROUNDOFF * size,
                   abs(combo - exact))
        expect(combo, exact, PAIR_TOL * size, "identity for %s" % func)
        expect(on.value, on_ref, PAIR_TOL * (1.0 + abs(on_ref)), "<%s, lap phi>" % func)
        expect(off.value, off_ref, PAIR_TOL * (1.0 + abs(off_ref)), "<%s, phi>" % func)

    return Task("identity_%s" % func, "p=%r phi=%r" % (p, (amp, radius, center)),
                call_lib(execute), reference, check)


def _origin_bump(rng, radius):
    return jitter(rng, 1.0, 0.1), jitter(rng, radius)


def origin_identity_task(rng, func, radius, rate):
    amp, radius = _origin_bump(rng, radius)
    return identity_task(func, amp, radius, (0.0, 0.0), jitter(rng, rate))


_FIT_RE = re.compile(r"slope=(\S+) intercept=(\S+) scale=(\S+) residual=(\S+)")


def pair_cli_task(rng, product, radius):
    """`delta2d pair` of a seeded expression against an origin-centred bump.
    With a product f*delta the CLI also runs the mollified probe
    <f delta_eps, phi> over eps = 2^-4 .. 2^-14 and fits its log divergence."""
    e = exprs.product_expr(rng) if product else exprs.any_expr(rng, products=False)
    amp, radius = _origin_bump(rng, radius)
    L = rng.uniform(0.5, 2.0)
    argv = ["pair", "--expr=" + e.text, "--phi-amplitude", repr(amp),
            "--phi-radius", repr(radius), "--L", repr(L), "--format", "json"]
    eps = [2.0 ** -k for k in range(4, 15) if 2.0 ** -k < radius]

    def reference():
        delta, regular = e.sem.resolved(L)
        terms = [a * ref.pairing(k, p, amp, radius, (0.0, 0.0)) for a, k, p in regular]
        _, delta_scale, _, _ = sem_reference(e.sem, L)
        value = delta * amp + sum(terms)
        scale = 1.0 + delta_scale * amp + sum(abs(t) for t in terms)
        probes = []
        for leaf, (a, k, p) in e.probes:
            rows = [a * ref.mollified_pairing(k, p, amp, radius, x) for x in eps]
            fit = None
            if len(rows) >= 2:
                slope, intercept = np.polyfit(np.log(eps), rows, 1)
                rate = p if leaf.startswith("K0(") else 1.0
                fit = (slope, intercept, 0.5 * math.exp(ref.EULER_GAMMA) * rate
                       * math.exp(intercept / amp))
            probes.append((rows, fit))
        return value, scale, probes

    def check(o, want, v):
        value, scale, probes = want
        doc = cli_doc(o)
        expect(doc["summary"]["value"], value, PAIR_TOL * scale, "pairing")
        est = doc["summary"]["abs_error_estimate"]
        if not (isinstance(est, float) and math.isfinite(est) and est >= 0.0):
            raise Fail("output: abs_error_estimate %r" % (est,))
        mollified = [r for r in doc["rows"] if r["kind"] == "mollified"]
        fits = [r for r in doc["rows"] if r["kind"] == "logfit"]
        want_rows = [x for rows, _ in probes for x in rows]
        if len(mollified) != len(want_rows) or len(fits) != sum(1 for _, f in probes if f):
            raise Fail("output: %d mollified and %d logfit rows" % (len(mollified), len(fits)))
        for row, (x, w) in zip(mollified, zip(eps * len(probes), want_rows)):
            if row["detail"] != "eps=%r" % x:
                raise Fail("output: mollified row %r for eps=%r" % (row["detail"], x))
            expect(float(row["after"]), w, PAIR_TOL * (1.0 + abs(w)), "mollified eps=%g" % x)
        for row, (_, fit) in zip(fits, [p for p in probes if p[1]]):
            m = _FIT_RE.fullmatch(row["detail"])
            if m is None:
                raise Fail("output: logfit row %r" % row["detail"])
            for got, w, what in zip(m.groups(), fit, ("slope", "intercept")):
                expect(float(got), w, 1e-6 * (1.0 + abs(w)), "log fit " + what)
            expect(float(m.group(3)), fit[2], 1e-6 * fit[2], "log fit scale")

    return cli_task("pair_product" if product else "pair", argv, reference, check)


# Distance of the bump centre from the origin, in bump radii.
STRATA = {"far": 4.5, "near": 1.75, "contains": 0.4}


def offcentre_task(rng, func, stratum, radius=1.0):
    """Identity task against a bump whose centre lies at stratum distance
    (in radii) from the origin: 'far' (|c| >= 4R) and 'near' exclude the
    origin from the support, 'contains' includes it.  The seed turns the
    centre to any angle, which leaves the work unchanged, and jitters the
    amplitude, radius, distance and rate by a few percent."""
    amp = jitter(rng, 1.0, 0.1)
    radius = jitter(rng, radius)
    dist = radius * jitter(rng, STRATA[stratum], 0.03)
    theta = rng.uniform(0.0, ref.TWO_PI)
    return identity_task(func, amp, radius, (dist * math.cos(theta), dist * math.sin(theta)),
                         jitter(rng, 1.0))


VERIFY_ZERO = ("parser_round_trip", "rewrite_confluence", "rewrite_linearity",
               "log_delta_vanishes", "delta_coefficient_vanishes_at_root")


def verify_task(rng):
    def check(o, want, v):
        doc = cli_doc(o)
        rows = doc["rows"]
        if not rows or doc["summary"]["total"] != len(rows) or doc["summary"]["failed"] != 0:
            raise Fail("output: verify summary %r" % (doc["summary"],))
        for row in rows:
            expect(row["measured"], row["expected"], row["tolerance"], row["name"])
            if row["status"] != "pass":
                raise Fail("tolerance: verify row %s marked %r" % (row["name"], row["status"]))
            if row["name"].startswith("normalization"):
                expect(row["expected"], 1.0, 0.0, row["name"] + " expected")
            if row["name"] in VERIFY_ZERO:
                expect(row["expected"], 0.0, 0.0, row["name"] + " expected")

    argv = ["verify", "--suite", "all", "--format", "json"]
    return cli_task("verify", argv, lambda: None, check)


# --------------------------------------------------------------------------
# rounds


def symbolic_round(r):
    """Ten tasks, mixed so that the median task falls among the two
    apply_hamiltonian calls (40-60 % of the round by latency) and the 90th
    percentile among the two k0 grids (80-100 %), not on the edge between
    two kinds."""
    return [roundtrip_task, spectrum_lib_task, weak_pair_task, hamiltonian_task,
            k0_grid_task, roundtrip_task, spectrum_cli_task, hamiltonian_task,
            k0_x_task, k0_grid_task]


# Bump radii of the origin round's slots, spanning 0.25-5, and the rates a
# of its K0(a.) and psi_a identity pairings.
ORIGIN_RADII = (0.25, 0.5, 1.0, 2.0, 5.0)
ORIGIN_RATES = (0.5, 1.0, 2.0)


def origin_round(r):
    """Ten tasks, mixed so that the median task falls mid-way through the
    K0 and psi identity pairings (30-70 % of the round) and the 90th
    percentile among the products that go through the mollified probe
    (70-100 %), not on the edge between two kinds.  Each slot has its own
    bump radius and rate; they rotate with r, so a kind meets every one."""
    R = lambda i: ORIGIN_RADII[(r + i) % len(ORIGIN_RADII)]
    a = lambda i: ORIGIN_RATES[(r + i) % len(ORIGIN_RATES)]
    product = lambda i: lambda g: pair_cli_task(g, True, R(i))
    plain = lambda i: lambda g: pair_cli_task(g, False, R(i))
    identity = lambda f, i: lambda g: origin_identity_task(g, f, R(i), a(i))
    return [product(0), plain(1), identity("k0", 2), identity("log", 3), identity("psi", 4),
            product(2), plain(3), identity("k0", 4), identity("psi", 0), product(4)]


# (function, stratum) pairs other than log at 'far'; each round takes three
# of them in turn, so two rounds pair each once.
OFFCENTRE_MIX = (("k0", "near"), ("psi", "contains"), ("log", "contains"),
                 ("psi", "near"), ("k0", "contains"), ("log", "near"))


def offcentre_round(r):
    """Round 0 is one `verify --suite all`.  Every later round pairs log
    against a far bump (|c| >= 4R, where the error estimate misses) and
    three other pairings against bumps at 'near' and 'contains' distance,
    so that the median task falls among those three and the 90th
    percentile among the far log pairings and verify."""
    if r == 0:
        return [verify_task]
    mix = [OFFCENTRE_MIX[(3 * (r - 1) + i) % len(OFFCENTRE_MIX)] for i in range(3)]
    return [lambda g: offcentre_task(g, "log", "far")] + [
        lambda g, f=f, s=s: offcentre_task(g, f, s) for f, s in mix]


def edge_task(workload, rng, index):
    """A task from the ROADMAP item-4 range (|alpha| <= 0.005 of either
    sign, bump radii 1e-4 and 1e6) or a K0 grid reaching past x = 700."""
    first = (index // EDGE_EVERY) % 2 == 1
    radius = 1e-4 if first else 1e6
    if workload == "symbolic":
        return spectrum_cli_task(rng, edge=True) if first else k0_grid_task(rng, edge=True)
    if workload == "origin":
        return pair_cli_task(rng, rng.random() < 0.5, radius)
    return offcentre_task(rng, rng.choice(FUNCTIONS), "far", radius)


ROUNDS = {"offcentre": offcentre_round, "origin": origin_round, "symbolic": symbolic_round}


def rounds(workload, seed, edge=False):
    """Endless stream of task rounds drawn from the seed.  With edge set,
    every EDGE_EVERY-th task comes from the edge range instead."""
    rng = random.Random("%s:%d" % (workload, seed))
    index = 0
    for r in itertools.count():
        tasks = []
        for make in ROUNDS[workload](r):
            index += 1
            if edge and index % EDGE_EVERY == 0:
                tasks.append(edge_task(workload, rng, index))
            else:
                tasks.append(make(rng))
        yield tasks
