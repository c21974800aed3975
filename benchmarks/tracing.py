"""Per-layer spans and counts, recorded from outside delta2d.

`Tracer.install()` rebinds each public name of a delta2d module where its
callers look it up (the module attribute, the package attribute, and the
copies other modules imported with `from ... import`), so that a call
into the layer opens a span.  `uninstall()` puts the originals back.  The
untraced runs never install anything.

A span is one call into a layer from outside it; a call the layer makes
into its own public names belongs to the span already open.  A layer's
self time is its spans' duration minus the time of the spans they cause
in other layers.  Points are counted by array size, so the counts are the
same on every run of the same tasks.
"""

import functools
import time

import numpy as np

# layer -> (module attribute of delta2d, public names)
LAYERS = {
    "specfun.k0": ("specfun", ("k0",)),
    "quad": ("quad", ("integrate_radial", "pair_regular", "pair_delta",
                      "pair_mollified_product", "fit_log_divergence")),
    "dexpr.parse": ("dexpr", ("parse_expr",)),
    "dexpr.rewrite": ("dexpr", ("rewrite_full", "rewrite_singular_products", "laplacian_expr",
                                "scale_expr", "normalize", "canonical_coeffs",
                                "apply_hamiltonian")),
    "dexpr.weak_pair": ("dexpr", ("weak_pair_expr",)),
    "spectrum.solve": ("spectrum", ("solve_eeq", "closed_form_energy", "c_spectrum",
                                    "aghh_check", "energy_from_b", "b_from_energy",
                                    "eeq_residual")),
    "cli": ("cli", ("main",)),
}
# BumpFunction evaluators, with how many points each call evaluates.
BUMP_EVALUATORS = {
    "profile": lambda a: np.size(a[1]),
    "profile_dr": lambda a: np.size(a[1]),
    "profile_laplacian": lambda a: np.size(a[1]),
    "value_xy": lambda a: np.broadcast(a[1], a[2]).size,
    "laplacian_xy": lambda a: np.broadcast(a[1], a[2]).size,
    "value": lambda a: 1,
    "gradient": lambda a: 1,
    "laplacian": lambda a: 1,
    "at_origin": lambda a: 1,
}
# Names returning (expression, rewrite trace).
TRACED_REWRITES = ("rewrite_full", "rewrite_singular_products", "laplacian_expr",
                   "scale_expr", "apply_hamiltonian")

METRICS = [
    ("specfun.k0.calls", "count"), ("specfun.k0.points", "count"), ("specfun.k0.self_s", "s"),
    ("testfn.eval.calls", "count"), ("testfn.eval.points", "count"), ("testfn.eval.self_s", "s"),
    ("quad.calls", "count"), ("quad.integrand_points", "count"), ("quad.levels", "count"),
    ("quad.self_s", "s"), ("quad.errors", "count"),
    ("dexpr.parse.calls", "count"), ("dexpr.parse.self_s", "s"),
    ("dexpr.rewrite.calls", "count"), ("dexpr.rewrite.steps", "count"),
    ("dexpr.rewrite.self_s", "s"),
    ("dexpr.weak_pair.calls", "count"), ("dexpr.weak_pair.self_s", "s"),
    ("spectrum.solve.calls", "count"), ("spectrum.solve.residual_evals", "count"),
    ("spectrum.solve.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("cli.exit_nonzero", "count"),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.counts = {name: 0 for name, unit in METRICS if unit != "s"}
        self.self_s = {name[:-len(".self_s")]: 0.0 for name, unit in METRICS if unit == "s"}
        self._stack = []       # open spans: [layer, time spent in child spans]
        self._saved = []       # (owner, name, original) to restore

    # -- span bookkeeping ----------------------------------------------------

    def _call(self, layer, fn, args, kwargs, points):
        if self._stack and self._stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        self._stack.append(frame)
        self.counts[layer + ".calls"] += 1
        if points is not None:
            self.counts[layer + ".points"] += int(points(args))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if layer == "quad":
                self.counts["quad.errors"] += 1
            if layer == "cli":
                self.counts["cli.exit_nonzero"] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[layer] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, layer, name, fn, points=None):
        tracer = self
        counts = self.counts

        if layer == "quad" and name == "integrate_radial":
            def wrapper(g, *args, **kwargs):
                def counted(r):
                    counts["quad.integrand_points"] += int(np.size(r))
                    return g(r)
                report = tracer._call(layer, fn, (counted,) + args, kwargs, points)
                counts["quad.levels"] += len(report.table)
                return report
        elif layer == "dexpr.rewrite" and name in TRACED_REWRITES:
            def wrapper(*args, **kwargs):
                out = tracer._call(layer, fn, args, kwargs, points)
                counts["dexpr.rewrite.steps"] += len(out[1])
                return out
        elif name == "eeq_residual":
            def wrapper(*args, **kwargs):
                counts["spectrum.solve.residual_evals"] += 1
                return tracer._call(layer, fn, args, kwargs, points)
        elif layer == "cli":
            def wrapper(argv=None, stream=None):
                rc = tracer._call(layer, fn, (argv, stream), {}, points)
                if stream is not None:
                    counts["cli.bytes_out"] += len(stream.getvalue().encode())
                counts["cli.exit_nonzero"] += rc != 0
                return rc
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(layer, fn, args, kwargs, points)
        return functools.wraps(fn)(wrapper)

    def _rebind(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        pkg = self.package
        modules = [getattr(pkg, m) for m in ("specfun", "testfn", "quad", "dexpr",
                                              "spectrum", "cli")] + [pkg]
        for layer, (modname, names) in LAYERS.items():
            module = getattr(pkg, modname)
            points = (lambda a: np.size(a[0])) if layer == "specfun.k0" else None
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(layer, name, original, points)
                # every module namespace that holds this very function
                for owner in modules:
                    if getattr(owner, name, None) is original:
                        self._rebind(owner, name, wrapped)
        bump = pkg.testfn.BumpFunction
        for name, points in BUMP_EVALUATORS.items():
            self._rebind(bump, name, self._wrap("testfn.eval", name,
                                                bump.__dict__[name], points))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def metrics(self):
        out = {name: self.counts[name] for name in self.counts}
        out.update({layer + ".self_s": s for layer, s in self.self_s.items()})
        return out
