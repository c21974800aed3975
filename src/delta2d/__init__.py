"""Distributional calculus for the 2D Schrodinger operator with a
Dirac-delta potential: symbolic rewrite rules, numerical weak pairings,
and the bound-state spectrum family.

Importing the package loads no submodule.  Each submodule, and each name
in `__all__`, is imported on first access (PEP 562) and looked up in its
module every time, so `delta2d.k0` is always `delta2d.specfun.k0`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "specfun": ("EULER_GAMMA", "k0", "k0_log_form"),
    "testfn": ("BumpFunction", "make_bump", "bump_eval", "rescale"),
    "quad": ("MollifierFamily", "PairingReport", "LogFitResult", "QuadratureError",
             "integrate_radial", "pair_regular", "pair_delta",
             "pair_mollified_product", "fit_log_divergence"),
    "dexpr": ("parse_expr", "print_expr", "normalize", "canonical_coeffs",
              "scale_expr", "laplacian_expr", "rewrite_singular_products",
              "rewrite_full", "apply_hamiltonian", "weak_pair_expr"),
    "spectrum": ("PhysicalParams", "BoundState", "CSpectrumFamily", "AghhComparison",
                 "eeq_residual", "energy_from_b", "b_from_energy", "solve_eeq",
                 "closed_form_energy", "c_spectrum", "aghh_check"),
    "cli": (),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    for mod, names in _EXPORTS.items():
        if name == mod or name in names:
            module = _import_module("." + mod, __name__)
            return module if name == mod else getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted([*__all__, *_EXPORTS, "__version__"])
