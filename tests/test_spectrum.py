import math
import os
import pathlib
import subprocess
import sys

import pytest

from delta2d import spectrum
from delta2d import (EULER_GAMMA, PhysicalParams, BoundState, aghh_check,
                     b_from_energy, c_spectrum, closed_form_energy,
                     eeq_residual, energy_from_b, solve_eeq)


def unit_params(**over):
    base = dict(hbar=1.0, mass=1.0, alpha=1.0, L=1.0)
    base.update(over)
    return PhysicalParams(**base)


def test_energy_b_examples_and_round_trip():
    p = unit_params()
    assert energy_from_b(1.0, p) == -0.5
    assert b_from_energy(-0.5, p) == 1.0
    q = PhysicalParams(2.0, 0.5, 1.0, 1.0)
    assert energy_from_b(1.0, q) == -4.0
    for E in (-1e-6, -0.3, -17.0):
        assert energy_from_b(b_from_energy(E, p), p) == pytest.approx(E, rel=1e-15)


def test_eeq_residual_structure():
    p = unit_params()
    b0 = 2.0 * math.exp(-EULER_GAMMA)
    # at b0 the log term vanishes and the residual is hbar^2*pi/m
    assert eeq_residual(b0, p) == pytest.approx(math.pi, rel=1e-14)
    assert eeq_residual(b0 / 2.0, p) < eeq_residual(b0, p) < eeq_residual(2.0 * b0, p)


def test_unit_parameter_root_closed_form():
    state = solve_eeq(unit_params())
    b_star = 2.0 * math.exp(-EULER_GAMMA - math.pi)
    assert b_star == pytest.approx(0.04852572846255832, rel=1e-15)
    assert state.b == pytest.approx(b_star, rel=1e-13)
    assert state.energy == pytest.approx(-0.0011773731614109714, rel=1e-13)
    assert closed_form_energy(unit_params()) == pytest.approx(-0.0011773731614109714,
                                                             rel=1e-15)


def test_solver_matches_closed_form_across_parameters():
    cases = [
        unit_params(),
        unit_params(alpha=-1.0),
        unit_params(alpha=4.0 * math.pi),
        PhysicalParams(1.3, 0.7, 2.5, 0.8),
        PhysicalParams(0.9, 1.8, -0.6, -1.7),
        PhysicalParams(math.sqrt(2.0), 1.0, 1.0, 1.0),
        # strong coupling: the bracket is a single factor-2 step
        unit_params(alpha=50.0),
        unit_params(alpha=-50.0),
        unit_params(alpha=1e3),
        unit_params(alpha=-1e3),
    ]
    for p in cases:
        state = solve_eeq(p)
        closed = closed_form_energy(p)
        assert abs(state.energy - closed) <= 1e-12 * abs(closed)
        assert abs(eeq_residual(state.b, p)) <= 1e-12


def test_family_is_even_in_L_and_scales_like_inverse_square():
    for L in (0.5, 1.0, 3.0):
        p_pos = unit_params(L=L)
        p_neg = unit_params(L=-L)
        assert closed_form_energy(p_pos) == closed_form_energy(p_neg)
        assert solve_eeq(p_pos).b == solve_eeq(p_neg).b
    base = closed_form_energy(unit_params(L=1.0))
    for L in (0.5, 2.0, 10.0):
        assert closed_form_energy(unit_params(L=L)) == pytest.approx(base / L**2, rel=1e-15)


def test_c_spectrum_family_table():
    fam = c_spectrum(1.0, 1.0, 1.0, [0.5, 1.0, 2.0])
    assert [L for L, _ in fam.entries] == [0.5, 1.0, 2.0]
    E1 = -0.0011773731614109714
    assert fam.entries[0][1] == pytest.approx(4.0 * E1, rel=1e-15)
    assert fam.entries[1][1] == pytest.approx(E1, rel=1e-15)
    assert fam.entries[2][1] == pytest.approx(E1 / 4.0, rel=1e-15)


def test_aghh_singleton_values():
    cmp4pi = aghh_check(4.0 * math.pi)
    want = -4.0 * math.exp(-2.0 * EULER_GAMMA - 1.0)
    assert cmp4pi.sigma_c == pytest.approx(want, rel=1e-15)
    assert cmp4pi.rel_diff <= 1e-14
    assert cmp4pi.scattering_length == pytest.approx(-2.0, rel=1e-15)

    cmp1 = aghh_check(1.0)
    assert cmp1.sigma_c == pytest.approx(-4.0 * math.exp(-2.0 * EULER_GAMMA - 4.0 * math.pi),
                                         rel=1e-15)
    assert abs(cmp1.sigma_c) == pytest.approx(4.397e-6, rel=1e-3)
    assert cmp1.rel_diff <= 1e-14


def test_aghh_check_compares_the_root_found_energy(monkeypatch):
    solve = spectrum.solve_eeq

    def off_by_1e6(params):
        state = solve(params)
        return BoundState(state.b, state.energy * (1.0 + 1e-6))

    monkeypatch.setattr(spectrum, "solve_eeq", off_by_1e6)
    assert aghh_check(1.0).rel_diff > 1e-7


def test_import_does_not_load_scipy_optimize():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import delta2d, sys; print('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# Runs in a fresh interpreter, because this process already holds numpy:
# import delta2d, run one subcommand if argv is given, then print its exit
# code and which array libraries it loaded.
_IMPORT_PROBE = """
import io, sys
import delta2d
code = delta2d.cli.main(sys.argv[1:], stream=io.StringIO()) if sys.argv[1:] else 0
print(code, *(m for m in ("numpy", "scipy", "scipy.special") if m in sys.modules))
"""


@pytest.mark.parametrize("argv, loaded", [
    ((), ""),
    (("spectrum",), ""),
    (("verify", "--suite", "rewrite"), ""),
    (("pair", "--expr", "log_r"), "numpy"),
    (("k0",), "numpy scipy scipy.special"),
])
def test_each_subcommand_imports_only_what_it_needs(argv, loaded):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"] + loaded.split()


# The public names of the package, as its modules define them.
_PUBLIC = {
    "specfun": ("EULER_GAMMA", "k0", "k0_log_form"),
    "testfn": ("BumpFunction", "make_bump", "rescale"),
    "quad": ("MollifierFamily", "PairingReport", "LogFitResult", "QuadratureError",
             "integrate_radial", "pair_regular", "pair_delta", "pair_mollified_product",
             "fit_log_divergence"),
    "dexpr": ("parse_expr", "print_expr", "normalize", "canonical_coeffs", "scale_expr",
              "laplacian_expr", "rewrite_singular_products", "rewrite_full",
              "apply_hamiltonian", "weak_pair_expr"),
    "spectrum": ("PhysicalParams", "BoundState", "CSpectrumFamily", "AghhComparison",
                 "eeq_residual", "energy_from_b", "b_from_energy", "solve_eeq",
                 "closed_form_energy", "c_spectrum", "aghh_check"),
}


def test_public_names_resolve_lazily_to_their_module_objects(monkeypatch):
    import importlib

    import delta2d

    names = [name for group in _PUBLIC.values() for name in group]
    for modname, group in _PUBLIC.items():
        module = importlib.import_module("delta2d." + modname)
        assert getattr(delta2d, modname) is module
        for name in group:
            assert getattr(delta2d, name) is getattr(module, name), name
    assert sorted(delta2d.__all__) == sorted(names)
    assert set(names) <= set(dir(delta2d))
    namespace = {}
    exec("from delta2d import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        delta2d.no_such_name
    assert getattr(delta2d, "no_such_name", None) is None
    # the package holds no copy: a name rebound in its module (as the
    # benchmark tracer does) shows through and is undone with it
    monkeypatch.setattr(delta2d.specfun, "k0", len)
    assert delta2d.k0 is len
    monkeypatch.undo()
    assert delta2d.k0 is delta2d.specfun.k0


def test_aghh_matches_closed_form_at_collapse_point():
    # hbar^2/m = 2 and L = +-1 collapse the family onto the singleton
    for alpha in (0.5, 1.0, 4.0 * math.pi, -2.0):
        p = PhysicalParams(math.sqrt(2.0), 1.0, alpha, 1.0)
        assert closed_form_energy(p) == pytest.approx(aghh_check(alpha).sigma_c, rel=1e-14)


def test_energy_depth_increases_with_positive_coupling():
    energies = [closed_form_energy(unit_params(alpha=a)) for a in (0.5, 1.0, 2.0, 4.0)]
    depths = [abs(E) for E in energies]
    assert all(b > a for a, b in zip(depths[:-1], depths[1:]))


def test_validation_errors():
    with pytest.raises(ValueError, match="hbar"):
        PhysicalParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="mass"):
        PhysicalParams(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        PhysicalParams(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="L"):
        PhysicalParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        BoundState(-1.0, -1.0)
    with pytest.raises(ValueError):
        BoundState(1.0, 0.5)
    p = unit_params()
    with pytest.raises(ValueError):
        energy_from_b(-1.0, p)
    with pytest.raises(ValueError):
        b_from_energy(0.5, p)
    with pytest.raises(ValueError):
        aghh_check(0.0)
