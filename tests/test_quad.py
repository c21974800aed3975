import math

import numpy as np
import pytest

from delta2d import (EULER_GAMMA, k0, make_bump, integrate_radial, pair_regular,
                     pair_delta, pair_mollified_product, fit_log_divergence,
                     MollifierFamily, QuadratureError)
from delta2d.quad import PairingReport

from conftest import off_centre_oracle, radial_oracle, suite_bumps

# the whole suite, plus two off-centre bumps whose support contains the origin
ESTIMATE_BUMPS = suite_bumps() + [make_bump(1.0, 1.0, (0.4, 0.0)),
                                  make_bump(1.0, 1.0, (0.9, 0.0))]


def _bump_id(phi):
    if phi.origin_centered:
        return "a=%g,R=%g" % (phi.amplitude, phi.radius)
    return "c=%g,%g" % phi.center


def test_unit_disk_area():
    rep = integrate_radial(lambda r: np.where(r <= 1.0, 1.0, 0.0), 1.0)
    assert rep.value == pytest.approx(math.pi, rel=1e-12)
    assert rep.abs_error_estimate <= 1e-10 * (1.0 + math.pi)


def test_log_integrand_closed_form():
    # 2*pi*int_0^1 r log r dr = -pi/2, antiderivative r^2 (2 log r - 1)/4
    rep = integrate_radial(lambda r: np.log(r), 1.0)
    assert rep.value == pytest.approx(-math.pi / 2.0, rel=1e-10)


def test_k0_squared_norm():
    # 2*pi*int_0^inf r K0(r)^2 dr = pi
    rep = integrate_radial(lambda r: k0(r) ** 2, 50.0)
    assert rep.value == pytest.approx(math.pi, rel=1e-10)
    # cross-check against the QUADPACK oracle
    assert rep.value == pytest.approx(
        radial_oracle(lambda r: k0(r) ** 2, 0.0, 50.0, singular_at_zero=True), rel=1e-9)


def test_report_invariant_and_domain_error():
    rep = integrate_radial(lambda r: np.exp(-r), 10.0)
    assert len(rep.table) >= 2
    assert rep.abs_error_estimate >= abs(rep.table[-1][1] - rep.table[-2][1])
    with pytest.raises(ValueError):
        integrate_radial(lambda r: r, 0.0)
    with pytest.raises(ValueError):
        PairingReport(1.0, 0.0, ((1, 0.0), (2, 1.0)))


def test_fundamental_solution_identity(suite):
    for phi in suite:
        rep = pair_regular(np.log, phi, move_ops=True)
        want = 2.0 * math.pi * phi.at_origin()
        assert abs(rep.value - want) <= 1e-8 * max(1.0, abs(phi.at_origin()))


def test_psi_normalization():
    for b in (0.5, 1.0, 2.0):
        psi = lambda r: (b / math.sqrt(math.pi)) * k0(b * np.asarray(r, dtype=float))
        rep = integrate_radial(lambda r: psi(r) ** 2, 30.0 / b)
        assert abs(rep.value - 1.0) <= 1e-8


def test_pairing_disjoint_supports_is_zero():
    phi = make_bump(1.0, 1.0, (5.0, 0.0))
    f = lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)
    assert pair_regular(f, phi).value == pytest.approx(0.0, abs=1e-12)


def test_pair_regular_off_center_against_oracle():
    # <log|x|, phi> for a bump away from the origin, cross-checked with a
    # 2D tensor QUADPACK computation
    phi = make_bump(1.0, 1.0, (3.0, 0.0))
    rep = pair_regular(np.log, phi)
    from scipy.integrate import dblquad
    want, _ = dblquad(
        lambda y, x: math.log(math.hypot(x, y)) * phi.value((x, y)),
        2.0, 4.0, -1.0, 1.0, epsabs=1e-11, epsrel=1e-11)
    assert rep.value == pytest.approx(want, abs=5e-10)


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("kind", ["log", "k0"])
@pytest.mark.parametrize("phi", ESTIMATE_BUMPS, ids=_bump_id)
def test_off_centre_error_estimate_bounds_actual_error(phi, kind, move_ops):
    # the reported estimate (radial, plus the angular part off the origin) must cover the
    # distance to an independent oracle in the bump's own coordinates
    f = np.log if kind == "log" else (lambda r: k0(np.asarray(r, float)))
    rep = pair_regular(f, phi, move_ops=move_ops)
    want, oracle_tol = off_centre_oracle(kind, 1.0, phi, laplacian=move_ops)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol


def test_angular_average_failure_names_its_stage(monkeypatch):
    import delta2d.quad as quad
    monkeypatch.setattr(quad, "_ARC_MAX_LEVEL", 1)
    with pytest.raises(QuadratureError, match=r"angular average .* r=\S+: level 1, last difference \S+"):
        pair_regular(np.log, make_bump(1.0, 1.0, (3.0, 0.0)), move_ops=True)


def test_delta_scaling_rule_via_expressions():
    from delta2d import parse_expr, scale_expr, weak_pair_expr
    phi = make_bump(1.0, 2.0)
    scaled, _ = scale_expr(parse_expr("delta"), 2.0)
    assert weak_pair_expr(scaled, phi).value == pytest.approx(phi.at_origin() / 4.0, rel=1e-14)


def test_mollifier_family_validation():
    with pytest.raises(ValueError):
        MollifierFamily("triangle", (0.5, 0.25))
    with pytest.raises(ValueError):
        MollifierFamily("gaussian", (0.25, 0.5))
    with pytest.raises(ValueError):
        MollifierFamily("gaussian", ())
    fam = MollifierFamily.default()
    assert fam.epsilons[0] == 2.0 ** -4 and fam.epsilons[-1] == 2.0 ** -14


@pytest.mark.parametrize("profile", ["gaussian", "bump"])
def test_mollifier_unit_mass_and_scaling(profile):
    fam = MollifierFamily(profile, (0.5, 0.25))
    for eps in fam.epsilons:
        rep = integrate_radial(lambda r: fam.delta_eps(eps, r), fam.cutoff_radius(eps))
        assert abs(rep.value - 1.0) <= 1e-10
        # exact scaling relation delta_eps(x) = eps^-2 eta(x/eps)
        r = np.array([0.1 * eps, 0.7 * eps])
        assert np.allclose(fam.delta_eps(eps, r), fam.unit_profile(r / eps) / eps**2,
                           rtol=0.0, atol=0.0)


def _check_mollified_constant_recovers_phi0(phi):
    # <1 * delta_eps, phi> = phi(0) + (eps^2/4) * lap phi(0) * <|u|^2 eta> + O(eps^4);
    # the gaussian profile has second moment <|u|^2 eta> = 1
    fam = MollifierFamily("gaussian", (2.0 ** -6, 2.0 ** -8, 2.0 ** -10))
    rows = pair_mollified_product(lambda r: np.ones_like(np.asarray(r, float)), fam, phi)
    lap0 = phi.laplacian((0.0, 0.0))
    for eps, v in rows:
        bias = 0.25 * eps * eps * lap0
        assert v - phi.at_origin() == pytest.approx(bias, rel=1e-2)
    errs = [abs(v - phi.at_origin()) for _, v in rows]
    assert errs[-1] < 1e-5
    assert errs[-1] <= errs[0]


def test_mollified_constant_recovers_phi0():
    _check_mollified_constant_recovers_phi0(make_bump(2.0, 1.0))


def test_mollified_constant_recovers_phi0_off_centre():
    # the circle average of a smooth phi is phi(0) + (r^2/4) lap phi(0) + ...,
    # so the same eps^2 bias holds for a bump off the origin
    _check_mollified_constant_recovers_phi0(make_bump(2.0, 1.0, (0.3, 0.2)))


def test_mollified_epsilon_domain_error():
    phi = make_bump(1.0, 0.05)
    fam = MollifierFamily("gaussian", (0.0625,))
    with pytest.raises(ValueError):
        pair_mollified_product(lambda r: np.ones_like(np.asarray(r, float)), fam, phi)


def test_gaussian_log_moment_constant():
    # c_eta = int log|u| eta(u) d2u = -gamma/2 for the gaussian profile
    fam = MollifierFamily("gaussian", (1.0 / 16.0,))
    rep = integrate_radial(lambda r: np.log(r) * fam.delta_eps(1.0, r),
                           fam.cutoff_radius(1.0))
    assert rep.value == pytest.approx(-EULER_GAMMA / 2.0, abs=1e-10)


def test_mollified_log_divergence_slope(suite):
    phi = make_bump(1.0, 2.0)
    for profile in ("gaussian", "bump"):
        fam = MollifierFamily.default(profile)
        rows = pair_mollified_product(np.log, fam, phi)
        fit = fit_log_divergence(rows, phi.at_origin())
        assert fit.slope == pytest.approx(phi.at_origin(), rel=0.01)
        # values diverge to -infinity as eps -> 0
        assert rows[-1][1] < rows[0][1] < 0.0


def test_mollified_k0_effective_scale_stable_across_radii():
    # finite part of <K0(a|x|) delta_eps, phi> is phi-independent; the bump
    # mollifier profile satisfies supp(delta_eps) inside supp(phi) exactly
    scales = []
    fam = MollifierFamily.default("bump")
    for radius in (0.5, 1.0, 2.0):
        phi = make_bump(1.0, radius)
        rows = pair_mollified_product(lambda r: k0(np.asarray(r, float)), fam, phi)
        fit = fit_log_divergence(rows, phi.at_origin(), a=1.0)
        scales.append(fit.effective_scale_constant)
        assert fit.slope == pytest.approx(-phi.at_origin(), rel=0.01)
    assert max(scales) / min(scales) - 1.0 <= 0.01


def test_fit_exact_line():
    eps = [0.1, 0.01, 0.001, 0.0001]
    data = [(e, 2.0 * math.log(e) + 3.0) for e in eps]
    fit = fit_log_divergence(data, 1.0)
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(3.0, rel=1e-12)
    assert fit.residual <= 1e-12
    assert fit.effective_scale_constant > 0.0


def test_fit_degenerate_errors():
    with pytest.raises(ValueError):
        fit_log_divergence([(0.1, 1.0), (0.1, 2.0)], 1.0)
    with pytest.raises(ValueError):
        fit_log_divergence([(0.1, 1.0), (0.01, 2.0)], 0.0)


def test_quadrature_nonconvergence_error():
    # a genuinely non-integrable singularity never converges; the error
    # names the interval, the level reached and the last difference
    with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\].*level \d+, last difference \S+"):
        integrate_radial(lambda r: 1.0 / np.asarray(r, float) ** 2, 1.0)


@pytest.mark.parametrize("R", [1e-4, 1e3, 1e6])
def test_origin_pairing_scales_with_bump_radius(R):
    # <log, phi_R> = R^2 (<log, phi_1> + log R <1, phi_1>) and <log, lap phi_R> = 2 pi
    phi1 = make_bump(1.0, 1.0)
    v1 = radial_oracle(lambda r: math.log(r) * float(phi1.profile(r)), 0.0, 1.0,
                       singular_at_zero=True)
    m1 = radial_oracle(lambda r: float(phi1.profile(r)), 0.0, 1.0)
    phi = make_bump(1.0, R)
    assert pair_regular(np.log, phi).value == pytest.approx(R * R * (v1 + math.log(R) * m1),
                                                            rel=1e-12)
    assert pair_regular(np.log, phi, move_ops=True).value == pytest.approx(2.0 * math.pi,
                                                                           rel=1e-12)


@pytest.mark.parametrize("profile", ["gaussian", "bump"])
def test_mollified_k0_rows_against_quadpack(profile):
    # each row <K0 delta_eps, phi> against a QUADPACK integral of its own
    phi = make_bump(1.0, 1.0)
    fam = MollifierFamily.default(profile)
    rows = pair_mollified_product(lambda r: k0(np.asarray(r, float)), fam, phi)
    assert [eps for eps, _ in rows] == list(fam.epsilons)
    for eps, value in rows:
        want = radial_oracle(lambda r: k0(r) * float(fam.delta_eps(eps, r) * phi.profile(r)),
                             0.0, min(phi.radius, fam.cutoff_radius(eps)), singular_at_zero=True)
        assert value == pytest.approx(want, rel=1e-12)
