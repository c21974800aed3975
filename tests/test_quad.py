import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delta2d import (EULER_GAMMA, k0, make_bump, rescale, integrate_radial, pair_regular,
                     pair_delta, pair_mollified_product, fit_log_divergence,
                     MollifierFamily, QuadratureError)
from delta2d.quad import PairingReport

from conftest import mollified_oracle, off_centre_oracle, radial_oracle, suite_bumps

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


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("kind", ["log", "k0"])
@pytest.mark.parametrize("q", [1e-6, 0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.999])
def test_bump_containing_the_origin_is_cut_at_its_kink(q, kind, move_ops):
    # with 0 < d < R the annulus is cut at r = R - d, where the circle leaves
    # the support and the arc average stops being analytic: both segments
    # converge double-exponentially, so no pairing needs more than 6 levels
    R = 1.3
    phi = make_bump(1.0, R, (0.6 * q * R, 0.8 * q * R))
    f = np.log if kind == "log" else (lambda r: k0(np.asarray(r, float)))
    rep = pair_regular(f, phi, move_ops=move_ops)
    want, oracle_tol = off_centre_oracle(kind, 1.0, phi, laplacian=move_ops)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol
    assert len(rep.table) - 1 <= 6
    assert type(rep.value) is float and all(type(v) is float for _, v in rep.table)


def test_k0_estimate_bounds_its_error_at_d_near_0_39_R():
    # d ~ 0.39R: without the cut this pairing stopped at level 6 with an
    # estimate of 5.35e-12 against an actual error of 1.56e-11
    a = 0.963072832203826
    phi = make_bump(0.906100844685653, 0.9674833986401044,
                    (0.2085667789979115, 0.31488104331325617))
    rep = pair_regular(lambda r: k0(a * r), phi)
    want, oracle_tol = off_centre_oracle("k0", a, phi)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol


def _check_angular_failure(monkeypatch, center):
    import delta2d.quad as quad
    monkeypatch.setattr(quad, "_ARC_MAX_LEVEL", 1)
    with pytest.raises(QuadratureError, match=r"angular average .* r=\S+: level 1, last difference \S+") as exc:
        pair_regular(np.log, make_bump(1.0, 1.0, center), move_ops=True)
    err = exc.value
    assert err.stage == "angular" and err.level == 1 and err.interval is None
    assert 0.0 < err.r < 1.4 and err.last_difference > 0.0
    assert "r=%r" % err.r in str(err) and "difference %r" % err.last_difference in str(err)


def test_angular_average_failure_names_its_stage(monkeypatch):
    # (3, 0) is paired in the bump's own frame: r is the radius of a circle about the centre
    _check_angular_failure(monkeypatch, (3.0, 0.0))


def test_angular_average_failure_names_its_stage_in_the_origin_frame(monkeypatch):
    _check_angular_failure(monkeypatch, (0.4, 0.0))


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("q", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("R", [1e-4, 1.0])
def test_thin_far_bump_against_oracle(R, q, move_ops):
    # d/R up to 1e12: paired in the bump's frame, no arc width from r - d is formed,
    # so nothing is lost to cancellation and nothing raises
    phi = make_bump(1.0, R, (0.6 * q * R, -0.8 * q * R))
    rep = pair_regular(np.log, phi, move_ops=move_ops)
    want, oracle_tol = off_centre_oracle("log", 1.0, phi, laplacian=move_ops)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol
    if not move_ops:
        assert rep.value == pytest.approx(want, rel=1e-13)


def test_multi_term_pairing_of_a_thin_far_bump():
    # in the bump frame each regular term is one pair_regular call, with its own circle means
    from delta2d import parse_expr, weak_pair_expr
    phi = make_bump(1.0, 1e-4, (1e6, 0.0))
    rep = weak_pair_expr(parse_expr("log_r + K0(1.0*r)"), phi)
    (log_v, log_tol), (k0_v, k0_tol) = (off_centre_oracle(k, 1.0, phi) for k in ("log", "k0"))
    assert abs(rep.value - (log_v + k0_v)) <= rep.abs_error_estimate + log_tol + k0_tol
    assert rep.value == pytest.approx(log_v, rel=1e-13)


@pytest.mark.parametrize("d", [1e155, 1e160])
def test_far_bump_near_the_top_of_the_double_range(d):
    # d/R = 1e10 with r * d past the double range: the circles about c are
    # formed in units of d, so nothing overflows and no warning is raised
    phi = make_bump(1.0, d / 1e10, (d, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = pair_regular(np.log, phi)
    want, oracle_tol = off_centre_oracle("log", 1.0, phi)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("R", [1e-4, 1e-3, 1e-2])
def test_round_off_floor_of_a_pairing_that_is_exactly_zero(R, move_ops):
    # every circle about a point of the unit circle has mean log = 0, so the
    # exact pairing is 0 and the value is the round-off of log|x| at |x| ~ 1:
    # the estimate alone must cover it, with no oracle tolerance
    rep = pair_regular(np.log, make_bump(1.0, R, (1.0, 0.0)), move_ops=move_ops)
    assert rep.abs_error_estimate >= abs(rep.value)


# Points the angular rule evaluated per pairing against the bump A = 1, R = 1
# at (d, 0), rel_tol 1e-10, while every node took the same angular tolerance
# (log, then K0(1.) and psi_1, which share one count), by d/R and move_ops
ANGULAR_POINTS_BEFORE = {
    (0.4, False): (38210, 38210), (0.4, True): (71634, 71634),
    (1.75, False): (10305, 10369), (1.75, True): (10305, 10369),
    (4.5, False): (6161, 6337), (4.5, True): (6161, 6337),
}


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("d", [0.4, 1.75, 4.5])
@pytest.mark.parametrize("kind", ["log", "k0", "psi"])
def test_angular_work_follows_each_nodes_share_of_the_pairing(monkeypatch, kind, d, move_ops):
    import delta2d.quad as quad
    points = [0]
    average = quad._theta_average

    def counting(kernel, *args, **kwargs):
        def counted(q):
            points[0] += np.size(q)
            return kernel(q)
        return average(counted, *args, **kwargs)

    monkeypatch.setattr(quad, "_theta_average", counting)
    pre = 1.0 if kind != "psi" else 1.0 / math.sqrt(math.pi)
    f = np.log if kind == "log" else (lambda r: pre * k0(np.asarray(r, float)))
    pair_regular(f, make_bump(1.0, 1.0, (d, 0.0)), move_ops=move_ops)
    before = ANGULAR_POINTS_BEFORE[d, move_ops][kind != "log"]
    assert points[0] <= (0.65 if d < 4.0 else 1.0) * before


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_s=st.floats(-6.0, 6.0), q=st.sampled_from([0.0, 0.4, 1.75, 4.5, 1e9]),
       kind=st.sampled_from(["log", "k0"]))
def test_pairing_is_scale_covariant(log_s, q, kind):
    # s^2 <f(s.), phi(s.)> = <f, phi>, on the origin, off it and far from it
    s = 10.0 ** log_s
    phi = make_bump(1.0, 1.0, (0.6 * q, 0.8 * q))
    if kind == "log":
        f, f_s = np.log, (lambda r: np.log(s * np.asarray(r, float)))
    else:
        f, f_s = (lambda r: k0(np.asarray(r, float))), (lambda r: k0(s * np.asarray(r, float)))
    rep, rep_s = pair_regular(f, phi), pair_regular(f_s, rescale(phi, s))
    assert abs(s * s * rep_s.value - rep.value) <= (s * s * rep_s.abs_error_estimate
                                                    + rep.abs_error_estimate
                                                    + 1e-14 * (1.0 + abs(rep.value)))


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


def test_fit_scale_past_the_float_range():
    # e^(intercept/phi0) = e^1000 overflows: the scale is inf, or 0.0 when
    # phi0 flips its sign, and a small rate a brings it back in range
    data = [(0.5, 1000.0), (0.25, 1000.0)]
    assert fit_log_divergence(data, 1.0).effective_scale_constant == math.inf
    assert fit_log_divergence(data, -1.0).effective_scale_constant == 0.0
    data = [(0.5, 710.0), (0.25, 710.0)]
    want = 0.5 * math.exp(EULER_GAMMA) * 1e-300 * math.exp(355.0) * math.exp(355.0)
    got = fit_log_divergence(data, 1.0, a=1e-300).effective_scale_constant
    assert got == pytest.approx(want, rel=1e-12)


def test_fit_degenerate_errors():
    with pytest.raises(ValueError):
        fit_log_divergence([(0.1, 1.0), (0.1, 2.0)], 1.0)
    with pytest.raises(ValueError):
        fit_log_divergence([(0.1, 1.0), (0.01, 2.0)], 0.0)


def test_quadrature_nonconvergence_error():
    # a genuinely non-integrable singularity never converges; the error
    # names the interval, the level reached and the last difference
    with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\].*level \d+, last difference \S+") as exc:
        integrate_radial(lambda r: 1.0 / np.asarray(r, float) ** 2, 1.0)
    err = exc.value
    assert err.stage == "radial" and err.interval == (0.0, 1.0) and err.r is None
    assert "level %d, last difference %r" % (err.level, err.last_difference) in str(err)


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


@pytest.mark.parametrize("center", [(0.3, 0.2), (1.5, 0.0), (0.9, 0.0)])
@pytest.mark.parametrize("profile", ["gaussian", "bump"])
def test_mollified_k0_rows_off_centre_against_quadpack(profile, center):
    # every eps is a column of one shared mesh, each on its own part of the
    # annulus; at (1.5, 0) the annulus starts at r = 0.5, so the narrow
    # widths have no overlap with phi and their rows are exactly 0; at
    # (0.9, 0) the cutoffs fall on both sides of the cut at R - d = 0.1
    phi = make_bump(1.0, 1.0, center)
    fam = MollifierFamily.default(profile)
    rows = pair_mollified_product(lambda r: k0(np.asarray(r, float)), fam, phi)
    assert [eps for eps, _ in rows] == list(fam.epsilons)
    for eps, value in rows:
        want = mollified_oracle(k0, fam, eps, phi)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
    if center == (1.5, 0.0):
        assert rows[-1][1] == 0.0


def test_vector_core_matches_scalar_columns():
    # k columns on one t-mesh give each column's scalar value; a scalar
    # interval keeps float results and a (level, float) table
    from delta2d.quad import _tanh_sinh
    cols = [(np.log, 0.0, 1.0), (lambda r: np.exp(-r), 0.0, 10.0), (np.sqrt, 2.0, 3.0)]
    lo, hi = np.array([c[1] for c in cols]), np.array([c[2] for c in cols])
    h = lambda r: np.stack([f(r[:, j]) for j, (f, _, _) in enumerate(cols)], axis=1)
    values, estimates, table = _tanh_sinh(h, lo, hi, 1e-10)
    assert values.shape == estimates.shape == (3,) and table[-1][1].shape == (3,)
    for j, (f, a, b) in enumerate(cols):
        value, estimate, rows = _tanh_sinh(f, a, b, 1e-10)
        assert type(value) is float and type(estimate) is float
        assert all(type(v) is float for _, v in rows)
        assert values[j] == pytest.approx(value, rel=1e-14)
        assert len(table) >= len(rows) and estimates[j] <= 2.0 * estimate
    # one interval of shape (1,) serves every column of h
    shared = _tanh_sinh(lambda r: np.concatenate([np.log(r), r * r], axis=1),
                        np.zeros(1), np.ones(1), 1e-10)[0]
    assert shared == pytest.approx([-1.0, 1.0 / 3.0], rel=1e-14)


def test_vector_quadrature_error_names_the_worst_column():
    from delta2d.quad import _tanh_sinh
    h = lambda r: np.stack([np.exp(-r[:, 0]), 1.0 / r[:, 1] ** 2], axis=1)
    with pytest.raises(QuadratureError,
                       match=r"on \[0\.0, 2\.0\] did not converge: level \d+, last difference \S+"):
        _tanh_sinh(h, np.zeros(2), np.array([1.0, 2.0]), 1e-10)


def test_tanh_sinh_failure_at_level_0_is_a_quadrature_error(monkeypatch):
    # with no second level there is no difference to test: a QuadratureError,
    # not a NameError from the report
    import delta2d.quad as quad
    monkeypatch.setattr(quad, "_TS_MAX_LEVEL", 0)
    with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\].*level 0, last difference inf"):
        integrate_radial(np.log, 1.0)
    with pytest.raises(QuadratureError, match=r"level 0, last difference inf") as exc:
        quad._tanh_sinh(lambda r: r, np.zeros(2), np.array([1.0, 2.0]), 1e-10)
    assert exc.value.stage == "radial" and exc.value.interval in ((0.0, 1.0), (0.0, 2.0))


@pytest.mark.parametrize("rule, pair", [
    ("tanh-sinh", lambda: integrate_radial(lambda r: np.where(r > 0.5, np.nan, 1.0), 1.0)),
    ("Clenshaw-Curtis", lambda: pair_regular(lambda r: np.where(r > 1.5, np.nan, np.log(r)),
                                             make_bump(1.0, 1.0, (1.75, 0.0)))),
])
def test_a_nan_difference_stops_either_rule_at_level_1(rule, pair):
    # a NaN difference never settles: the rule stops at the first one, not at its last level
    with pytest.raises(QuadratureError) as exc:
        pair()
    err = exc.value
    assert str(err) == ("%s quadrature on [0.0, 1.0] did not converge: "
                        "level 1, last difference nan" % rule)
    assert err.stage == "radial" and err.level == 1 and math.isnan(err.last_difference)


@pytest.mark.parametrize("laplacian", [False, True])
def test_bump_weighted_clenshaw_curtis_weights_against_quadpack_moments(laplacian):
    # sum_i W_i T_j(x_i) = int eta T_j for every j <= m; the moments come from
    # QUADPACK's cosine-weighted rule in theta, not from the package
    import delta2d.quad as quad
    from conftest import chebyshev_moments
    mu = chebyshev_moments(laplacian, 512)
    for m in (8, 16, 32, 64, 128, 256, 512):
        weights = quad._cc_weights(laplacian, m)
        k = np.arange(m + 1)
        chebyshev = np.cos(math.pi / m * (np.outer(k, k) % (2 * m)))  # T_j(x_i), x_i = cos(pi i/m)
        error = np.abs(weights @ chebyshev - mu[:m + 1])
        assert error.max() <= 1e-13
        # the weights' own error stays under the 64-ulp floor the bump frame's
        # estimate carries for an f whose circle means are T_j
        assert np.all(error <= 0.65 * 64.0 * math.ulp(1.0) * (np.abs(weights) @ np.abs(chebyshev)))
        # int eta = 2 int_0^1 exp(1 - 1/(1 - s)) ds = 2 / (pi * the plane normalisation),
        # and the Laplacian integrates to 0; the rule stays well conditioned
        if laplacian:
            assert abs(weights.sum()) <= 1e-13
            assert np.abs(weights).sum() <= 4.0
        else:
            assert weights.sum() == pytest.approx(2.0 / (math.pi * quad._BUMP_PROFILE_NORM),
                                                  rel=1e-13)
            assert np.abs(weights).sum() <= 0.81


HARD_CALLABLES = {
    # a Gaussian ring of width 0.05 R through the bump centre (|x| = d), an
    # oscillation and a power singularity at the origin
    "ring": lambda d: (lambda r: np.exp(-((np.asarray(r, float) - d) / 0.05) ** 2)),
    "cos20r": lambda d: (lambda r: np.cos(20.0 * np.asarray(r, float))),
    "r^-3": lambda d: (lambda r: np.asarray(r, float) ** -3.0),
}


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("d", [1.2, 1.75, 4.5])
@pytest.mark.parametrize("name", sorted(HARD_CALLABLES))
def test_hard_callables_in_the_bump_frame_against_a_2d_oracle(name, d, move_ops):
    from conftest import bump_frame_oracle
    f = HARD_CALLABLES[name](d)
    phi = make_bump(1.0, 1.0, (0.6 * d, 0.8 * d))
    rep = pair_regular(f, phi, move_ops=move_ops)
    want, oracle_tol = bump_frame_oracle(lambda r: float(f(r)), phi, laplacian=move_ops)
    assert abs(rep.value - want) <= rep.abs_error_estimate + oracle_tol


def test_bump_frame_failure_names_its_interval_and_level(monkeypatch):
    # the ring needs m = 256 Lobatto intervals; capped at m = 16 the rule fails
    import delta2d.quad as quad
    monkeypatch.setattr(quad, "_CC_MAX_LEVEL", 1)
    with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\] did not converge: level 1, "
                                              r"last difference \S+") as exc:
        pair_regular(HARD_CALLABLES["ring"](1.75), make_bump(1.0, 1.0, (1.75, 0.0)))
    err = exc.value
    assert err.stage == "radial" and err.interval == (0.0, 1.0) and err.level == 1
    assert "difference %r" % err.last_difference in str(err) and err.last_difference > 0.0


@pytest.mark.parametrize("move_ops", [False, True])
@pytest.mark.parametrize("d", [1.75, 4.5])
@pytest.mark.parametrize("kind", ["log", "k0", "psi"])
def test_bump_frame_takes_few_circle_points(monkeypatch, kind, d, move_ops):
    # 17 to 33 circle means: at most 1,000 angular points per pairing
    import delta2d.quad as quad
    points = [0]
    average = quad._theta_average

    def counting(kernel, *args, **kwargs):
        def counted(q):
            points[0] += np.size(q)
            return kernel(q)
        return average(counted, *args, **kwargs)

    monkeypatch.setattr(quad, "_theta_average", counting)
    pre = 1.0 if kind != "psi" else 1.0 / math.sqrt(math.pi)
    f = np.log if kind == "log" else (lambda r: pre * k0(np.asarray(r, float)))
    pair_regular(f, make_bump(1.0, 1.0, (d, 0.0)), move_ops=move_ops)
    assert points[0] <= 1000


def test_bump_frame_estimate_is_not_loose_for_the_laplacian():
    # <log, lap phi> = 2 pi phi(0) = 0 here; the estimate stays within 1e3 of
    # the actual error, where the tanh-sinh product rule reported about 1e6 times it
    phi = make_bump(1.0, 1.0, (4.5, 0.0))
    rep = pair_regular(np.log, phi, move_ops=True)
    want, _ = off_centre_oracle("log", 1.0, phi, laplacian=True)
    assert abs(rep.value - want) <= rep.abs_error_estimate <= 1e3 * (abs(rep.value - want) + 1e-15)


@pytest.mark.parametrize("d", [1.2, 1.75])
def test_bump_frame_columns_match_single_pairings(d):
    # in the bump frame the multi-term path pairs every term by pair_regular
    from delta2d import parse_expr, weak_pair_expr
    phi = make_bump(1.0, 1.0, (d, 0.0))
    rep = weak_pair_expr(parse_expr("log_r + K0(1.0*r)"), phi)
    parts = [pair_regular(f, phi) for f in (np.log, lambda r: k0(np.asarray(r, float)))]
    assert rep.value == pytest.approx(sum(p.value for p in parts), rel=1e-14)
    (log_v, log_tol), (k0_v, k0_tol) = (off_centre_oracle(k, 1.0, phi) for k in ("log", "k0"))
    assert abs(rep.value - (log_v + k0_v)) <= rep.abs_error_estimate + log_tol + k0_tol
