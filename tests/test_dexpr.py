import math
import random

import numpy as np
import pytest

from delta2d import (EULER_GAMMA, make_bump, rescale, parse_expr, print_expr,
                     normalize, canonical_coeffs, scale_expr, laplacian_expr,
                     rewrite_singular_products, rewrite_full, apply_hamiltonian,
                     weak_pair_expr, pair_regular, PhysicalParams)
from delta2d import dexpr as dx

from conftest import off_centre_oracle

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------- parsing


def test_parse_basic_terms():
    assert parse_expr("delta") == dx.Delta()
    assert parse_expr("log_r") == dx.LogRadial()
    assert parse_expr("K0(2*r)*delta") == dx.Product(dx.K0Radial(2.0), dx.Delta())
    assert parse_expr("lap(psi(1.5)) + 3*delta") == dx.Sum(
        (dx.Laplacian(dx.Psi(1.5)), dx.ScalarMul(3.0, dx.Delta())))
    assert parse_expr("scale(2, delta)") == dx.ScaleArg(2.0, dx.Delta())
    assert parse_expr("log_r_over(1.5)") == dx.LogRadialScaled(1.5)
    assert parse_expr("0") == dx.ZERO
    assert parse_expr("delta  ") == dx.Delta()


def test_parse_subtraction_and_negation():
    e = parse_expr("psi(1.0) - 2*delta")
    assert e == dx.Sum((dx.Psi(1.0), dx.ScalarMul(-2.0, dx.Delta())))
    assert parse_expr("-delta") == dx.ScalarMul(-1.0, dx.Delta())


def test_parse_syntax_errors_carry_position():
    with pytest.raises(dx.ExprSyntaxError) as err:
        parse_expr("delta + + psi(1)")
    assert err.value.position >= 6
    with pytest.raises(dx.ExprSyntaxError):
        parse_expr("K0(2*x)")
    with pytest.raises(dx.ExprSyntaxError):
        parse_expr("delta delta")
    with pytest.raises(dx.ExprSyntaxError):
        parse_expr("frob(1)")


@pytest.mark.parametrize("source, message, position", [
    ("log_r $", "unexpected character '$'", 6),
    ("log_r_over(x)", "expected a number", 11),
    ("2 delta", "expected '*' after a coefficient", 2),
    ("log_r*log_r", "only delta may follow '*' here", 6),
    ("delta*delta", "a product must pair one regular radial factor with delta "
                    "(delta*delta is undefined)", 5),
    ("scale(2 delta)", "expected ','", 8),
    ("psi(1.0", "expected ')'", 7),
])
def test_parse_error_messages_and_positions(source, message, position):
    with pytest.raises(dx.ExprSyntaxError) as err:
        parse_expr(source)
    assert str(err.value) == "%s (at position %d)" % (message, position)
    assert err.value.position == position


def test_parse_constraint_errors():
    with pytest.raises(dx.ExprConstraintError):
        dx.K0Radial(-1.0)
    with pytest.raises((dx.ExprSyntaxError, dx.ExprConstraintError)):
        parse_expr("K0(-1*r)")
    with pytest.raises((dx.ExprSyntaxError, dx.ExprConstraintError)):
        parse_expr("psi(0)")
    with pytest.raises(dx.ExprConstraintError):
        dx.Product(dx.Delta(), dx.Delta())


def test_round_trip_on_random_corpus():
    rng = random.Random(12345)
    for _ in range(100):
        e = dx.random_rewritable_expr(rng)
        text = print_expr(e)
        once = parse_expr(text)
        assert parse_expr(print_expr(once)) == once


def test_print_parse_identity_on_parsed_ast():
    for text in ["delta", "K0(2.0*r)*delta", "lap(psi(1.5)) + 3.0*delta",
                 "scale(-2.0, log_r + delta)", "2.0*psi(1.0) - delta"]:
        e = parse_expr(text)
        assert parse_expr(print_expr(e)) == e


# ---------------------------------------------------------------- scaling


def test_scale_delta():
    out, trace = scale_expr(dx.Delta(), 2.0)
    assert canonical_coeffs(out) == {dx.Delta(): 0.25}
    assert len(trace) == 1


def test_scale_identity_has_empty_trace():
    e = parse_expr("psi(1.0) + delta")
    out, trace = scale_expr(e, 1.0)
    assert out == e
    assert trace == []


def test_scale_rules_per_node():
    out, _ = scale_expr(dx.K0Radial(1.5), -2.0)
    assert out == dx.K0Radial(3.0)
    out, _ = scale_expr(dx.Psi(1.0), 2.0)
    assert canonical_coeffs(out) == {dx.Psi(2.0): 0.5}
    out, _ = scale_expr(dx.LogRadial(), 4.0)
    assert out == dx.LogRadialScaled(0.25)
    out, _ = scale_expr(dx.Laplacian(dx.LogRadial()), 2.0)
    # (lap log)(2x) -> (1/4) lap log(|x|/(1/2)) -> still 2*pi*delta / 4
    done, _ = laplacian_expr(out)
    assert canonical_coeffs(done) == pytest.approx({dx.Delta(): math.pi / 2.0})


def test_scale_eliminates_scalearg_nodes():
    e = parse_expr("scale(3, scale(-1, delta + K0(1*r)*delta))")
    out, _ = scale_expr(e, 1.0)

    def has_scale(node):
        if isinstance(node, dx.ScaleArg):
            return True
        kids = [getattr(node, a) for a in ("child", "regular") if hasattr(node, a)]
        kids += list(getattr(node, "terms", ()))
        return any(has_scale(k) for k in kids)

    assert not has_scale(out)


def test_scale_zero_rejected():
    with pytest.raises(ValueError):
        scale_expr(dx.Delta(), 0.0)


# ------------------------------------------------------------- laplacian


def test_laplacian_log_is_2pi_delta():
    out, trace = laplacian_expr(dx.Laplacian(dx.LogRadial()))
    assert canonical_coeffs(out) == {dx.Delta(): 2.0 * math.pi}
    assert trace[0].rule == "lap-log"


def test_laplacian_k0():
    out, _ = laplacian_expr(dx.Laplacian(dx.K0Radial(3.0)))
    assert canonical_coeffs(out) == pytest.approx(
        {dx.K0Radial(3.0): 9.0, dx.Delta(): -2.0 * math.pi})


def test_laplacian_psi():
    b = 1.5
    out, _ = laplacian_expr(dx.Laplacian(dx.Psi(b)))
    assert canonical_coeffs(out) == pytest.approx(
        {dx.Psi(b): b * b, dx.Delta(): -2.0 * SQRT_PI * b})


def test_laplacian_unsupported_node():
    with pytest.raises(dx.RewriteError):
        laplacian_expr(dx.Laplacian(dx.Delta()))


def test_symbolic_laplacian_matches_quadrature(suite):
    # coefficients of lap K0(a|x|) and lap psi_b against the numeric weak
    # pairing <f, lap phi>
    phi = make_bump(1.0, 1.0)
    for leaf, a in [(dx.K0Radial(1.0), 1.0), (dx.Psi(1.0), 1.0)]:
        sym, _ = laplacian_expr(dx.Laplacian(leaf))
        coeffs = canonical_coeffs(sym)
        numeric = pair_regular(dx._radial_callable(leaf), phi, move_ops=True).value
        regular_leaf = [n for n in coeffs if not isinstance(n, dx.Delta)][0]
        recon = (coeffs[regular_leaf] * pair_regular(dx._radial_callable(regular_leaf), phi).value
                 + coeffs[dx.Delta()] * phi.at_origin())
        assert numeric == pytest.approx(recon, abs=1e-6)


# ------------------------------------------------------ singular products


def test_log_delta_rewrites_to_zero():
    for text in ["log_r*delta", "log_r_over(2.5)*delta"]:
        out, trace = rewrite_singular_products(parse_expr(text), 1.0)
        assert canonical_coeffs(normalize(out)) == {}
        assert trace[0].rule == "product-log-delta"


def test_k0_delta_rewrite_coefficient():
    a, L = 2.0, 1.5
    out, trace = rewrite_singular_products(parse_expr("K0(2*r)*delta"), L)
    want = -(math.log(0.5 * a * L) + EULER_GAMMA)
    assert canonical_coeffs(out) == pytest.approx({dx.Delta(): want})
    assert "log" in trace[0].identity


def test_k0_delta_uses_absolute_L():
    out_pos, _ = rewrite_singular_products(parse_expr("K0(1*r)*delta"), 2.0)
    out_neg, _ = rewrite_singular_products(parse_expr("K0(1*r)*delta"), -2.0)
    assert canonical_coeffs(out_pos) == canonical_coeffs(out_neg)


def test_k0_delta_zero_coefficient_case():
    L = 1.5
    a = 2.0 * math.exp(-EULER_GAMMA) / L
    out, _ = rewrite_singular_products(dx.Product(dx.K0Radial(a), dx.Delta()), L)
    coeff = canonical_coeffs(out).get(dx.Delta(), 0.0)
    assert abs(coeff) < 1e-15


def test_product_rule_fires_once_and_leaves_no_splittable_logs():
    out, trace = rewrite_singular_products(parse_expr("K0(1*r)*delta"), 3.0)
    assert len(trace) == 1
    again, trace2 = rewrite_singular_products(out, 7.0)
    assert again == out and trace2 == []


def test_rewrite_rejects_zero_L():
    e = parse_expr("K0(1*r)*delta")
    for L in (0.0, math.inf, math.nan):
        for rewrite in (rewrite_full, rewrite_singular_products):
            with pytest.raises(ValueError,
                               match="^the reference length L must be nonzero and finite$"):
                rewrite(e, L)


# ---------------------------------------------------------- rule traces


# (text, result, [(rule, after), ...]) for rewrite_full at L = 1.5: the two
# expressions fire every scale-, lap- and product- rule.  Each step's
# `before` is the text or the previous step's `after`.
_GOLDEN_REWRITES = [
    ('scale(2.0, delta + 3.0*K0(1.5*r)*delta + scale(-0.5, lap(log_r)) + '
     'psi(1.0))',
     '0.5*psi(2.0) + 5.4920758963411895*delta',
     [
         ('scale-sum',
          'scale(2.0, delta) + scale(2.0, 3.0*K0(1.5*r)*delta) + scale(2.0, '
          'scale(-0.5, lap(log_r))) + scale(2.0, psi(1.0))'),
         ('scale-delta',
          '0.25*delta + scale(2.0, 3.0*K0(1.5*r)*delta) + scale(2.0, '
          'scale(-0.5, lap(log_r))) + scale(2.0, psi(1.0))'),
         ('scale-scalar',
          '0.25*delta + 3.0*scale(2.0, K0(1.5*r)*delta) + scale(2.0, '
          'scale(-0.5, lap(log_r))) + scale(2.0, psi(1.0))'),
         ('scale-product',
          '0.25*delta + 0.75*K0(3.0*r)*delta + scale(2.0, scale(-0.5, '
          'lap(log_r))) + scale(2.0, psi(1.0))'),
         ('scale-compose',
          '0.25*delta + 0.75*K0(3.0*r)*delta + scale(-1.0, lap(log_r)) + '
          'scale(2.0, psi(1.0))'),
         ('scale-laplacian',
          '0.25*delta + 0.75*K0(3.0*r)*delta + 1.0*lap(scale(-1.0, log_r)) + '
          'scale(2.0, psi(1.0))'),
         ('scale-regular',
          '0.25*delta + 0.75*K0(3.0*r)*delta + 1.0*lap(log_r_over(1.0)) + '
          'scale(2.0, psi(1.0))'),
         ('scale-regular',
          '0.25*delta + 0.75*K0(3.0*r)*delta + 1.0*lap(log_r_over(1.0)) + '
          '0.5*psi(2.0)'),
         ('lap-log',
          '0.25*delta + 0.75*K0(3.0*r)*delta + 6.283185307179586*delta + '
          '0.5*psi(2.0)'),
         ('product-k0-delta',
          '0.25*delta + -1.0411094108383963*delta + 6.283185307179586*delta + '
          '0.5*psi(2.0)'),
     ]),
    ('lap(2.0*K0(1.5*r) + psi(0.5) + log_r_over(3.0)) + log_r*delta + '
     'psi(2.0)*delta',
     '0.25*psi(0.5) + 4.5*K0(1.5*r) - 9.164475670254559*delta',
     [
         ('lap-sum',
          'lap(2.0*K0(1.5*r)) + lap(psi(0.5)) + lap(log_r_over(3.0)) + '
          'log_r*delta + psi(2.0)*delta'),
         ('lap-scalar',
          '2.0*lap(K0(1.5*r)) + lap(psi(0.5)) + lap(log_r_over(3.0)) + '
          'log_r*delta + psi(2.0)*delta'),
         ('lap-k0',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + lap(psi(0.5)) + '
          'lap(log_r_over(3.0)) + log_r*delta + psi(2.0)*delta'),
         ('lap-psi',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + 0.25*psi(0.5) - '
          '1.7724538509055159*delta + lap(log_r_over(3.0)) + log_r*delta + '
          'psi(2.0)*delta'),
         ('lap-log',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + 0.25*psi(0.5) - '
          '1.7724538509055159*delta + 6.283185307179586*delta + log_r*delta + '
          'psi(2.0)*delta'),
         ('product-log-delta',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + 0.25*psi(0.5) - '
          '1.7724538509055159*delta + 6.283185307179586*delta + 0 + '
          'psi(2.0)*delta'),
         ('product-psi-delta',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + 0.25*psi(0.5) - '
          '1.7724538509055159*delta + 6.283185307179586*delta + 0 + '
          '1.1283791670955126*K0(2.0*r)*delta'),
         ('product-k0-delta',
          '4.5*K0(1.5*r) + -12.566370614359172*delta + 0.25*psi(0.5) - '
          '1.7724538509055159*delta + 6.283185307179586*delta + 0 + '
          '-1.1088365121694566*delta'),
     ]),
]
_GOLDEN_HAMILTONIAN = (
    '-1.0*psi(1.0) + 3.414092994732272*delta',
    [
        ('lap-psi',
         '-1.0*psi(1.0) - -3.5449077018110318*delta - 2.0*psi(1.0)*delta'),
        ('product-psi-delta',
         '-1.0*psi(1.0) - -3.5449077018110318*delta - '
         '1.1283791670955126*K0(1.0*r)*delta'),
        ('product-k0-delta',
         '-1.0*psi(1.0) - -3.5449077018110318*delta - '
         '0.13081470707875978*delta'),
    ])


def _steps(text, trace):
    befores = [text] + [after for _, after in trace[:-1]]
    return [(rule, before, after) for (rule, after), before in zip(trace, befores)]


def test_rewrite_traces_are_pinned():
    for text, result, steps in _GOLDEN_REWRITES:
        out, trace = rewrite_full(parse_expr(text), L=1.5)
        assert print_expr(out) == result
        assert [(s.rule, s.before, s.after) for s in trace] == _steps(text, steps)
    out, trace = apply_hamiltonian(1.0, PhysicalParams(1.0, 0.5, 2.0, 1.0))
    result, steps = _GOLDEN_HAMILTONIAN
    assert print_expr(out) == result
    assert ([(s.rule, s.before, s.after) for s in trace]
            == _steps("-1.0*lap(psi(1.0)) - 2.0*psi(1.0)*delta", steps))


def test_rewrite_of_a_canonical_form_is_a_no_op():
    # what lets `delta2d pair` rewrite its expression once
    rng = random.Random(2718)
    for _ in range(200):
        canon, _ = rewrite_full(dx.random_rewritable_expr(rng), L=1.5)
        again, trace = rewrite_full(canon, L=1.5)
        assert again == canon and trace == []


# ------------------------------------------------------------- canonical


def test_normalize_collects_like_terms():
    e = parse_expr("psi(1.0) + 2*psi(1.0) - delta + 3*delta")
    out = normalize(e)
    assert canonical_coeffs(out) == {dx.Psi(1.0): 3.0, dx.Delta(): 2.0}
    assert print_expr(out) == "3.0*psi(1.0) + 2.0*delta"


def test_confluence_random_rule_order():
    rng = random.Random(999)
    for _ in range(60):
        e = dx.random_rewritable_expr(rng)
        ref, _ = rewrite_full(e, L=1.5)
        ref_coeffs = canonical_coeffs(ref)
        for _ in range(5):
            out, _ = rewrite_full(e, L=1.5, rng=rng)
            got = canonical_coeffs(out)
            assert set(got) == set(ref_coeffs)
            for node in got:
                assert got[node] == pytest.approx(ref_coeffs[node], rel=1e-9, abs=1e-12)


def test_rewrite_linearity():
    rng = random.Random(4242)
    for _ in range(30):
        e1 = dx.random_rewritable_expr(rng, depth=2)
        e2 = dx.random_rewritable_expr(rng, depth=2)
        c1, c2 = 2.5, -1.25
        combo, _ = rewrite_full(dx.Sum((dx.ScalarMul(c1, e1), dx.ScalarMul(c2, e2))), L=2.0)
        r1, _ = rewrite_full(e1, L=2.0)
        r2, _ = rewrite_full(e2, L=2.0)
        want = {}
        for node, v in canonical_coeffs(r1).items():
            want[node] = want.get(node, 0.0) + c1 * v
        for node, v in canonical_coeffs(r2).items():
            want[node] = want.get(node, 0.0) + c2 * v
        want = {k: v for k, v in want.items() if abs(v) > 1e-12}
        got = canonical_coeffs(combo)
        got = {k: v for k, v in got.items() if abs(v) > 1e-12}
        assert set(got) == set(want)
        for node in got:
            assert got[node] == pytest.approx(want[node], rel=1e-9)


# ------------------------------------------------------------ hamiltonian


def test_apply_hamiltonian_canonical_coefficients():
    params = PhysicalParams(1.0, 1.0, 1.0, 1.0)
    b = 0.7
    out, trace = apply_hamiltonian(b, params)
    coeffs = canonical_coeffs(out)
    assert coeffs[dx.Psi(b)] == pytest.approx(-b * b / 2.0, rel=1e-14)
    want_delta = (b / SQRT_PI) * (math.pi + math.log(0.5 * b) + EULER_GAMMA)
    assert coeffs[dx.Delta()] == pytest.approx(want_delta, rel=1e-13)
    assert [s.rule for s in trace].count("lap-psi") == 1
    assert "product-k0-delta" in [s.rule for s in trace]


def test_hamiltonian_delta_coefficient_root():
    # unit parameters: c_delta(b) = (b/sqrt(pi)) * (pi + log(b/2) + gamma)
    # vanishes at b = 2 exp(-gamma - pi)
    params = PhysicalParams(1.0, 1.0, 1.0, 1.0)
    b_star = 2.0 * math.exp(-EULER_GAMMA - math.pi)
    from delta2d.dexpr import hamiltonian_coefficients
    energy, c_delta = hamiltonian_coefficients(b_star, params)
    assert abs(c_delta) < 1e-17
    assert energy == pytest.approx(-b_star**2 / 2.0, rel=1e-15)


def test_hamiltonian_general_parameters():
    params = PhysicalParams(1.3, 0.8, -2.0, 2.5)
    b = 1.1
    out, _ = apply_hamiltonian(b, params)
    coeffs = canonical_coeffs(out)
    assert coeffs[dx.Psi(b)] == pytest.approx(-params.hbar**2 * b * b / (2 * params.mass))
    want = (b / SQRT_PI) * (params.hbar**2 * math.pi / params.mass
                            + params.alpha * (math.log(0.5 * b * abs(params.L)) + EULER_GAMMA))
    assert coeffs[dx.Delta()] == pytest.approx(want, rel=1e-13)


# ------------------------------------------------------------ weak pairing


def test_weak_pair_delta_terms():
    phi = make_bump(1.0, 1.0)
    e = parse_expr("lap(log_r)")
    rep = weak_pair_expr(e, phi)
    assert rep.value == pytest.approx(2.0 * math.pi * phi.at_origin(), rel=1e-12)


def test_weak_pair_matches_moved_operator_pairing(suite):
    for phi in suite[:4] + suite[8:]:
        sym = weak_pair_expr(parse_expr("lap(log_r)"), phi).value
        num = pair_regular(np.log, phi, move_ops=True).value
        assert abs(sym - num) <= 1e-8


@pytest.mark.parametrize("lap", [False, True])
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.4, 0.0), (5.0, 0.0)])
def test_multi_leaf_pairing_against_oracles(center, lap):
    # every regular leaf on one shared mesh: the value is sum c_i v_i, and its
    # distance to the oracles stays within the estimate sum |c_i| est_i
    text = "log_r + K0(2.0*r) + psi(1.0)"
    phi = make_bump(1.0, 1.0, center)
    rep = weak_pair_expr(parse_expr("lap(%s)" % text if lap else text), phi)
    terms = ((1.0, "log", 1.0), (1.0, "k0", 2.0), (1.0 / math.sqrt(math.pi), "k0", 1.0))
    want = tol = 0.0
    for c, kind, a in terms:
        v, t = off_centre_oracle(kind, a, phi, laplacian=lap)
        want += c * v
        tol += c * t
    assert abs(rep.value - want) <= rep.abs_error_estimate + tol
    assert rep.value == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.4, 0.0), (3.0, 0.0)])
@pytest.mark.parametrize("s", [1e-320, -1e-310, 1e300, 2.0])
def test_log_r_over_pairing_at_extreme_scales(s, center):
    # log(|x|/|s|) = log|x| - log|s|, so the pairing is <log, phi> minus
    # log|s| times the integral A*R^2/_BUMP_PROFILE_NORM of the bump
    from delta2d import quad
    phi = make_bump(1.5, 0.8, center)
    rep = weak_pair_expr(dx.LogRadialScaled(s), phi)
    want = (pair_regular(np.log, phi).value
            - math.log(abs(s)) * phi.amplitude * phi.radius**2 / quad._BUMP_PROFILE_NORM)
    assert abs(rep.value - want) <= rep.abs_error_estimate + 1e-12 * abs(want)


def test_weak_pair_eigen_property():
    from delta2d import solve_eeq, closed_form_energy
    params = PhysicalParams(1.0, 1.0, 1.0, 1.0)
    state = solve_eeq(params)
    phi = make_bump(1.0, 2.0)
    hpsi = dx.Sum((
        dx.ScalarMul(-params.hbar**2 / (2 * params.mass), dx.Laplacian(dx.Psi(state.b))),
        dx.ScalarMul(-params.alpha, dx.Product(dx.Psi(state.b), dx.Delta()))))
    lhs = weak_pair_expr(hpsi, phi, L=params.L).value
    rhs = state.energy * weak_pair_expr(dx.Psi(state.b), phi).value
    assert abs(lhs - rhs) <= 1e-6 * abs(state.energy)


def test_scale_invariance_at_pairing_level():
    phi = make_bump(1.0, 1.0)
    e = parse_expr("lap(psi(1.0)) + 3*delta")
    base = weak_pair_expr(e, phi).value
    for s in (2.0, -0.5, 3.0):
        scaled, _ = scale_expr(e, s)
        val = s * s * weak_pair_expr(scaled, rescale(phi, s)).value
        assert val == pytest.approx(base, rel=1e-8)
