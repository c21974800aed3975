import math

import numpy as np
import pytest

from delta2d import make_bump, bump_eval, rescale


def test_center_value_is_amplitude_exactly():
    assert make_bump(1.0, 1.0).value((0.0, 0.0)) == 1.0
    assert make_bump(-2.5, 0.3, (1.0, 2.0)).value((1.0, 2.0)) == -2.5


def test_boundary_and_exterior_are_exact_zero():
    phi = make_bump(1.0, 1.0)
    for pt in [(1.0, 0.0), (0.0, -1.0), (2.0, 0.0), (0.7071067811865476,) * 2,
               (1.5, 1.5)]:
        assert phi.value(pt) == 0.0
    assert bump_eval(phi, (2.0, 0.0), "gradient") == (0.0, 0.0)
    assert bump_eval(phi, (2.0, 0.0), "laplacian") == 0.0


def test_derived_point_value():
    # amplitude 2, radius 3, evaluated at |x| = 1.5: u^2 = 1/4
    assert make_bump(2.0, 3.0).value((1.5, 0.0)) == pytest.approx(
        2.0 * math.exp(1.0 - 1.0 / 0.75), rel=1e-15)
    assert make_bump(2.0, 3.0).value((1.5, 0.0)) == pytest.approx(
        2.0 * math.exp(-1.0 / 3.0), rel=1e-15)


def test_gradient_zero_at_center():
    assert make_bump(3.0, 2.0).gradient((0.0, 0.0)) == (0.0, 0.0)


def test_laplacian_at_center_closed_form():
    # lap phi(center) = -4*amplitude/radius^2
    assert make_bump(1.0, 1.0).laplacian((0.0, 0.0)) == pytest.approx(-4.0, rel=1e-14)
    assert make_bump(2.0, 3.0).laplacian((0.0, 0.0)) == pytest.approx(-8.0 / 9.0, rel=1e-14)


def test_profile_laplacian_matches_the_derivative_formula_exactly():
    # 4 A / R^2 * (s f''(s) + f'(s)) with f(s) = exp(1 - 1/(1 - s)),
    # f'(s) = -f(s)/(1-s)^2 and f''(s) = f(s)*(2s-1)/(1-s)^4, each derivative
    # taking its own exponential, must agree to the last bit
    amp, radius = 1.7, 1.3
    r = np.linspace(0.0, 1.2 * radius, 100001)
    s = (r / radius) ** 2
    inside = s < 1.0 - 1e-12
    safe = np.where(inside, s, 0.0)
    f = lambda s: np.exp(1.0 - 1.0 / (1.0 - s))
    d1 = np.where(inside, -f(safe) / (1.0 - safe) ** 2, 0.0)
    d2 = np.where(inside, f(safe) * (2.0 * safe - 1.0) / (1.0 - safe) ** 4, 0.0)
    want = (4.0 * amp / radius**2) * (d2 * s + d1)
    assert np.array_equal(make_bump(amp, radius).profile_laplacian(r), want)


def test_finite_difference_gradient_and_laplacian():
    phi = make_bump(1.7, 1.3, (0.2, -0.4))
    h = 1e-4
    rng = np.random.default_rng(7)
    for _ in range(40):
        r = 0.8 * phi.radius * math.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = (phi.center[0] + r * math.cos(th), phi.center[1] + r * math.sin(th))
        gx = (phi.value((x[0] + h, x[1])) - phi.value((x[0] - h, x[1]))) / (2 * h)
        gy = (phi.value((x[0], x[1] + h)) - phi.value((x[0], x[1] - h))) / (2 * h)
        lap = (phi.value((x[0] + h, x[1])) + phi.value((x[0] - h, x[1]))
               + phi.value((x[0], x[1] + h)) + phi.value((x[0], x[1] - h))
               - 4.0 * phi.value(x)) / (h * h)
        grad = phi.gradient(x)
        assert gx == pytest.approx(grad[0], abs=1e-6)
        assert gy == pytest.approx(grad[1], abs=1e-6)
        assert lap == pytest.approx(phi.laplacian(x), abs=1e-6)


def test_high_order_differences_stay_bounded_near_boundary():
    # C-infinity at the support edge: 4th differences remain bounded on a
    # grid graded toward r = radius
    phi = make_bump(1.0, 1.0)
    h = 1e-3
    for r in 1.0 - np.geomspace(1e-4, 0.5, 25):
        vals = np.array([phi.value((r + i * h, 0.0)) for i in range(-2, 3)])
        d4 = (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / h**4
        assert abs(d4) < 1e9


def test_rescale_pointwise():
    phi = make_bump(1.0, 1.0)
    phi2 = rescale(phi, 2.0)
    assert phi2.radius == 0.5
    assert phi2.value((0.4, 0.0)) == phi.value((0.8, 0.0))
    # identity and reflection scalings
    assert rescale(phi, 1.0) == phi
    for pt in [(0.3, 0.1), (0.9, 0.0)]:
        assert rescale(phi, -1.0).value(pt) == phi.value(pt)


def test_rescale_off_center():
    phi = make_bump(1.0, 1.0, (2.0, 0.0))
    phi3 = rescale(phi, 3.0)
    for pt in [(0.7, 0.0), (0.6, 0.1)]:
        assert phi3.value(pt) == pytest.approx(phi.value((3.0 * pt[0], 3.0 * pt[1])), rel=1e-14)


def test_delta_pairing_linear_and_rescale_invariant():
    from delta2d import pair_delta
    phi = make_bump(2.0, 1.5)
    assert pair_delta(1.0, phi) == 2.0
    assert pair_delta(-3.0, phi) == -6.0
    for L in (2.0, -0.5, 7.0):
        assert pair_delta(1.0, rescale(phi, L)) == pair_delta(1.0, phi)


def test_delta_pairing_vanishes_off_support():
    from delta2d import pair_delta
    assert pair_delta(-3.0, make_bump(1.0, 1.0, (5.0, 0.0))) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        make_bump(1.0, 0.0)
    with pytest.raises(ValueError):
        make_bump(1.0, -2.0)
    with pytest.raises(ValueError):
        make_bump(math.inf, 1.0)
    with pytest.raises(ValueError):
        rescale(make_bump(1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        bump_eval(make_bump(1.0, 1.0), (0.0, 0.0), "hessian")
