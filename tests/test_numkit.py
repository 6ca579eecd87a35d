"""Tests for univariate Taylor jets, stencils, fiber Hessians and the RK4
integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanning_lab import numkit as nk
from fanning_lab.errors import DimensionMismatch, NonFiniteValue
from fanning_lab.jets import jet_variables

COEFF = st.integers(min_value=-4, max_value=4)


def poly_eval(coeffs, x):
    """Horner evaluation; works for floats and jets."""
    acc = coeffs[-1] * (x * 0 + 1.0) if hasattr(x, "value") else coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_derivs(coeffs, x0):
    """Exact derivatives of an integer polynomial at an integer point."""
    p = np.polynomial.Polynomial(coeffs)
    return [p(x0), p.deriv(1)(x0), p.deriv(2)(x0), p.deriv(3)(x0)]


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(COEFF, min_size=1, max_size=4),
    q=st.lists(COEFF, min_size=1, max_size=4),
    t0=st.integers(min_value=-3, max_value=3),
)
def test_jet_chain_rule_matches_symbolic_composition(p, q, t0):
    # independent oracle: compose the polynomials symbolically, then differentiate
    comp = np.polynomial.Polynomial(p)(np.polynomial.Polynomial(q))
    expected = [comp(t0), comp.deriv(1)(t0), comp.deriv(2)(t0), comp.deriv(3)(t0)]

    (x,) = jet_variables([float(t0)], order=3)
    r = poly_eval(p, poly_eval(q, x))
    got = [r.v, r.g[0], r.H[0, 0], r.T[0, 0, 0]]
    assert got == pytest.approx(expected, abs=0.0)  # integer arithmetic is exact


def test_jet_division_and_transcendentals():
    # d/dt of exp(sin(t))/ (1+t^2) at t=0.3, against high-order finite differences
    def f(t):
        return nk.exp(nk.sin(t)) / (1.0 + t * t)

    t0 = 0.3
    r = f(jet_variables([t0], order=3)[0])
    h = 1e-2
    vals = [f(t0 + k * h) for k in (-3, -2, -1, 0, 1, 2, 3)]
    st7 = nk.Stencil(t0, h, 6)
    d1 = nk.central_derivative([np.array([v]) for v in vals], st7)[0]
    d2 = nk.central_second_derivative([np.array([v]) for v in vals], st7)[0]
    assert r.g[0] == pytest.approx(d1, abs=1e-10)
    assert r.H[0, 0] == pytest.approx(d2, abs=1e-8)


def test_fiber_hessian_euclidean_quadratic():
    def f(x, y):
        return 0.5 * (y[0] * y[0] + y[1] * y[1])

    H = nk.fiber_hessian(f, [0.3, -0.2], [1.0, 2.0])
    assert np.allclose(H, np.eye(2), atol=1e-14)


def test_fiber_hessian_diagonal_quadratic():
    def f(x, y):
        return 0.5 * (3.0 * y[0] * y[0])

    H = nk.fiber_hessian(f, [0.0, 0.0], [1.0, 1.0])
    assert np.allclose(H, np.diag([3.0, 0.0]), atol=1e-14)


def test_fiber_hessian_general_quadratic_recovers_matrix():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    G = A @ A.T + 3.0 * np.eye(3)

    def f(x, y):
        return 0.5 * sum(G[i, j] * y[i] * y[j] for i in range(3) for j in range(3))

    H = nk.fiber_hessian(f, [0.0] * 3, [0.7, -0.1, 0.4])
    assert np.max(np.abs(H - G)) < 1e-13


def test_fiber_hessian_stereographic_sphere_energy_at_origin():
    # energy of the round-sphere chart metric: conformal factor 4 at the origin,
    # hand evaluation gives Hessian of (1/2)F^2 equal to diag(4, 4)
    def f(x, y):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        c = 4.0 / (s * s)
        return 0.5 * c * (y[0] * y[0] + y[1] * y[1])

    H = nk.fiber_hessian(f, [0.0, 0.0], [1.0, 0.0])
    assert np.allclose(H, np.diag([4.0, 4.0]), atol=1e-12)


def test_fiber_hessian_rejects_nonfinite():
    def f(x, y):
        return nk.log(y[0])  # log(0) blows up below

    with pytest.raises(NonFiniteValue):
        nk.fiber_hessian(f, [0.0], [0.0])


def test_rk_zero_field_is_constant():
    sol = nk.rk_integrate(lambda y: np.zeros_like(y), [1.0, -2.0], 0.0, 5.0, 17)
    for _, y in sol:
        assert np.allclose(y, [1.0, -2.0])


def test_rk_harmonic_oscillator_quarter_period():
    field = lambda y: np.array([y[1], -y[0]])
    sol = nk.rk_integrate(field, [1.0, 0.0], 0.0, math.pi / 2, 1000)
    assert np.allclose(sol[-1][1], [0.0, -1.0], atol=1e-9)


def test_rk_exponential_growth():
    sol = nk.rk_integrate(lambda y: y, [1.0], 0.0, 1.0, 1000)
    assert sol[-1][1][0] == pytest.approx(math.e, abs=1e-10)


def test_rk_fourth_order_convergence():
    field = lambda y: np.array([y[1], -y[0]])

    def endpoint_error(steps):
        sol = nk.rk_integrate(field, [1.0, 0.0], 0.0, math.pi / 2, steps)
        return np.linalg.norm(sol[-1][1] - np.array([0.0, -1.0]))

    ratio = endpoint_error(40) / endpoint_error(80)
    assert 14.0 <= ratio <= 18.0


def test_rk_detects_blowup():
    with pytest.raises(NonFiniteValue), np.errstate(over="ignore",
                                                    invalid="ignore"):
        nk.rk_integrate(lambda y: y * y, [4.0], 0.0, 10.0, 200)


def test_central_derivative_constant_is_zero():
    stc = nk.Stencil(0.0, 1e-2, 4)
    samples = [np.ones((2, 2))] * 5
    assert np.allclose(nk.central_derivative(samples, stc), 0.0)


def test_central_derivative_linear_is_exact():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    stc = nk.Stencil(0.5, 1e-3, 4)
    samples = [t * M for t in stc.nodes]
    assert np.max(np.abs(nk.central_derivative(samples, stc) - M)) < 1e-12


def test_central_derivative_sin_order4():
    stc = nk.Stencil(0.0, 1e-2, 4)
    samples = [math.sin(t) * np.eye(2) for t in stc.nodes]
    assert np.max(np.abs(nk.central_derivative(samples, stc) - np.eye(2))) < 1e-8


def test_central_derivative_wrong_count():
    with pytest.raises(DimensionMismatch):
        nk.central_derivative([np.eye(2)] * 4, nk.Stencil(0.0, 1e-2, 4))


@pytest.mark.parametrize("order", [4, 6])
def test_stencil_weights_reproduce_polynomial_derivatives(order):
    stc = nk.Stencil(0.2, 0.05, order)
    for deg in range(order + 1):
        samples = [np.array([t ** deg]) for t in stc.nodes]
        d1 = nk.central_derivative(samples, stc)[0]
        expected = deg * stc.t ** (deg - 1) if deg >= 1 else 0.0
        assert d1 == pytest.approx(expected, abs=1e-9)


def test_second_derivative_stencil():
    stc = nk.Stencil(0.0, 1e-2, 4)
    samples = [np.array([math.cos(t)]) for t in stc.nodes]
    assert nk.central_second_derivative(samples, stc)[0] == pytest.approx(-1.0, abs=1e-8)
