"""Tests for metric families, tensors, sprays, omega and dual norms."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import spray_field
from fanning_lab import deformations as df
from fanning_lab import metrics as mx
from fanning_lab import numkit as nk
from fanning_lab import reduction as rd
from fanning_lab.errors import (DimensionMismatch, NewtonDivergence,
                                NonFiniteValue, NotPositiveDefinite)
from fanning_lab.jets import Jet, jet_variables


def pp(x, y):
    return mx.PhasePoint(np.asarray(x, float), np.asarray(y, float))


def fd_energy_hessian(m, x, y):
    """Hessian of F^2 in (x, y) from float evaluations of F only.

    Diagonal entries use 7-point Fornberg second-derivative weights, mixed
    entries the tensor product of the first-derivative weights.
    """
    z0 = np.concatenate([x, y]).astype(float)
    n = len(x)

    def E(z):
        return m.F_value(z[:n], z[n:]) ** 2

    stc = nk.Stencil(0.0, 1e-2, 6)
    w1 = nk.fornberg_weights(0.0, stc.nodes, 1)
    w2 = nk.fornberg_weights(0.0, stc.nodes, 2)
    I = np.eye(2 * n)
    H = np.zeros((2 * n, 2 * n))
    for a in range(2 * n):
        H[a, a] = sum(w * E(z0 + t * I[a]) for w, t in zip(w2, stc.nodes))
        for b in range(a + 1, 2 * n):
            H[a, b] = H[b, a] = sum(
                wa * wb * E(z0 + s * I[a] + t * I[b])
                for wa, s in zip(w1, stc.nodes)
                for wb, t in zip(w1, stc.nodes))
    return H


# -- fundamental tensor -------------------------------------------------------

def test_fundamental_tensor_euclidean_identity():
    m = mx.zoo_metric("euclidean")
    g = mx.fundamental_tensor(m, pp([0.2, -0.4], [0.3, 0.9]))
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_fundamental_tensor_riemannian_is_g(rng):
    m = mx.zoo_metric("sphere")
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=2)
        y = rng.normal(size=2)
        g = mx.fundamental_tensor(m, pp(x, y))
        c = 4.0 / (1.0 + x @ x) ** 2
        assert np.allclose(g, c * np.eye(2), atol=1e-10)


def randers_g_oracle(a, b, y):
    """Closed-form Randers fundamental tensor, assembled independently."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    y = np.asarray(y, float)
    alpha = math.sqrt(y @ a @ y)
    beta = b @ y
    ell = a @ y / alpha
    return ((1.0 + beta / alpha) * a + np.outer(ell, b) + np.outer(b, ell)
            + np.outer(b, b) - (beta / alpha) * np.outer(ell, ell))


def test_fundamental_tensor_randers_closed_form():
    m = mx.zoo_metric("randers", b=(0.5, 0.0))
    for y in ([1.0, 0.0], [0.3, -1.2], [2.0, 0.7]):
        g = mx.fundamental_tensor(m, pp([0.0, 0.0], y))
        expected = randers_g_oracle(np.eye(2), [0.5, 0.0], y)
        assert np.max(np.abs(g - expected)) < 1e-10


def test_fundamental_tensor_detects_degenerate():
    def F(x, y):
        return (y[0] ** 4 + y[1] ** 4) ** 0.25

    m = mx.custom_metric(F, 2, mx.Box.cube(2, 1.0), name="quartic")
    with pytest.raises(NotPositiveDefinite):
        mx.fundamental_tensor(m, pp([0.0, 0.0], [1.0, 0.0]))


def test_randers_validity_grid():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(NotPositiveDefinite):
        mx.randers_metric(lambda x: eye, lambda x: [1.2, 0.0], 2,
                          mx.Box.cube(2, 1.0))



def reference_randers_failure(g, beta, domain):
    """The first failure of the validity check, point by point over the
    grid."""
    for x in domain.grid():
        G = np.array(g(list(x)), dtype=float)
        b = np.array(beta(list(x)), dtype=float)
        margin = 1.0 - b @ np.linalg.solve(G, b)
        if margin <= 0.0:
            return (f"randers data invalid at x={x}: "
                    f"1 - |beta|^2_g = {margin:.3e}")
    return None


def test_randers_validity_names_the_lowest_failing_grid_point():
    # |beta|^2_g = (x1 + 1.4)^2 / 4 on the 5x5 grid of [-1, 1]^2 first
    # reaches 1 in the row x1 = 1; |beta|^2 without g would fail at x1 = 0
    g = lambda x: [[4.0, 0.0], [0.0, 4.0]]
    beta = lambda x: [x[0] + 1.4, 0.0]
    box = mx.Box.cube(2, 1.0)
    with pytest.raises(NotPositiveDefinite) as err:
        mx.randers_metric(g, beta, 2, box)
    assert str(err.value) == reference_randers_failure(g, beta, box)
    assert str(err.value) == ("randers data invalid at x=[ 1. -1.]: "
                              "1 - |beta|^2_g = -4.400e-01")


def test_randers_validity_evaluates_g_and_beta_once_on_the_grid():
    # one batched call each covers the 25 grid points; the other calls are
    # the single-point homogeneity samples of the construction
    shapes = {"g": [], "beta": []}

    def spied(name, field):
        def wrapped(x):
            shapes[name].append(np.shape(x[0]))
            return field(x)
        return wrapped

    sphere = mx.zoo_metric("sphere")
    mx.randers_metric(spied("g", sphere.g),
                      spied("beta", df.ambient_coordinate_form(0.2).theta),
                      2, sphere.domain)
    for name, seen in shapes.items():
        assert [s for s in seen if s] == [(25,)], name
        assert len(seen) <= 9, name

# -- Legendre -----------------------------------------------------------------

def test_legendre_euclidean():
    m = mx.zoo_metric("euclidean")
    xi = mx.legendre(m, pp([0.0, 0.0], [3.0, 4.0]))
    assert np.allclose(xi, [3.0, 4.0], atol=1e-12)


def test_legendre_riemannian():
    m = mx.zoo_metric("sphere")
    x, y = np.array([0.3, 0.1]), np.array([1.0, -2.0])
    xi = mx.legendre(m, pp(x, y))
    c = 4.0 / (1.0 + x @ x) ** 2
    assert np.allclose(xi, c * y, atol=1e-10)


def test_legendre_homogeneity(rng):
    m = mx.zoo_metric("randers", b=(0.3, 0.1))
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        lam = rng.uniform(0.2, 3.0)
        xi1 = mx.legendre(m, pp(x, lam * y))
        xi0 = mx.legendre(m, pp(x, y))
        assert np.max(np.abs(xi1 - lam * xi0)) < 1e-10


def test_legendre_pairing_equals_energy(rng):
    m = mx.zoo_metric("sphere")
    x, y = np.array([0.2, -0.5]), np.array([0.7, 0.4])
    xi = mx.legendre(m, pp(x, y))
    assert xi @ y == pytest.approx(m.F_value(x, y) ** 2, rel=1e-12)


def test_legendre_fiber_jacobian_is_fundamental_tensor(rng):
    # the fiber derivative of the Legendre map equals g_F
    m = mx.zoo_metric("randers", b=(0.2, 0.1))
    x, y = np.array([0.1, 0.4]), np.array([0.9, -0.3])
    # xi_i = d(E/2)/dy_i, so its y-Jacobian is half the yy block of E's Hessian
    jac = 0.5 * fd_energy_hessian(m, x, y)[2:, 2:]
    g = mx.fundamental_tensor(m, pp(x, y))
    assert np.max(np.abs(jac - g)) < 1e-10


def test_legendre_inverse_roundtrip(rng):
    m = mx.zoo_metric("randers", b=(0.3, 0.0))
    x, y = np.array([0.5, -0.2]), np.array([1.3, 0.4])
    xi = mx.legendre(m, pp(x, y))
    v = mx.legendre_inverse(m, x, xi)
    assert np.max(np.abs(v - y)) < 1e-10


def test_conorm_euclidean_and_riemannian():
    m = mx.zoo_metric("euclidean")
    assert mx.conorm(m, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-10)
    s = mx.zoo_metric("sphere")
    x, xi = np.array([0.4, 0.2]), np.array([0.8, -0.1])
    c = 4.0 / (1.0 + x @ x) ** 2
    assert mx.conorm(s, x, xi) == pytest.approx(
        math.sqrt(xi @ xi / c), rel=1e-10)


# -- spray --------------------------------------------------------------------

def test_spray_euclidean_vanishes(rng):
    m = mx.zoo_metric("euclidean")
    for _ in range(3):
        G, _ = mx.spray_data(m, rng.uniform(-1, 1, 2), rng.normal(size=2),
                             with_jacobian=False)
        assert np.max(np.abs(G)) < 1e-12


def test_spray_homogeneity(rng):
    m = mx.zoo_metric("sphere")
    x = np.array([0.3, -0.2])
    y = np.array([0.8, 0.5])
    G, _ = mx.spray_data(m, x, y, with_jacobian=False)
    for lam in (0.5, 2.0, 3.7):
        Glam, _ = mx.spray_data(m, x, lam * y, with_jacobian=False)
        assert np.max(np.abs(Glam - lam * lam * G)) < 1e-10


def fd_christoffel(g_callable, x, h=1e-5):
    """Finite-difference Christoffel symbols (independent of jets)."""
    x = np.asarray(x, float)
    n = len(x)
    G0 = np.array(g_callable(list(x)), float)
    dg = np.zeros((n, n, n))  # dg[k, i, j] = d g_ij / d x_k
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        gp = np.array(g_callable(list(x + e)), float)
        gm = np.array(g_callable(list(x - e)), float)
        dg[k] = (gp - gm) / (2 * h)
    ginv = np.linalg.inv(G0)
    Gam = np.zeros((n, n, n))  # Gam[i, j, k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[i, l] * (dg[j, l, k] + dg[k, j, l] - dg[l, j, k])
                Gam[i, j, k] = 0.5 * s
    return Gam


@pytest.mark.parametrize("mid,params", [("sphere", {}),
                                        ("riemannian-conformal", {"a": 0.5, "n": 3})])
def test_spray_matches_christoffel(mid, params, rng):
    m = mx.zoo_metric(mid, **params)
    x = rng.uniform(-0.5, 0.5, size=m.n)
    y = rng.normal(size=m.n)
    Gam = fd_christoffel(m.g, x)
    expected = 0.5 * np.einsum("ijk,j,k->i", Gam, y, y)
    G, _ = mx.spray_data(m, x, y, with_jacobian=False)
    assert np.max(np.abs(G - expected)) < 1e-6


def test_spray_geodesic_on_sphere_great_circle():
    m = mx.zoo_metric("sphere")

    def field(z):
        return spray_field(m, z)

    # unit-speed start along e1 (F(0, (1,0)) = 2, so halve); t in [0, 3]
    # stays short of the antipodal chart singularity at arc length pi
    sol = nk.rk_integrate(field, [0.0, 0.0, 0.5, 0.0], 0.0, 3.0, 3000)
    f0 = m.F_value([0.0, 0.0], [0.5, 0.0])
    for t, z in sol[::300]:
        assert abs(z[1]) < 1e-10  # stays on the great-circle image (the x1-axis)
        assert abs(m.F_value(z[:2], z[2:]) - f0) < 1e-8


def test_spray_jacobian_matches_finite_differences(rng):
    m = mx.zoo_metric("sphere")
    x = np.array([0.2, -0.3])
    y = np.array([0.7, 0.9])
    _, DS = mx.spray_data(m, x, y)
    h = 1e-6
    z0 = np.concatenate([x, y])
    for p in range(4):
        e = np.zeros(4)
        e[p] = h
        plus = spray_field(m, z0 + e)
        minus = spray_field(m, z0 - e)
        fd = (plus - minus) / (2 * h)
        assert np.max(np.abs(DS[:, p] - fd)) < 1e-6


# -- omega --------------------------------------------------------------------

def test_omega_euclidean_canonical():
    m = mx.zoo_metric("euclidean")
    O = mx.omega_matrix(m, pp([0.3, 0.1], [1.0, 2.0]))
    J = np.block([[np.zeros((2, 2)), np.eye(2)],
                  [-np.eye(2), np.zeros((2, 2))]])
    assert np.allclose(O, J, atol=1e-10)


def test_omega_frozen_riemannian_blocks():
    # at a critical point of g the D block vanishes
    def g(x):
        return [[1.0 + x[0] * x[0], 0.0], [0.0, 2.0 + x[1] * x[1]]]

    m = mx.riemannian_metric(g, 2, mx.Box.cube(2, 1.0))
    O = mx.omega_matrix(m, pp([0.0, 0.0], [0.5, 1.0]))
    gm = np.diag([1.0, 2.0])
    assert np.allclose(O[:2, :2], 0.0, atol=1e-10)
    assert np.allclose(O[:2, 2:], gm, atol=1e-10)
    assert np.allclose(O[2:, :2], -gm, atol=1e-10)
    assert np.allclose(O[2:, 2:], 0.0, atol=1e-10)


def test_omega_vertical_lagrangian_and_antisymmetric(rng):
    for mid in ("sphere", "randers"):
        m = mx.zoo_metric(mid)
        x = rng.uniform(-0.8, 0.8, size=2)
        y = rng.normal(size=2)
        O = mx.omega_matrix(m, pp(x, y))
        assert np.max(np.abs(O + O.T)) < 1e-9
        V = np.vstack([np.zeros((2, 2)), np.eye(2)])
        assert np.max(np.abs(V.T @ O @ V)) < 1e-12
        assert abs(np.linalg.det(O)) > 1e-8


def test_omega_accepts_far_sphere_points():
    # det(omega) = det(g)^2 is about 1e-17 at |x| = 12 on the unit sphere's
    # chart, yet g is positive definite there
    m = mx.zoo_metric("sphere")
    O = mx.omega_matrix(m, pp([12.0, 0.0], [1.0, 0.5]))
    g = mx.fundamental_tensor(m, pp([12.0, 0.0], [1.0, 0.5]))
    assert np.array_equal(O[:2, 2:], g)


def test_omega_rejects_an_indefinite_fundamental_tensor():
    # g = diag(1, 1 - x1) is indefinite at x1 = 2, where det(omega) = 1
    def g(x):
        return [[1.0, 0.0], [0.0, 1.0 - x[0]]]

    m = mx.riemannian_metric(g, 2, mx.Box.cube(2, 1.0))
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        mx.omega_matrix(m, pp([2.0, 0.0], [1.0, 0.5]))


def test_omega_matches_finite_difference_assembly(rng):
    # independent assembly: differentiate the one-form components
    # alpha_i = d(F^2/2)/dy_i in x by finite differences of F
    m = mx.zoo_metric("randers", b=(0.25, -0.1))
    x = rng.uniform(-0.5, 0.5, size=2)
    y = rng.normal(size=2)
    # dxi_dx[i, j] = d alpha_i / dx_j
    dxi_dx = 0.5 * fd_energy_hessian(m, x, y)[2:, :2]
    D = dxi_dx - dxi_dx.T
    g = mx.fundamental_tensor(m, pp(x, y))
    O = mx.omega_matrix(m, pp(x, y))
    assert np.max(np.abs(O[:2, :2] - D)) < 1e-9
    assert np.max(np.abs(O[:2, 2:] - g)) < 1e-9


# -- dual metrics -------------------------------------------------------------

def euclidean_costar(xs, ys):
    return nk.sqrt(ys[0] * ys[0] + ys[1] * ys[1])


def test_dual_metric_euclidean_self_dual(rng):
    m = mx.dual_metric(euclidean_costar, 2, mx.Box.cube(2, 2.0),
                       warm_start=lambda x, v: v)
    for _ in range(5):
        v = rng.normal(size=2)
        assert m.F_value([0.1, 0.2], v) == pytest.approx(
            np.linalg.norm(v), abs=1e-10)


def randers_costar(W):
    def costar(xs, ys):
        q = ys[0] * ys[0] + ys[1] * ys[1]
        return nk.sqrt(q) + W[0] * ys[0] + W[1] * ys[1]

    return costar


def test_dual_metric_involution(rng):
    W = (0.4, -0.2)
    m = mx.dual_metric(randers_costar(W), 2, mx.Box.cube(2, 2.0),
                       warm_start=lambda x, v: v)
    co = randers_costar(W)
    for _ in range(5):
        xi = rng.normal(size=2)
        # dual of the dual recovers the costar
        assert mx.conorm(m, [0.0, 0.0], xi) == pytest.approx(
            co([0.0, 0.0], list(xi)), rel=1e-8)


def test_dual_metric_conorm_of_legendre_is_norm(rng):
    W = (0.3, 0.1)
    m = mx.dual_metric(randers_costar(W), 2, mx.Box.cube(2, 2.0),
                       warm_start=lambda x, v: v)
    x = [0.0, 0.0]
    v = rng.normal(size=2)
    xi = mx.legendre(m, pp(x, v))
    assert mx.conorm(m, x, xi) == pytest.approx(m.F_value(x, v), rel=1e-7)


def sphere_costar(xs, ys):
    s = 1.0 + xs[0] * xs[0] + xs[1] * xs[1]
    # inverse conformal factor: |xi| / sqrt(c) with c = 4/s^2
    return nk.sqrt(ys[0] * ys[0] + ys[1] * ys[1]) * (s * 0.5)


def test_dual_energy_jet_matches_closed_form():
    # the implicit-differentiation jet of the dual-backed sphere must agree
    # with the direct jet of the Riemannian sphere energy
    m_dual = mx.dual_metric(sphere_costar, 2, mx.Box.cube(2, 3.0),
                            warm_start=lambda x, v: v)
    m_direct = mx.zoo_metric("sphere")
    x = np.array([0.3, -0.2])
    y = np.array([0.9, 0.4])
    Jd = mx.energy_jet(m_dual, x, y, order=3)
    Jr = mx.energy_jet(m_direct, x, y, order=3)
    assert Jd.v == pytest.approx(Jr.v, rel=1e-10)
    assert np.max(np.abs(Jd.g - Jr.g)) < 1e-8
    assert np.max(np.abs(Jd.H - Jr.H)) < 1e-7
    assert np.max(np.abs(Jd.T - Jr.T)) < 1e-6


def test_dual_metric_spray_matches_closed_form():
    m_dual = mx.dual_metric(sphere_costar, 2, mx.Box.cube(2, 3.0),
                            warm_start=lambda x, v: v)
    m_direct = mx.zoo_metric("sphere")
    x, y = np.array([0.25, 0.4]), np.array([-0.3, 1.1])
    Gd, DSd = mx.spray_data(m_dual, x, y)
    Gr, DSr = mx.spray_data(m_direct, x, y)
    assert np.max(np.abs(Gd - Gr)) < 1e-8
    assert np.max(np.abs(DSd - DSr)) < 1e-6


def test_dual_metric_energy_jet_gradient_matches_central_difference():
    # gradient of F^2 from the implicit-differentiation jet, against central
    # differences of the Newton-solved F in all four phase directions
    m = mx.dual_metric(sphere_costar, 2, mx.Box.cube(2, 3.0),
                       warm_start=lambda x, v: v)
    z = np.array([0.3, -0.2, 1.0, 0.5])
    J = mx.energy_jet(m, z[:2], z[2:], order=2)

    def E(z):
        return m.F_value(z[:2], z[2:]) ** 2

    h = 1e-6
    for d in np.eye(4):
        fd = (E(z + h * d) - E(z - h * d)) / (2 * h)
        assert J.g @ d == pytest.approx(fd, abs=1e-8)


def test_domain_errors_surface_as_nonfinite():
    # F = |y| sqrt(1 - x1) is undefined at x1 = 2; every energy-jet consumer
    # reports the failed evaluation as NonFiniteValue
    def F(x, y):
        return nk.sqrt(y[0] * y[0] + y[1] * y[1]) * nk.sqrt(1.0 - x[0])

    m = mx.custom_metric(F, 2, mx.Box.cube(2, 1.0), name="sqrt-domain")
    p = pp([2.0, 0.0], [1.0, 0.5])
    with pytest.raises(NonFiniteValue):
        mx.fundamental_tensor(m, p)
    with pytest.raises(NonFiniteValue):
        mx.spray_data(m, p.x, p.y)
    with pytest.raises(NonFiniteValue):
        mx.omega_matrix(m, p)
    # the Riemannian route evaluates g on x-jets only; at the rim of the
    # Poincare disk its conformal factor divides by zero
    hyp = mx.zoo_metric("hyperbolic")
    p = pp([1.0, 0.0], [1.0, 0.5])
    with pytest.raises(NonFiniteValue):
        mx.fundamental_tensor(hyp, p)
    with pytest.raises(NonFiniteValue):
        mx.spray_data(hyp, p.x, p.y)
    with pytest.raises(NonFiniteValue):
        mx.omega_matrix(hyp, p)


# -- energy jets of the Riemannian and Randers families -----------------------

def reference_energy_jet(m, x, y, order):
    """Jet of F^2 with F itself evaluated on jets in all 2n phase variables."""
    zs = jet_variables(list(x) + list(y), order=order)
    f = m.F(zs[:m.n], zs[m.n:])
    return f * f


def _sheared_metric():
    # Riemannian g with x-dependent off-diagonal entries, stored with an
    # antisymmetric part that F does not see
    def g(x):
        off = 0.3 * nk.sin(x[0] + 2.0 * x[1])
        skew = 0.1 * x[2]
        return [[2.0 + x[0] * x[1], off + skew, 0.1],
                [off - skew, 1.5 + x[1] * x[1], 0.2 * x[2]],
                [0.1, 0.2 * x[2], nk.exp(0.3 * x[0])]]

    return mx.riemannian_metric(g, 3, mx.Box.cube(3, 1.0), name="sheared")


ENERGY_JET_METRICS = {
    "sphere": lambda: mx.zoo_metric("sphere"),
    "hyperbolic": lambda: mx.zoo_metric("hyperbolic"),
    "conformal-4": lambda: mx.zoo_metric("riemannian-conformal", a=0.5, n=4),
    "conformal-8": lambda: mx.zoo_metric("riemannian-conformal", a=0.2, n=8),
    "randers": lambda: mx.zoo_metric("randers", b=(0.25, 0.05)),
    "projective-sphere": lambda: df.projective_deform(
        mx.zoo_metric("sphere"), df.ambient_coordinate_form(0.2)),
    "projective-randers": lambda: df.projective_deform(
        mx.zoo_metric("randers", b=(0.25, 0.05)),
        df.ambient_coordinate_form(0.2)),
    "sheared": _sheared_metric,
}


@pytest.mark.parametrize("name", sorted(ENERGY_JET_METRICS))
@pytest.mark.parametrize("order", [2, 3])
def test_energy_jet_matches_full_phase_jet(name, order, rng):
    m = ENERGY_JET_METRICS[name]()
    assert m.family in ("riemannian", "randers")
    for _ in range(3):
        x = rng.uniform(-0.5, 0.5, size=m.n)
        y = rng.normal(size=m.n)
        J = mx.energy_jet(m, x, y, order=order)
        R = reference_energy_jet(m, x, y, order)
        assert abs(J.v - R.v) <= 1e-13 * abs(R.v)
        parts = [(J.g, R.g), (J.H, R.H)]
        if order == 3:
            parts.append((J.T, R.T))
        for got, want in parts:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_metric_fields_see_only_x_jets():
    # variable counts of the jets that each chart field receives
    seen = {"g": set(), "beta": set(), "riemannian-g": set(), "theta": set(),
            "total-g": set()}

    def spied(name, field):
        def wrapped(x):
            seen[name].update(e.m for e in x if isinstance(e, Jet))
            return field(x)
        return wrapped

    form = df.ambient_coordinate_form(0.2)
    sphere = mx.zoo_metric("sphere")
    m = mx.randers_metric(spied("g", sphere.g), spied("beta", form.theta), 2,
                          sphere.domain)
    mx.spray_data(m, [0.3, -0.2], [0.9, 0.4])
    mx.fundamental_tensor(m, pp([0.3, -0.2], [0.9, 0.4]))
    # g of a Riemannian metric, outside a Randers construction
    riemannian = mx.riemannian_metric(spied("riemannian-g", sphere.g), 2,
                                      sphere.domain)
    mx.spray_data(riemannian, [0.3, -0.2], [0.9, 0.4])
    # the one-form of a projective deformation over a Randers base
    spied_form = df.ClosedOneForm(theta=spied("theta", form.theta),
                                  potential=form.potential)
    deformed = df.projective_deform(mx.zoo_metric("randers", b=(0.25, 0.05)),
                                    spied_form)
    mx.spray_data(deformed, [0.3, -0.2], [0.9, 0.4])
    # the metric of a submersion scenario in its constraint linearization
    scn = rd.submersion_scenario("hopf")
    spied_total = dataclasses.replace(scn.total,
                                      g=spied("total-g", scn.total.g))
    dataclasses.replace(scn, total=spied_total).constraint_grad(
        scn.suggested_x, [0.3, 0.9, -0.2])
    assert seen == {"g": {2}, "beta": {2}, "riemannian-g": {2}, "theta": {2},
                    "total-g": {3}}


def test_newton_halves_steps_that_do_not_reduce_the_residual():
    # full Newton steps on arctan diverge from z = 2 (|z| grows each step);
    # halved steps converge to the root 0
    def residual(z):
        return np.arctan(z), (1.0 / (1.0 + z * z))[..., None]

    z = mx._newton(residual, np.array([[2.0], [0.5]]), lambda i: "arctan")
    assert np.max(np.abs(z)) < 1e-12


def test_legendre_inverse_divergence_reporting():
    m = mx.zoo_metric("euclidean")
    with pytest.raises(NewtonDivergence):
        mx.legendre_inverse(m, [0.0, 0.0], [1.0, 0.0], warm=[0.0, 0.0])


def test_legendre_inverse_zero_start_in_a_batch_names_its_index():
    m = mx.zoo_metric("euclidean")
    warm = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(NewtonDivergence, match=r"^flag 2: "):
        mx.legendre_inverse(m, np.zeros((4, 2)), np.ones((4, 2)), warm=warm)


@pytest.mark.parametrize("name", ["sphere", "randers", "katok"])
def test_batched_conorm_and_legendre_inverse_equal_per_point_calls(name, rng):
    # not bit for bit: batched numpy kernels may round differently
    m = BATCH_METRICS[name]()
    x = rng.uniform(-0.5, 0.5, size=(5, 2))
    xi = mx.legendre(m, pp(x, rng.normal(size=(5, 2))))
    v = mx.legendre_inverse(m, x, xi)
    norms = mx.conorm(m, x, xi)
    assert v.shape == (5, 2) and norms.shape == (5,)
    for i in range(5):
        assert_rel_close(v[i], mx.legendre_inverse(m, x[i], xi[i]), 1e-14)
        assert_rel_close(norms[i:i + 1],
                         np.array([mx.conorm(m, x[i], xi[i])]), 1e-14)


# -- zoo ----------------------------------------------------------------------

def test_zoo_listing_and_unknown():
    ids = [mid for mid, _ in mx.list_metrics()]
    for required in ("euclidean", "sphere", "hyperbolic",
                     "riemannian-conformal", "randers"):
        assert required in ids
    with pytest.raises(DimensionMismatch):
        mx.zoo_metric("no-such-metric")


# -- batches of phase points --------------------------------------------------

BATCH_METRICS = {
    "sphere": lambda: mx.zoo_metric("sphere"),
    "hyperbolic": lambda: mx.zoo_metric("hyperbolic"),
    "randers": lambda: mx.zoo_metric("randers", b=(0.25, 0.05)),
    "conformal-4": lambda: mx.zoo_metric("riemannian-conformal", a=0.5, n=4),
    "katok": lambda: df.katok_metric(0.3),
}


def assert_rel_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(BATCH_METRICS))
def test_batched_evaluators_equal_per_point_calls(name, rng):
    m = BATCH_METRICS[name]()
    x = rng.uniform(-0.5, 0.5, size=(6, m.n))
    y = rng.normal(size=(6, m.n))
    J = mx.energy_jet(m, x, y, order=3)
    G, DS = mx.spray_data(m, x, y)
    assert G.shape == (6, m.n) and DS.shape == (6, 2 * m.n, 2 * m.n)
    for i in range(6):
        Ji = mx.energy_jet(m, x[i], y[i], order=3)
        for got, want in ((J.v[i], Ji.v), (J.g[i], Ji.g), (J.H[i], Ji.H),
                          (J.T[i], Ji.T)):
            assert_rel_close(np.asarray(got), np.asarray(want), 1e-14)
        Gi, DSi = mx.spray_data(m, x[i], y[i])
        assert_rel_close(G[i], Gi, 1e-14)
        assert_rel_close(DS[i], DSi, 1e-14)
    np.testing.assert_allclose(m.F_value(x, y),
                               [m.F_value(a, b) for a, b in zip(x, y)],
                               rtol=1e-14)


def test_batched_support_newton_names_the_failing_point():
    # costar vanishes at xi = 0 on the unit circle |x| = 1: the support
    # value there is unbounded, and only the point at index 2 sits on it
    def costar(xs, ys):
        r = 1.0 - xs[0] * xs[0] - xs[1] * xs[1]
        return nk.sqrt(ys[0] * ys[0] + ys[1] * ys[1]) * r

    m = mx.dual_metric(costar, 2, mx.Box.cube(2, 2.0),
                       warm_start=lambda x, v: v)
    x = np.array([[0.1, 0.0], [0.0, 0.3], [1.0, 0.0], [0.2, 0.2]])
    y = np.array([[1.0, 0.0]] * 4)
    with np.errstate(all="ignore"), \
            pytest.raises(NewtonDivergence, match=r"^flag 2: "):
        m.F_value(x, y)
