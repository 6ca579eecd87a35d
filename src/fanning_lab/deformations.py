"""Curvature under two metric deformations: adding a closed one-form and
perturbing the dual norm by a rotational isometry field.

Adding a small closed one-form theta keeps the unparametrized geodesics and
changes the flag curvature by a Schwarzian-type correction built from the
derivatives of phi = 1/(1 + theta) along the unperturbed spray.  The
deformed metric is built once (its smallness F0*(-theta) < 1 checked by
one batched `conorm` over the chart grid) and handed to the formula, which
checks smallness at its own flag points only.  One `spray_data` call seeds
exact univariate Taylor jets of the base geodesic, for a whole batch of
flags; the correction is read from them by two routes
(phi composed with the jets, and the Schwarzian of f(t) = t + h(gamma(t)))
which must agree to 1e-8 before a value is returned.  Both routes are
algebraic in the same spray data, so the independent check of the formula
is the direct flag curvature of the deformed metric.

Perturbing the dual norm of the round sphere by a multiple of the rotation
generator produces the classical constant-curvature non-reversible metrics;
the metric is built numerically through the dual-norm machinery, with the
closed-form Randers expression kept as a cross-check only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fanning as fc
from . import jacobi as jb
from . import metrics as mx
from . import numkit as nk
from .errors import (InternalInconsistency, SmallnessViolation,
                     batch_labels, raise_at)
from .jets import Jet, components, jet_variables, stack

__all__ = [
    "ClosedOneForm",
    "projective_deform",
    "projective_curvature_rhs",
    "rotation_field",
    "killing_residual",
    "katok_metric",
    "katok_zermelo_cross_check",
    "katok_curvature",
]


def _stack_at(field, xs) -> list:
    """`stack` of field on order-2 jets seeded at the points xs, S+(n,)."""
    S, n = np.shape(xs)[:-1], np.shape(xs)[-1]
    return stack(field(jet_variables(xs, order=2)), S, n)


@dataclass(frozen=True)
class ClosedOneForm:
    """A one-form given with an explicit primitive (theta = d potential)."""

    theta: Callable
    potential: Callable

    def closedness_residual(self, xs) -> float:
        """Max antisymmetry defect of the x-Jacobian of theta over samples."""
        jac = _stack_at(self.theta, xs)[1]
        return float(np.max(np.abs(jac - jac.swapaxes(-1, -2)), initial=0.0))

    def gradient_matches_potential(self, xs) -> float:
        """Max deviation between theta and the differential of the potential."""
        v, d, _ = _stack_at(lambda x: [self.potential(x), *self.theta(x)],
                            xs)
        return float(np.max(np.abs(d[..., 0, :] - v[..., 1:]), initial=0.0))


def _check_smallness(base: mx.MetricSpec, form: ClosedOneForm, x):
    """Check F0*(-theta) < 1 at each point of the array x, shape S+(n,),
    with one batched `conorm` where theta != 0: F0 + theta > 0 exactly where
    -theta(y) < F0(y) for every y != 0, which on a non-reversible base is
    not F0*(theta) < 1.  A failure names the lowest failing point by its x."""
    th = stack(form.theta(components(x)), x.shape[:-1], x.shape[-1])[0]
    solve = np.linalg.norm(th, axis=-1) > 0.0
    norms = np.zeros(solve.shape)
    if solve.any():
        # a failed solve names its x: its index would be one among `solve`
        with batch_labels(lambda i: None):
            norms[solve] = mx.conorm(base, x[solve], -th[solve])
    raise_at(SmallnessViolation, norms >= 1.0,
             lambda i: f"F0*(-theta) = {norms[i]:.3g} >= 1 at x={x[i]}")


def projective_deform(base: mx.MetricSpec,
                      form: ClosedOneForm) -> mx.MetricSpec:
    """The deformed metric F = F0 + theta: `metrics.with_one_form`, so of
    family "randers" over every base, after checking closedness of theta
    (1e-10) and the smallness condition F0*(-theta) < 1 on the grid of the
    chart box; a failure names the grid point.
    """
    grid = base.domain.grid()
    res = form.closedness_residual(grid[:: max(1, len(grid) // 16)])
    if res > 1e-10:
        raise SmallnessViolation(
            f"one-form is not closed: antisymmetry defect {res:.2e}")
    with batch_labels(lambda i: None):
        _check_smallness(base, form, grid)
    return mx.with_one_form(base, form.theta, base.name + "+form")


def ambient_coordinate_form(scale: float) -> ClosedOneForm:
    """Exact one-form scale * d(X) with X the first ambient coordinate of the
    unit sphere, written in the stereographic chart: X = 2 x1 / (1 + |x|^2).

    Coordinate functions of the unit sphere are 1-Lipschitz for the round
    metric, so the dual norm of this form is at most |scale| everywhere on
    the chart.
    """

    def potential(x):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        return scale * 2.0 * x[0] / s

    def theta(x):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        inv = 1.0 / (s * s)
        return [scale * 2.0 * (1.0 + x[1] * x[1] - x[0] * x[0]) * inv,
                scale * (-4.0) * x[0] * x[1] * inv]

    return ClosedOneForm(theta=theta, potential=potential)


def _orbit_jets(base: mx.MetricSpec, x, y):
    """Univariate t-Taylor seeds of the base geodesic through (x, y).

    Along the geodesic xdot = y, ydot = -2G and yddot = DS[n:] (y, -2G), so
    one `spray_data` call gives the position to third order and the
    velocity to second order exactly.  Returns order-3 jets of x and
    order-2 jets of x and of y, one per coordinate, with the batch axes of
    x and y; scalars composed with them carry honest t-derivatives.
    """
    G, DS = mx.spray_data(base, x, y)
    accel = -2.0 * G
    jerk = (DS[..., base.n:, :]
            @ np.concatenate([y, accel], axis=-1)[..., None])[..., 0]

    def seeds(d0, d1, d2, d3=None):
        return [Jet(1, 2 if d3 is None else 3, d0[..., i], g=d1[..., i, None],
                    H=d2[..., i, None, None],
                    T=None if d3 is None else d3[..., i, None, None, None])
                for i in range(base.n)]

    return seeds(x, y, accel, jerk), seeds(x, y, accel), seeds(y, accel, jerk)


def projective_curvature_rhs(base: mx.MetricSpec, form: ClosedOneForm,
                             deformed: mx.MetricSpec, v: mx.PhasePoint, u,
                             resolution: int = jb.DEFAULT_RESOLUTION):
    """Predicted flag curvature of F0 + theta from unperturbed data.

    Returns phi(u)^2 K0(u, plane) - (1/2)[(1/2) Sphi^2 - phi SSphi] where
    Sphi, SSphi are spray derivatives of phi = 1/(1 + theta) at the
    corresponding unit vector u of the base metric.  For y with F(y) = 1
    that vector is u = y / F0(y), since d_y F0 is 0-homogeneous: the base
    Legendre covector of u is that of y less theta.  K0 comes from one
    batched `flag_curvature` call, and phi, Sphi and SSphi exactly from the
    orbit jets of one `spray_data` call (`_orbit_jets`).

    The equivalent form through the Schwarzian of
    f(t) = t + potential(gamma(t)) comes from the same jets, and both must
    agree to 1e-8.  Being two algebraic routes from one spray call, they
    test no derivative numerics; the independent check is the direct
    curvature of the deformed metric against this value.

    deformed is the caller's `projective_deform(base, form)`; smallness is
    checked here at the flag points only.  v and u may hold a batch of
    flags (shape S+(n,)).  Returns a float for a single flag and an array
    of shape S for a batch; an error names the lowest failing flag.
    """
    x = v.x
    _check_smallness(base, form, x)
    y = v.y / np.asarray(deformed.F_value(x, v.y))[..., None]
    gF = mx.fundamental_tensor(deformed, mx.PhasePoint(x, y))
    w = jb._canonical_flag_vector(gF, y, np.asarray(u, dtype=float))

    psi = mx.PhasePoint(x, y / np.asarray(base.F_value(x, y))[..., None])
    g0 = mx.fundamental_tensor(base, psi)
    w_tilde = np.linalg.solve(g0, gF @ w[..., None])[..., 0]
    K0 = jb.flag_curvature(base, psi, w_tilde, resolution=resolution)

    x3, x2, y2 = _orbit_jets(base, x, psi.y)
    phi = 1.0 / (1.0 + sum(t * q for t, q in zip(form.theta(x2), y2)))
    phi0, Sphi, SSphi = phi.v, phi.g[..., 0], phi.H[..., 0, 0]
    rhs_phi = phi0 * phi0 * K0 - 0.5 * (0.5 * Sphi * Sphi - phi0 * SSphi)

    # same prediction through the Schwarzian of f(t) = t + h(gamma(t))
    fjet = form.potential(x3)
    if not isinstance(fjet, Jet):
        fjet = Jet(1, 3, fjet)
    fdot = 1.0 + fjet.g[..., 0]
    schw = fc.schwarzian_of_map(fdot, fjet.H[..., 0, 0], fjet.T[..., 0, 0, 0])
    rhs_f = (K0 - 0.5 * schw) / (fdot * fdot)

    raise_at(InternalInconsistency,
             np.abs(rhs_phi - rhs_f) > 1e-8 * np.maximum(1.0, np.abs(rhs_phi)),
             lambda i: f"phi-form {rhs_phi[i]} and f-form {rhs_f[i]} disagree")
    return float(rhs_phi) if np.ndim(rhs_phi) == 0 else rhs_phi


# ---------------------------------------------------------------------------
# rotational perturbation of the round sphere
# ---------------------------------------------------------------------------

def rotation_field(x):
    """Generator of rotations about the chart center: (-x2, x1)."""
    return [-1.0 * x[1], x[0]]


def killing_residual(g_callable, V: Callable, xs) -> float:
    """Max norm of the Lie derivative of g along V over sample points.

    (L_V g)_ij = V^k d_k g_ij + g_kj d_i V^k + g_ik d_j V^k, with all
    derivatives taken from one jet pass over the points xs, shape S+(n,).
    """
    S, n = np.shape(xs)[:-1], np.shape(xs)[-1]
    G, dg, _ = _stack_at(lambda x: [e for row in g_callable(x) for e in row],
                         xs)
    G, dg = G.reshape(S + (n, n)), dg.reshape(S + (n, n, n))  # d_k g_ij
    Vv, dV, _ = _stack_at(V, xs)                              # d_k V^i
    lie = (np.einsum("...k,...ijk->...ij", Vv, dg)
           + np.einsum("...kj,...ki->...ij", G, dV)
           + np.einsum("...ik,...kj->...ij", G, dV))
    return float(np.max(np.abs(lie), initial=0.0))


def katok_metric(epsilon: float) -> mx.MetricSpec:
    """Perturb the round sphere's dual norm by epsilon times the rotation field.

    The perturbed metric is produced by the numeric dual-norm construction
    on the chart box [-25, 25]^2; it is non-reversible for epsilon > 0 and
    Randers in disguise (see katok_zermelo_cross_check).  Requires
    0 <= epsilon < 1, which is exactly the smallness condition F(eps V) < 1:
    F(x, eps V) = 2 eps |x| / (1 + |x|^2) <= eps, with equality on the unit
    circle.
    """
    if not 0.0 <= epsilon < 1.0:
        raise SmallnessViolation(
            f"rotational perturbation needs 0 <= eps < 1, got {epsilon}")
    domain = mx.Box.cube(2, 25.0)
    sphere = mx.zoo_metric("sphere")

    def costar(xs, ys):
        s = 1.0 + xs[0] * xs[0] + xs[1] * xs[1]
        a = nk.sqrt(ys[0] * ys[0] + ys[1] * ys[1]) * (s * 0.5)
        V = rotation_field(xs)
        return a + epsilon * (ys[0] * V[0] + ys[1] * V[1])

    def warm(x, v):
        c = mx.sphere_conformal_factor(x, 1.0)
        return [c * v[0], c * v[1]]

    if epsilon == 0.0:
        return mx.riemannian_metric(sphere.g, 2, domain, name="katok(eps=0)")
    return mx.dual_metric(costar, 2, domain, warm_start=warm,
                          name=f"katok(eps={epsilon})")


def katok_zermelo_cross_check(epsilon: float, x, v) -> float:
    """Closed-form Randers value of the perturbed norm (cross-check only).

    The unit co-ball |xi|_{g^{-1}} + eps xi(V) <= 1 is an ellipsoid; its
    support function is an explicit Randers norm.  The numeric dual remains
    the authoritative definition; this pins down sign conventions in tests.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    c = mx.sphere_conformal_factor(x, 1.0)
    ginv = np.eye(2) / c
    W = epsilon * np.array(rotation_field(list(x)), dtype=float)
    Q = ginv - np.outer(W, W)
    Qinv = np.linalg.inv(Q)
    rho2 = 1.0 + W @ Qinv @ W
    alpha = math.sqrt(rho2 * (v @ Qinv @ v))
    beta = -(Qinv @ W) @ v
    return alpha + beta


def katok_curvature(epsilon: float, flags,
                    resolution: int = jb.DEFAULT_RESOLUTION) -> np.ndarray:
    """Flag curvature of the perturbed sphere at each flag (exactly 1).

    Flags are (x, y, u) triples; y is normalized to unit length in the
    perturbed metric before the curvature is computed.  All flags go
    through one batched transport.
    """
    metric = katok_metric(epsilon)
    x, y, u = (np.array(a, dtype=float) for a in zip(*flags))
    y = y / metric.F_value(x, y)[:, None]
    return jb.flag_curvature(metric, mx.PhasePoint(x, y), u,
                             resolution=resolution)


def _register():
    mx.register_metric(
        "katok",
        lambda epsilon=0.3: katok_metric(epsilon),
        "round sphere with a rotational dual-norm perturbation")


_register()
