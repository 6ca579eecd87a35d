"""Finsler metrics on coordinate charts.

A metric is an evaluator F(x, y) written in generic arithmetic (floats and
jets flow through unchanged), tagged by family.  Every derivative the module
needs comes from one route, the jet of F^2 in the 2n phase variables
(energy_jet): the fundamental tensor, the Legendre transform, the geodesic
spray with its linearization, and the pulled-back symplectic form in
natural coordinates (x1..xn, y1..yn).  Riemannian and Randers jets are
assembled from jets of g and beta in the n x-variables (y^T g y and
beta . y are polynomials in y); a custom F sees jets in all 2n variables.

Sign convention for the symplectic form: with xi = Legendre(x, y), the matrix
is [[D, g], [-g^T, 0]] where D_kl = d xi_k/dx_l - d xi_l/dx_k and g is the
fundamental tensor; the Euclidean metric then gives the canonical
[[0, I], [-I, 0]].  A sign flip, should one ever want the opposite
orientation, is a one-line change in omega_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkit as nk
from .errors import (DimensionMismatch, NewtonDivergence, NonFiniteValue,
                     NotPositiveDefinite)
from .jets import Jet, jet_variables

__all__ = [
    "Box",
    "PhasePoint",
    "MetricSpec",
    "SprayField",
    "riemannian_metric",
    "randers_metric",
    "custom_metric",
    "fundamental_tensor",
    "legendre",
    "legendre_inverse",
    "conorm",
    "spray",
    "spray_data",
    "energy_jet",
    "omega_matrix",
    "dual_metric",
    "zoo_metric",
    "register_metric",
    "list_metrics",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned validity region of a chart."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise DimensionMismatch("box bounds must satisfy lo < hi")

    @staticmethod
    def cube(n: int, half_width: float) -> "Box":
        return Box(-half_width * np.ones(n), half_width * np.ones(n))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def grid(self, points_per_axis: int = 5) -> np.ndarray:
        axes = [np.linspace(l, h, points_per_axis)
                for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, y) of the slit tangent bundle in chart coordinates, y != 0."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise DimensionMismatch("x and y must be vectors of equal length")
        if not np.linalg.norm(self.y) > 0.0:
            raise DimensionMismatch("fiber coordinate must be nonzero")


@dataclass(frozen=True)
class MetricSpec:
    """A Finsler metric on a chart.

    F takes sequences of scalar-like entries in both slots and must be
    positively 1-homogeneous in the second.  g/beta are present for the
    Riemannian and Randers families and receive floats or jets in the n
    x-variables; energy_jet_fn, when set, shortcuts the
    jet evaluation of F^2 (dual-norm metrics, whose F is a float-only Newton
    solve, hold their dual norm only in it; so do deformations of them).
    """

    n: int
    family: str
    F: Callable
    domain: Box
    name: str = "custom"
    g: Optional[Callable] = None
    beta: Optional[Callable] = None
    energy_jet_fn: Optional[Callable] = None

    def F_value(self, x, y) -> float:
        return nk.scalar_value(self.F(list(x), list(y)))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _quadratic_form(G, y):
    """y^T G y as sum_i y_i (G y)_i: n^2 + n products instead of 2 n^2."""
    n = len(y)
    acc = 0.0
    for i in range(n):
        row = G[i][0] * y[0]
        for j in range(1, n):
            row = row + G[i][j] * y[j]
        acc = acc + y[i] * row
    return acc


def riemannian_metric(g: Callable, n: int, domain: Box,
                      name: str = "riemannian") -> MetricSpec:
    """Metric F = sqrt(y^T g(x) y) from a chart field of SPD matrices."""

    def F(x, y):
        return nk.sqrt(_quadratic_form(g(x), y))

    m = MetricSpec(n=n, family="riemannian", F=F, domain=domain, name=name, g=g)
    _check_positive_samples(m)
    return m


def randers_metric(g: Callable, beta: Callable, n: int, domain: Box,
                   name: str = "randers") -> MetricSpec:
    """Randers metric sqrt(y^T g y) + beta(x) . y.

    Validity (1 - beta g^{-1} beta^T > 0) is checked on a 5^n grid of the
    domain box at construction, not proven globally.
    """

    def F(x, y):
        b = beta(x)
        lin = b[0] * y[0]
        for i in range(1, n):
            lin = lin + b[i] * y[i]
        return nk.sqrt(_quadratic_form(g(x), y)) + lin

    m = MetricSpec(n=n, family="randers", F=F, domain=domain, name=name,
                   g=g, beta=beta)
    for x in m.domain.grid(5):
        G = np.array(g(list(x)), dtype=float)
        b = np.array(beta(list(x)), dtype=float)
        margin = 1.0 - b @ np.linalg.solve(G, b)
        if margin <= 0.0:
            raise NotPositiveDefinite(
                f"randers data invalid at x={x}: 1 - |beta|^2_g = {margin:.3e}")
    _check_positive_samples(m)
    return m


def custom_metric(F: Callable, n: int, domain: Box,
                  name: str = "custom", **kw) -> MetricSpec:
    m = MetricSpec(n=n, family="custom", F=F, domain=domain, name=name, **kw)
    _check_positive_samples(m)
    return m


def _check_positive_samples(m: MetricSpec):
    """Cheap construction-time sanity: homogeneity and positivity at samples."""
    mid = 0.5 * (m.domain.lo + m.domain.hi)
    for k, y in ((1, np.ones(m.n)), (2, np.arange(1.0, m.n + 1.0))):
        f1 = m.F_value(mid, y)
        f2 = m.F_value(mid, 2.0 * y)
        if not (math.isfinite(f1) and f1 > 0.0):
            raise NotPositiveDefinite(f"F not positive at sample {k}")
        if abs(f2 - 2.0 * f1) > 1e-8 * max(1.0, abs(f1)):
            raise NotPositiveDefinite("F is not 1-homogeneous in y")


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

def fundamental_tensor(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Fundamental tensor: half the fiber Hessian of F^2, SPD at valid points."""
    n = m.n
    g = 0.5 * energy_jet(m, p.x, p.y, order=2).H[n:, n:]
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"fundamental tensor not positive definite at x={p.x}, y={p.y}")
    return g


def legendre(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Legendre transform g_F(v)(v, .) as a covector."""
    return fundamental_tensor(m, p) @ p.y


def legendre_inverse(m: MetricSpec, x, xi, warm=None,
                     tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """Solve legendre(m, (x, v)) = xi for v by damped Newton.

    The fiber Jacobian of the Legendre transform is the fundamental tensor,
    which is SPD, so plain Newton with step halving is reliable.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    v = np.array(warm if warm is not None else xi, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise NewtonDivergence("Legendre inversion needs a nonzero start")

    def residual(w):
        return legendre(m, PhasePoint(x, w)) - xi

    r = residual(v)
    for _ in range(max_iter):
        if np.linalg.norm(r) < tol:
            return v
        g = fundamental_tensor(m, PhasePoint(x, v))
        step = np.linalg.solve(g, -r)
        lam = 1.0
        for _ in range(30):
            cand = v + lam * step
            if np.linalg.norm(cand) > 0.0:
                rc = residual(cand)
                if np.linalg.norm(rc) < np.linalg.norm(r):
                    v, r = cand, rc
                    break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"Legendre inversion stalled at x={x}, xi={xi}")
    raise NewtonDivergence(f"Legendre inversion did not converge at x={x}, xi={xi}")


def conorm(m: MetricSpec, x, xi) -> float:
    """Dual norm F*(x, xi) = sup{xi(v) : F(x, v) = 1}.

    Computed as F at the Legendre preimage of xi, which realizes the
    supremum.
    """
    v = legendre_inverse(m, x, xi)
    return m.F_value(x, v)


# ---------------------------------------------------------------------------
# jets of the energy F^2 and the spray
# ---------------------------------------------------------------------------

def energy_jet(m: MetricSpec, x, y, order: int = 3) -> Jet:
    """Jet of E = F^2 in the 2n phase variables (x then y).

    Domain errors raised while evaluating F (ValueError, ZeroDivisionError,
    OverflowError) surface as NonFiniteValue, like non-finite derivatives.
    """
    try:
        if m.energy_jet_fn is not None:
            E = m.energy_jet_fn(x, y, order)
        elif m.family in ("riemannian", "randers"):
            E = _fiber_quadratic_energy_jet(m, x, y, order)
        else:
            n = m.n
            zs = jet_variables(list(x) + list(y), order=order)
            f = m.F(zs[:n], zs[n:])
            E = f * f
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteValue(f"evaluation failed at x={list(x)}, y={list(y)}: {exc}")
    return E.check_finite()


def _fiber_quadratic_energy_jet(m: MetricSpec, x, y, order: int) -> Jet:
    """Jet of F^2 for F = sqrt(y^T g(x) y) (+ beta(x) . y) from x-jets only.

    y^T g y and beta . y are polynomials in y, so each of their phase
    derivatives is an x-derivative of g or beta contracted with the float y:
    g and beta see jets in the n x-variables, and only sqrt, + and the final
    product of a Randers metric run in all 2n variables.
    """
    n = m.n
    y = np.asarray(y, dtype=float)
    xs = jet_variables(list(x), order=order)
    yy = (y[:, None] * y).ravel()
    S = _x_jet_stack([e for row in m.g(xs) for e in row], yy, n)
    e = [_contract(yy, s) for s in S[:3]] + S[3:]
    S = [s.reshape((n, n) + s.shape[1:]) for s in S[:3]]
    Q = [s + s.swapaxes(0, 1) for s in S]   # x-derivatives of E_yy
    P = [_contract(y, q) for q in Q]        # x-derivatives of E_y
    E = _phase_jet(n, order, e, P, Q)
    if m.family == "riemannian":
        return E
    B = _x_jet_stack(list(m.beta(xs)), y, n)
    e = [_contract(y, b) for b in B[:3]] + B[3:]
    zero = [np.zeros((n, n)), np.zeros((n, n, n))]
    f = E.sqrt() + _phase_jet(n, order, e, B[:3], zero)
    return f * f


def _contract(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k w[k] a[k, ...] (one matrix-vector product)."""
    return (w @ a.reshape(len(w), -1)).reshape(a.shape[1:])


def _x_jet_stack(entries, w, n: int):
    """Values, gradients and Hessians of n-variable jets stacked on a leading
    axis, and their third derivatives contracted with w (no entries x n^3
    array).  Float entries keep zero derivatives."""
    out = [np.zeros((len(entries),) + (n,) * r) for r in range(3)]
    out.append(np.zeros((n, n, n)))
    for a, ent in enumerate(entries):
        if not isinstance(ent, Jet):
            out[0][a] = ent
            continue
        out[0][a], out[1][a], out[2][a] = ent.v, ent.g, ent.H
        if ent.T is not None:
            out[3] += w[a] * ent.T
    return out


def _phase_jet(n: int, order: int, e, P, Q) -> Jet:
    """2n-variable jet of a function of (x, y) at most quadratic in y.

    e[r], P[r] and Q[r] are the order-r x-derivatives of the function, of its
    y-gradient (leading axis) and of its y-Hessian (two leading axes).
    """
    m2 = 2 * n
    H = np.empty((m2, m2))
    H[:n, :n], H[n:, :n], H[:n, n:], H[n:, n:] = e[2], P[1], P[1].T, Q[0]
    T = None
    if order >= 3:
        T = np.zeros((m2, m2, m2))
        T[:n, :n, :n] = e[3]
        T[n:, :n, :n] = P[2]
        T[:n, n:, :n] = P[2].transpose(1, 0, 2)
        T[:n, :n, n:] = P[2].transpose(1, 2, 0)
        T[n:, n:, :n] = Q[1]
        T[n:, :n, n:] = Q[1].transpose(0, 2, 1)
        T[:n, n:, n:] = Q[1].transpose(2, 0, 1)
    return Jet(m2, order, e[0], g=np.concatenate([e[1], P[0]]), H=H, T=T)


def spray_data(m: MetricSpec, x, y, with_jacobian: bool = True):
    """Spray coefficients G and (optionally) the phase-space Jacobian DS.

    G^i = (1/4) g^{il} (E_{y_l x_k} y^k - E_{x_l}) with E = F^2; DS is the
    Jacobian of the field (x, y) -> (y, -2G), assembled from the same jet.
    """
    n = m.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    J = energy_jet(m, x, y, order=3 if with_jacobian else 2)
    E1, E2 = J.g, J.H
    gmat = 0.5 * E2[n:, n:]
    gmat = 0.5 * (gmat + gmat.T)
    try:
        ginv = np.linalg.inv(gmat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"degenerate fundamental tensor at x={x}")
    # N_l = E_{y_l x_k} y^k - E_{x_l}
    N = E2[n:, :n] @ y - E1[:n]
    G = 0.25 * ginv @ N
    if not with_jacobian:
        return G, None

    E3 = J.T
    # dg[i, j, p] = (1/2) E3[y_i, y_j, z_p]
    dg = 0.5 * E3[n:, n:, :]
    # dN[l, p] = E3[y_l, x_k, p] y^k - E2[x_l, p] + E2[y_l, x_{p-n}] for p >= n
    dN = np.einsum("lkp,k->lp", E3[n:, :n, :], y) - E2[:n, :]
    dN[:, n:] += E2[n:, :n]
    dG = 0.25 * ginv @ (dN - np.einsum("ljp,j->lp", dg, ginv @ N))
    DS = np.zeros((2 * n, 2 * n))
    DS[:n, n:] = np.eye(n)
    DS[n:, :] = -2.0 * dG
    return G, DS


@dataclass(frozen=True)
class SprayField:
    """Geodesic spray (x, y) -> (y, -2G(x, y)) of a metric."""

    metric: MetricSpec

    @property
    def n(self) -> int:
        return self.metric.n

    def G(self, x, y) -> np.ndarray:
        G, _ = spray_data(self.metric, x, y, with_jacobian=False)
        return G

    def value(self, x, y) -> np.ndarray:
        return np.concatenate([np.asarray(y, dtype=float), -2.0 * self.G(x, y)])


def spray(m: MetricSpec) -> SprayField:
    return SprayField(m)


def omega_matrix(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Matrix of the pulled-back symplectic form at p in the (dx, dy) basis.

    Blocks [[D, g], [-g^T, 0]] with D the antisymmetrized x-Jacobian of the
    Legendre covector; the vertical subspace is Lagrangian by construction
    and the result is checked to be invertible.
    """
    n = m.n
    J = energy_jet(m, p.x, p.y, order=2)
    g = 0.5 * J.H[n:, n:]
    g = 0.5 * (g + g.T)
    dxi_dx = 0.5 * J.H[n:, :n]
    D = dxi_dx - dxi_dx.T
    O = np.zeros((2 * n, 2 * n))
    O[:n, :n] = D
    O[:n, n:] = g
    O[n:, :n] = -g.T
    if abs(np.linalg.det(O)) < 1e-14:
        raise NotPositiveDefinite(f"omega degenerate at x={p.x}, y={p.y}")
    return O


# ---------------------------------------------------------------------------
# metrics defined through a dual norm
# ---------------------------------------------------------------------------

def _support_newton(costar, x, v, warm=None, tol=1e-12, max_iter=50):
    """Maximize xi . v over the unit level of costar(x, .) by damped Newton.

    Float-only: one order-2 jet of costar in xi gives the value, gradient and
    Hessian of each KKT residual, and np.linalg.solve takes the step.
    Returns (F, xi) with F = xi . v the support value.
    """
    x = [float(a) for a in x]
    v = np.asarray(v, dtype=float)
    n = len(v)
    xi = np.array(warm if warm is not None else v, dtype=float)
    xi = xi / costar(x, list(xi))
    mu = xi @ v

    def residual(xi, mu):
        c = costar(x, jet_variables(xi, order=2))
        return np.append(v - mu * c.g, 1.0 - c.v), c

    R, c = residual(xi, mu)
    res_norm = np.linalg.norm(R)
    for _ in range(max_iter):
        if res_norm < tol:
            return float(xi @ v), xi
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = -mu * c.H
        J[:n, n] = J[n, :n] = -c.g
        try:
            step = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError:
            raise NewtonDivergence("singular system in Newton step")
        lam = 1.0
        for _ in range(30):
            xi_c = xi + lam * step[:n]
            mu_c = mu + lam * step[n]
            Rc, cc = residual(xi_c, mu_c)
            rn = np.linalg.norm(Rc)
            if rn < res_norm:
                xi, mu, R, c, res_norm = xi_c, mu_c, Rc, cc, rn
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"support solve stalled at x={x}, v={v} (residual {res_norm:.2e})")
    raise NewtonDivergence(f"support solve did not converge at x={x}, v={v}")


def _dual_energy_jet(costar, warm_start, n, x, y, order):
    """Jet of F^2 for a dual-norm metric via implicit differentiation.

    F^2/2 is the fiberwise Legendre conjugate of H = costar^2/2, so with p
    solving grad_xi H(x, p) = y one has  e_y = p  and  e_x = -H_x(x, p); all
    higher derivatives follow from one jet of H at (x, p) and the implicit
    function theorem, no nested differentiation required.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    warm = warm_start(x, y) if warm_start is not None else None
    F0, xi_unit = _support_newton(costar, x, y, warm=warm)
    p0 = F0 * xi_unit

    hvars = jet_variables(list(x) + list(p0), order=order)
    c = costar(hvars[:n], hvars[n:])
    H = (c * c * 0.5).check_finite()

    m2 = 2 * n
    gx, gxi = H.g[:n], H.g[n:]
    Hxx = H.H[:n, :n]
    Hxxi = H.H[:n, n:]
    B = H.H[n:, n:]
    Binv = np.linalg.inv(0.5 * (B + B.T))
    # first derivatives of the implicit xi*(x, y)
    Jmap = np.zeros((n, m2))
    Jmap[:, :n] = -Binv @ Hxxi.T
    Jmap[:, n:] = Binv
    # check the Legendre point: grad_xi H must reproduce y
    if np.max(np.abs(gxi - np.asarray(y))) > 1e-8 * max(1.0, F0 * F0):
        raise NewtonDivergence(
            f"Legendre point inconsistent at x={x}, y={y}")

    e0 = p0 @ np.asarray(y) - H.v
    e1 = np.concatenate([-gx, p0])
    e2 = np.zeros((m2, m2))
    e2[n:, :] = Jmap
    e2[:n, :n] = -(Hxx + Hxxi @ Jmap[:, :n])
    e2[:n, n:] = -(Hxxi @ Jmap[:, n:])
    e2 = 0.5 * (e2 + e2.T)

    e3 = None
    if order >= 3:
        # slot transport from (x, xi)-space to (x, y)-space
        U = np.zeros((m2, m2))
        U[:n, :n] = np.eye(n)
        U[n:, :] = Jmap
        T = H.T
        G2 = np.einsum("rp,ars,sq->apq", U, T[n:, :, :], U)
        Xi2 = -np.einsum("ab,bpq->apq", Binv, G2)
        e3 = np.zeros((m2, m2, m2))
        e3[n:] = Xi2
        e3[:n] = -(np.einsum("rp,jrs,sq->jpq", U, T[:n, :, :], U)
                   + np.einsum("jb,bpq->jpq", Hxxi, Xi2))
        e3 = (e3 + np.transpose(e3, (1, 2, 0)) + np.transpose(e3, (2, 0, 1))
              + np.transpose(e3, (0, 2, 1)) + np.transpose(e3, (1, 0, 2))
              + np.transpose(e3, (2, 1, 0))) / 6.0

    return Jet(m2, order, 2.0 * e0, g=2.0 * e1, H=2.0 * e2,
               T=None if e3 is None else 2.0 * e3)


def dual_metric(costar: Callable, n: int, domain: Box,
                warm_start: Optional[Callable] = None,
                name: str = "dual") -> MetricSpec:
    """Metric F(x, v) = max{ xi(v) : costar(x, xi) = 1 }.

    The evaluator runs a damped Newton on the stationarity system with a
    Lagrange multiplier (max 50 iterations, KKT residual below 1e-12) and
    takes floats only; the jet of F^2 is produced by implicit
    differentiation at the Legendre point, so no derivative ever runs
    through the Newton iteration.
    """

    def F(xs, ys):
        warm = warm_start(xs, ys) if warm_start is not None else None
        return _support_newton(costar, xs, ys, warm=warm)[0]

    def ejet(x, y, order):
        return _dual_energy_jet(costar, warm_start, n, x, y, order)

    return custom_metric(F, n, domain, name=name, energy_jet_fn=ejet)


# ---------------------------------------------------------------------------
# metric zoo
# ---------------------------------------------------------------------------

_REGISTRY = {}


def register_metric(metric_id: str, builder: Callable, summary: str):
    _REGISTRY[metric_id] = (builder, summary)


def list_metrics():
    return sorted((mid, summary) for mid, (_, summary) in _REGISTRY.items())


def zoo_metric(metric_id: str, **params) -> MetricSpec:
    if metric_id not in _REGISTRY:
        raise DimensionMismatch(
            f"unknown metric id {metric_id!r}; known: "
            + ", ".join(sorted(_REGISTRY)))
    builder, _ = _REGISTRY[metric_id]
    return builder(**params)


def _euclidean(n: int = 2) -> MetricSpec:
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return riemannian_metric(lambda x: eye, n, Box.cube(n, 50.0),
                             name="euclidean")


def sphere_conformal_factor(x, radius: float):
    r4 = radius ** 4
    s = radius * radius
    for xi in x:
        s = s + xi * xi
    return 4.0 * r4 / (s * s)


def _sphere(radius: float = 1.0) -> MetricSpec:
    def g(x):
        c = sphere_conformal_factor(x, radius)
        zero = 0.0
        return [[c, zero], [zero, c]]

    return riemannian_metric(g, 2, Box.cube(2, 40.0), name="sphere")


def _hyperbolic() -> MetricSpec:
    def g(x):
        s = 1.0 - x[0] * x[0] - x[1] * x[1]
        c = 4.0 / (s * s)
        return [[c, 0.0], [0.0, c]]

    return riemannian_metric(g, 2, Box.cube(2, 0.95), name="hyperbolic")


def _conformal(a: float = 0.2, n: int = 3) -> MetricSpec:
    def g(x):
        c = nk.exp(2.0 * a * x[0])
        return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]

    return riemannian_metric(g, n, Box.cube(n, 1.5),
                             name=f"riemannian-conformal(a={a})")


def _randers(b=(0.3, 0.0)) -> MetricSpec:
    b = tuple(float(v) for v in b)
    n = len(b)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return randers_metric(lambda x: eye, lambda x: list(b), n,
                          Box.cube(n, 50.0), name="randers")


register_metric("euclidean", _euclidean, "flat metric |y| on R^n")
register_metric("sphere", _sphere,
                "round sphere of given radius, stereographic chart")
register_metric("hyperbolic", _hyperbolic, "Poincare disk, curvature -1")
register_metric("riemannian-conformal", _conformal,
                "conformal family exp(2 a x1) * I")
register_metric("randers", _randers, "Euclidean plus a constant one-form")
