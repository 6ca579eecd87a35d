"""Finsler metrics on coordinate charts.

A metric is an evaluator F(x, y) written in generic arithmetic (floats and
jets flow through unchanged), tagged by family.  Every derivative the module
needs comes from one route, the jet of F^2 in the 2n phase variables
(energy_jet): the fundamental tensor, the Legendre transform, the geodesic
spray with its linearization, and the pulled-back symplectic form in
natural coordinates (x1..xn, y1..yn).  `spray_data` and `omega_matrix`
read their jet through `_jet_spray` and `_jet_omega`, so a caller holding
the order-3 jet at a point (a transport window at its base point) takes
the spray data, its Jacobian, the form and g from that one jet.
Riemannian jets are assembled from jets of g in the n x-variables, and
`with_one_form`, the one construction of F0 + beta . y (Randers metrics,
projective deformations), adds x-jets of beta to the base's jet; a custom
F sees jets in all 2n variables.

Every evaluator takes a batch of phase points as well as a single one: x
and y of shape S+(n,) give G of shape S+(n,), DS of shape S+(2n,2n) and a
jet with batch axes S (see `jets`), from one pass of F, g or beta over the
whole batch.  S = () is a single point.  A failure at one point of a batch
names its index, the lowest one when several fail.

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
                     NotPositiveDefinite, batch_labels, raise_at)
from .jets import Jet, components, jet_variables, stack

__all__ = [
    "Box",
    "PhasePoint",
    "MetricSpec",
    "riemannian_metric",
    "randers_metric",
    "with_one_form",
    "custom_metric",
    "fundamental_tensor",
    "legendre",
    "legendre_inverse",
    "conorm",
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

    def contains(self, x):
        """Whether x lies in the box: a bool per point of a batch S+(n,)."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo) & (x <= self.hi), axis=-1)

    def grid(self) -> np.ndarray:
        """The 5-point-per-axis grid of the box, the validity sample set."""
        axes = [np.linspace(l, h, 5)
                for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, y) of the slit tangent bundle in chart coordinates, y != 0.

    x and y of shape S+(n,) hold a batch of points with batch axes S.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim == 0:
            raise DimensionMismatch("x and y must be vectors of equal length")
        raise_at(DimensionMismatch,
                 ~(np.linalg.norm(self.y, axis=-1) > 0.0),
                 lambda i: "fiber coordinate must be nonzero")


@dataclass(frozen=True)
class MetricSpec:
    """A Finsler metric on a chart.

    F takes sequences of scalar-like entries in both slots and must be
    positively 1-homogeneous in the second.  g is present for the
    Riemannian family and receives floats or jets in the n x-variables;
    energy_jet_fn, when set, builds the jet of F^2 (`with_one_form` from
    the base's jet and x-jets of the form; dual-norm metrics, whose F is a
    float-only Newton solve, hold their dual norm only in it).
    """

    n: int
    family: str
    F: Callable
    domain: Box
    name: str = "custom"
    g: Optional[Callable] = None
    energy_jet_fn: Optional[Callable] = None

    def F_value(self, x, y):
        """F at one point (a float) or at a batch S+(n,) (an array S)."""
        return nk.scalar_value(self.F(components(x), components(y)))


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
    """Randers metric sqrt(y^T g y) + beta(x) . y: `with_one_form` over the
    Riemannian metric of g.

    Validity (1 - beta g^{-1} beta^T > 0) is checked on a 5^n grid of the
    domain box at construction, not proven globally: g and beta are
    evaluated once, on the whole grid, and a failure names the lowest
    failing grid point by its x.
    """
    x = domain.grid()
    S, xs = x.shape[:-1], components(x)
    # values only: no jet variables, so no derivative slots
    G = stack([e for row in g(xs) for e in row], S, 0)[0].reshape(S + (n, n))
    b = stack(list(beta(xs)), S, 0)[0]
    margin = 1.0 - np.sum(b * np.linalg.solve(G, b[..., None])[..., 0], -1)
    with batch_labels(lambda i: None):
        raise_at(NotPositiveDefinite, margin <= 0.0,
                 lambda i: f"randers data invalid at x={x[i]}: "
                           f"1 - |beta|^2_g = {margin[i]:.3e}")
    return with_one_form(riemannian_metric(g, n, domain), beta, name)


def with_one_form(base: MetricSpec, beta: Callable, name: str) -> MetricSpec:
    """F = F0 + beta(x) . y over any base F0, of family "randers"; positivity
    is the caller's check (Randers validity, or a deformation's smallness).

    The jet of F^2 is (sqrt(E0) + jet of beta . y)^2 with E0 the base's
    energy jet: beta sees jets in the n x-variables, contracted with y.
    """
    n = base.n

    def F(x, y):
        return base.F(x, y) + sum(b * c for b, c in zip(beta(x), y))

    def energy_jet_fn(x, y, order):
        xs = jet_variables(x, order=order)
        B = _x_jet_stack(list(beta(xs)), y, n, order)
        e = [_contract(y, b) for b in B[:3]] + B[3:]
        zero = [np.zeros((n, n)), np.zeros((n, n, n))]
        # a Riemannian base reads g on the same x-jets as beta
        E0 = (_fiber_quadratic_energy_jet(base, xs, y, order)
              if base.family == "riemannian" else _energy(base, x, y, order))
        f = E0.sqrt() + _phase_jet(n, order, e, B[:3], zero)
        return f * f

    m = MetricSpec(n=n, family="randers", F=F, domain=base.domain, name=name,
                   energy_jet_fn=energy_jet_fn)
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

def _sym(A: np.ndarray) -> np.ndarray:
    """Symmetric part of a (stack of) square matrices."""
    return 0.5 * (A + A.swapaxes(-1, -2))


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product A v over matching batch axes."""
    return (A @ v[..., None])[..., 0]


def fundamental_tensor(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Fundamental tensor: half the fiber Hessian of F^2, SPD at valid points."""
    return _fiber_tensor(energy_jet(m, p.x, p.y, order=2), p.x, p.y)


def _fiber_tensor(J: Jet, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Half the fiber Hessian of the energy jet J at (x, y), checked positive
    definite (Cholesky) at each point; a failure names the lowest one."""
    n = x.shape[-1]
    g = _sym(0.5 * J.H[..., n:, n:])
    nk.stacked(np.linalg.cholesky, NotPositiveDefinite,
               lambda i: ("fundamental tensor not positive definite at "
                          f"x={x[i]}, y={y[i]}"), g)
    return g


def legendre(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Legendre transform g_F(v)(v, .) as a covector."""
    return _mv(fundamental_tensor(m, p), p.y)


def legendre_inverse(m: MetricSpec, x, xi, warm=None) -> np.ndarray:
    """Solve legendre(m, (x, v)) = xi for v by `_newton`, from warm (xi by
    default), for x and xi of shape S+(n,).

    The fiber Jacobian of the Legendre transform is the fundamental tensor
    g (SPD), so one `fundamental_tensor` call per iterate gives both the
    residual g v - xi and its Jacobian g.  A zero iterate is never taken.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    v = np.array(warm if warm is not None else xi, dtype=float)
    raise_at(NewtonDivergence, ~(np.linalg.norm(v, axis=-1) > 0.0),
             lambda i: "Legendre inversion needs a nonzero start")

    def residual(v):
        zero = ~(np.linalg.norm(v, axis=-1) > 0.0)[..., None]
        g = fundamental_tensor(m, PhasePoint(x, np.where(zero, 1.0, v)))
        return np.where(zero, np.nan, _mv(g, v) - xi), g

    return _newton(residual, v, lambda i: (f"Legendre inversion at x={x[i]}, "
                                           f"xi={xi[i]}"))


def conorm(m: MetricSpec, x, xi):
    """Dual norm F*(x, xi) = sup{xi(v) : F(x, v) = 1} (an array S for a
    batch S+(n,)): F at the Legendre preimage of xi, which realizes it.
    """
    return m.F_value(x, legendre_inverse(m, x, xi))


# ---------------------------------------------------------------------------
# jets of the energy F^2 and the spray
# ---------------------------------------------------------------------------

def energy_jet(m: MetricSpec, x, y, order: int = 3) -> Jet:
    """Jet of E = F^2 in the 2n phase variables (x then y).

    x and y of shape S+(n,) give a jet with batch axes S.  Domain errors
    raised while evaluating F (ValueError, ZeroDivisionError, OverflowError)
    surface as NonFiniteValue, like non-finite derivatives; in a batch they
    show as non-finite entries, and the error names the lowest such index.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        E = _energy(m, x, y, order)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteValue(f"evaluation failed at x={x.tolist()}, "
                             f"y={y.tolist()}: {exc}")
    return E.check_finite()


def _energy(m: MetricSpec, x, y, order: int) -> Jet:
    """`energy_jet` of float arrays x and y, unchecked: the metric's own
    jet, the x-jet route of a Riemannian g, or F on 2n-variable jets."""
    if m.energy_jet_fn is not None:
        return m.energy_jet_fn(x, y, order)
    if m.family == "riemannian":
        return _fiber_quadratic_energy_jet(m, jet_variables(x, order=order),
                                           y, order)
    zs = jet_variables(np.concatenate([x, y], axis=-1), order=order)
    f = m.F(zs[:m.n], zs[m.n:])
    return f * f


def _fiber_quadratic_energy_jet(m: MetricSpec, xs, y, order: int) -> Jet:
    """Jet of F^2 = y^T g(x) y from xs, the n x-variables seeded as jets.

    y^T g y is a polynomial in y, so each of its phase derivatives is an
    x-derivative of g contracted with the float y: g sees jets in the n
    x-variables only.
    """
    n = m.n
    nb = y.ndim - 1                         # number of batch axes
    yy = (y[..., :, None] * y[..., None, :]).reshape(y.shape[:-1] + (n * n,))
    S = _x_jet_stack([e for row in m.g(xs) for e in row], yy, n, order)
    e = [_contract(yy, s) for s in S[:3]] + S[3:]
    S = [s.reshape(s.shape[:nb] + (n, n) + s.shape[nb + 1:]) for s in S[:3]]
    Q = [s + s.swapaxes(nb, nb + 1) for s in S]   # x-derivatives of E_yy
    P = [_contract(y, q) for q in Q]            # x-derivatives of E_y
    return _phase_jet(n, order, e, P, Q)


def _contract(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k w[..., k] a[..., k, ...] over matching batch axes (one
    vector-matrix product per point)."""
    lead = w.shape[:-1]
    out = w[..., None, :] @ a.reshape(lead + (w.shape[-1], -1))
    return out.reshape(lead + a.shape[len(lead) + 1:])


def _x_jet_stack(entries, w, n: int, order: int):
    """`stack` of n-variable jet or float entries and, at order 3, their
    third derivatives contracted with w (no entries x n^3 array)."""
    lead = w.shape[:-1]
    T = np.zeros(lead + (n, n, n))
    for a, ent in enumerate(entries if order >= 3 else ()):
        if isinstance(ent, Jet):
            T += w[..., a, None, None, None] * ent.T
    return stack(entries, lead, n) + [T]


def _phase_jet(n: int, order: int, e, P, Q) -> Jet:
    """2n-variable jet of a function of (x, y) at most quadratic in y.

    e[r], P[r] and Q[r] are the order-r x-derivatives of the function, of its
    y-gradient (leading axis after the batch axes) and of its y-Hessian (two
    leading axes after the batch axes).
    """
    m2 = 2 * n
    lead = np.shape(e[0])
    H = np.empty(lead + (m2, m2))
    H[..., :n, :n] = e[2]
    H[..., n:, :n] = P[1]
    H[..., :n, n:] = P[1].swapaxes(-1, -2)
    H[..., n:, n:] = Q[0]
    T = None
    if order >= 3:
        T = np.zeros(lead + (m2, m2, m2))
        P2 = P[2].swapaxes(-3, -2)            # P[2].transpose(1, 0, 2)
        Q1 = Q[1].swapaxes(-2, -1)            # Q[1].transpose(0, 2, 1)
        T[..., :n, :n, :n] = e[3]
        T[..., n:, :n, :n] = P[2]
        T[..., :n, n:, :n] = P2
        T[..., :n, :n, n:] = P2.swapaxes(-2, -1)
        T[..., n:, n:, :n] = Q[1]
        T[..., n:, :n, n:] = Q1
        T[..., :n, n:, n:] = Q1.swapaxes(-3, -2)
    # e[0][()] is a number for a single point, the value array for a batch
    return Jet(m2, order, e[0][()], g=np.concatenate([e[1], P[0]], axis=-1),
               H=H, T=T)


def spray_data(m: MetricSpec, x, y, with_jacobian: bool = True):
    """Spray coefficients G and (optionally) the phase-space Jacobian DS.

    G^i = (1/4) g^{il} (E_{y_l x_k} y^k - E_{x_l}) with E = F^2; DS is the
    Jacobian of the field (x, y) -> (y, -2G), assembled from the same jet.
    x and y of shape S+(n,) give G of shape S+(n,) and DS of shape
    S+(2n,2n) from one energy jet over the batch, whose g is checked
    positive definite as in `fundamental_tensor` (`_jet_spray`).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    J = energy_jet(m, x, y, order=3 if with_jacobian else 2)
    return _jet_spray(J, _fiber_tensor(J, x, y), y)


def _jet_spray(J: Jet, g: np.ndarray, y: np.ndarray):
    """`spray_data` of the energy jet J at (x, y), g its checked
    fundamental tensor: (G, DS), DS None for an order-2 jet."""
    n = y.shape[-1]
    E1, E2 = J.g, J.H
    ginv = np.linalg.inv(g)
    # N_l = E_{y_l x_k} y^k - E_{x_l}
    N = _mv(E2[..., n:, :n], y) - E1[..., :n]
    ginv_N = _mv(ginv, N)
    G = 0.25 * ginv_N
    if J.T is None:
        return G, None

    E3 = J.T
    # dg[i, j, p] = (1/2) E3[y_i, y_j, z_p]
    dg = 0.5 * E3[..., n:, n:, :]
    # dN[l, p] = E3[y_l, x_k, p] y^k - E2[x_l, p] + E2[y_l, x_{p-n}] for p >= n
    dN = _middle(y, E3[..., n:, :n, :]) - E2[..., :n, :]
    dN[..., :, n:] += E2[..., n:, :n]
    dG = 0.25 * ginv @ (dN - _middle(ginv_N, dg))
    DS = np.zeros(y.shape[:-1] + (2 * n, 2 * n))
    DS[..., :n, n:] = np.eye(n)
    DS[..., n:, :] = -2.0 * dG
    return G, DS


def _middle(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_j w[..., j] X[..., l, j, p]: contraction of the middle axis."""
    return (w[..., None, None, :] @ X)[..., 0, :]


def omega_matrix(m: MetricSpec, p: PhasePoint) -> np.ndarray:
    """Matrix of the pulled-back symplectic form at p in the (dx, dy) basis.

    Blocks [[D, g], [-g^T, 0]] with D the antisymmetrized x-Jacobian of the
    Legendre covector; the vertical subspace is Lagrangian by construction.
    The form is invertible exactly where g is, and g is checked to be
    positive definite as in `fundamental_tensor` (`_jet_omega`).
    """
    J = energy_jet(m, p.x, p.y, order=2)
    return _jet_omega(J, _fiber_tensor(J, p.x, p.y))


def _jet_omega(J: Jet, g: np.ndarray) -> np.ndarray:
    """`omega_matrix` of the energy jet J (order 2 or 3: the blocks read
    only its Hessian), g its checked fundamental tensor."""
    n = g.shape[-1]
    dxi_dx = 0.5 * J.H[..., n:, :n]
    D = dxi_dx - dxi_dx.swapaxes(-1, -2)
    O = np.zeros(np.shape(J.v) + (2 * n, 2 * n))
    O[..., :n, :n] = D
    O[..., :n, n:] = g
    O[..., n:, :n] = -g.swapaxes(-1, -2)
    return O


# ---------------------------------------------------------------------------
# metrics defined through a dual norm
# ---------------------------------------------------------------------------

def _newton(residual, z, where):
    """Damped Newton on residual(z) = (R, Jacobian of R) from z of shape
    S+(k,), in lockstep: each point stops at |R| < 1e-12 (50 steps at most)
    and halves its step until |R| falls (30 times at most), as a solve on
    its own would.  where(i) names point i in a NewtonDivergence, raised at
    the lowest index that stalls or does not converge.
    """

    def merge(mask, new, old):
        """Entries of `new` where mask holds, of `old` elsewhere."""
        if mask.all():
            return new
        return tuple(np.where(mask[(...,) + (None,) * (a.ndim - mask.ndim)],
                              a, b) for a, b in zip(new, old))

    def evaluate(z):
        R, J = residual(z)
        return z, R, np.linalg.norm(R, axis=-1), J

    state = evaluate(z)               # (z, R, |R|, Jacobian)
    for _ in range(50):
        z, R, res, J = state
        todo = ~(res < 1e-12)         # a NaN residual is not converged
        if not todo.any():
            break
        rhs = -R
        if not todo.all():
            # converged points solve an identity system: they take no step
            J, rhs = merge(todo, (J, rhs), (np.eye(R.shape[-1]), 0.0 * R))
        step = nk.stacked(np.linalg.solve, NewtonDivergence,
                          lambda i: f"{where(i)}: singular Newton system",
                          J, rhs[..., None])[..., 0]
        # every point still searching has halved its step equally often
        lam, pending = 1.0, todo
        for _ in range(30):
            trial = evaluate(z + (lam * pending)[..., None] * step)
            take = pending & (trial[2] < res)
            state = merge(take, trial, state)
            pending = pending & ~take
            if not pending.any():
                break
            lam *= 0.5
        else:
            raise_at(NewtonDivergence, pending,
                     lambda i: f"{where(i)} stalled (residual {res[i]:.2e})")
    raise_at(NewtonDivergence, ~(state[2] < 1e-12),
             lambda i: f"{where(i)} did not converge")
    return state[0]


def _support_newton(costar, x, v, warm):
    """Maximize xi . v over the unit level of costar(x, .): `_newton` on the
    KKT residual in (xi, mu), mu the multiplier, from one order-2 jet of
    costar in xi per iterate.  x, v and warm (the first xi, scaled onto the
    unit level) are arrays of shape S+(n,).  Returns (F, xi), F = xi . v.
    """
    n = v.shape[-1]
    xc = components(x)
    xi = warm / np.asarray(costar(xc, components(warm)))[..., None]
    mu = (xi * v).sum(axis=-1)

    def residual(z):
        xi, mu = z[..., :n], z[..., n]
        c = costar(xc, jet_variables(xi, order=2))
        R = np.concatenate([v - mu[..., None] * c.g,
                            np.asarray(1.0 - c.v)[..., None]], axis=-1)
        J = np.zeros(R.shape + (n + 1,))
        J[..., :n, :n] = -mu[..., None, None] * c.H
        J[..., :n, n] = J[..., n, :n] = -c.g
        return R, J

    z = _newton(residual, np.concatenate([xi, mu[..., None]], axis=-1),
                lambda i: f"support solve at x={x[i]}, v={v[i]}")
    return (z[..., :n] * v).sum(axis=-1), z[..., :n]


def _dual_energy_jet(costar, warm_start, n, x, y, order):
    """Jet of F^2 for a dual-norm metric via implicit differentiation.

    F^2/2 is the fiberwise Legendre conjugate of H = costar^2/2, so with p
    solving grad_xi H(x, p) = y one has  e_y = p  and  e_x = -H_x(x, p); all
    higher derivatives follow from one jet of H at (x, p) and the implicit
    function theorem, no nested differentiation required.  x and y of shape
    S+(n,) run one batched support solve and one jet of H over the batch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    warm = np.stack(warm_start(components(x), components(y)), axis=-1)
    F0, xi_unit = _support_newton(costar, x, y, warm)
    p0 = np.asarray(F0)[..., None] * xi_unit

    hvars = jet_variables(np.concatenate([x, p0], axis=-1), order=order)
    c = costar(hvars[:n], hvars[n:])
    H = (c * c * 0.5).check_finite()

    m2 = 2 * n
    gx, gxi = H.g[..., :n], H.g[..., n:]
    Hxx = H.H[..., :n, :n]
    Hxxi = H.H[..., :n, n:]
    Binv = nk.stacked(np.linalg.inv, NotPositiveDefinite,
                      lambda i: f"dual norm degenerate at x={x[i]}",
                      _sym(H.H[..., n:, n:]))
    # first derivatives of the implicit xi*(x, y)
    Jmap = np.zeros(y.shape[:-1] + (n, m2))
    Jmap[..., :n] = -Binv @ Hxxi.swapaxes(-1, -2)
    Jmap[..., n:] = Binv
    # check the Legendre point: grad_xi H must reproduce y
    raise_at(NewtonDivergence,
             np.max(np.abs(gxi - y), axis=-1)
             > 1e-8 * np.maximum(1.0, F0 * F0),
             lambda i: f"Legendre point inconsistent at x={x[i]}, y={y[i]}")

    e0 = (p0 * y).sum(axis=-1) - H.v
    e1 = np.concatenate([-gx, p0], axis=-1)
    e2 = np.zeros(y.shape[:-1] + (m2, m2))
    e2[..., n:, :] = Jmap
    e2[..., :n, :n] = -(Hxx + Hxxi @ Jmap[..., :n])
    e2[..., :n, n:] = -(Hxxi @ Jmap[..., n:])
    e2 = _sym(e2)

    e3 = None
    if order >= 3:
        # slot transport from (x, xi)-space to (x, y)-space
        U = np.zeros(y.shape[:-1] + (m2, m2))
        U[..., :n, :n] = np.eye(n)
        U[..., n:, :] = Jmap
        T = H.T
        G2 = np.einsum("...rp,...ars,...sq->...apq", U, T[..., n:, :, :], U)
        Xi2 = -np.einsum("...ab,...bpq->...apq", Binv, G2)
        e3 = np.zeros(y.shape[:-1] + (m2, m2, m2))
        e3[..., n:, :, :] = Xi2
        e3[..., :n, :, :] = -(
            np.einsum("...rp,...jrs,...sq->...jpq", U, T[..., :n, :, :], U)
            + np.einsum("...jb,...bpq->...jpq", Hxxi, Xi2))
        # mean over the six permutations of the last three axes
        s01, s12 = e3.swapaxes(-3, -2), e3.swapaxes(-2, -1)
        e3 = (e3 + s01.swapaxes(-2, -1) + s12.swapaxes(-3, -2) + s12 + s01
              + e3.swapaxes(-3, -1)) / 6.0

    return Jet(m2, order, 2.0 * e0, g=2.0 * e1, H=2.0 * e2,
               T=None if e3 is None else 2.0 * e3)


def dual_metric(costar: Callable, n: int, domain: Box, warm_start: Callable,
                name: str = "dual") -> MetricSpec:
    """Metric F(x, v) = max{ xi(v) : costar(x, xi) = 1 }.

    The evaluator runs a damped Newton on the stationarity system with a
    Lagrange multiplier (max 50 iterations, KKT residual below 1e-12) and
    takes floats only; the jet of F^2 is produced by implicit
    differentiation at the Legendre point, so no derivative ever runs
    through the Newton iteration.  warm_start(xs, ys) gives the components
    of the covector the solve starts from (ys itself is a valid start).
    The start is only a start: the KKT residual is checked at it, so an
    exact start (katok's Zermelo covector) costs one residual evaluation
    and a poor one costs iterations, not accuracy.
    """

    def F(xs, ys):
        return _support_newton(costar, np.stack(xs, axis=-1),
                               np.stack(ys, axis=-1),
                               np.stack(warm_start(xs, ys), axis=-1))[0]

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


MAX_ZOO_DIMENSION = 8   # the supported regime: chart dimension n <= 8


def _check_dimension(n):
    """Zoo dimensions are integers from 2 (a flag needs two directions) to
    MAX_ZOO_DIMENSION."""
    if not (isinstance(n, int) and 2 <= n <= MAX_ZOO_DIMENSION):
        raise DimensionMismatch(
            f"dimension must be an integer in [2, {MAX_ZOO_DIMENSION}], "
            f"got {n!r}")


def _euclidean(n: int = 2) -> MetricSpec:
    _check_dimension(n)
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
    if not radius > 0.0:
        raise DimensionMismatch(
            f"sphere radius must be positive, got {radius}")

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
    _check_dimension(n)

    def g(x):
        c = nk.exp(2.0 * a * x[0])
        return [[c if i == j else 0.0 for j in range(n)] for i in range(n)]

    return riemannian_metric(g, n, Box.cube(n, 1.5),
                             name=f"riemannian-conformal(a={a})")


def _randers(b=(0.3, 0.0)) -> MetricSpec:
    b = tuple(float(v) for v in b)
    n = len(b)
    _check_dimension(n)
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
