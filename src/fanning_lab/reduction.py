"""Linear symplectic reduction of fanning curves and submersion curvature.

Given a coisotropic subspace W of a symplectic vector space, Lagrangian
planes descend to the quotient W / W^omega.  Reducing a fanning curve
plane-by-plane produces a fanning curve downstairs whose Wronskian is the
restriction of the original one; the defect between the reduced and the
original curvature pairings is measured by the O'Neill endomorphism, whose
square enters with the famous factor 3.

Every coordinate change is a product or one square solve.  W is
coisotropic, that is W^omega is isotropic, so W = ker C with C =
(W^omega)^T Omega, formed once by `coisotropic_setup`.  The quotient basis D
is orthonormal and orthogonal to W^omega, and W = span D + W^omega, so w in
W has quotient coordinates c = D^T w and the reduced form is D^T Omega D
(W_R and the Schwarzian do not depend on the basis of the quotient).
Frames H = A beta of l inter W are fixed by the graph gauge U_c^T H = I
(U_c orthonormal at the center); beta' solves one square system
(`_gauge_solve`): C A beta' = -C Adot beta, k rows for the codimension k of
W, and U^T A beta' = -U^T Adot beta, n - k rows.  No check that l misses
W^omega is needed: for a Lagrangian l (which `fanning.wronskian` checks),
dim(l inter W) = n - k + dim(l inter W^omega).  The O'Neill endomorphism
reads H, beta and beta' at the center off the `ReducedCurve` of the same
stencil; only its W-orthogonal section takes one more gauge solve.

Two front-ends instantiate this.  The contact splitting takes W = ker dF,
the tangent space of the unit sphere bundle, whose annihilator is the spray
S: the reduced curve is the contact part l(t) inter ker dF of the Jacobi
curve, complementary to C - tS.  The submersion front-end takes W the
tangent space of the horizontal-cone bundle of an isometric submersion; the
shipped scenarios, the trivial product and the Hopf fibrations, all project
(x1, x2, x3) -> (x1, x2), and W is the kernel of the linearized
horizontal-cone condition, from one jet pass of the metric.  Both read
7-point stencils of spacing `_REDUCTION_H` off windows transported at
that spacing, 4 RK4 steps per spacing (`jacobi.WINDOW_STEP`); a window
read by one stencil at t = 0 reaches 3 spacings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import fanning as fc
from . import jacobi as jb
from . import metrics as mx
from . import numkit as nk
from .errors import (DegenerateRestriction, DimensionMismatch,
                     HorizontalityViolation, InternalInconsistency,
                     NotUnitSpeed, RankDeficient, TransversalityFailure)
from .jets import jet_variables, stack

__all__ = [
    "CoisotropicSetup",
    "ReducedCurve",
    "OneillData",
    "symplectic_complement",
    "coisotropic_setup",
    "reduce_curve",
    "oneill_endomorphism",
    "oneill_formula",
    "SubmersionScenario",
    "submersion_scenario",
    "list_scenarios",
    "SubmersionResult",
    "horizontal_part",
    "submersion_curvature",
    "ContactSplit",
    "contact_reduce",
]

_SV_REL_TOL = 1e-9   # singular-value threshold for joint nullspaces
_REDUCTION_H = 1e-2  # spacing of the 7-point stencils of curve reductions
_GAUGE_BOUND = 1e6   # graph frames grow as the secant of the angle to U_c


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the nullspace of M (columns)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > _SV_REL_TOL * np.max(s, initial=0.0)))
    return Vt[rank:].T


def symplectic_complement(omega: fc.SymplecticForm,
                          Wbasis: np.ndarray) -> np.ndarray:
    """Basis of the omega-annihilator of span(Wbasis)."""
    Wbasis = np.asarray(Wbasis, dtype=float)
    if Wbasis.ndim != 2:
        raise DimensionMismatch("Wbasis must be a matrix of columns")
    s = np.linalg.svd(Wbasis, compute_uv=False)   # empty for no columns
    if np.min(s, initial=np.inf) <= _SV_REL_TOL * np.max(s, initial=0.0):
        raise RankDeficient("Wbasis does not have full column rank")
    return _nullspace(Wbasis.T @ omega.Omega)


@dataclass(frozen=True)
class CoisotropicSetup:
    """Coisotropic subspace with its annihilator and a quotient basis.

    quotient_basis D holds representatives (orthonormal columns inside W,
    orthogonal to W^omega) of a basis of W / W^omega, and omega_R is the
    reduced form D^T Omega D (None for the trivial quotient of a Lagrangian
    W), so reduced curves can be fed straight back into the Lagrangian
    machinery.
    """

    omega: fc.SymplecticForm
    Wbasis: np.ndarray
    WomegaBasis: np.ndarray
    C: np.ndarray            # (W^omega)^T Omega, so W = ker C
    quotient_basis: np.ndarray
    omega_R: Optional[fc.SymplecticForm]

    def project(self, cols: np.ndarray) -> np.ndarray:
        """Quotient coordinates c = D^T w of columns w in W; the trivial
        quotient of a Lagrangian W gives a (0, k) block."""
        Omega = self.omega.Omega
        off = np.max(np.abs(self.C @ cols), initial=0.0)
        if off > 1e-8 * np.max(np.abs(Omega)) * max(
                1.0, np.max(np.abs(cols), initial=0.0)):
            raise TransversalityFailure("columns do not lie in W")
        return self.quotient_basis.T @ cols


def coisotropic_setup(omega: fc.SymplecticForm,
                      Wbasis: np.ndarray) -> CoisotropicSetup:
    """Validate coisotropy (W^omega isotropic) and take the quotient
    basis from one SVD of the parts of W orthogonal to W^omega."""
    Wbasis = np.asarray(Wbasis, dtype=float)
    comp = symplectic_complement(omega, Wbasis)
    if np.max(np.abs(comp.T @ omega.Omega @ comp), initial=0.0) > (
            1e-8 * np.max(np.abs(omega.Omega))):
        raise TransversalityFailure(
            "subspace is not coisotropic: W^omega not inside W")
    q = 2 * Wbasis.shape[1] - Wbasis.shape[0]
    U, _, _ = np.linalg.svd(Wbasis - comp @ (comp.T @ Wbasis),
                            full_matrices=False)
    D = U[:, :q]   # empty for a Lagrangian W (splittings still work)
    omega_R = fc.SymplecticForm(D.T @ omega.Omega @ D) if q else None
    return CoisotropicSetup(omega=omega, Wbasis=Wbasis, WomegaBasis=comp,
                            C=comp.T @ omega.Omega, quotient_basis=D,
                            omega_R=omega_R)


# ---------------------------------------------------------------------------
# intersections and splittings
# ---------------------------------------------------------------------------

def _plane_meets(A: np.ndarray, B: np.ndarray):
    """Coefficient basis (in the A-frame) of span(A) inter span(B)."""
    beta = _nullspace(np.hstack([A, -B]))[:A.shape[1], :]
    # orthonormalize the coefficient basis
    U, s, _ = np.linalg.svd(beta, full_matrices=False)
    keep = int(np.sum(s > _SV_REL_TOL * np.max(s, initial=0.0)))
    return U[:, :keep]


def _restricted_wronskian(setup: CoisotropicSetup, ft: fc.FrameTriple,
                          beta_h: np.ndarray) -> np.ndarray:
    """Wronskian of the triple, checked nondegenerate on span(A beta_h)."""
    Wmat = fc.wronskian(ft, setup.omega)
    s = np.linalg.svd(beta_h.T @ Wmat @ beta_h, compute_uv=False)
    if np.min(s, initial=np.inf) <= 1e-9 * max(1.0, np.max(s, initial=0.0)):
        raise DegenerateRestriction(
            "Wronskian degenerate on the intersection with W")
    return Wmat


def _gauge_solve(L, Lb, U, A, Ab):
    """beta' of a section A beta of the plane cut out by L beta = 0, in the
    graph gauge over span U: the square system L beta' = -Lb (Lb the
    derivative of L, times beta) and U^T A beta' = -U^T Ab."""
    return nk.stacked(np.linalg.solve, TransversalityFailure,
                      lambda i: "section derivative system is singular",
                      np.vstack([L, U.T @ A]), -np.vstack([Lb, U.T @ Ab]))


@dataclass
class ReducedCurve:
    """Reduced frame stencil plus the graph-gauge intersection frames
    h_frames[j] = A_j @ betas[j], whose center frame is orthonormal, and
    the full curve's Wronskian at the center node."""

    frames: fc.FrameStencil
    invariants: fc.FanningInvariants
    h_frames: tuple          # ambient frames of l(t) inter W at each node
    betas: tuple             # their coefficients in the curve's frames
    beta_dots: tuple         # the coefficients' derivatives in the gauge
    center_index: int
    center_wronskian: np.ndarray


def reduce_curve(setup: CoisotropicSetup, fs: fc.FrameStencil) -> ReducedCurve:
    """Reduce a stencil of frame triples by the coisotropic subspace.

    At each node l inter W must have dimension n - k, that is, l misses
    W^omega, and the Wronskian must be nondegenerate on it.  Frames of the
    intersection are graphs over the center one: from a coefficient basis b,
    beta = b (U_c^T A b)^-1 (the gauge adds no quadratic distortion of its
    own, which keeps the cancelling pieces of the Schwarzian small when the
    curve is nearly straight).  Their first and second derivatives
    differentiate C A beta = 0 (`_gauge_solve`), so the reduced triple is as
    accurate as the input one (the only stencil left is the usual
    P-derivative inside the invariant computation).  A Lagrangian W, whose
    quotient is trivial, is refused (`DegenerateRestriction`).
    """
    if setup.omega_R is None:
        raise DegenerateRestriction(
            "W is Lagrangian: its quotient is trivial, no curve to reduce")
    p, C = setup.quotient_basis.shape[1] // 2, setup.C
    c_idx = len(fs.triples) // 2
    bases, wronskians = [], []
    for ft in fs.triples:
        beta_j = _plane_meets(ft.A, setup.Wbasis)
        if beta_j.shape[1] != p:
            raise TransversalityFailure(
                f"intersection with W has dimension {beta_j.shape[1]}, "
                f"expected {p}")
        wronskians.append(_restricted_wronskian(setup, ft, beta_j))
        bases.append(beta_j)
    U_c, _, _ = np.linalg.svd(fs.triples[c_idx].A @ bases[c_idx],
                              full_matrices=False)
    failed = "graph gauge failed: subspaces moved too far across the stencil"
    h_frames, betas, beta_dots, triples = [], [], [], []
    for b, ft in zip(bases, fs.triples):
        beta = b @ nk.stacked(np.linalg.inv, TransversalityFailure,
                              lambda i: failed, U_c.T @ ft.A @ b)
        H = ft.A @ beta
        if not np.max(np.abs(H)) < _GAUGE_BOUND:
            raise TransversalityFailure(failed)
        h_frames.append(H)
        betas.append(beta)
        CA, vel = C @ ft.A, ft.Adot @ beta
        beta_dot = _gauge_solve(CA, C @ vel, U_c, ft.A, vel)
        beta_dots.append(beta_dot)
        acc = ft.Addot @ beta + 2.0 * ft.Adot @ beta_dot
        Hddot = acc + ft.A @ _gauge_solve(CA, C @ acc, U_c, ft.A, acc)
        triples.append(fc.FrameTriple(*(setup.project(M) for M in (
            H, vel + ft.A @ beta_dot, Hddot))))
    frames = fc.FrameStencil(fs.stencil, tuple(triples))
    inv = fc.invariants(frames, setup.omega_R)
    return ReducedCurve(frames=frames, invariants=inv,
                        h_frames=tuple(h_frames), betas=tuple(betas),
                        beta_dots=tuple(beta_dots), center_index=c_idx,
                        center_wronskian=wronskians[c_idx])


@dataclass
class OneillData:
    """O'Neill endomorphism at the stencil center, in the frame basis
    (A beta_h, A beta_v); its diagonal blocks are zero by construction."""

    matrix: np.ndarray       # n x n in the basis (A beta_h, A beta_v)
    beta_h: np.ndarray       # n x p: the reduction's center coefficients
    beta_v: np.ndarray       # n x (n-p): beta_h^T Wmat beta_v = 0
    W_split: np.ndarray      # Wronskian in the same basis
    symmetry_residual: float  # max |S - S^T| for S = W_split @ matrix


def oneill_endomorphism(setup: CoisotropicSetup, fs: fc.FrameStencil,
                        reduced: ReducedCurve) -> OneillData:
    """The O'Neill endomorphism at the center of the stencil, whose
    reduction is `reduced`.

    The W-part is the reduction's center frame H = A beta_h, with beta_h'
    from its graph gauge; the W-orthogonal part V = A beta_v has
    beta_h^T W beta_v = 0 (W the reduction's `center_wronskian`), and
    beta_v' differentiates that section in the graph gauge over span V
    (`_gauge_solve`).  The endomorphism sends H to the V-part of Hdot and V
    to minus the H-part of Vdot, both read off one basis change to
    [H | V | Hor] (Hor the horizontal frame of the curve), so it
    interchanges the two parts.
    """
    c_idx = reduced.center_index
    ft, H = fs.triples[c_idx], reduced.h_frames[c_idx]
    beta_h, beta_h_dot = reduced.betas[c_idx], reduced.beta_dots[c_idx]
    Omega, (n, p) = setup.omega.Omega, beta_h.shape
    Wmat = reduced.center_wronskian
    beta_v = _nullspace(beta_h.T @ Wmat)
    V = ft.A @ beta_v

    Wdot = ft.Adot.T @ Omega @ ft.Adot + ft.A.T @ Omega @ ft.Addot
    Lb = (beta_h_dot.T @ Wmat + beta_h.T @ (0.5 * (Wdot + Wdot.T))) @ beta_v
    beta_v_dot = _gauge_solve(beta_h.T @ Wmat, Lb, V, ft.A, ft.Adot @ beta_v)

    beta = np.hstack([beta_h, beta_v])
    _, Hor, _, _ = fc.horizontal_data(ft)
    X = np.linalg.solve(np.hstack([H, V, Hor]), ft.Adot @ beta
                        + ft.A @ np.hstack([beta_h_dot, beta_v_dot]))
    A_mat = np.zeros((n, n))
    A_mat[p:, :p] = X[p:n, :p]
    A_mat[:p, p:] = -X[:p, p:]
    W_split = beta.T @ Wmat @ beta
    sym = W_split @ A_mat
    return OneillData(matrix=A_mat, beta_h=beta_h, beta_v=beta_v,
                      W_split=W_split,
                      symmetry_residual=float(np.max(np.abs(sym - sym.T))))


def oneill_formula(setup: CoisotropicSetup, fs: fc.FrameStencil,
                   reduced: ReducedCurve, oneill: OneillData, a_coeff):
    """Both sides of the curvature comparison for a in l(0) inter W.

    a_coeff are the coefficients of a in the gauge-fixed intersection frame;
    returns (reduced side, full side + 3 W(Aa, Aa)).
    """
    a_coeff = np.asarray(a_coeff, dtype=float)
    alpha = reduced.betas[reduced.center_index] @ a_coeff
    lhs, full_term, corr = _oneill_pairings(
        reduced, oneill, fc.invariants(fs, setup.omega), a_coeff, alpha)
    return lhs, full_term + corr


def _oneill_pairings(reduced: ReducedCurve, oneill: OneillData,
                     inv: fc.FanningInvariants, a_coeff, alpha):
    """Unnormalized pairings (W_R(K_R a, a), W(K a, a), 3 W(Aa, Aa)).

    a is a_coeff in the reduced frame and alpha in the full frame at the
    center, where inv are the full curve's invariants; its (A_h, A_v)
    coordinates solve [beta_h | beta_v] c = alpha.
    """
    K_R = 0.5 * reduced.invariants.Schwarzian
    lhs = float((K_R @ a_coeff) @ reduced.invariants.W @ a_coeff)
    K_full = 0.5 * inv.Schwarzian
    full_term = float((K_full @ alpha) @ inv.W @ alpha)

    Aa = oneill.matrix @ np.linalg.solve(
        np.hstack([oneill.beta_h, oneill.beta_v]), alpha)
    corr = float(3.0 * (Aa @ oneill.W_split @ Aa))
    return lhs, full_term, corr


# ---------------------------------------------------------------------------
# contact reduction: the coisotropic hyperplane ker dF
# ---------------------------------------------------------------------------

@dataclass
class ContactSplit:
    """Splitting of a Jacobi frame into its contact part and span[C - tS].

    r is the complementary vector C - tS; the residual fields quantify how
    well the decomposition identities hold at this time, alpha_residual that
    the contact part l(t) inter ker(dF) lies in ker(alpha).
    """

    r: np.ndarray
    K_block: np.ndarray
    Kc_block: np.ndarray
    kr_residual: float
    block_residual: float
    w_residual: float
    alpha_residual: float


def contact_reduce(orbit: jb.OrbitData, t: float) -> ContactSplit:
    """Split the Jacobi plane at t into l(t) inter ker(dF) and r(t) = C - tS.

    Requires a unit-speed base point.  ker(dF) is coisotropic with
    annihilator span(S), so the contact part is the reduction of the Jacobi
    curve by it; its curvature block must agree with the corresponding block
    of the full curve, and K(t) r(t) must vanish.  g and F at v0 come
    from the orbit (its form, F^2 = g(y, y)), dF and G from one order-2
    energy jet; the frames read the order-6 stencil of the orbit's
    spacing.  Since A = M^-1 Vert, r's centre-frame coordinates are the
    y-block of M(t) r; its x-block, zero in the Jacobi plane, is checked.
    """
    metric = orbit.metric
    n = metric.n
    v0 = orbit.v0
    g0 = orbit.omega.Omega[:n, n:]
    F0 = math.sqrt(v0.y @ g0 @ v0.y)
    if abs(F0 - 1.0) > 1e-9:
        raise NotUnitSpeed(f"contact reduction needs F(v0) = 1, got {F0}")

    J = mx.energy_jet(metric, v0.x, v0.y, order=2)
    G0, _ = mx._jet_spray(J, g0, v0.y)
    r = (np.concatenate([np.zeros(n), v0.y])
         - t * np.concatenate([v0.y, -2.0 * G0]))
    dF_row = J.g / (2.0 * F0)
    alpha_row = np.concatenate([(g0 @ v0.y[..., None])[..., 0], np.zeros(n)])

    sample = jb.jacobi_frame(orbit, t, order=6)
    setup = coisotropic_setup(orbit.omega, _nullspace(dF_row))
    reduced = reduce_curve(setup, sample.frames)
    c_idx = reduced.center_index

    # coefficients of [contact part | r] in the center frame; beta is known
    Mr = orbit.state(t)[2] @ r
    r_norm = np.linalg.norm(r)
    if np.linalg.norm(Mr[:n]) > 1e-6 * max(1.0, r_norm):
        raise InternalInconsistency(f"C - tS left the Jacobi plane at t={t}")
    beta = reduced.betas[c_idx]
    adapted = np.column_stack([beta, Mr[n:]])

    inv = sample.invariants
    K_ad = np.linalg.solve(adapted, 0.5 * inv.Schwarzian @ adapted)
    K_block = K_ad[:n - 1, :n - 1]
    Kc_block = 0.5 * reduced.invariants.Schwarzian
    return ContactSplit(
        r=r, K_block=K_block, Kc_block=Kc_block,
        kr_residual=float(np.linalg.norm(inv.K @ r) / max(r_norm, 1e-300)),
        block_residual=float(np.max(np.abs(K_block - Kc_block))),
        w_residual=float(np.max(np.abs(beta.T @ inv.W @ beta
                                       - reduced.invariants.W))),
        alpha_residual=max(float(np.max(np.abs(alpha_row @ H)))
                           for H in reduced.h_frames))


# ---------------------------------------------------------------------------
# submersion scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmersionScenario:
    """Isometric submersion by the chart projection (x1, x2, x3) -> (x1, x2).

    The fiber is spanned by the constant column d/dx3, x[FIBER] the one
    coordinate the projection drops, and the pushforward of (x, y) is
    (x[:2], y[:2]).  constraint_grad(x, y) returns the 1 x 2n Jacobian of
    the horizontal constraint c(x, y) = g(x)(y, d/dx3); g sees jets in the
    n x-variables only, and y enters as a float.  default_flag() is the
    horizontal flag the CLI and the selftest run at suggested_x.
    """

    FIBER: ClassVar[int] = 2   # index of the fiber coordinate x3
    name: str
    total: mx.MetricSpec
    base: mx.MetricSpec
    suggested_x: np.ndarray

    def fiber(self, x):   # the column d/dx3, the same at every x
        return np.eye(self.total.n)[:, [self.FIBER]]

    def default_flag(self):
        """Horizontal (v, w) at suggested_x: the parts of (1, 0.4, 0) and
        (0.3, 1, 0) g-orthogonal to the fiber."""
        x = self.suggested_x
        g = np.array(self.total.g(list(x)), dtype=float)
        k = self.fiber(list(x))
        return (mx.PhasePoint(x, horizontal_part(g, k, [1.0, 0.4, 0.0])),
                horizontal_part(g, k, [0.3, 1.0, 0.0]))

    def constraint_grad(self, x, y):
        """Jacobian S+(1, 2n) of c = y^T g k in (x, y), for the constant
        fiber k = d/dx3: the row [y^T dg[:, FIBER], g[FIBER, :]] from one
        pass of x-jets of g, contracted with the float y."""
        n, f = self.total.n, self.FIBER
        S, xs = np.shape(x)[:-1], jet_variables(x, order=2)
        g, dg, _ = stack([e for row in self.total.g(xs) for e in row], S, n)
        g, dg = g.reshape(S + (n, n)), dg.reshape(S + (n, n, n))
        return np.concatenate(
            [np.einsum("...i,...ip->...p", y, dg[..., :, f, :]),
             g[..., f, :]], axis=-1)[..., None, :]


def _trivial_scenario() -> SubmersionScenario:
    total = mx.zoo_metric("euclidean", n=3)
    base = mx.zoo_metric("euclidean", n=2)
    return SubmersionScenario(
        name="trivial",
        total=total, base=base,
        suggested_x=np.array([0.1, -0.2, 0.4]),
    )


def _hopf_scenario(radius: float) -> SubmersionScenario:
    # Euler-angle chart (theta, phi, psi) of the round 3-sphere; the fiber
    # direction is d/dpsi and the base is the round 2-sphere of half radius
    s2 = radius * radius / 4.0

    def g_total(x):
        c = nk.cos(x[0])
        return [[s2, 0.0, 0.0],
                [0.0, s2, s2 * c],
                [0.0, s2 * c, s2]]

    def g_base(x):
        s = nk.sin(x[0])
        return [[s2, 0.0], [0.0, s2 * s * s]]

    box3 = mx.Box(np.array([0.35, -8.0, -8.0]), np.array([math.pi - 0.35, 8.0, 8.0]))
    box2 = mx.Box(np.array([0.35, -8.0]), np.array([math.pi - 0.35, 8.0]))
    total = mx.riemannian_metric(g_total, 3, box3,
                                 name=f"hopf-total(r={radius})")
    base = mx.riemannian_metric(g_base, 2, box2,
                                name=f"hopf-base(r={radius})")
    return SubmersionScenario(
        name="hopf" if radius == 1.0 else "hopf-scaled",
        total=total, base=base,
        suggested_x=np.array([1.2, 0.4, 0.7]),
    )


_SCENARIOS = {
    "trivial": _trivial_scenario,
    "hopf": lambda: _hopf_scenario(1.0),
    "hopf-scaled": lambda: _hopf_scenario(2.0),
}


def submersion_scenario(name: str) -> SubmersionScenario:
    if name not in _SCENARIOS:
        raise DimensionMismatch(
            f"unknown submersion scenario {name!r}; known: "
            + ", ".join(sorted(_SCENARIOS)))
    return _SCENARIOS[name]()


def list_scenarios():
    return sorted(_SCENARIOS)


@dataclass
class SubmersionResult:
    scenario: str
    K_base: float
    K_total: float
    correction: float

    @property
    def residual(self) -> float:
        return abs(self.K_base - self.K_total - self.correction)


def horizontal_part(g, fiber, w) -> np.ndarray:
    """Project w off the fiber columns, g-orthogonally, one column at a time."""
    w = np.asarray(w, dtype=float)
    for col in np.asarray(fiber, dtype=float).T:
        w = w - (w @ g @ col) / (col @ g @ col) * col
    return w


def submersion_curvature(scenario: SubmersionScenario, v, w
                         ) -> SubmersionResult:
    """Curvature comparison along a horizontal flag of a submersion.

    v must lie in the horizontal cone (the norms agree to 1e-9 relative)
    and is scaled to F = 1; w is projected onto the horizontal tangent
    space orthogonal to v and normalized.  The coisotropic subspace is the
    tangent space of the horizontal-cone bundle at v, the kernel of the
    scenario's constraint linearization.  The window reaches the 3
    stencil spacings it is read at, and g at v is the g block of its form.
    """
    total = scenario.total
    n = total.n
    x = np.asarray(v.x, dtype=float)
    y = np.asarray(v.y, dtype=float)
    F1 = total.F_value(x, y)
    F2 = scenario.base.F_value(x[:2], y[:2])
    if abs(F1 - F2) > 1e-9 * F1:
        raise HorizontalityViolation(
            f"F1(v) = {F1} but F2(f_* v) = {F2}: v is not horizontal")
    y = y / F1
    v = mx.PhasePoint(x, y)

    Wbasis = _nullspace(scenario.constraint_grad(x, y))

    orbit = jb.transport(total, v, 3, _REDUCTION_H)
    g = orbit.omega.Omega[:n, n:]
    # project w onto the horizontal space, g-orthogonal to v, unit length
    w = horizontal_part(g, np.column_stack([scenario.fiber(list(x)), y]), w)
    norm = math.sqrt(w @ g @ w)
    if norm < 1e-10:
        raise HorizontalityViolation("w degenerates after horizontalization")
    w = w / norm

    sample = jb.jacobi_frame(orbit, 0.0, order=6)
    setup = coisotropic_setup(orbit.omega, Wbasis)
    reduced = reduce_curve(setup, sample.frames)
    oneill = oneill_endomorphism(setup, sample.frames, reduced)

    a_amb = np.concatenate([np.zeros(n), w])
    H_c = reduced.h_frames[reduced.center_index]   # orthonormal: H_c = U_c
    a_coeff = H_c.T @ a_amb
    if np.max(np.abs(H_c @ a_coeff - a_amb)) > 1e-7:
        raise HorizontalityViolation(
            "flag vector does not lie in the reduced part of the Jacobi plane")

    alpha = w  # coordinates of (0, w) in the vertical frame at t = 0
    reduced_term, full_term, corr = _oneill_pairings(
        reduced, oneill, sample.invariants, a_coeff, alpha)
    norm_full = float(alpha @ sample.invariants.W @ alpha)
    norm_reduced = float(a_coeff @ reduced.invariants.W @ a_coeff)
    return SubmersionResult(scenario=scenario.name,
                            K_base=reduced_term / norm_reduced,
                            K_total=full_term / norm_full,
                            correction=corr / norm_full)
