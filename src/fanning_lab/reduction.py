"""Linear symplectic reduction of fanning curves and submersion curvature.

Given a coisotropic subspace W of a symplectic vector space, Lagrangian
planes descend to the quotient W / W^omega.  Reducing a fanning curve
plane-by-plane produces a fanning curve downstairs whose Wronskian is the
restriction of the original one; the defect between the reduced and the
original curvature pairings is measured by the O'Neill endomorphism, whose
square enters with the famous factor 3.

Two front-ends instantiate this.  The contact splitting takes W = ker dF,
the tangent space of the unit sphere bundle, whose annihilator is the spray
S: the reduced curve is the contact part l(t) inter ker dF of the Jacobi
curve, complementary to C - tS.  The submersion front-end takes W the
tangent space of the horizontal-cone bundle of an isometric submersion; the
shipped scenarios, the trivial product and the Hopf fibrations, all project
(x1, x2, x3) -> (x1, x2), and W is the kernel of the linearized
horizontal-cone conditions, taken from one jet pass of the metric and the
fiber.  Both read 7-point stencils of width `_REDUCTION_H`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    "HVSplit",
    "ReducedCurve",
    "OneillData",
    "symplectic_complement",
    "coisotropic_setup",
    "symplectic_gram_schmidt",
    "reduce_curve",
    "hv_split",
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
_REDUCTION_H = 1e-2  # width of the 7-point stencils of curve-level reductions


def _nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the nullspace of M (columns)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U, s, Vt = np.linalg.svd(M)
    if s.size == 0:
        return np.eye(M.shape[1])
    rank = int(np.sum(s > _SV_REL_TOL * s[0]))
    return Vt[rank:].T


def _column_space_contains(big: np.ndarray, cols: np.ndarray) -> bool:
    if cols.shape[1] == 0:
        return True
    coeff, *_ = np.linalg.lstsq(big, cols, rcond=None)
    return float(np.max(np.abs(big @ coeff - cols))) < 1e-8 * max(
        1.0, float(np.max(np.abs(cols))))


def symplectic_complement(omega: fc.SymplecticForm,
                          Wbasis: np.ndarray) -> np.ndarray:
    """Basis of the omega-annihilator of span(Wbasis)."""
    Wbasis = np.asarray(Wbasis, dtype=float)
    if Wbasis.ndim != 2:
        raise DimensionMismatch("Wbasis must be a matrix of columns")
    if Wbasis.shape[1] > 0:
        s = np.linalg.svd(Wbasis, compute_uv=False)
        if s[-1] <= _SV_REL_TOL * s[0]:
            raise RankDeficient("Wbasis does not have full column rank")
    return _nullspace(Wbasis.T @ omega.Omega)


@dataclass(frozen=True)
class CoisotropicSetup:
    """Coisotropic subspace with its annihilator and a Darboux quotient basis.

    quotient_basis holds representatives (columns inside W) of a basis of
    W / W^omega on which the reduced form is the standard J, so reduced
    curves can be fed straight back into the Lagrangian machinery.
    """

    omega: fc.SymplecticForm
    Wbasis: np.ndarray
    WomegaBasis: np.ndarray
    quotient_basis: np.ndarray
    omega_R: Optional[fc.SymplecticForm]

    @property
    def quotient_dim(self) -> int:
        return self.quotient_basis.shape[1]

    def project(self, cols: np.ndarray) -> np.ndarray:
        """Quotient coordinates of columns lying in W."""
        basis = np.hstack([self.quotient_basis, self.WomegaBasis])
        coeff, *_ = np.linalg.lstsq(basis, cols, rcond=None)
        q = self.quotient_basis.shape[1]
        res = np.max(np.abs(basis @ coeff - cols)) if cols.size else 0.0
        if res > 1e-8 * max(1.0, float(np.max(np.abs(cols)))):
            raise TransversalityFailure("columns do not lie in W")
        return coeff[:q]


def symplectic_gram_schmidt(omega: np.ndarray,
                            basis: np.ndarray) -> np.ndarray:
    """Darboux basis of the span of `basis` for the form omega.

    Requires the restriction of omega to the span to be nondegenerate;
    returns columns (e_1..e_m, f_1..f_m) with omega(e_i, f_j) = delta_ij.
    """
    vecs = [basis[:, j].copy() for j in range(basis.shape[1])]
    es, fs = [], []
    while vecs:
        e = vecs.pop(0)
        if np.linalg.norm(e) < 1e-12:
            continue
        pairings = [abs(e @ omega @ v) for v in vecs]
        if not pairings or max(pairings) < 1e-12 * max(1.0, np.linalg.norm(e)):
            raise DegenerateRestriction(
                "omega is degenerate on the requested span")
        j = int(np.argmax(pairings))
        f = vecs.pop(j)
        f = f / (e @ omega @ f)
        rest = []
        for v in vecs:
            v = v - (e @ omega @ v) * f + (f @ omega @ v) * e
            rest.append(v)
        vecs = rest
        es.append(e)
        fs.append(f)
    return np.stack(es + fs, axis=1)


def coisotropic_setup(omega: fc.SymplecticForm,
                      Wbasis: np.ndarray) -> CoisotropicSetup:
    """Validate coisotropy and prepare the Darboux quotient basis."""
    Wbasis = np.asarray(Wbasis, dtype=float)
    comp = symplectic_complement(omega, Wbasis)
    if not _column_space_contains(Wbasis, comp):
        raise TransversalityFailure(
            "subspace is not coisotropic: W^omega not inside W")
    # representatives of W / W^omega: the part of W orthogonal to W^omega
    if comp.shape[1]:
        coeff, *_ = np.linalg.lstsq(comp, Wbasis, rcond=None)
        resid = Wbasis - comp @ coeff
    else:
        resid = Wbasis
    q = 2 * Wbasis.shape[1] - Wbasis.shape[0]
    if q == 0:
        # Lagrangian W: the quotient is trivial (splittings still make sense)
        return CoisotropicSetup(omega=omega, Wbasis=Wbasis, WomegaBasis=comp,
                                quotient_basis=np.zeros((Wbasis.shape[0], 0)),
                                omega_R=None)
    U, s, _ = np.linalg.svd(resid, full_matrices=False)
    reps = U[:, :q]
    darboux = symplectic_gram_schmidt(omega.Omega, reps)
    omega_R = fc.SymplecticForm(darboux.T @ omega.Omega @ darboux)
    return CoisotropicSetup(omega=omega, Wbasis=Wbasis, WomegaBasis=comp,
                            quotient_basis=darboux, omega_R=omega_R)


# ---------------------------------------------------------------------------
# intersections and splittings
# ---------------------------------------------------------------------------

def _plane_meets(A: np.ndarray, B: np.ndarray):
    """Coefficient basis (in the A-frame) of span(A) inter span(B)."""
    if B.shape[1] == 0:
        return np.zeros((A.shape[1], 0))
    stacked = np.hstack([A, -B])
    null = _nullspace(stacked)
    beta = null[:A.shape[1], :]
    if beta.shape[1] == 0:
        return np.zeros((A.shape[1], 0))
    # orthonormalize the coefficient basis
    U, s, _ = np.linalg.svd(beta, full_matrices=False)
    keep = int(np.sum(s > _SV_REL_TOL * s[0]))
    return U[:, :keep]


def _check_conditions(setup: CoisotropicSetup, ft: fc.FrameTriple,
                      expected_dim: int):
    """Transversality to W^omega and nondegeneracy of W on the intersection."""
    meet_ann = _plane_meets(ft.A, setup.WomegaBasis)
    if meet_ann.shape[1] > 0:
        raise TransversalityFailure(
            "curve plane meets the annihilator of W")
    beta_h = _plane_meets(ft.A, setup.Wbasis)
    if beta_h.shape[1] != expected_dim:
        raise TransversalityFailure(
            f"intersection with W has dimension {beta_h.shape[1]}, "
            f"expected {expected_dim}")
    _restricted_wronskian(setup, ft, beta_h)
    return beta_h


def _restricted_wronskian(setup: CoisotropicSetup, ft: fc.FrameTriple,
                          beta_h: np.ndarray) -> np.ndarray:
    """Wronskian of the triple, checked nondegenerate on span(A beta_h)."""
    Wmat = fc.wronskian(ft, setup.omega)
    if beta_h.shape[1]:
        s = np.linalg.svd(beta_h.T @ Wmat @ beta_h, compute_uv=False)
        if s[-1] <= 1e-9 * max(1.0, s[0]):
            raise DegenerateRestriction(
                "Wronskian degenerate on the intersection with W")
    return Wmat


def _graph_frames(Us, c_idx, H_c):
    """Smooth frames of moving subspaces through H_c, in graph gauge.

    Each subspace (orthonormal basis U_j) is written as a graph over the
    center subspace; the frame is the graph image of the center frame.  The
    gauge adds no quadratic distortion of its own, which keeps the cancelling
    pieces of the Schwarzian small when the curve is nearly straight.
    """
    U_c = Us[c_idx]
    m = U_c.shape[0]
    Q_c = _nullspace(U_c.T)
    C0 = U_c.T @ H_c
    I = np.eye(m)
    out = []
    for U_j in Us:
        P_j = U_j @ U_j.T
        M = (I - P_j) @ Q_c
        rhs = -(I - P_j) @ U_c
        S_j, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        Hj = (U_c + Q_c @ S_j) @ C0
        if np.max(np.abs((I - P_j) @ Hj)) > 1e-7 * max(1.0, np.max(np.abs(Hj))):
            raise TransversalityFailure(
                "graph gauge failed: subspaces moved too far across the stencil")
        out.append(Hj)
    return out


@dataclass
class ReducedCurve:
    """Reduced frame stencil plus the ambient intersection frames."""

    frames: fc.FrameStencil
    invariants: fc.FanningInvariants
    h_frames: tuple          # ambient frames of l(t) inter W at each node
    center_index: int


def _section_derivatives(setup, ft, H, U_c, with_second=True):
    """Analytic derivatives of the intersection section through H at one node.

    H spans l(t) inter W at the node, written in the center graph gauge.
    Differentiating the membership conditions H = A beta = (col of W) gives a
    linear system for beta-dot; the gauge is pinned by U_c^T Hdot = 0, the
    defining property of a graph-gauge frame.  One more differentiation of
    the same system yields the second derivative: no stencils are involved.
    """
    A, Adot, Addot = ft.A, ft.Adot, ft.Addot
    n = A.shape[1]
    k = setup.Wbasis.shape[1]
    beta, *_ = np.linalg.lstsq(A, H, rcond=None)

    system = np.vstack([np.hstack([A, -setup.Wbasis]),
                        np.hstack([U_c.T @ A, np.zeros((U_c.shape[1], k))])])

    def solve(rhs_top, rhs_gauge):
        rhs = np.vstack([rhs_top, rhs_gauge])
        sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.max(np.abs(system @ sol - rhs)) > 1e-7 * max(
                1.0, float(np.max(np.abs(rhs)))):
            raise TransversalityFailure(
                "intersection derivative system is inconsistent")
        return sol[:n]

    beta_dot = solve(-Adot @ beta, -U_c.T @ (Adot @ beta))
    Hdot = Adot @ beta + A @ beta_dot
    if not with_second:
        return beta, beta_dot, Hdot, None
    acc = Addot @ beta + 2.0 * Adot @ beta_dot
    beta_ddot = solve(-acc, -U_c.T @ acc)
    Hddot = acc + A @ beta_ddot
    return beta, beta_dot, Hdot, Hddot


def reduce_curve(setup: CoisotropicSetup, fs: fc.FrameStencil) -> ReducedCurve:
    """Reduce a stencil of frame triples by the coisotropic subspace.

    Frames of the intersection are gauge-fixed as graphs over the center
    subspace; their first and second derivatives come from differentiating
    the membership conditions analytically, so the reduced triple is as
    accurate as the input one (the only stencil left is the usual
    P-derivative inside the invariant computation).
    """
    p = setup.quotient_dim // 2
    nodes = fs.stencil.nodes
    c_idx = len(nodes) // 2
    Us = []
    for ft in fs.triples:
        beta_j = _check_conditions(setup, ft, p)
        Uj, _, _ = np.linalg.svd(ft.A @ beta_j, full_matrices=False)
        Us.append(Uj)
    U_c = Us[c_idx]
    h_frames = _graph_frames(Us, c_idx, U_c)

    triples = []
    for j, ft in enumerate(fs.triples):
        _, _, Hdot, Hddot = _section_derivatives(setup, ft, h_frames[j], U_c)
        triples.append(fc.FrameTriple(setup.project(h_frames[j]),
                                      setup.project(Hdot),
                                      setup.project(Hddot)))
    frames = fc.FrameStencil(fs.stencil, tuple(triples))
    inv = fc.invariants(frames, setup.omega_R)
    return ReducedCurve(frames=frames, invariants=inv,
                        h_frames=tuple(h_frames), center_index=c_idx)


@dataclass
class HVSplit:
    """Splitting of a curve plane into its W-part and the W-orthogonal rest."""

    beta_h: np.ndarray       # n x p coefficients of l inter W in the frame
    beta_v: np.ndarray       # n x (n-p) coefficients of the W-orthogonal part
    Hframe_frak: np.ndarray  # ambient 2n x p
    Vframe_frak: np.ndarray  # ambient 2n x (n-p)
    P_h: np.ndarray          # projector onto the W-part
    P_v: np.ndarray          # projector onto the orthogonal part
    P_hor: np.ndarray        # projector onto the horizontal complement
    Wmat: np.ndarray         # Wronskian in the frame basis


def hv_split(setup: CoisotropicSetup, ft: fc.FrameTriple) -> HVSplit:
    """Split l(t) = (l inter W) + W-orthogonal complement, with projectors.

    Projectors refer to the decomposition of the whole space into the two
    parts of the plane plus the horizontal complement of the curve.  Only
    nondegeneracy of the Wronskian on the intersection is required here, so
    the split also covers the boundary case of a Lagrangian W equal to the
    plane itself (whole plane, trivial complement).
    """
    beta_h = _plane_meets(ft.A, setup.Wbasis)
    Wmat = _restricted_wronskian(setup, ft, beta_h)
    beta_v = _nullspace(beta_h.T @ Wmat)
    p = beta_h.shape[1]
    H = ft.A @ beta_h
    V = ft.A @ beta_v
    _, Hor, _, _ = fc.horizontal_data(ft)
    n2 = ft.A.shape[0]
    T = np.hstack([H, V, Hor])
    Tinv = np.linalg.inv(T)
    P_h = T[:, :p] @ Tinv[:p, :]
    nv = beta_v.shape[1]
    P_v = T[:, p:p + nv] @ Tinv[p:p + nv, :]
    P_hor = np.eye(n2) - P_h - P_v
    return HVSplit(beta_h=beta_h, beta_v=beta_v, Hframe_frak=H,
                   Vframe_frak=V, P_h=P_h, P_v=P_v, P_hor=P_hor, Wmat=Wmat)


@dataclass
class OneillData:
    """O'Neill endomorphism at the stencil center, in the split frame basis."""

    matrix: np.ndarray       # n x n in the basis (A_h, A_v)
    split: HVSplit
    W_split: np.ndarray      # Wronskian in the same basis
    symmetry_residual: float
    block_residual: float


def oneill_endomorphism(setup: CoisotropicSetup,
                        fs: fc.FrameStencil) -> OneillData:
    """Assemble the O'Neill endomorphism from stencil derivatives.

    Sends the W-part frame to the orthogonal projection of its derivative
    and the orthogonal frame to minus the W-projection of its derivative;
    the result interchanges the two blocks and is W-symmetric.
    """
    nodes = fs.stencil.nodes
    c_idx = len(nodes) // 2
    ft = fs.triples[c_idx]
    center_split = hv_split(setup, ft)
    H_c, V_c = center_split.Hframe_frak, center_split.Vframe_frak

    U_c, _, _ = np.linalg.svd(H_c, full_matrices=False)
    beta_h, beta_h_dot, Hdot, _ = _section_derivatives(
        setup, ft, H_c, U_c, with_second=False)

    # derivative of a section of the W-orthogonal part: differentiate the
    # orthogonality conditions beta_h^T W(t) beta_v(t) = 0 in the frame basis,
    # with the graph gauge U_v^T Vdot = 0 pinning the remaining freedom
    beta_v = center_split.beta_v
    Wmat = center_split.Wmat
    Wdot = ft.Adot.T @ setup.omega.Omega @ ft.Adot \
        + ft.A.T @ setup.omega.Omega @ ft.Addot
    Wdot = 0.5 * (Wdot + Wdot.T)
    U_v, _, _ = np.linalg.svd(V_c, full_matrices=False)
    nv = beta_v.shape[1]
    if nv:
        system = np.vstack([beta_h.T @ Wmat, U_v.T @ ft.A])
        rhs = np.vstack([-(beta_h_dot.T @ Wmat @ beta_v
                           + beta_h.T @ Wdot @ beta_v),
                         -U_v.T @ (ft.Adot @ beta_v)])
        beta_v_dot = np.linalg.solve(system, rhs)
        Vdot = ft.Adot @ beta_v + ft.A @ beta_v_dot
    else:
        Vdot = np.zeros_like(V_c)

    img_h = center_split.P_v @ Hdot
    img_v = -center_split.P_h @ Vdot
    basis = np.hstack([H_c, V_c])
    images = np.hstack([img_h, img_v])
    A_mat, *_ = np.linalg.lstsq(basis, images, rcond=None)
    lstsq_res = float(np.max(np.abs(basis @ A_mat - images)))

    beta = np.hstack([center_split.beta_h, center_split.beta_v])
    W_split = beta.T @ center_split.Wmat @ beta
    sym = W_split @ A_mat
    symmetry_residual = float(np.max(np.abs(sym - sym.T)))
    p = center_split.beta_h.shape[1]
    block_residual = max(float(np.max(np.abs(A_mat[:p, :p]))) if p else 0.0,
                         float(np.max(np.abs(A_mat[p:, p:]))) if p < A_mat.shape[0] else 0.0,
                         lstsq_res)
    return OneillData(matrix=A_mat, split=center_split, W_split=W_split,
                      symmetry_residual=symmetry_residual,
                      block_residual=block_residual)


def oneill_formula(setup: CoisotropicSetup, fs: fc.FrameStencil,
                   reduced: ReducedCurve, oneill: OneillData, a_coeff):
    """Both sides of the curvature comparison for a in l(0) inter W.

    a_coeff are the coefficients of a in the gauge-fixed intersection frame;
    returns (reduced side, full side + 3 W(Aa, Aa)).
    """
    c_idx = reduced.center_index
    a_coeff = np.asarray(a_coeff, dtype=float)
    if reduced.invariants.W is None:
        raise DegenerateRestriction("trivial quotient has no reduced Wronskian")

    a_amb = reduced.h_frames[c_idx] @ a_coeff
    alpha, *_ = np.linalg.lstsq(fs.triples[c_idx].A, a_amb, rcond=None)
    lhs, full_term, corr = _oneill_pairings(
        reduced, oneill, fc.invariants(fs, setup.omega), a_coeff, a_amb, alpha)
    return lhs, full_term + corr


def _oneill_pairings(reduced: ReducedCurve, oneill: OneillData,
                     inv: fc.FanningInvariants, a_coeff, a_amb, alpha):
    """Unnormalized pairings (W_R(K_R a, a), W(K a, a), 3 W(Aa, Aa)).

    a is given three ways: a_coeff in the reduced frame, a_amb in the ambient
    space and alpha in the full frame at the center; inv are the full
    curve's invariants there.
    """
    K_R = 0.5 * reduced.invariants.Schwarzian
    lhs = float((K_R @ a_coeff) @ reduced.invariants.W @ a_coeff)
    K_full = 0.5 * inv.Schwarzian
    full_term = float((K_full @ alpha) @ inv.W @ alpha)

    split = oneill.split
    # a in the (A_h, A_v) basis: express through the gauge-fixed frame
    coeff, *_ = np.linalg.lstsq(np.hstack([split.Hframe_frak,
                                           split.Vframe_frak]),
                                a_amb, rcond=None)
    Aa = oneill.matrix @ coeff
    corr = float(3.0 * (Aa @ oneill.W_split @ Aa))
    return lhs, full_term, corr


# ---------------------------------------------------------------------------
# contact reduction: the coisotropic hyperplane ker dF
# ---------------------------------------------------------------------------

@dataclass
class ContactSplit:
    """Splitting of a Jacobi frame into its contact part and span[C - tS].

    frame_c spans the contact part l(t) inter ker(dF), which lies in
    ker(alpha); r is the complementary vector C - tS; the residual fields
    quantify how well the decomposition identities hold at this time.
    """

    t: float
    frame_c: np.ndarray
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
    of the full curve, and K(t) r(t) must vanish.
    """
    metric = orbit.metric
    n = metric.n
    v0 = orbit.v0
    F0 = metric.F_value(v0.x, v0.y)
    if abs(F0 - 1.0) > 1e-9:
        raise NotUnitSpeed(f"contact reduction needs F(v0) = 1, got {F0}")

    G0, _ = mx.spray_data(metric, v0.x, v0.y, with_jacobian=False)
    r = (np.concatenate([np.zeros(n), v0.y])
         - t * np.concatenate([v0.y, -2.0 * G0]))
    dF_row = mx.energy_jet(metric, v0.x, v0.y, order=2).g / (2.0 * F0)
    alpha_row = np.concatenate([mx.legendre(metric, v0), np.zeros(n)])

    sample = jb.jacobi_frame(orbit, t, h=_REDUCTION_H, order=6)
    setup = coisotropic_setup(orbit.omega, _nullspace(dF_row))
    reduced = reduce_curve(setup, sample.frames)
    c_idx = reduced.center_index
    H_c = reduced.h_frames[c_idx]

    # coefficients of [H_c | r] in the center frame
    A_c = sample.frames.triples[c_idx].A
    adapted, *_ = np.linalg.lstsq(A_c, np.column_stack([H_c, r]), rcond=None)
    r_norm = np.linalg.norm(r)
    if np.linalg.norm(A_c @ adapted[:, -1] - r) > 1e-6 * max(1.0, r_norm):
        raise InternalInconsistency(f"C - tS left the Jacobi plane at t={t}")

    inv = sample.invariants
    K_ad = np.linalg.solve(adapted, 0.5 * inv.Schwarzian @ adapted)
    K_block = K_ad[:n - 1, :n - 1]
    Kc_block = 0.5 * reduced.invariants.Schwarzian
    beta = adapted[:, :n - 1]
    return ContactSplit(
        t=t, frame_c=H_c, r=r, K_block=K_block, Kc_block=Kc_block,
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

    The fiber is spanned by d/dx3 and the pushforward of (x, y) is
    (x[:2], y[:2]).  constraint_grad(x, y) returns the n_fib x 2n Jacobian
    of the horizontal constraints c_a(x, y) = g(x)(y, k_a(x)); g and the
    fiber see jets in the n x-variables only, and y enters as a float.
    default_flag() is the horizontal flag the CLI and the selftest run at
    suggested_x.
    """

    name: str
    total: mx.MetricSpec
    base: mx.MetricSpec
    suggested_x: np.ndarray

    def fiber(self, x):
        return [[0.0], [0.0], [1.0]]   # the columns k_a(x): d/dx3

    def default_flag(self):
        """Horizontal (v, w) at suggested_x: the parts of (1, 0.4, 0) and
        (0.3, 1, 0) g-orthogonal to the fiber."""
        x = self.suggested_x
        g = np.array(self.total.g(list(x)), dtype=float)
        k = self.fiber(list(x))
        return (mx.PhasePoint(x, horizontal_part(g, k, [1.0, 0.4, 0.0])),
                horizontal_part(g, k, [0.3, 1.0, 0.0]))

    def constraint_grad(self, x, y):
        """Jacobian S+(n_fib, 2n) of c_a = y^T g k_a in (x, y): `stack`ed
        x-jets of g and of the fiber, contracted with the float y."""
        n = self.total.n
        S, xs = np.shape(x)[:-1], jet_variables(x, order=2)
        g, dg, _ = stack([e for row in self.total.g(xs) for e in row], S, n)
        k, dk, _ = stack([e for row in self.fiber(xs) for e in row], S, n)
        g, dg = g.reshape(S + (n, n)), dg.reshape(S + (n, n, n))
        k, dk = k.reshape(S + (n, -1)), dk.reshape(S + (n, -1, n))
        dx = (np.einsum("...i,...ijp,...ja->...ap", y, dg, k)
              + np.einsum("...i,...ij,...jap->...ap", y, g, dk))
        return np.concatenate([dx, np.einsum("...ij,...ja->...ai", g, k)],
                              axis=-1)


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


def submersion_curvature(scenario: SubmersionScenario, v, w,
                         resolution: int = jb.DEFAULT_RESOLUTION
                         ) -> SubmersionResult:
    """Curvature comparison along a horizontal flag of a submersion.

    v must lie in the horizontal cone (checked through the defining equality
    of norms); w is projected onto the horizontal tangent space orthogonal
    to v and normalized.  The coisotropic subspace is the tangent space of
    the horizontal-cone bundle at v, the kernel of the scenario's
    constraint linearization.
    """
    total = scenario.total
    n = total.n
    x = np.asarray(v.x, dtype=float)
    y = np.asarray(v.y, dtype=float) / total.F_value(v.x, v.y)
    v = mx.PhasePoint(x, y)

    F1 = total.F_value(x, y)
    F2 = scenario.base.F_value(x[:2], y[:2])
    if abs(F1 - F2) > 1e-9:
        raise HorizontalityViolation(
            f"F1(v) = {F1} but F2(f_* v) = {F2}: v is not horizontal")

    Wbasis = _nullspace(scenario.constraint_grad(x, y))

    g = mx.fundamental_tensor(total, v)
    # project w onto the horizontal space, g-orthogonal to v, unit length
    w = horizontal_part(g, np.column_stack([scenario.fiber(list(x)), y]), w)
    norm = math.sqrt(w @ g @ w)
    if norm < 1e-10:
        raise HorizontalityViolation("w degenerates after horizontalization")
    w = w / norm

    h = _REDUCTION_H
    orbit = jb.transport(total, v, T=jb.frame_reach(h, 6),
                         resolution=jb.frame_resolution(h, resolution))
    sample = jb.jacobi_frame(orbit, 0.0, h=h, order=6)
    setup = coisotropic_setup(orbit.omega, Wbasis)
    reduced = reduce_curve(setup, sample.frames)
    oneill = oneill_endomorphism(setup, sample.frames)

    a_amb = np.concatenate([np.zeros(n), w])
    H_c = reduced.h_frames[reduced.center_index]
    a_coeff, *_ = np.linalg.lstsq(H_c, a_amb, rcond=None)
    if np.max(np.abs(H_c @ a_coeff - a_amb)) > 1e-7:
        raise HorizontalityViolation(
            "flag vector does not lie in the reduced part of the Jacobi plane")

    alpha = w  # coordinates of (0, w) in the vertical frame at t = 0
    reduced_term, full_term, corr = _oneill_pairings(
        reduced, oneill, sample.invariants, a_coeff, a_amb, alpha)
    norm_full = float(alpha @ sample.invariants.W @ alpha)
    norm_reduced = float(a_coeff @ reduced.invariants.W @ a_coeff)
    return SubmersionResult(scenario=scenario.name,
                            K_base=reduced_term / norm_reduced,
                            K_total=full_term / norm_full,
                            correction=corr / norm_full)
