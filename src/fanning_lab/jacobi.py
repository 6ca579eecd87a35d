"""Jacobi curves of geodesic flows and the flag curvature.

The geodesic flow is integrated jointly with its linearization M(t) (the
differential of the flow at the base point, satisfying Mdot = DS M).  Pulling
the vertical planes at the moving point back through M(t) produces a curve of
n-planes in the fixed tangent space at the base point; its fanning invariants,
paired with the pulled-back symplectic form, yield the flag curvature and the
curvature endomorphism.

One `numkit.rk_integrate` field integrates the stored orbit and the off-grid
hops; every transport window is sized by `frame_reach`, the stencil's reach.

A finite-difference Riemann-tensor computation (Christoffel symbols from
central differences of g, differentiated once more) serves as the independent
oracle for all Riemannian instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fanning as fc
from . import metrics as mx
from . import numkit as nk
from .errors import (DegenerateFlag, InternalInconsistency, NonFiniteValue,
                     NotUnitSpeed, OutOfChart)

__all__ = [
    "OrbitData",
    "JacobiCurveSample",
    "transport",
    "jacobi_frame",
    "flag_curvature",
    "christoffel_fd",
    "riemann_oracle",
    "ContactSplit",
    "contact_reduce",
    "frame_reach",
    "DEFAULT_RESOLUTION",
    "DEFAULT_FRAME_H",
]

DEFAULT_RESOLUTION = 2000      # RK4 steps per unit of t
DEFAULT_FRAME_H = 1e-3         # half-width of the Jacobi-frame sub-grid


# ---------------------------------------------------------------------------
# transport of the flow and its linearization
# ---------------------------------------------------------------------------

@dataclass
class OrbitData:
    """Geodesic orbit with the transported linearization.

    states maps grid times to (x, y, M) with M(t) the differential of the
    time-t flow at v0; omega is the symplectic form at v0, the fixed ambient
    form for every frame along this orbit.  Immutable after construction.
    """

    metric: mx.MetricSpec
    v0: mx.PhasePoint
    resolution: int
    ts: np.ndarray
    states: tuple
    omega: fc.SymplecticForm

    def state(self, t: float):
        """State at t: grid lookup, or re-integration from the nearest node."""
        dt = self.ts[1] - self.ts[0] if len(self.ts) > 1 else 1.0
        idx = int(round((t - self.ts[0]) / dt))
        idx = min(max(idx, 0), len(self.ts) - 1)
        if abs(self.ts[idx] - t) < 1e-12 * max(1.0, abs(t)):
            return self.states[idx]
        # frame stencils may overhang the window by a few nodes; allow a
        # short re-integration slack, but refuse genuinely distant times
        slack = 0.05 * max(1.0, self.ts[-1]) + 8.0 / self.resolution
        if not (self.ts[0] - slack <= t <= self.ts[-1] + slack):
            raise OutOfChart(f"t={t} outside the transported interval")
        # nearest node not past t in integration direction, then a short hop
        delta = t - self.ts[idx]
        steps = max(1, int(math.ceil(abs(delta) * self.resolution * 2)))
        return _flow(self.metric, self.states[idx], delta, steps)[-1]

    def frame_data(self, t: float):
        """Frame A(t) = M^{-1} Vert and its analytic derivative at time t."""
        n = self.metric.n
        x, y, M = self.state(t)
        _, DS = mx.spray_data(self.metric, x, y)
        vert = np.vstack([np.zeros((n, n)), np.eye(n)])
        Minv = np.linalg.inv(M)
        A = Minv @ vert
        Adot = -Minv @ (DS @ vert)
        return A, Adot


def _flow(metric, state, span, steps):
    """RK4 states (x, y, M) on the grid of [0, span], start included.

    Raises OutOfChart for a state outside the box before the metric is read
    there; the field checks every state but the last.
    """
    n = metric.n

    def field(z):
        x, y = z[:n], z[n:2 * n]
        _check_chart(metric, x)
        G, DS = mx.spray_data(metric, x, y)
        M = z[2 * n:].reshape(2 * n, 2 * n)
        return np.concatenate([y, -2.0 * G, (DS @ M).ravel()])

    x, y, M = state
    samples = nk.rk_integrate(field, np.concatenate([x, y, M.ravel()]),
                              0.0, span, steps)
    _check_chart(metric, samples[-1][1][:n])
    return [(z[:n], z[n:2 * n], z[2 * n:].reshape(2 * n, 2 * n))
            for _, z in samples]


def _check_chart(metric, x):
    if not metric.domain.contains(x):
        raise OutOfChart(f"orbit left the chart at x={x}")


def transport(metric: mx.MetricSpec, v0: mx.PhasePoint, T: float,
              resolution: int = DEFAULT_RESOLUTION,
              back: Optional[float] = None) -> OrbitData:
    """Transport the flow differential over [-back, T] from v0 (back = T).

    Deterministic fixed-step RK4 on one grid of step dt = T / ceil(T *
    resolution), so a given back is rounded up to whole steps; raises
    OutOfChart if the orbit leaves the metric's box within the window.
    """
    if T <= 0.0 or (back is not None and back <= 0.0):
        raise OutOfChart("transport window must be positive")
    steps = max(1, int(math.ceil(T * resolution)))
    dt = T / steps
    back_steps = steps if back is None else int(math.ceil(back / dt))
    back = T if back is None else dt * back_steps
    start = (v0.x, v0.y, np.eye(2 * metric.n))
    fwd = _flow(metric, start, T, steps)
    bwd = _flow(metric, start, -back, back_steps)
    ts = dt * np.arange(-back_steps, steps + 1)
    states = tuple(bwd[:0:-1] + fwd)
    omega = fc.SymplecticForm(mx.omega_matrix(metric, v0))
    return OrbitData(metric=metric, v0=v0, resolution=resolution, ts=ts,
                     states=states, omega=omega)


def frame_reach(h: float, order: int = 4) -> float:
    """How far `jacobi_frame(orbit, t, h, order)` reads the orbit from t."""
    return nk.Stencil(0.0, h, order).nodes[-1]


# ---------------------------------------------------------------------------
# Jacobi frames
# ---------------------------------------------------------------------------

@dataclass
class JacobiCurveSample:
    """Frame stencil of the Jacobi curve at one time, plus its invariants."""

    t: float
    frames: fc.FrameStencil
    invariants: fc.FanningInvariants


def jacobi_frame(orbit: OrbitData, t: float, h: float = DEFAULT_FRAME_H,
                 order: int = 4) -> JacobiCurveSample:
    """Sample the Jacobi curve around t.

    A and Adot are analytic in the transported data; Addot at each stencil
    node comes from differentiating the Adot samples once (shared nodes,
    off-center weights where needed).  The curve is fanning for spray Jacobi
    curves; a failure here is an internal inconsistency, not user error.
    """
    stc = nk.Stencil(t, h, order)
    nodes = stc.nodes
    As, Adots = [], []
    for tn in nodes:
        A, Adot = orbit.frame_data(tn)
        As.append(A)
        Adots.append(Adot)
    triples = []
    for j, tn in enumerate(nodes):
        w = nk.fornberg_weights(tn, nodes, 1)
        Addot = sum(wk * Ak for wk, Ak in zip(w, Adots))
        triples.append(fc.FrameTriple(As[j], Adots[j], Addot))
    frames = fc.FrameStencil(stc, tuple(triples))
    try:
        inv = fc.invariants(frames, orbit.omega)
    except fc.NotFanning as exc:  # pragma: no cover - sprays are regular
        raise InternalInconsistency(f"Jacobi curve lost fanning at t={t}: {exc}")
    return JacobiCurveSample(t=t, frames=frames, invariants=inv)


# ---------------------------------------------------------------------------
# flag curvature
# ---------------------------------------------------------------------------

def _canonical_flag_vector(g: np.ndarray, y: np.ndarray, u: np.ndarray):
    """Project u g-orthogonally to y; reject parallel pairs."""
    u = np.asarray(u, dtype=float)
    c = (y @ g @ u) / (y @ g @ y)
    u_perp = u - c * y
    if np.linalg.norm(u_perp) < 1e-10 * max(1.0, np.linalg.norm(u)):
        raise DegenerateFlag("flag vectors are parallel")
    return u_perp


def flag_curvature(metric: mx.MetricSpec, v: mx.PhasePoint, u,
                   resolution: int = DEFAULT_RESOLUTION,
                   h: float = DEFAULT_FRAME_H,
                   orbit: Optional[OrbitData] = None) -> float:
    """Flag curvature of the flag (v, span[v, u]).

    u is g_F(v)-orthogonalized against v internally; the value is invariant
    under scaling of u, adding multiples of v to u, and scaling of v.  At
    time zero the frame basis is the vertical one, so the coordinates of the
    flag vector are just its components.
    """
    g = mx.fundamental_tensor(metric, v)
    u_perp = _canonical_flag_vector(g, v.y, np.asarray(u, dtype=float))
    F = metric.F_value(v.x, v.y)
    if orbit is None:
        orbit = transport(metric, v, T=frame_reach(h), resolution=resolution)
    sample = jacobi_frame(orbit, 0.0, h=h)
    inv = sample.invariants
    K_plane = 0.5 * inv.Schwarzian            # K on span(A) in the frame basis
    W = inv.W
    num = (K_plane @ u_perp) @ W @ u_perp
    den = u_perp @ W @ u_perp
    return float(num / den / (F * F))


# ---------------------------------------------------------------------------
# Riemann-tensor oracle
# ---------------------------------------------------------------------------

def christoffel_fd(g_callable, x, h: float = 1e-4) -> np.ndarray:
    """Christoffel symbols Gamma[i, j, k] by central differences of g."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    dg = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        gp = np.array(g_callable(list(x + e)), dtype=float)
        gm = np.array(g_callable(list(x - e)), dtype=float)
        dg[k] = (gp - gm) / (2.0 * h)
    ginv = np.linalg.inv(np.array(g_callable(list(x)), dtype=float))
    Gam = 0.5 * (np.einsum("il,jlk->ijk", ginv, dg)
                 + np.einsum("il,kjl->ijk", ginv, dg)
                 - np.einsum("il,ljk->ijk", ginv, dg))
    return Gam


def riemann_oracle(g_callable, x, v, u, h: float = 1e-4) -> float:
    """Sectional curvature of span(v, u) by nested finite differences of g.

    Entirely independent of the Taylor-jet machinery: Christoffel symbols
    come from central differences of g, their derivatives from central
    differences of the symbols.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    n = len(x)
    G0 = np.array(g_callable(list(x)), dtype=float)
    Gam0 = christoffel_fd(g_callable, x, h)
    dGam = np.zeros((n, n, n, n))  # dGam[p, i, j, k] = d_p Gamma^i_{jk}
    for p in range(n):
        e = np.zeros(n)
        e[p] = h
        dGam[p] = (christoffel_fd(g_callable, x + e, h)
                   - christoffel_fd(g_callable, x - e, h)) / (2.0 * h)
    # R^i_{jkl} = d_k Gam^i_{lj} - d_l Gam^i_{kj} + Gam^i_{km} Gam^m_{lj}
    #                                             - Gam^i_{lm} Gam^m_{kj}
    R = (np.einsum("kilj->ijkl", dGam)
         - np.einsum("likj->ijkl", dGam)
         + np.einsum("ikm,mlj->ijkl", Gam0, Gam0)
         - np.einsum("ilm,mkj->ijkl", Gam0, Gam0))
    # R(u, v)v with R(d_k, d_l) d_j = R^i_{jkl} d_i
    Ruvv = np.einsum("ijkl,k,l,j->i", R, u, v, v)
    num = Ruvv @ G0 @ u
    den = (u @ G0 @ u) * (v @ G0 @ v) - (u @ G0 @ v) ** 2
    if den <= 0.0:
        raise DegenerateFlag("flag vectors are parallel")
    out = num / den
    if not math.isfinite(out):
        raise NonFiniteValue("Riemann oracle produced a non-finite value")
    return float(out)


# ---------------------------------------------------------------------------
# contact reduction of the Jacobi curve
# ---------------------------------------------------------------------------

@dataclass
class ContactSplit:
    """Splitting of a Jacobi frame into its contact part and span[C - tS].

    frame_c spans the contact part inside ker(alpha) inter ker(dF); r is the
    complementary vector C - tS; the residual fields quantify how well the
    decomposition identities hold at this time.
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


def contact_reduce(orbit: OrbitData, t: float, h: float = 1e-2) -> ContactSplit:
    """Split the Jacobi frame W(t)-orthogonally against r(t) = C - t S.

    Requires a unit-speed base point.  The contact part of the curve is
    re-analyzed as a fanning curve inside the contact hyperplane; its
    curvature block must agree with the corresponding block of the full
    curve, and K(t) r(t) must vanish.
    """
    metric = orbit.metric
    n = metric.n
    v0 = orbit.v0
    F0 = metric.F_value(v0.x, v0.y)
    if abs(F0 - 1.0) > 1e-9:
        raise NotUnitSpeed(f"contact reduction needs F(v0) = 1, got {F0}")

    Omega = orbit.omega.Omega
    C = np.concatenate([np.zeros(n), v0.y])
    G0, _ = mx.spray_data(metric, v0.x, v0.y, with_jacobian=False)
    S_vec = np.concatenate([v0.y, -2.0 * G0])

    stc = nk.Stencil(t, h, 6)
    nodes = stc.nodes

    # smooth frames of the contact part: project a fixed complement of the
    # center rho W-orthogonally at every node
    As, Adots, rhos, Ws = [], [], [], []
    for tn in nodes:
        A, Adot = orbit.frame_data(tn)
        W = A.T @ Omega @ Adot
        W = 0.5 * (W + W.T)
        r_amb = C - tn * S_vec
        rho, res, *_ = np.linalg.lstsq(A, r_amb, rcond=None)
        if np.linalg.norm(A @ rho - r_amb) > 1e-6 * max(1.0, np.linalg.norm(r_amb)):
            raise InternalInconsistency(
                f"C - tS left the Jacobi plane at t={tn}")
        As.append(A)
        Adots.append(Adot)
        rhos.append(rho)
        Ws.append(W)

    c_idx = len(nodes) // 2
    w_rho_c = Ws[c_idx] @ rhos[c_idx]
    # fixed complement of rho at the center
    _, _, Vt = np.linalg.svd(w_rho_c[None, :])
    N0 = Vt[1:].T  # n x (n-1), orthonormal rows of the nullspace
    Ns, frames_c = [], []
    for j in range(len(nodes)):
        rho, W = rhos[j], Ws[j]
        denom = rho @ W @ rho
        Nj = N0 - np.outer(rho, (rho @ W @ N0) / denom)
        Ns.append(Nj)
        frames_c.append(As[j] @ Nj)

    # ambient basis of the contact hyperplane at the base point
    xi0 = mx.legendre(metric, v0)
    alpha_row = np.concatenate([xi0, np.zeros(n)])
    Ej = mx.energy_jet(metric, v0.x, v0.y, order=2)
    dF_row = Ej.g / (2.0 * F0)
    _, _, Vt = np.linalg.svd(np.vstack([alpha_row, dF_row]))
    B_E = Vt[2:].T  # 2n x (2n-2)
    Omega_E = B_E.T @ Omega @ B_E

    coords = []
    alpha_res = 0.0
    for Fc in frames_c:
        cc, *_ = np.linalg.lstsq(B_E, Fc, rcond=None)
        alpha_res = max(alpha_res,
                        float(np.max(np.abs(B_E @ cc - Fc))))
        coords.append(cc)
    Cdots, Cddots = [], []
    for j, tn in enumerate(nodes):
        w1 = nk.fornberg_weights(tn, nodes, 1)
        w2 = nk.fornberg_weights(tn, nodes, 2)
        Cdots.append(sum(w * Ck for w, Ck in zip(w1, coords)))
        Cddots.append(sum(w * Ck for w, Ck in zip(w2, coords)))
    triples = tuple(fc.FrameTriple(coords[j], Cdots[j], Cddots[j])
                    for j in range(len(nodes)))
    inv_c = fc.invariants(fc.FrameStencil(stc, triples),
                          fc.SymplecticForm(Omega_E))

    # full-curve invariants at t and the block comparison
    sample = jacobi_frame(orbit, t)
    K_plane = 0.5 * sample.invariants.Schwarzian
    rho_c, N_c = rhos[c_idx], Ns[c_idx]
    adapted = np.hstack([N_c, rho_c[:, None]])
    K_ad = np.linalg.solve(adapted, K_plane @ adapted)
    K_block = K_ad[:n - 1, :n - 1]
    Kc_block = 0.5 * inv_c.Schwarzian
    block_residual = float(np.max(np.abs(K_block - Kc_block)))

    r_amb = C - t * S_vec
    K_amb = sample.invariants.K
    kr_residual = float(np.linalg.norm(K_amb @ r_amb)
                        / max(np.linalg.norm(r_amb), 1e-300))

    # restriction of W to the contact part equals the reduced Wronskian
    W_restr = N_c.T @ Ws[c_idx] @ N_c
    w_residual = float(np.max(np.abs(W_restr - inv_c.W)))

    return ContactSplit(t=t, frame_c=frames_c[c_idx], r=r_amb,
                        K_block=K_block, Kc_block=Kc_block,
                        kr_residual=kr_residual,
                        block_residual=block_residual,
                        w_residual=w_residual,
                        alpha_residual=alpha_res)
