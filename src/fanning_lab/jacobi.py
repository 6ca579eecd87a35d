"""Jacobi curves of geodesic flows and the flag curvature.

The geodesic flow is integrated jointly with its linearization M(t) (the
differential of the flow at the base point, satisfying Mdot = DS M).  Pulling
the vertical planes at the moving point back through M(t) produces a curve of
n-planes in the fixed tangent space at the base point; its fanning invariants,
paired with the pulled-back symplectic form, yield the flag curvature and the
curvature endomorphism.

One `numkit.rk_integrate` field integrates the stored orbit and the off-grid
hops; every transport window is sized by `frame_reach`, the stencil's reach.
The spray and its Jacobian at each grid state are kept with the state (the
integrator's first stage, plus the two window ends), so frames on the grid
evaluate nothing.

`transport` and `flag_curvature` take a batch of phase points (x, y of
shape S+(n,)) and integrate all of them in lockstep: one `spray_data` call
per RK4 stage for the whole batch.  A single point is the case S = ().
The Jacobi-frame linear algebra after transport runs per flag, on
`OrbitData.flag(i)`; a failure names the flag.

`geodesic` integrates (x, y) alone, with the spray and no Jacobian.  The
flow maps Jacobi curves to Jacobi curves symplectically, so the invariants
of an orbit's curve at time t are those of the curve of the point reached
at t, read at 0.  Samples along one orbit therefore take one `geodesic`
pass to their points and one batched frame window around all of them, not
a linearization carried over the whole orbit.

A finite-difference Riemann-tensor computation (Christoffel symbols from
central differences of g, differentiated once more) serves as the independent
oracle for all Riemannian instances.

Reductions of a Jacobi curve, the contact splitting by ker dF among them,
live in `reduction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import fanning as fc
from . import metrics as mx
from . import numkit as nk
from .errors import (DegenerateFlag, InternalInconsistency, NonFiniteValue,
                     OutOfChart, flag_label, labelled, raise_at)

__all__ = [
    "OrbitData",
    "JacobiCurveSample",
    "transport",
    "geodesic",
    "jacobi_frame",
    "flag_curvature",
    "christoffel_fd",
    "riemann_oracle",
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
    time-t flow at v0, and sprays to the spray data (G, DS) at each state;
    omega_matrix is the symplectic form at v0, the fixed ambient form for
    every frame along this orbit.  For a batch v0 every array carries its
    batch axes first; `flag(i)` is the orbit of one point.  Immutable after
    construction.
    """

    metric: mx.MetricSpec
    v0: mx.PhasePoint
    resolution: int
    ts: np.ndarray
    states: tuple
    sprays: tuple
    omega_matrix: np.ndarray

    @cached_property
    def omega(self) -> fc.SymplecticForm:
        """The symplectic form at v0 (orbits of a single point)."""
        return fc.SymplecticForm(self.omega_matrix)

    def flag(self, i) -> "OrbitData":
        """Orbit of batch index i; an unbatched orbit is its own flag ()."""
        if i == ():
            return self
        return OrbitData(
            metric=self.metric, v0=mx.PhasePoint(self.v0.x[i], self.v0.y[i]),
            resolution=self.resolution, ts=self.ts,
            states=tuple((x[i], y[i], M[i]) for x, y, M in self.states),
            sprays=tuple((G[i], DS[i]) for G, DS in self.sprays),
            omega_matrix=self.omega_matrix[i])

    def _nearest(self, t: float):
        """Index of the grid node nearest t, and whether t is that node."""
        dt = self.ts[1] - self.ts[0] if len(self.ts) > 1 else 1.0
        idx = int(round((t - self.ts[0]) / dt))
        idx = min(max(idx, 0), len(self.ts) - 1)
        return idx, abs(self.ts[idx] - t) < 1e-12 * max(1.0, abs(t))

    def state(self, t: float):
        """State at t: grid lookup, or re-integration from the nearest node."""
        idx, on_grid = self._nearest(t)
        if on_grid:
            return self.states[idx]
        # frame stencils may overhang the window by a few nodes; allow a
        # short re-integration slack, but refuse genuinely distant times
        slack = 0.05 * max(1.0, self.ts[-1]) + 8.0 / self.resolution
        if not (self.ts[0] - slack <= t <= self.ts[-1] + slack):
            raise OutOfChart(f"t={t} outside the transported interval")
        # a short hop from the nearest node, whose spray data is stored
        delta = t - self.ts[idx]
        steps = max(1, int(math.ceil(abs(delta) * self.resolution * 2)))
        states, _ = _flow(self.metric, self.states[idx], delta, steps,
                          self.sprays[idx])
        return states[-1]

    def frame_data(self, t: float):
        """Frame A(t) = M^{-1} Vert and its analytic derivative at time t."""
        n = self.metric.n
        idx, on_grid = self._nearest(t)
        if on_grid:
            (_, _, M), (_, DS) = self.states[idx], self.sprays[idx]
        else:
            x, y, M = self.state(t)
            _, DS = mx.spray_data(self.metric, x, y)
        vert = np.vstack([np.zeros((n, n)), np.eye(n)])
        Minv = np.linalg.inv(M)
        A = Minv @ vert
        Adot = -Minv @ (DS @ vert)
        return A, Adot


def _spray(metric, x, y):
    """spray_data at (x, y), refusing points outside the chart first."""
    _check_chart(metric, x)
    return mx.spray_data(metric, x, y)


def _flow(metric, state, span, steps, spray):
    """RK4 states (x, y, M) on the grid of [0, span], start included, and
    the spray data (G, DS) at every state but the last.

    spray is the spray data at the start, already evaluated by the caller.
    Raises OutOfChart, naming the flag of a batch, for a state outside the
    box before the metric is read there; the field checks every state but
    the last.
    """
    n = metric.n
    x, y, M = state
    lead = x.shape[:-1]
    sprays = []

    def rate(z, G, DS):
        M = z[..., 2 * n:].reshape(lead + (2 * n, 2 * n))
        return np.concatenate([z[..., n:2 * n], -2.0 * G,
                               (DS @ M).reshape(lead + (-1,))], axis=-1)

    def field(z):
        sprays.append(_spray(metric, z[..., :n], z[..., n:2 * n]))
        return rate(z, *sprays[-1])

    z0 = np.concatenate([x, y, M.reshape(lead + (-1,))], axis=-1)
    samples = nk.rk_integrate(field, z0, 0.0, span, steps,
                              k1=rate(z0, *spray))
    _check_chart(metric, samples[-1][1][..., :n])
    # rk4_step evaluates a step's first stage, at the grid state, before
    # the other three; the first step's comes from the caller
    stage1 = [spray] + sprays[3::4]
    return [(z[..., :n], z[..., n:2 * n],
             z[..., 2 * n:].reshape(lead + (2 * n, 2 * n)))
            for _, z in samples], stage1


def _check_chart(metric, x, t=None):
    """Refuse points outside the metric's box; t, when given, holds the
    time of each point, and the message names it."""
    def describe(i):
        at = "" if t is None else f"t={t[i]:.6g}, "
        return f"orbit left the chart at {at}x={x[i]}"

    raise_at(OutOfChart, ~metric.domain.contains(x), describe)


def _steps(span: float) -> int:
    """Whole RK4 steps for span, a time span times the resolution: the
    nearest integer when span is within 1e-9 (relative) of it, else the
    ceiling, and at least one.  A difference of grid times (say from
    np.linspace) times the resolution can land just above the count meant."""
    k = round(span)
    return max(1, k if abs(span - k) <= 1e-9 * span else math.ceil(span))


def geodesic(metric: mx.MetricSpec, v0: mx.PhasePoint, times,
             resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Phase states (x, y) of the geodesic from v0 at the given times.

    Only (x, y) is integrated, with the spray alone: one order-2 energy jet
    per evaluation, no Jacobian.  RK4 runs outward from t = 0 through the
    requested times of each sign, with |dt| * resolution steps per segment
    (`_steps`), so every requested time is a node.  Every point is checked
    against the chart before the metric is read there; the time rides along
    as a last coordinate, so an error names the absolute t.  A batch v0
    (shape S+(n,)) is integrated in lockstep; returns an array of shape
    (len(times),) + S + (2n,).
    """
    n = metric.n
    lead = v0.x.shape[:-1]
    times = np.asarray(times, dtype=float)
    clock = np.ones(lead + (1,))

    def field(z):
        x, y = z[..., :n], z[..., n:2 * n]
        _check_chart(metric, x, z[..., 2 * n])
        G, _ = mx.spray_data(metric, x, y, with_jacobian=False)
        return np.concatenate([y, -2.0 * G, clock], axis=-1)

    z0 = np.concatenate([v0.x, v0.y, np.zeros_like(clock)], axis=-1)
    out = np.empty(times.shape + lead + (2 * n,))
    for sign in (1.0, -1.0):
        z, t = z0, 0.0
        for i in np.argsort(sign * times, kind="stable"):
            if sign * times[i] < 0.0:
                continue
            if times[i] != t:
                steps = _steps(abs(times[i] - t) * resolution)
                z = nk.rk_integrate(field, z, t, times[i], steps)[-1][1]
                t = times[i]
            out[i] = z[..., :2 * n]
        _check_chart(metric, z[..., :n], z[..., 2 * n])
    return out


def transport(metric: mx.MetricSpec, v0: mx.PhasePoint, T: float,
              resolution: int = DEFAULT_RESOLUTION,
              back: Optional[float] = None) -> OrbitData:
    """Transport the flow differential over [-back, T] from v0 (back = T).

    Deterministic fixed-step RK4 on one grid of step dt = T / steps, where
    `_steps` makes whole steps of T * resolution forward and back / dt
    backward; raises OutOfChart if the orbit leaves the metric's box within
    the window.  A batch v0 is integrated in lockstep, and an error names
    the lowest failing flag.  The spray data at v0 serves both directions.
    """
    if T <= 0.0 or (back is not None and back <= 0.0):
        raise OutOfChart("transport window must be positive")
    steps = _steps(T * resolution)
    dt = T / steps
    back_steps = steps if back is None else _steps(back / dt)
    back = T if back is None else dt * back_steps
    m2 = 2 * metric.n
    eye = np.broadcast_to(np.eye(m2), v0.x.shape[:-1] + (m2, m2))
    start = (v0.x, v0.y, eye)
    spray0 = _spray(metric, v0.x, v0.y)
    fwd, fwd_sprays = _flow(metric, start, T, steps, spray0)
    bwd, bwd_sprays = _flow(metric, start, -back, back_steps, spray0)
    fwd_sprays.append(mx.spray_data(metric, *fwd[-1][:2]))
    bwd_sprays.append(mx.spray_data(metric, *bwd[-1][:2]))
    ts = dt * np.arange(-back_steps, steps + 1)
    return OrbitData(metric=metric, v0=v0, resolution=resolution, ts=ts,
                     states=tuple(bwd[:0:-1] + fwd),
                     sprays=tuple(bwd_sprays[:0:-1] + fwd_sprays),
                     omega_matrix=mx.omega_matrix(metric, v0))


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


@lru_cache(maxsize=16)
def _node_weights(h: float, order: int) -> np.ndarray:
    """First-derivative weights at each node of a stencil, on its own
    nodes: row j differentiates at node j.  They depend on the node
    spacing alone, so one matrix, built at t = 0, serves every t."""
    nodes = nk.Stencil(0.0, h, order).nodes
    W = np.array([nk.fornberg_weights(z, nodes, 1) for z in nodes])
    W.flags.writeable = False
    return W


def jacobi_frame(orbit: OrbitData, t: float, h: float = DEFAULT_FRAME_H,
                 order: int = 4) -> JacobiCurveSample:
    """Sample the Jacobi curve around t.

    A and Adot are analytic in the transported data; Addot at each stencil
    node comes from differentiating the Adot samples once (shared nodes,
    off-center weights where needed).  The curve is fanning for spray Jacobi
    curves; a failure here is an internal inconsistency, not user error.
    """
    stc = nk.Stencil(t, h, order)
    As, Adots = [], []
    for tn in stc.nodes:
        A, Adot = orbit.frame_data(tn)
        As.append(A)
        Adots.append(Adot)
    triples = []
    for j, w in enumerate(_node_weights(h, order)):
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
    c = (np.einsum("...i,...ij,...j->...", y, g, u)
         / np.einsum("...i,...ij,...j->...", y, g, y))
    u_perp = u - c[..., None] * y
    raise_at(DegenerateFlag,
             np.linalg.norm(u_perp, axis=-1)
             < 1e-10 * np.maximum(1.0, np.linalg.norm(u, axis=-1)),
             lambda i: "flag vectors are parallel")
    return u_perp


def flag_curvature(metric: mx.MetricSpec, v: mx.PhasePoint, u,
                   resolution: int = DEFAULT_RESOLUTION,
                   h: float = DEFAULT_FRAME_H,
                   orbit: Optional[OrbitData] = None):
    """Flag curvature of the flag (v, span[v, u]).

    u is g_F(v)-orthogonalized against v internally; the value is invariant
    under scaling of u, adding multiples of v to u, and scaling of v.  At
    time zero the frame basis is the vertical one, so the coordinates of the
    flag vector are just its components.

    v and u may hold a batch of flags (shape S+(n,)): one batched transport
    serves them all, then each flag reads its own Jacobi frame.  Returns a
    float for a single flag and an array of shape S for a batch; an error
    names the lowest failing flag.
    """
    u = np.asarray(u, dtype=float)
    g = mx.fundamental_tensor(metric, v)
    u_perp = _canonical_flag_vector(g, v.y, u)
    F = np.asarray(metric.F_value(v.x, v.y))
    if orbit is None:
        orbit = transport(metric, v, T=frame_reach(h), resolution=resolution)
    K = np.empty(F.shape)
    for i in np.ndindex(K.shape):
        with labelled(flag_label(i)):
            inv = jacobi_frame(orbit.flag(i), 0.0, h=h).invariants
        K_plane = 0.5 * inv.Schwarzian        # K on span(A) in the frame basis
        w = u_perp[i]
        K[i] = (K_plane @ w) @ inv.W @ w / (w @ inv.W @ w) / (F[i] * F[i])
    return float(K) if K.ndim == 0 else K


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
