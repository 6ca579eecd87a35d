"""Jacobi curves of geodesic flows and the flag curvature.

The geodesic flow is integrated jointly with its linearization M(t) (the
differential of the flow at the base point, satisfying Mdot = DS M).  Pulling
the vertical planes at the moving point back through M(t) produces a curve of
n-planes in the fixed tangent space at the base point; its fanning invariants,
paired with the pulled-back symplectic form, yield the flag curvature and the
curvature endomorphism.

One `numkit.rk_integrate` field integrates the stored orbit, on one
symmetric grid over [-T, T], and every transport window is sized by
`frame_reach`, the stencil's reach, and `frame_resolution`, a whole
number of steps per stencil spacing, so the stencil nodes are grid nodes
whatever the resolution asked for.  The orbit is read only at its grid
nodes: the spray and its Jacobian at each grid state are kept with the
state (the integrator's first stage, plus the two window ends), so frames
evaluate nothing, and a time off the grid raises OutOfChart.

`transport` and `flag_curvature` take a batch of phase points (x, y of
shape S+(n,)) and integrate all of them in lockstep: one `spray_data` call
per RK4 stage for the whole batch.  A single point is the case S = ().
The two halves of a window, [-T, 0] and [0, T], are independent runs
from (v0, I); they run in lockstep too, as lanes on a last batch axis
S+(2,), the backward lane with the negated field and the positive step
(negation is exact, so each lane rounds as a run of its own would).  A
default window takes 17 calls: one at v0, four for each of its four
steps, one at both ends.  `jacobi_frame` reads the frames of the whole
batch at once, and the fanning algebra works on the stack; a failure
names the lowest failing flag, whichever lane fails.

`geodesic` integrates (x, y) alone, forward from t = 0, with the spray
and no Jacobian.  The flow maps Jacobi curves to Jacobi curves
symplectically, so the invariants of an orbit's curve at time t are those
of the curve of the point reached at t, read at 0.  Samples along one
orbit therefore take one `geodesic` pass to their points and one batched
frame window around all of them, not a linearization carried over the
whole orbit.  Only the frame stencil differentiates along t, so only
frame windows need the fine step: the pass between samples runs at
`orbit_resolution`, a fifth of the resolution asked for, where RK4 still
lands unit-speed sphere orbits within 1e-13 by t = 0.3 (2e-12 by t = 1).

The oracle for all Riemannian instances is the Riemann tensor of g, with
exact Christoffel symbols and derivatives from one order-2 jet pass of g
over a whole batch of flags; it shares only `Jet` arithmetic and g with
the pipeline.

Reductions of a Jacobi curve, the contact splitting by ker dF among them,
live in `reduction`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fanning as fc
from . import metrics as mx
from . import numkit as nk
from .errors import (DegenerateFlag, DimensionMismatch, NonFiniteValue,
                     OutOfChart, lanes, raise_at)
from .jets import jet_variables, stack

__all__ = [
    "OrbitData",
    "JacobiCurveSample",
    "transport",
    "geodesic",
    "jacobi_frame",
    "flag_curvature",
    "christoffel",
    "riemann_oracle",
    "frame_reach",
    "frame_resolution",
    "orbit_resolution",
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

    ts is the symmetric grid of the window [-T, T]; states maps its nodes
    to (x, y, M) with M(t) the differential of the time-t flow at v0, and
    sprays to the spray data (G, DS) at each state; omega is the
    symplectic form at v0, the fixed ambient form for every frame along
    this orbit.  For a batch v0 every array carries its batch axes first.
    Immutable after construction; read only at its nodes.
    """

    metric: mx.MetricSpec
    v0: mx.PhasePoint
    ts: np.ndarray
    states: tuple
    sprays: tuple
    omega: fc.SymplecticForm

    def _index(self, t: float) -> int:
        """Index of the grid node at t; OutOfChart, naming t, for a time
        off the grid or outside the window."""
        k = np.rint((t - self.ts[0]) / (self.ts[1] - self.ts[0]))
        if not (0 <= k < len(self.ts)
                and abs(self.ts[int(k)] - t) < 1e-12 * max(1.0, abs(t))):
            raise OutOfChart(f"t={t} is not a node of the transported grid "
                             f"on [{self.ts[0]:.6g}, {self.ts[-1]:.6g}]")
        return int(k)

    def state(self, t: float):
        """State (x, y, M) at the grid node t."""
        return self.states[self._index(t)]

    def frame_data(self, t: float):
        """Frame A(t) = M^{-1} Vert and its analytic derivative at the grid
        node t."""
        n = self.metric.n
        idx = self._index(t)
        (_, _, M), (_, DS) = self.states[idx], self.sprays[idx]
        vert = np.vstack([np.zeros((n, n)), np.eye(n)])
        Minv = np.linalg.inv(M)
        A = Minv @ vert
        Adot = -Minv @ (DS @ vert)
        return A, Adot


def _spray(metric, x, y):
    """spray_data at (x, y), refusing points outside the chart first."""
    _check_chart(metric, x)
    return mx.spray_data(metric, x, y)


def _flow(metric, state, T, steps, spray):
    """RK4 from one state (x, y, M) over [0, T] and [0, -T], steps steps
    each, as two lanes on a last batch axis: lane 0 forward, lane 1
    backward with the negated field and the positive step, which rounds
    as a run of its own with the negative step would.

    spray is the spray data at the start, already evaluated by the
    caller.  Returns the states on the grid after the start and the spray
    data (G, DS) at each of them, all with the lane axis.  Raises
    OutOfChart, naming the flag of a batch whichever lane fails, for a
    state outside the box before the metric is read there.
    """
    n = metric.n
    x, y, M = state
    sign = np.array([[1.0], [-1.0]])
    sprays = []
    evals = itertools.count(1)

    def rate(z, G, DS):
        M = z[..., 2 * n:].reshape(z.shape[:-1] + (2 * n, 2 * n))
        return np.concatenate([z[..., n:2 * n], -2.0 * G,
                               (DS @ M).reshape(z.shape[:-1] + (-1,))],
                              axis=-1)

    def field(z):
        G, DS = _spray(metric, z[..., :n], z[..., n:2 * n])
        # rk4_step evaluates three stages in the first step (the caller
        # passes the first) and four in each later one, the grid state's
        # first
        if next(evals) % 4 == 0:
            sprays.append((G, DS))
        return sign * rate(z, G, DS)

    z0 = np.concatenate([x, y, M.reshape(x.shape[:-1] + (-1,))], axis=-1)
    k1 = sign * rate(z0, *spray)[..., None, :]
    z0 = np.broadcast_to(z0[..., None, :], k1.shape)
    with lanes():
        zs = [z for _, z in nk.rk_integrate(field, z0, 0.0, T, steps,
                                            k1=k1)[1:]]
        sprays.append(_spray(metric, zs[-1][..., :n], zs[-1][..., n:2 * n]))
    return zs, sprays


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


def orbit_resolution(resolution: float) -> float:
    """Steps per unit for an orbit that only delivers points: a fifth of
    resolution, the step sized for a frame stencil.

    Nothing differentiates such an orbit along t, so it needs only RK4's
    global error.  At the default resolution, unit-speed orbits on the unit
    sphere land within 1e-13 of the great circle by t = 0.3 and within
    2e-12 by t = 1; at a tenth of it, 9e-13 and 3e-11.
    """
    return resolution / 5


def geodesic(metric: mx.MetricSpec, v0: mx.PhasePoint, times,
             resolution: float = orbit_resolution(DEFAULT_RESOLUTION)
             ) -> np.ndarray:
    """Phase states (x, y) of the geodesic from v0 at the given times.

    Only (x, y) is integrated, with the spray alone: one order-2 energy jet
    per evaluation, no Jacobian.  RK4 runs forward from t = 0 through the
    sorted requested times, with dt * resolution steps per segment
    (`_steps`), so every requested time is a node.  resolution is the
    steps per unit taken; a caller holding a frame resolution passes
    `orbit_resolution` of it, as the default does.  A negative time raises
    DimensionMismatch before the metric is read anywhere.  Every point is
    checked against the chart before the metric is read there; the time
    rides along as a last coordinate, so an error names t.  A batch v0
    (shape S+(n,)) is integrated in lockstep; returns an array of shape
    (len(times),) + S + (2n,).
    """
    n = metric.n
    times = np.asarray(times, dtype=float)
    bad = ~(times >= 0.0)
    if np.any(bad):
        raise DimensionMismatch(
            f"geodesic times must be >= 0, got t={times[bad][0]}")

    def field(z):
        x, y = z[..., :n], z[..., n:2 * n]
        _check_chart(metric, x, z[..., 2 * n])
        G, _ = mx.spray_data(metric, x, y, with_jacobian=False)
        return np.concatenate([y, -2.0 * G, np.ones_like(z[..., -1:])],
                              axis=-1)

    z = np.concatenate([v0.x, v0.y, np.zeros_like(v0.x[..., :1])], axis=-1)
    out = np.empty(times.shape + z.shape[:-1] + (2 * n,))
    t = 0.0
    for b in np.unique(times):
        if b > t:
            z = nk.rk_integrate(field, z, t, b,
                                _steps((b - t) * resolution))[-1][1]
            t = b
        out[times == b] = z[..., :2 * n]
    _check_chart(metric, z[..., :n], z[..., 2 * n])
    return out


def transport(metric: mx.MetricSpec, v0: mx.PhasePoint, T: float,
              resolution: float = DEFAULT_RESOLUTION) -> OrbitData:
    """Transport the flow differential over the window [-T, T] from v0.

    Deterministic fixed-step RK4 on one symmetric grid of step
    dt = T / steps, with `_steps` whole steps of T * resolution each way;
    raises OutOfChart if the orbit leaves the metric's box within the
    window.  A batch v0 is integrated in lockstep, and an error names the
    lowest failing flag.  The two directions run in lockstep as well
    (`_flow`): the spray data at v0 serves both, and each RK4 stage takes
    one `spray_data` call for both, as do the two window ends.
    """
    if T <= 0.0:
        raise OutOfChart("transport window must be positive")
    steps = _steps(T * resolution)
    dt = T / steps
    n, m2 = metric.n, 2 * metric.n
    lead = v0.x.shape[:-1]
    start = (v0.x, v0.y, np.broadcast_to(np.eye(m2), lead + (m2, m2)))
    spray0 = _spray(metric, v0.x, v0.y)
    zs, sprays = _flow(metric, start, T, steps, spray0)

    def lane(k):
        return ([(z[..., k, :n], z[..., k, n:m2],
                  z[..., k, m2:].reshape(lead + (m2, m2))) for z in zs],
                [(G[..., k, :], DS[..., k, :, :]) for G, DS in sprays])

    (fwd, fwd_sprays), (bwd, bwd_sprays) = lane(0), lane(1)
    return OrbitData(metric=metric, v0=v0,
                     ts=dt * np.arange(-steps, steps + 1),
                     states=tuple(bwd[::-1] + [start] + fwd),
                     sprays=tuple(bwd_sprays[::-1] + [spray0] + fwd_sprays),
                     omega=fc.SymplecticForm(mx.omega_matrix(metric, v0)))


def frame_reach(h: float, order: int = 4) -> float:
    """How far `jacobi_frame(orbit, t, h, order)` reads the orbit from t."""
    return nk.Stencil(0.0, h, order).nodes[-1]


def frame_resolution(h: float,
                     resolution: float = DEFAULT_RESOLUTION) -> float:
    """resolution raised to a whole number of RK4 steps per h (`_steps`).

    A window of half-width a multiple of h transported at this resolution
    has every multiple of h on its grid, so a frame stencil of spacing h
    around such a node reads grid nodes only.
    """
    return _steps(h * resolution) / h


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
    """Sample the Jacobi curve around t, for every flag of the orbit at once.

    A and Adot are analytic in the transported data; Addot at each stencil
    node comes from differentiating the Adot samples once (shared nodes,
    off-center weights where needed).  Spray Jacobi curves are fanning;
    NotFanning names the lowest flag whose curve is not.
    """
    stc = nk.Stencil(t, h, order)
    As, Adots = zip(*(orbit.frame_data(tn) for tn in stc.nodes))
    triples = []
    for j, w in enumerate(nk.node_weights(h, order)):
        Addot = sum(wk * Ak for wk, Ak in zip(w, Adots))
        triples.append(fc.FrameTriple(As[j], Adots[j], Addot))
    frames = fc.FrameStencil(stc, tuple(triples))
    return JacobiCurveSample(t=t, frames=frames,
                             invariants=fc.invariants(frames, orbit.omega))


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
                   h: float = DEFAULT_FRAME_H):
    """Flag curvature of the flag (v, span[v, u]).

    u is g_F(v)-orthogonalized against v internally; the value is invariant
    under scaling of u, adding multiples of v to u, and scaling of v.  At
    time zero the frame basis is the vertical one, so the coordinates of the
    flag vector are just its components.

    v and u may hold a batch of flags (shape S+(n,)): one batched transport
    and one Jacobi frame serve them all.  Returns a float for a single flag
    and an array of shape S for a batch; an error names the lowest failing
    flag.
    """
    u = np.asarray(u, dtype=float)
    g = mx.fundamental_tensor(metric, v)
    w = _canonical_flag_vector(g, v.y, u)[..., :, None]    # columns
    F = np.asarray(metric.F_value(v.x, v.y))
    orbit = transport(metric, v, T=frame_reach(h),
                      resolution=frame_resolution(h, resolution))
    inv = jacobi_frame(orbit, 0.0, h=h).invariants
    K_plane = 0.5 * inv.Schwarzian        # K on span(A) in the frame basis
    num = (K_plane @ w).mT @ inv.W @ w
    den = w.mT @ inv.W @ w
    K = num[..., 0, 0] / den[..., 0, 0] / (F * F)
    return float(K) if K.ndim == 0 else K


# ---------------------------------------------------------------------------
# Riemann-tensor oracle
# ---------------------------------------------------------------------------

def christoffel(g_callable, x):
    """g, its Christoffel symbols Gam[..., i, j, k] and their x-derivatives
    dGam[..., i, j, k, p] = d_p Gam^i_{jk}, exact from one order-2 jet pass
    of g; x of shape S+(n,) gives a batch S of each.

    d(g^-1) = -g^-1 dg g^-1 differentiates the inverse.
    """
    x = np.asarray(x, dtype=float)
    S, n = x.shape[:-1], x.shape[-1]
    entries = [e for row in g_callable(jet_variables(x, order=2)) for e in row]
    # the r-th x-derivatives of g_ab, on r last axes after a and b, made
    # contiguous (einsum is slower on the strided views `stack` returns)
    g, dg, ddg = (np.ascontiguousarray(s).reshape(
        S + (n, n) + s.shape[len(S) + 1:]) for s in stack(entries, S, n))
    ginv = np.linalg.inv(g)
    # first kind, Gam_ljk = (d_j g_lk + d_k g_lj - d_l g_jk) / 2, and its d_p
    low = 0.5 * (np.einsum("...lkj->...ljk", dg) + dg
                 - np.einsum("...jkl->...ljk", dg))
    dlow = 0.5 * (np.einsum("...lkjp->...ljkp", ddg) + ddg
                  - np.einsum("...jklp->...ljkp", ddg))
    Gam = np.einsum("...il,...ljk->...ijk", ginv, low)
    dGam = np.einsum("...il,...ljkp->...ijkp", ginv,
                     dlow - np.einsum("...lbp,...bjk->...ljkp", dg, Gam))
    return g, Gam, dGam


def riemann_oracle(g_callable, x, v, u):
    """Sectional curvature of span(v, u) at x from the Riemann tensor of g.

    Exact: Christoffel symbols and their derivatives come from one order-2
    jet pass of g (`christoffel`).  The oracle shares only `Jet` arithmetic
    and the metric's own g with the curvature pipeline, and nothing with
    `energy_jet`, `spray_data`, transport or frames.  x, v and u of shape
    S+(n,) give a batch: a float for a single flag, an array of shape S for
    a batch; an error names the lowest failing flag.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    G0, Gam, dGam = christoffel(g_callable, x)
    # R^i_{jkl} = d_k Gam^i_{lj} - d_l Gam^i_{kj} + Gam^i_{km} Gam^m_{lj}
    #                                             - Gam^i_{lm} Gam^m_{kj}
    R = (np.einsum("...iljk->...ijkl", dGam)
         - np.einsum("...ikjl->...ijkl", dGam)
         + np.einsum("...ikm,...mlj->...ijkl", Gam, Gam)
         - np.einsum("...ilm,...mkj->...ijkl", Gam, Gam))
    # R(u, v)v with R(d_k, d_l) d_j = R^i_{jkl} d_i
    Ruvv = np.einsum("...ijkl,...k,...l,...j->...i", R, u, v, v)

    def pair(a, b):
        return np.einsum("...i,...ij,...j->...", a, G0, b)

    den = pair(u, u) * pair(v, v) - pair(u, v) ** 2
    raise_at(DegenerateFlag, den <= 0.0, lambda i: "flag vectors are parallel")
    K = pair(Ruvv, u) / den
    raise_at(NonFiniteValue, ~np.isfinite(K),
             lambda i: "Riemann oracle produced a non-finite value")
    return float(K) if K.ndim == 0 else K
