"""Jacobi curves of geodesic flows and the flag curvature.

The geodesic flow is integrated jointly with its linearization M(t) (the
differential of the flow at the base point, satisfying Mdot = DS M).  Pulling
the vertical planes at the moving point back through M(t) produces a curve of
n-planes in the fixed tangent space at the base point; its fanning invariants,
paired with the pulled-back symplectic form, yield the flag curvature and the
curvature endomorphism.

The stored orbit is integrated on one symmetric grid over [-T, T],
sized by the spacing h it is read at: each spacing takes whole RK4 steps
of at most WINDOW_STEP, so that every stencil node is a grid node.  The
spray and its Jacobian are kept with each grid state, where they are the
first stage of the step that leaves it, so frames evaluate nothing, and
the orbit is read only at its grid nodes (`OrbitData`).

`transport` and `flag_curvature` take a batch of phase points (x, y of
shape S+(n,); a single point is S = ()) and integrate them in lockstep,
the two halves of a window as lanes of a last batch axis (`_flow`): one
`spray_data` call per RK4 stage for all.  One order-3 energy jet at v0
gives the spray data there and the form, and the t = 0 Wronskian is the
fundamental tensor at v0 bit for bit, so `flag_curvature` jets its flag
points once.  A window's half-width is a whole number of spacings, its
reach.  Frames at h = 1e-3 and reductions at h = 2.5e-3 both take one
RK4 step per spacing: one spray evaluation (energy jet) at v0 and 4 for
each step, the last at the node it reaches, so a frame window read at
t = 0 (`frame_invariants`, reach 2) makes 9 and a reduction window
(reach 3) 13.  A failure names the lowest failing flag, whichever lane
fails.

`geodesic` integrates (x, y) alone, with the spray and no Jacobian.  The
flow maps Jacobi curves to Jacobi curves symplectically, so the invariants
of an orbit's curve at t are those of the point reached at t, read at 0:
samples along an orbit take one `geodesic` pass and one batched frame
window.  Nothing differentiates the pass along t, so it takes whole
Gragg-Bulirsch-Stoer steps (`numkit.gbs_step`, order 8) of at most
GEODESIC_STEP from sample to sample: 8 batched spray calls a step, its
four extrapolation rungs as lanes of a last batch axis.

The oracle for all Riemannian instances is the Riemann tensor of g, with
exact Christoffel symbols and derivatives from one order-2 jet pass of g
over a whole batch of flags; it shares only `Jet` arithmetic and g with
the pipeline.

Reductions of a Jacobi curve, the contact splitting by ker dF among them,
live in `reduction`.
"""

from __future__ import annotations

import math
import numbers
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
    "frame_invariants",
    "flag_curvature",
    "christoffel",
    "riemann_oracle",
    "DEFAULT_FRAME_H",
    "WINDOW_STEP",
    "GEODESIC_STEP",
]

DEFAULT_FRAME_H = 1e-3         # spacing of the Jacobi-frame stencil
GEODESIC_STEP = 0.05           # longest GBS step of a `geodesic` pass
# Longest RK4 step of a `transport` window: one step per spacing at the
# frame spacing 1e-3 and at the reduction spacing 2.5e-3, where the step
# and the spacing are one (`reduction._REDUCTION_H`).
WINDOW_STEP = 2.5e-3


# ---------------------------------------------------------------------------
# transport of the flow and its linearization
# ---------------------------------------------------------------------------

@dataclass
class OrbitData:
    """Geodesic orbit with the transported linearization.

    ts is the symmetric grid of the window [-T, T], T a whole number of
    the spacings h its frames read it at; states maps its nodes
    to (x, y, M) with M(t) the differential of the time-t flow at v0, and
    sprays to the spray data (G, DS) at each state; omega is the
    symplectic form at v0, the fixed ambient form for every frame along
    this orbit, from the same energy jet as the spray data at v0 (its g
    block is the fundamental tensor at v0).  For a batch v0 every array
    carries its batch axes first.  Immutable after construction; read only
    at its nodes.
    """

    metric: mx.MetricSpec
    v0: mx.PhasePoint
    h: float
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


def _flow(metric, state, spray, dt, steps):
    """RK4 steps of dt from one state (x, y, M) forward and backward,
    `steps` each way, as two lanes on a last batch axis: lane 0 forward,
    lane 1 backward with the negated field and the positive step, which
    rounds as a run of its own with the negative step would.

    A node's spray data is the first stage of the step that leaves it:
    spray, already evaluated by the caller, starts the first step, and
    the spray data read after each step starts the next.  Returns the
    states on the grid after the start and the spray data (G, DS) at each
    of them, all with the lane axis.  Raises OutOfChart, naming the flag
    of a batch whichever lane fails, for a state outside the box before
    the metric is read there.
    """
    n = metric.n
    x, y, M = state
    lead = x.shape[:-1]
    sign = np.array([[1.0], [-1.0]])

    def rate(z, G, DS):
        M = z[..., 2 * n:].reshape(z.shape[:-1] + (2 * n, 2 * n))
        return sign * np.concatenate([z[..., n:2 * n], -2.0 * G,
                                      (DS @ M).reshape(z.shape[:-1] + (-1,))],
                                     axis=-1)

    def field(z):
        return rate(z, *_spray(metric, z[..., :n], z[..., n:2 * n]))

    z = np.concatenate([x, y, M.reshape(lead + (-1,))], axis=-1)
    # the start and its spray data, on both direction lanes
    z, *node = (np.broadcast_to(np.expand_dims(a, len(lead)),
                                lead + (2,) + a.shape[len(lead):])
                for a in (z, *spray))
    zs, sprays = [], []
    with lanes():
        for k in range(1, steps + 1):
            z = nk.rk4_step(field, z, dt, rate(z, *node))
            raise_at(NonFiniteValue, ~np.isfinite(z).all(axis=-1),
                     lambda i: f"integration blew up at t={k * dt}")
            node = _spray(metric, z[..., :n], z[..., n:2 * n])
            zs.append(z)
            sprays.append(node)
    return zs, sprays


def _check_chart(metric, x, t=None):
    """Refuse points outside the metric's box; t, when given, holds the
    time of each point, and the message names it."""
    def describe(i):
        at = "" if t is None else f"t={t[i]:.6g}, "
        return f"orbit left the chart at {at}x={x[i]}"

    raise_at(OutOfChart, ~metric.domain.contains(x), describe)


def _steps(span: float) -> int:
    """Whole steps for span, a time span in units of the step (a span
    over a step length or a spacing): the nearest integer when
    span is within 1e-9 (relative) of it, else the ceiling, and at least
    one.  A difference of grid times (say from np.linspace) scaled so can
    land just above the count meant."""
    k = round(span)
    return max(1, k if abs(span - k) <= 1e-9 * span else math.ceil(span))


def geodesic(metric: mx.MetricSpec, v0: mx.PhasePoint, times) -> np.ndarray:
    """Phase states (x, y) of the geodesic from v0 at the given times.

    Only (x, y) is integrated, with the spray alone: one order-2 energy jet
    per evaluation, no Jacobian.  The pass runs forward from t = 0 through
    the sorted requested times, and splits each segment dt between them
    into `_steps(dt / GEODESIC_STEP)` equal Gragg-Bulirsch-Stoer steps
    (`numkit.gbs_step`, 8 field calls each), so every requested time is
    reached exactly.  Unit-speed orbits on the unit sphere, sampled at 9
    times, land within 2e-15 of the great circle by t = 0.3 and within
    3e-14 by t = 1.  A negative time raises DimensionMismatch before the
    metric is read anywhere.  Every point is checked against the chart
    before the metric is read there; the time rides along as a last
    coordinate, so an error names t.  A batch v0 (shape S+(n,)) is
    integrated in lockstep, and an error names the lowest failing flag,
    whichever rung of a step fails; returns an array of shape
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
            steps = _steps((b - t) / GEODESIC_STEP)
            H = (b - t) / steps
            for k in range(1, steps + 1):
                z = nk.gbs_step(field, z, H)
                raise_at(NonFiniteValue, ~np.isfinite(z).all(axis=-1),
                         lambda i: f"integration blew up at t={t + k * H}")
            t = b
        out[times == b] = z[..., :2 * n]
    _check_chart(metric, z[..., :n], z[..., 2 * n])
    return out


def transport(metric: mx.MetricSpec, v0: mx.PhasePoint, reach: int,
              h: float) -> OrbitData:
    """Transport the flow differential over the window [-T, T] from v0,
    T = reach * h, to be read at multiples of the spacing h.

    Deterministic fixed-step RK4 on one symmetric grid,
    `_steps(h / WINDOW_STEP)` steps per spacing, so every multiple of h
    in the window is a node; a frame of order k at t reads k // 2
    spacings past t.  Raises DimensionMismatch, before the metric is
    read, for a reach that is not an integer >= 1 or an h that is not
    positive and finite; OutOfChart if the orbit leaves the metric's box
    within the window.  A batch v0 and the two directions are integrated
    in lockstep (`_flow`); an error names the lowest failing flag,
    whichever direction fails.
    """
    if not 0.0 < h < np.inf:
        raise DimensionMismatch(f"spacing h={h} is not positive and finite")
    if (isinstance(reach, bool) or not isinstance(reach, numbers.Integral)
            or reach < 1):
        raise DimensionMismatch(
            f"window reach {reach!r} is not a whole number of spacings >= 1")
    steps = reach * _steps(h / WINDOW_STEP)
    dt = reach * h / steps
    n, m2 = metric.n, 2 * metric.n
    lead = v0.x.shape[:-1]
    start = (v0.x, v0.y, np.broadcast_to(np.eye(m2), lead + (m2, m2)))
    # one energy jet at v0 gives its spray data and the form
    _check_chart(metric, v0.x)
    J0 = mx.energy_jet(metric, v0.x, v0.y)
    g0 = mx._fiber_tensor(J0, v0.x, v0.y)
    spray0 = mx._jet_spray(J0, g0, v0.y)
    zs, sprays = _flow(metric, start, spray0, dt, steps)

    def lane(k):
        return ([(z[..., k, :n], z[..., k, n:m2],
                  z[..., k, m2:].reshape(lead + (m2, m2))) for z in zs],
                [(G[..., k, :], DS[..., k, :, :]) for G, DS in sprays])

    (fwd, fwd_sprays), (bwd, bwd_sprays) = lane(0), lane(1)
    return OrbitData(metric=metric, v0=v0, h=h,
                     ts=dt * np.arange(-steps, steps + 1),
                     states=tuple(bwd[::-1] + [start] + fwd),
                     sprays=tuple(bwd_sprays[::-1] + [spray0] + fwd_sprays),
                     omega=fc.SymplecticForm(mx._jet_omega(J0, g0)))


# ---------------------------------------------------------------------------
# Jacobi frames
# ---------------------------------------------------------------------------

@dataclass
class JacobiCurveSample:
    """Frame stencil of the Jacobi curve at one time, plus its invariants."""

    frames: fc.FrameStencil
    invariants: fc.FanningInvariants


def jacobi_frame(orbit: OrbitData, t: float,
                 order: int = 4) -> JacobiCurveSample:
    """Sample the Jacobi curve around t on the stencil of the orbit's
    spacing, for every flag of the orbit at once.

    A and Adot are analytic in the transported data; Addot at each stencil
    node comes from differentiating the Adot samples once (shared nodes,
    off-center weights where needed), as the weighted differences from
    the node's own sample, so a constant Adot gives exactly 0.  Spray
    Jacobi curves are fanning; NotFanning names the lowest flag whose
    curve is not.
    """
    stc = nk.Stencil(t, orbit.h, order)
    As, Adots = zip(*(orbit.frame_data(tn) for tn in stc.nodes))
    triples = []
    for j, w in enumerate(nk.node_weights(orbit.h, order)):
        Addot = sum(wk * (Ak - Adots[j]) for wk, Ak in zip(w, Adots))
        triples.append(fc.FrameTriple(As[j], Adots[j], Addot))
    frames = fc.FrameStencil(stc, tuple(triples))
    return JacobiCurveSample(frames=frames,
                             invariants=fc.invariants(frames, orbit.omega))


def frame_invariants(metric: mx.MetricSpec, v: mx.PhasePoint,
                     h: float) -> fc.FanningInvariants:
    """Fanning invariants at t = 0 of the Jacobi curve of v (one point or
    a batch) from the frame stencil of spacing h, on a window of reach 2
    (the order-4 stencil's) transported at h, one RK4 step per spacing
    and 9 spray evaluations at h = 1e-3, 8 steps per spacing and 65 at
    h = 0.02, whose worst and median errors on the flags below match 20
    steps per spacing to 2 digits.  The difference of Adot, about
    eps / h^2, not the steps, sets the floor of K's error; a constant
    Adot (the flat metrics, and the Randers metric of a constant b) gives
    K = 0 exactly.  |K - K_ref| over 30 flags (`cli.sample_flags`, seed
    5, |x| < r; katok with unit y, conformal against `riemann_oracle`),
    worst and median:

        family                   r    2 steps per h      1 step per h
        sphere                 1.5   8.8e-9  4.9e-11    8.3e-9  1.1e-10
        hyperbolic             0.8   6.5e-8  1.6e-10    6.2e-8  1.7e-10
        randers (0.25, 0.05)   1.0        0        0         0        0
        conformal n=4, a=0.5   0.8  6.1e-11  5.1e-12   6.3e-11  6.0e-12
        katok(0.3)             0.8  2.2e-10  1.0e-10   3.2e-10  8.6e-11
    """
    return jacobi_frame(transport(metric, v, 2, h), 0.0).invariants


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
                   h: float = DEFAULT_FRAME_H):
    """Flag curvature of the flag (v, span[v, u]).

    K = g(Rw, w) / (g(w, w) g(y, y)), w the part of u g-orthogonal to y and
    g = g_F(v) the window's t = 0 Wronskian (g(y, y) = F^2, by Euler), so
    only the window evaluates v.  K is invariant under scaling of u, adding
    multiples of v to u, and scaling of v.  At time zero the frame basis is
    the vertical one, so the flag vector's coordinates are its components.

    v and u may hold a batch of flags (shape S+(n,)): one frame window
    (`frame_invariants`) serves them all.  Returns a float for a single
    flag and an array of shape S for a batch; an error names the lowest
    failing flag.
    """
    u = np.asarray(u, dtype=float)
    inv = frame_invariants(metric, v, h)
    # the t = 0 Wronskian is the fundamental tensor, bit for bit
    w = _canonical_flag_vector(inv.W, v.y, u)[..., :, None]    # columns
    y = v.y[..., :, None]
    K_plane = 0.5 * inv.Schwarzian        # K on span(A) in the frame basis
    num = (K_plane @ w).mT @ inv.W @ w
    den = (w.mT @ inv.W @ w) * (y.mT @ inv.W @ y)
    K = num[..., 0, 0] / den[..., 0, 0]
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
