"""Numerical substrate: generic smooth functions, finite-difference
stencils, one RK4 step (`rk4_step`) and a loop of them (`rk_integrate`),
one Gragg-Bulirsch-Stoer extrapolation step (`gbs_step`) and fiber
Hessians.

Exact derivatives come from the truncated Taylor scalars of `jets`; the
smooth functions below dispatch on the argument type so one evaluator
serves floats, batches of values and jets.  Finite differences are
reserved for t-derivatives of quantities defined only along numerically
transported curves.

All matrices are dense numpy arrays; the supported regime is chart dimension
n <= 8, so no sparse machinery exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, lanes, raise_at
from .jets import ELEMENTWISE, Jet, jet_variables

__all__ = [
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "scalar_value",
    "Stencil",
    "fornberg_weights",
    "node_weights",
    "central_derivative",
    "rk_integrate",
    "rk4_step",
    "gbs_step",
    "GBS_RUNGS",
    "stacked",
    "fiber_hessian",
]


def scalar_value(x):
    """Value of a plain number or a jet: a float, or an array over the
    batch axes of a batched jet."""
    v = x.v if isinstance(x, Jet) else x
    return np.asarray(v, dtype=float) if np.ndim(v) else float(v)


def _smooth(name):
    """Smooth function dispatching on the argument, so metric evaluators
    are written once and run on floats, batches of values and jets alike."""
    elementwise = ELEMENTWISE[name]

    def f(x):
        return getattr(x, name)() if isinstance(x, Jet) else elementwise(x)

    f.__name__ = f.__qualname__ = name
    return f


sqrt = _smooth("sqrt")
exp = _smooth("exp")
log = _smooth("log")
sin = _smooth("sin")
cos = _smooth("cos")


def stacked(op, error, describe, A, *args):
    """op(A, *args) for a stack of matrices A whose leading axes are a batch.

    A LinAlgError raises `error` instead, naming the lowest batch index at
    which op fails on its own (see errors.raise_at); describe(i) gives the
    message for index i.
    """
    try:
        return op(A, *args)
    except np.linalg.LinAlgError:
        bad = np.zeros(A.shape[:-2], dtype=bool)
        for i in np.ndindex(bad.shape):
            try:
                op(A[i], *(a[i] for a in args))
            except np.linalg.LinAlgError:
                bad[i] = True
        raise_at(error, bad, describe)
        raise


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stencil:
    """Symmetric finite-difference stencil of order 4 (5 nodes) or 6 (7 nodes)."""

    t: float
    h: float
    order: int = 4

    def __post_init__(self):
        if not 0.0 < self.h < np.inf:
            raise DimensionMismatch(
                f"spacing h={self.h} is not positive and finite")
        if self.order not in (4, 6):
            raise DimensionMismatch(f"unsupported stencil order {self.order}")

    @property
    def offsets(self):
        w = self.order // 2
        return [k for k in range(-w, w + 1)]

    @property
    def nodes(self):
        return [self.t + k * self.h for k in self.offsets]


def fornberg_weights(z: float, nodes, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z on given nodes.

    Classic recursion of Fornberg (Math. Comp. 51, 1988); exact for
    polynomials up to degree len(nodes)-1, which is what makes off-center
    differentiation on a shared stencil safe.
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if m >= n:
        raise DimensionMismatch("derivative order exceeds stencil size")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=16)
def node_weights(h: float, order: int) -> np.ndarray:
    """First-derivative weights at each node of a stencil, on its own
    nodes: row j differentiates at node j.  They depend on the node
    spacing alone, so one matrix, built at t = 0, serves every t."""
    nodes = Stencil(0.0, h, order).nodes
    W = np.array([fornberg_weights(z, nodes, 1) for z in nodes])
    W.flags.writeable = False
    return W


def central_derivative(samples, stencil: Stencil) -> np.ndarray:
    """First t-derivative at the stencil center from matrix samples at its
    nodes, with the center row of `node_weights`, as the weighted
    differences from the center sample: a constant sequence gives exactly
    0, whatever the rounding of the weights' sum.

    Truncation error is O(h^order); samples must match the node count.
    """
    if len(samples) != len(stencil.offsets):
        raise DimensionMismatch(
            f"expected {len(stencil.offsets)} samples, got {len(samples)}")
    c = stencil.order // 2
    w = node_weights(stencil.h, stencil.order)[c]
    samples = [np.asarray(s, dtype=float) for s in samples]
    out = sum(wk * (s - samples[c]) for wk, s in zip(w, samples))
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue("finite-difference combination is not finite")
    return out


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def rk4_step(field, y: np.ndarray, h: float, k1=None) -> np.ndarray:
    """One classical Runge-Kutta step for an autonomous field.

    The first stage is field(y), evaluated before the other three unless
    the caller passes it as k1.
    """
    if k1 is None:
        k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


GBS_RUNGS = (2, 4, 6, 8)   # midpoint substeps of the rungs of `gbs_step`


def gbs_step(field, y: np.ndarray, H: float) -> np.ndarray:
    """One Gragg-Bulirsch-Stoer step of length H for an autonomous field.

    Each rung runs the modified midpoint rule over H with n substeps, n in
    GBS_RUNGS, and no smoothing step; its end state has an error expansion
    in even powers of H/n (Gragg, SIAM J. Numer. Anal. 2, 1965).
    Aitken-Neville extrapolation of the end states to H/n = 0, in (H/n)^2,
    gives order 2k for k rungs (Hairer, Norsett & Wanner, Solving ODEs I,
    II.9).  Every rung starts from the one field(y), and after it the rungs
    no longer depend on each other, so they run in lockstep, as the
    parallel rows of the tableau of HNW II.9: lanes on a last batch axis,
    in rung order, and substep k reads the field once on the lanes of the
    rungs with more than k substeps.  A step makes 8 field calls, on y and
    then on 4, 3, 3, 2, 2, 1 and 1 lanes, for order 8.  Leading axes of y
    are a batch, as for `rk_integrate`, and the field must accept the
    extra lane axis; inside `errors.lanes`, a failure names the entry of
    the batch, whichever rung fails.
    """
    y = np.asarray(y, dtype=float)
    f0 = field(y)
    rungs = np.array(GBS_RUNGS)
    h = (H / rungs)[:, None]
    prev = np.repeat(y[..., None, :], len(rungs), axis=-2)
    cur = prev + h * f0[..., None, :]
    with lanes():
        for k in range(1, rungs[-1]):
            a = np.count_nonzero(rungs <= k)    # rungs a: are still running
            step = (2.0 * h[a:]) * field(cur[..., a:, :])
            prev[..., a:, :], cur[..., a:, :] = (cur[..., a:, :],
                                                 prev[..., a:, :] + step)
    above = []                  # the Neville tableau's previous row
    for j, n in enumerate(GBS_RUNGS):
        row = [cur[..., j, :]]
        for k in range(1, j + 1):
            ratio = (n / GBS_RUNGS[j - k]) ** 2
            row.append(row[-1] + (row[-1] - above[k - 1]) / (ratio - 1.0))
        above = row
    return above[-1]


def rk_integrate(field, y0, t0: float, t1: float, steps: int):
    """Integrate dy/dt = field(y) on [t0, t1] with `steps` RK4 steps.

    Returns the list of (t, y) samples on the uniform grid, endpoints
    included.  Deterministic for fixed inputs.  Leading axes of y0 are a
    batch of independent states, integrated in lockstep (the field must
    accept the batch); the state axis is the last one.
    """
    if steps < 1:
        raise DimensionMismatch("steps must be >= 1")
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    out = [(t0, y.copy())]
    for k in range(steps):
        y = rk4_step(field, y, h)
        t = t0 + (k + 1) * h
        raise_at(NonFiniteValue, ~np.isfinite(y).all(axis=-1),
                 lambda i: f"integration blew up at t={t}")
        out.append((t, y.copy()))
    return out


# ---------------------------------------------------------------------------
# fiber derivatives via jets
# ---------------------------------------------------------------------------

def fiber_hessian(f, x, y) -> np.ndarray:
    """Hessian in the fiber slot of f(x, y), symmetrized.

    One order-2 jet pass in the y slot.  f must accept sequences of
    scalar-like entries in both slots.  Raises NonFiniteValue if f fails or
    any derivative is NaN/inf.
    """
    n = len(y)
    try:
        r = f([float(v) for v in x], jet_variables(y, order=2))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteValue(f"evaluation failed at x={list(x)}, y={list(y)}: {exc}")
    if not isinstance(r, Jet):
        r = Jet(n, 2, r)
    H = r.check_finite().H
    return 0.5 * (H + H.T)
