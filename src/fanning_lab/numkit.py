"""Numerical substrate: generic smooth functions, finite-difference
stencils, a fixed-step Runge-Kutta integrator and fiber Hessians.

Exact derivatives come from the truncated Taylor scalars of `jets`; the
smooth functions below dispatch on the scalar type so one evaluator serves
floats and jets.  Finite differences are reserved for t-derivatives of
quantities defined only along numerically transported curves.

All matrices are dense numpy arrays; the supported regime is chart dimension
n <= 8, so no sparse machinery exists anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .jets import Jet, jet_variables

__all__ = [
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "scalar_value",
    "Stencil",
    "fornberg_weights",
    "central_derivative",
    "central_second_derivative",
    "rk_integrate",
    "rk4_step",
    "fiber_hessian",
]


def scalar_value(x):
    """Float value of a plain number or a jet."""
    return float(x.value if isinstance(x, Jet) else x)


# Smooth functions dispatching on scalar type, so metric evaluators can be
# written once and run on floats and jets alike.

def sqrt(x):
    return x.sqrt() if hasattr(x, "sqrt") else math.sqrt(x)


def exp(x):
    return x.exp() if hasattr(x, "exp") else math.exp(x)


def log(x):
    return x.log() if hasattr(x, "log") else math.log(x)


def sin(x):
    return x.sin() if hasattr(x, "sin") else math.sin(x)


def cos(x):
    return x.cos() if hasattr(x, "cos") else math.cos(x)


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
        if self.h <= 0.0:
            raise DimensionMismatch("stencil half-width must be positive")
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


def _apply_weights(samples, weights):
    out = weights[0] * np.asarray(samples[0], dtype=float)
    for w, s in zip(weights[1:], samples[1:]):
        out = out + w * np.asarray(s, dtype=float)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue("finite-difference combination is not finite")
    return out


def central_derivative(samples, stencil: Stencil) -> np.ndarray:
    """First t-derivative at the stencil center from matrix samples at its nodes.

    Truncation error is O(h^order); samples must match the node count.
    """
    if len(samples) != len(stencil.offsets):
        raise DimensionMismatch(
            f"expected {len(stencil.offsets)} samples, got {len(samples)}")
    w = fornberg_weights(stencil.t, stencil.nodes, 1)
    return _apply_weights(samples, w)


def central_second_derivative(samples, stencil: Stencil) -> np.ndarray:
    """Second t-derivative at the stencil center (same node layout)."""
    if len(samples) != len(stencil.offsets):
        raise DimensionMismatch(
            f"expected {len(stencil.offsets)} samples, got {len(samples)}")
    w = fornberg_weights(stencil.t, stencil.nodes, 2)
    return _apply_weights(samples, w)


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def rk4_step(field, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step for an autonomous field."""
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk_integrate(field, y0, t0: float, t1: float, steps: int):
    """Integrate dy/dt = field(y) on [t0, t1] with `steps` RK4 steps.

    Returns the list of (t, y) samples on the uniform grid, endpoints
    included.  Deterministic for fixed inputs.
    """
    if steps < 1:
        raise DimensionMismatch("steps must be >= 1")
    y = np.array(y0, dtype=float)
    h = (t1 - t0) / steps
    out = [(t0, y.copy())]
    for k in range(steps):
        y = rk4_step(field, y, h)
        if not np.all(np.isfinite(y)):
            raise NonFiniteValue(f"integration blew up at t={t0 + (k + 1) * h}")
        out.append((t0 + (k + 1) * h, y.copy()))
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
        r = Jet.constant(r, n, 2)
    H = r.check_finite().H
    return 0.5 * (H + H.T)
