"""Shared generators for random frames, Lagrangian curves and symplectic maps."""

import numpy as np
import pytest

from fanning_lab import metrics as mx
from fanning_lab.fanning import FrameTriple, SymplecticForm


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def spray_field(m, z):
    """The geodesic spray (y, -2G(x, y)) of metric m at z = (x, y)."""
    n = m.n
    G, _ = mx.spray_data(m, z[:n], z[n:], with_jacobian=False)
    return np.concatenate([z[n:], -2.0 * G])


def random_fanning_triple(rng, n, cond_limit=50.0):
    """Random frame triple with a well-conditioned [A | Adot] block."""
    while True:
        A = rng.normal(size=(2 * n, n))
        Adot = rng.normal(size=(2 * n, n))
        if np.linalg.cond(np.hstack([A, Adot])) < cond_limit:
            break
    Addot = rng.normal(size=(2 * n, n))
    return FrameTriple(A, Adot, Addot)


def _sym(rng, n, scale=1.0):
    M = rng.normal(size=(n, n)) * scale
    return 0.5 * (M + M.T)


def lagrangian_graph_curve(rng, n, scale=0.4):
    """Analytic curve of Lagrangian planes A(t) = [I; Z(t)], Z symmetric.

    Z(t) = Z0 + t Z1 + t^2 Z2 + t^3 Z3 with Z1 positive definite, so the
    curve is fanning near t = 0.  Returns (A, Adot, Addot) callables.
    """
    Z0 = _sym(rng, n)
    Z1 = _sym(rng, n, scale) + 2.0 * np.eye(n)
    Z2 = _sym(rng, n, scale)
    Z3 = _sym(rng, n, scale)
    top = np.eye(n)
    zero = np.zeros((n, n))

    def Z(t):
        return Z0 + t * Z1 + t * t * Z2 + t ** 3 * Z3

    def A(t):
        return np.vstack([top, Z(t)])

    def Adot(t):
        return np.vstack([zero, Z1 + 2.0 * t * Z2 + 3.0 * t * t * Z3])

    def Addot(t):
        return np.vstack([zero, 2.0 * Z2 + 6.0 * t * Z3])

    return A, Adot, Addot


def random_lagrangian_triple(rng, n):
    A, Adot, Addot = lagrangian_graph_curve(rng, n)
    return FrameTriple(A(0.0), Adot(0.0), Addot(0.0))


def random_symplectic(rng, n, scale=0.3):
    """Cayley transform of a random Hamiltonian matrix (exactly symplectic)."""
    J = SymplecticForm.standard(n).Omega
    S = _sym(rng, 2 * n, scale)
    H = J @ S
    I = np.eye(2 * n)
    return np.linalg.solve(I - 0.5 * H, I + 0.5 * H)


def point_evaluations(monkeypatch):
    """Record every `MetricSpec.F_value` and `metrics.fundamental_tensor`
    call as (function name, metric name, x), except those inside
    `metrics.conorm`, whose Legendre solve evaluates both at preimages of
    a covector.  Returns the list the calls go to."""
    calls, inside = [], []
    F_value, tensor, conorm = (mx.MetricSpec.F_value, mx.fundamental_tensor,
                               mx.conorm)

    def in_conorm(*args):
        inside.append(1)
        try:
            return conorm(*args)
        finally:
            inside.pop()

    def F_spy(m, x, y):
        if not inside:
            calls.append(("F_value", m.name, np.array(x)))
        return F_value(m, x, y)

    def tensor_spy(m, p):
        if not inside:
            calls.append(("fundamental_tensor", m.name, p.x))
        return tensor(m, p)

    monkeypatch.setattr(mx, "conorm", in_conorm)
    monkeypatch.setattr(mx.MetricSpec, "F_value", F_spy)
    monkeypatch.setattr(mx, "fundamental_tensor", tensor_spy)
    return calls
