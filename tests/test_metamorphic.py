"""Metamorphic relation of the flag curvature: a linear change of chart.

For an invertible linear L, the pulled-back metric F_L(x, y) = F(Lx, Ly)
has K_{F_L}(x, y, u) = K_F(Lx, Ly, Lu).  The relation is exact, and its
two sides run different code: F_L is a `custom_metric`, whose energy jet
jets F in all 2n phase variables, while each family takes its own x-jet
route (the Riemannian energy jet, `with_one_form`).
"""

import numpy as np
import pytest

from fanning_lab import deformations as df
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab.cli import sample_flags

FAMILIES = {
    "sphere": lambda: mx.zoo_metric("sphere"),
    "hyperbolic": lambda: mx.zoo_metric("hyperbolic"),
    "randers": lambda: mx.zoo_metric("randers", b=(0.25, 0.05)),
    "projective-sphere": lambda: df.projective_deform(
        mx.zoo_metric("sphere"), df.ambient_coordinate_form(0.2)),
}

# condition number 1.91; the flags' |x| < 0.3 keeps L x in every chart
L = np.eye(2) + 0.3 * np.random.default_rng(5).normal(size=(2, 2))


def linear(M, v):
    """M v for a sequence v of floats or jets."""
    return [sum(M[i, j] * v[j] for j in range(len(v)))
            for i in range(len(v))]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_flag_curvature_is_invariant_under_a_linear_pullback(family):
    # measured differences: sphere 2.2e-10, hyperbolic 3.1e-9, randers
    # 1.5e-24 (flat), projective sphere 1.5e-9, where K spreads over 0.57
    m = FAMILIES[family]()
    pulled = mx.custom_metric(lambda X, Y: m.F(linear(L, X), linear(L, Y)),
                              2, mx.Box.cube(2, 1.0))
    x, y, u = (np.array(a) for a in zip(*sample_flags(
        np.random.default_rng(5), 2, 30, 0.3)))
    K_pulled = jb.flag_curvature(pulled, mx.PhasePoint(x, y), u)
    K = jb.flag_curvature(m, mx.PhasePoint(x @ L.T, y @ L.T), u @ L.T)
    assert np.max(np.abs(K_pulled - K)) < 1e-8
    if family == "projective-sphere":
        assert np.ptp(K) > 0.5
