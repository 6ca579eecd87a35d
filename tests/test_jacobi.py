"""Tests for orbit transport, Jacobi frames, flag curvature and the oracle."""

import math

import numpy as np
import pytest

from conftest import point_evaluations
from fanning_lab import deformations as df
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab import numkit as nk
from fanning_lab import reduction as rd
from fanning_lab.cli import sample_flags, sample_in_ball
from fanning_lab.errors import (DegenerateFlag, DimensionMismatch,
                                NotPositiveDefinite, NotUnitSpeed, OutOfChart)


def pp(x, y):
    return mx.PhasePoint(np.asarray(x, float), np.asarray(y, float))


# -- transport ----------------------------------------------------------------

def test_transport_euclidean_linear_flow():
    m = mx.zoo_metric("euclidean")
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]), reach=10, h=0.1)
    for t in (-1.0, -0.4, 0.0, 0.3, 1.0):
        _, _, M = orbit.state(t)
        expected = np.block([[np.eye(2), t * np.eye(2)],
                             [np.zeros((2, 2)), np.eye(2)]])
        assert np.max(np.abs(M - expected)) < 1e-12


def test_transport_euclidean_flow_property():
    m = mx.zoo_metric("euclidean")
    v0 = pp([0.1, -0.2], [0.7, 0.2])
    orbit = jb.transport(m, v0, reach=10, h=0.1)
    _, _, M_s = orbit.state(0.4)
    _, _, M_ts = orbit.state(0.9)
    x, y, _ = orbit.state(0.4)
    orbit2 = jb.transport(m, pp(x, y), reach=6, h=0.1)
    _, _, M_t_at = orbit2.state(0.5)
    assert np.max(np.abs(M_ts - M_t_at @ M_s)) < 1e-12


def test_transport_grid_is_reach_spacings_of_whole_steps():
    # reach 3 at h = 0.1: T = 3 * 0.1, 40 steps of WINDOW_STEP per
    # spacing, so the grid is T / 120 times -120 .. 120 and the orbit
    # records its spacing
    m = mx.zoo_metric("euclidean")
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]), reach=3, h=0.1)
    assert orbit.h == 0.1
    assert np.array_equal(orbit.ts, 3 * 0.1 / 120 * np.arange(-120, 121))


def test_transport_window_ends_at_reach_spacings():
    # reach 3 at h = 1e-3 is one step per spacing: the multiples of h up
    # to 3h are nodes, and 4h lies outside the window
    m = mx.zoo_metric("euclidean")
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]), reach=3, h=1e-3)
    assert len(orbit.ts) == 7
    for k in range(-3, 4):
        assert orbit.state(k * 1e-3) is orbit.states[k + 3]
    for t in (-4e-3, 4e-3):
        with pytest.raises(OutOfChart, match=rf"^t={t} is not a node"):
            orbit.state(t)


@pytest.mark.parametrize("reach", [0, -1, 2.5, True, math.nan, 2.0, "2"])
def test_transport_refuses_a_reach_that_is_not_a_whole_number(reach):
    # the half-width counts spacings: anything but an integer >= 1 is
    # refused before the metric is read anywhere
    seen = []

    def g(x):
        seen.append(x)
        return [[1.0, 0.0], [0.0, 1.0]]

    m = mx.riemannian_metric(g, 2, mx.Box.cube(2, 1.0))
    seen.clear()
    with pytest.raises(DimensionMismatch,
                       match=r"^window reach .* is not a whole number"):
        jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]), reach, h=0.1)
    assert seen == []


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_transport_and_stencil_refuse_a_spacing_that_is_not_positive(h):
    m = mx.zoo_metric("sphere")
    v = pp([0.2, -0.1], [0.6, 0.3])
    message = rf"^spacing h={h} is not positive and finite$"
    with pytest.raises(DimensionMismatch, match=message):
        jb.transport(m, v, reach=10, h=h)
    with pytest.raises(DimensionMismatch, match=message):
        nk.Stencil(0.0, h)
    with pytest.raises(DimensionMismatch, match=message):
        jb.flag_curvature(m, v, [0.1, 1.0], h=h)


def test_orbit_reads_only_its_grid_nodes():
    # h = 1e-3 over [-3e-3, 3e-3]: one step per spacing, nodes at the
    # multiples of 1e-3
    m = mx.zoo_metric("euclidean")
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]), reach=3, h=1e-3)
    for t in (-3e-3, -1e-3, 0.0, 2e-3, 3e-3):
        k = int(np.argmin(np.abs(orbit.ts - t)))
        assert orbit.state(t) is orbit.states[k]
    for t in (5e-4, -2.5e-3, 1e-3 + 1e-9, 4e-3, -5e-3, 2.0):
        for read in (orbit.state, orbit.frame_data):
            with pytest.raises(OutOfChart, match=rf"^t={t} is not a node"):
                read(t)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("resolution", [1, 7, 400, 1500, 2000])
@pytest.mark.parametrize("h", [1e-3, 7e-4, 2.5e-3, 0.05])
def test_frame_resolution_puts_stencil_nodes_on_the_grid(h, resolution,
                                                         order, monkeypatch):
    # windows reaching order // 2 spacings past a centre, transported at h
    # with a window step of 1 / resolution: every stencil node around a
    # multiple of h is read off the grid, at no fewer steps per unit than
    # the resolution
    monkeypatch.setattr(jb, "WINDOW_STEP", 1.0 / resolution)
    m = mx.zoo_metric("euclidean")
    for centre in (0, 3):
        orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.5]),
                             centre + order // 2, h)
        dt = orbit.ts[1] - orbit.ts[0]
        assert dt <= (1.0 + 1e-9) / resolution
        assert h / dt == pytest.approx(round(h / dt), rel=1e-9)
        for t in (-centre * h, centre * h):
            for tn in nk.Stencil(t, h, order).nodes:
                orbit.state(tn)
            jb.jacobi_frame(orbit, t, order=order)


@pytest.mark.parametrize("s, half_width, reach, h", [
    (0.0, 0.5, 100, 0.01),
    (0.0, 0.5, 51, 0.505 / 51),
    # the last state crosses x1 = 0.2447, no point the metric is read at does
    (-1.0, 0.2447, 2, 0.125),
], ids=["midway", "last-step", "last-state-only"])
def test_transport_out_of_chart(s, half_width, reach, h, monkeypatch):
    # conformal factor 1 / (1 + s|x|^2)^2: Euclidean for s = 0, a scaled
    # Poincare disk for s = -1; the metric must never be read outside the box
    # one point is read as a batch (its two time directions), so the spy
    # records every coordinate of a batched read.  One step per spacing:
    # 100, 51 and 2 steps each way
    monkeypatch.setattr(jb, "WINDOW_STEP", h)
    seen = []

    def g(x):
        seen.extend(np.ravel([nk.scalar_value(c) for c in x]))
        c = 1.0 / (1.0 + s * (x[0] * x[0] + x[1] * x[1])) ** 2
        return [[c, 0.0], [0.0, c]]

    m = mx.riemannian_metric(g, 2, mx.Box.cube(2, half_width))
    with pytest.raises(OutOfChart):
        jb.transport(m, pp([0.0, 0.0], [1.0, 0.0]), reach, h)
    assert np.max(np.abs(seen)) <= half_width


def test_transport_symplecticity_drift_sphere():
    m = mx.zoo_metric("sphere")
    v0 = pp([0.1, 0.3], [0.45, -0.1])
    orbit = jb.transport(m, v0, reach=4, h=0.5)
    O0 = orbit.omega.Omega
    worst = 0.0
    for t in (0.5, 1.0, 2.0, -1.5, -2.0):
        x, y, M = orbit.state(t)
        Ot = mx.omega_matrix(m, pp(x, y))
        worst = max(worst, float(np.max(np.abs(M.T @ Ot @ M - O0))))
    assert worst < 1e-7


def test_transport_energy_conservation():
    m = mx.zoo_metric("randers", b=(0.2, -0.1))
    v0 = pp([0.0, 0.0], [0.8, 0.6])
    orbit = jb.transport(m, v0, reach=4, h=0.25)
    f0 = m.F_value(v0.x, v0.y)
    for t in np.linspace(-1.0, 1.0, 9):
        x, y, _ = orbit.state(float(t))
        assert abs(m.F_value(x, y) - f0) < 1e-7


# -- Jacobi frames --------------------------------------------------------------

def test_jacobi_frame_euclidean_closed_form():
    m = mx.zoo_metric("euclidean")
    # dt = 1e-3, so the grid holds the stencil nodes t +- h, t +- 2h
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.0]), reach=500,
                         h=jb.DEFAULT_FRAME_H)
    for t in (0.0, 0.2, -0.3):
        sample = jb.jacobi_frame(orbit, t)
        expected = np.vstack([-t * np.eye(2), np.eye(2)])
        assert np.max(np.abs(sample.frames.center.A - expected)) < 1e-10
        assert np.max(np.abs(sample.invariants.K)) < 1e-8


def test_jacobi_frame_initial_plane_is_vertical():
    m = mx.zoo_metric("sphere")
    orbit = jb.transport(m, pp([0.2, 0.1], [0.5, -0.3]), reach=10,
                         h=jb.DEFAULT_FRAME_H)
    A = jb.jacobi_frame(orbit, 0.0).frames.center.A
    assert np.max(np.abs(A - np.vstack([np.zeros((2, 2)), np.eye(2)]))) < 1e-12


def test_wronskian_at_zero_equals_fundamental_tensor():
    m = mx.zoo_metric("sphere")
    v0 = pp([0.3, -0.1], [0.7, 0.2])
    orbit = jb.transport(m, v0, reach=10, h=jb.DEFAULT_FRAME_H)
    W = jb.jacobi_frame(orbit, 0.0).invariants.W
    g = mx.fundamental_tensor(m, v0)
    assert np.max(np.abs(W - g)) < 1e-8


def test_wronskian_matches_fundamental_tensor_along_orbit():
    # the Wronskian of the Jacobi curve, read in the transported vertical
    # basis, reproduces the fundamental tensor at the moving point
    for mid, kw in (("sphere", {}), ("randers", {"b": (0.25, 0.05)})):
        m = mx.zoo_metric(mid, **kw)
        v0 = pp([0.05, 0.1], [0.55, 0.15])
        orbit = jb.transport(m, v0, reach=1000, h=jb.DEFAULT_FRAME_H)
        for t in (0.0, 0.33, 0.8):
            inv = jb.jacobi_frame(orbit, t).invariants
            x, y, _ = orbit.state(t)
            g = mx.fundamental_tensor(m, pp(x, y))
            assert np.max(np.abs(inv.W - g)) < 1e-6


# -- flag curvature -------------------------------------------------------------

def test_flag_curvature_euclidean_zero(rng):
    m = mx.zoo_metric("euclidean")
    for _ in range(4):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K = jb.flag_curvature(m, pp(x, y), u)
        assert abs(K) < 1e-8


def test_flag_curvature_sphere_plus_one(rng):
    m = mx.zoo_metric("sphere")
    for _ in range(4):
        x = rng.uniform(-1.0, 1.0, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K = jb.flag_curvature(m, pp(x, y), u)
        assert abs(K - 1.0) < 1e-4


def test_flag_curvature_far_out_on_the_sphere_chart():
    # |x| = 12 is inside the chart box [-40, 40]^2; det(omega) = det(g)^2
    # is about 1e-17 there, which a determinant check took for degenerate
    m = mx.zoo_metric("sphere")
    K = jb.flag_curvature(m, pp([12.0, 0.0], [1.0, 0.5]), [0.2, 1.0])
    assert abs(K - 1.0) < 1e-5


def test_flag_curvature_poincare_minus_one(rng):
    m = mx.zoo_metric("hyperbolic")
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K = jb.flag_curvature(m, pp(x, y), u)
        assert abs(K + 1.0) < 1e-4


def test_flag_curvature_degenerate_flag():
    m = mx.zoo_metric("euclidean")
    with pytest.raises(DegenerateFlag):
        jb.flag_curvature(m, pp([0.0, 0.0], [1.0, 1.0]), [2.0, 2.0])


# the metric and the radius |x| < r of the flags of each family
REPRESENTATIVE_FAMILIES = {
    "sphere": (lambda: mx.zoo_metric("sphere"), 1.5),
    "hyperbolic": (lambda: mx.zoo_metric("hyperbolic"), 0.8),
    "conformal-3": (lambda: mx.zoo_metric("riemannian-conformal", a=0.4,
                                          n=3), 0.5),
    "randers": (lambda: mx.zoo_metric("randers", b=(0.25, 0.05)), 1.0),
    "projective-sphere": (lambda: df.projective_deform(
        mx.zoo_metric("sphere"), df.ambient_coordinate_form(0.2)), 0.5),
    "katok": (lambda: df.katok_metric(0.3), 0.8),
}


@pytest.mark.parametrize("family", sorted(REPRESENTATIVE_FAMILIES))
def test_flag_curvature_representative_invariance(family):
    # u -> 2.7 u + 0.8 y leaves the window alone and changes K only by
    # rounding; y -> lam y rescales the window's time, and K = g(Rw, w) /
    # (g(w, w) g(y, y)) is 0-homogeneous in y up to the window's error,
    # which is smallest around unit speed (worst 1.5e-9 relative here)
    make, radius = REPRESENTATIVE_FAMILIES[family]
    m = make()
    flags = sample_flags(np.random.default_rng(7), m.n, 30, radius)
    x, y, u = (np.array(a) for a in zip(*flags))
    y = y / m.F_value(x, y)[:, None]
    K = jb.flag_curvature(m, pp(x, y), u)
    scale = np.maximum(1.0, np.abs(K))
    K_u = jb.flag_curvature(m, pp(x, y), 2.7 * u + 0.8 * y)
    assert np.max(np.abs(K_u - K) / scale) < 1e-12
    for lam in (0.5, 1.9):
        K_y = jb.flag_curvature(m, pp(x, lam * y), u)
        assert np.max(np.abs(K_y - K) / scale) < 1e-7


def test_flag_curvature_scaled_sphere():
    m = mx.zoo_metric("sphere", radius=2.0)
    K = jb.flag_curvature(m, pp([0.2, 0.1], [1.0, 0.4]), [0.0, 1.0])
    assert abs(K - 0.25) < 1e-4


def test_flag_curvature_default_window_is_frame_reach(monkeypatch):
    m = mx.zoo_metric("sphere")
    v, u = pp([0.2, -0.1], [0.6, 0.3]), [0.1, 1.0]
    h = jb.DEFAULT_FRAME_H
    transport = jb.transport
    orbits = []

    def spy(*args, **kwargs):
        orbits.append(transport(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(jb, "transport", spy)
    K = jb.flag_curvature(m, v, u)
    (orbit,) = orbits
    assert orbit.h == h
    assert orbit.ts[0] == -2 * h and orbit.ts[-1] == 2 * h
    for t in nk.Stencil(0.0, h).nodes:
        idx = int(np.argmin(np.abs(orbit.ts - t)))
        assert orbit.state(t) is orbit.states[idx]


def spray_calls_of_flag_curvature(monkeypatch, x, y, u, h):
    # every spray evaluation, `spray_data` or the window's one at v0, goes
    # through `_jet_spray`
    calls = []
    jet_spray = mx._jet_spray

    def counted(*args):
        calls.append(1)
        return jet_spray(*args)

    monkeypatch.setattr(mx, "_jet_spray", counted)
    K = jb.flag_curvature(mx.zoo_metric("sphere"), pp(x, y), u, h=h)
    return np.shape(K), len(calls)


def test_flag_curvature_spray_evaluation_count(monkeypatch):
    # one RK4 step per stencil spacing, and the two directions of the
    # window run in lockstep: one call at v0, 3 + 4 for the two steps, and
    # one at both window ends completes the stored spray data (9); the 5
    # stencil frames read it
    assert spray_calls_of_flag_curvature(
        monkeypatch, [0.2, -0.1], [0.6, 0.3], [0.1, 1.0],
        jb.DEFAULT_FRAME_H) == ((), 9)


def test_batched_flag_curvature_spray_evaluation_count(monkeypatch):
    # a batch of flags takes the same 9 calls as one flag
    x, y, u = (np.tile(a, (30, 1))
               for a in ([0.2, -0.1], [0.6, 0.3], [0.1, 1.0]))
    assert spray_calls_of_flag_curvature(
        monkeypatch, x, y, u, jb.DEFAULT_FRAME_H) == ((30,), 9)


@pytest.mark.parametrize("batch", [(), (30,)], ids=["single", "batched"])
def test_flag_curvature_takes_one_energy_jet_per_spray_evaluation(
        batch, monkeypatch):
    # the window's order-3 jet at v0 gives its spray data and its form, and
    # the t = 0 Wronskian is the fundamental tensor: no other jet at the
    # flag point, so 9 jets for the 9 spray evaluations
    calls = []
    energy_jet = mx.energy_jet

    def counted(*args, **kwargs):
        calls.append(1)
        return energy_jet(*args, **kwargs)

    monkeypatch.setattr(mx, "energy_jet", counted)
    x, y, u = (np.broadcast_to(a, batch + (2,))
               for a in ([0.2, -0.1], [0.6, 0.3], [0.1, 1.0]))
    K = jb.flag_curvature(mx.zoo_metric("sphere"), pp(x, y), u)
    assert np.shape(K) == batch
    assert len(calls) == 9


@pytest.mark.parametrize("family", ["sphere", "katok"])
def test_flag_curvature_evaluates_its_flags_only_in_the_window(
        family, monkeypatch):
    # g is the t = 0 Wronskian and F^2 = g(y, y): no `F_value` or
    # `fundamental_tensor` call at the flag points, each of which would be
    # one more energy jet (on katok, one more support solve)
    make, radius = REPRESENTATIVE_FAMILIES[family]
    m = make()
    flags = sample_flags(np.random.default_rng(9), m.n, 4, radius)
    x, y, u = (np.array(a) for a in zip(*flags))
    calls = point_evaluations(monkeypatch)
    K = jb.flag_curvature(m, pp(x, y), u)
    assert K.shape == (4,) and np.all(np.isfinite(K))
    assert calls == []


# the zoo families, katok and a projective deformation, in every dimension
# the benchmark runs
BASE_POINT_METRICS = {
    "euclidean-3": lambda: mx.zoo_metric("euclidean", n=3),
    "sphere": lambda: mx.zoo_metric("sphere"),
    "hyperbolic": lambda: mx.zoo_metric("hyperbolic"),
    "conformal-4": lambda: mx.zoo_metric("riemannian-conformal", a=0.5, n=4),
    "conformal-8": lambda: mx.zoo_metric("riemannian-conformal", a=0.2, n=8),
    "randers": lambda: mx.zoo_metric("randers", b=(0.25, 0.05)),
    "katok": lambda: df.katok_metric(0.3),
    "projective-sphere": lambda: df.projective_deform(
        mx.zoo_metric("sphere"), df.ambient_coordinate_form(0.2)),
}


@pytest.mark.parametrize("name", sorted(BASE_POINT_METRICS))
def test_window_reads_the_fundamental_tensor_off_its_base_jet(name):
    # W at t = 0 and the g block of the window's form are the fundamental
    # tensor bit for bit, and so is the rest of the form; the order-2 and
    # order-3 energy jets share their value, gradient and Hessian
    m = BASE_POINT_METRICS[name]()
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.4, 0.4, size=(3, m.n))
    y = rng.normal(size=(3, m.n))
    v, h, n = pp(x, y), jb.DEFAULT_FRAME_H, m.n
    g = mx.fundamental_tensor(m, v)
    orbit = jb.transport(m, v, reach=2, h=h)
    assert np.array_equal(jb.jacobi_frame(orbit, 0.0).invariants.W, g)
    assert np.array_equal(orbit.omega.Omega[..., :n, n:], g)
    assert np.array_equal(orbit.omega.Omega, mx.omega_matrix(m, v))
    J2, J3 = (mx.energy_jet(m, x, y, order=k) for k in (2, 3))
    for part in ("v", "g", "H"):
        assert np.array_equal(getattr(J2, part), getattr(J3, part))


def test_wide_stencil_window_takes_steps_of_the_window_step(monkeypatch):
    # h = 0.02 is 8 steps of WINDOW_STEP per spacing, not one: 16 steps
    # each way, 1 + 3 + 15 * 4 + 1 calls
    assert spray_calls_of_flag_curvature(
        monkeypatch, [0.2, -0.1], [0.6, 0.3], [0.1, 1.0], 0.02) == ((), 65)


# |K - K_ref| at the default window over 30 seeded flags: the metric, the
# radius |x| < r, K_ref (None for `riemann_oracle`) and the bound, 2.5x to
# 6x the worst error measured (the `frame_invariants` table)
WINDOW_ACCURACY = {
    "sphere": (lambda: mx.zoo_metric("sphere"), 1.5, 1.0, 1e-8),
    "hyperbolic": (lambda: mx.zoo_metric("hyperbolic"), 0.8, -1.0, 2e-7),
    "randers": (lambda: mx.zoo_metric("randers", b=(0.25, 0.05)), 1.0, 0.0,
                1e-8),
    "conformal-4": (lambda: mx.zoo_metric("riemannian-conformal", a=0.5,
                                          n=4), 0.8, None, 1e-9),
    "katok": (lambda: df.katok_metric(0.3), 0.8, 1.0, 1e-9),
}


@pytest.mark.parametrize("family", sorted(WINDOW_ACCURACY))
def test_flag_curvature_accuracy_at_one_step_per_spacing(family):
    make, radius, K_ref, bound = WINDOW_ACCURACY[family]
    m = make()
    flags = sample_flags(np.random.default_rng(5), m.n, 30, radius)
    x, y, u = (np.array(a) for a in zip(*flags))
    if family == "katok":
        y = y / m.F_value(x, y)[:, None]
    if K_ref is None:
        K_ref = jb.riemann_oracle(m.g, x, y, u)
    K = jb.flag_curvature(m, pp(x, y), u)
    assert np.max(np.abs(K - K_ref)) <= bound


BATCH_FAMILIES = {
    "sphere": (lambda: mx.zoo_metric("sphere"), 1.5),
    "hyperbolic": (lambda: mx.zoo_metric("hyperbolic"), 0.8),
    "randers": (lambda: mx.zoo_metric("randers", b=(0.25, 0.05)), 1.0),
    "conformal-3": (lambda: mx.zoo_metric("riemannian-conformal", a=0.5),
                    0.8),
    "katok": (lambda: df.katok_metric(0.3), 0.8),
}


@pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
def test_batched_flag_curvature_equals_per_flag_calls(family):
    m, radius = BATCH_FAMILIES[family][0](), BATCH_FAMILIES[family][1]
    flags = sample_flags(np.random.default_rng(30), m.n, 30, radius)
    x, y, u = (np.array(a) for a in zip(*flags))
    K = jb.flag_curvature(m, pp(x, y), u)
    assert K.shape == (30,)
    single = np.array([jb.flag_curvature(m, pp(*f[:2]), f[2]) for f in flags])
    assert np.max(np.abs(K - single)) <= 1e-12


def test_batched_transport_names_the_flag_that_leaves_the_box():
    # flags 2, 3 and 4 reach the edge x1 = 0.5 within the frame window;
    # 2 and 4 cross it at the same RK4 stage, 3 later, and the lowest
    # index of the first crossing is named
    m = mx.riemannian_metric(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
                             mx.Box.cube(2, 0.5))
    x = np.array([[0.0, 0.0], [0.1, 0.2], [0.4995, 0.0], [0.499, 0.1],
                  [0.4995, 0.1]])
    y = np.tile([1.0, 0.0], (5, 1))
    u = np.tile([0.0, 1.0], (5, 1))
    with pytest.raises(OutOfChart, match=r"^flag 2: orbit left the chart"):
        jb.flag_curvature(m, pp(x, y), u)
    # the batch without them runs
    keep = [0, 1]
    assert np.max(np.abs(jb.flag_curvature(m, pp(x[keep], y[keep]),
                                           u[keep]))) < 1e-8


def test_single_window_leaving_backward_names_no_flag():
    # the orbit crosses x1 = -0.5 at t = -0.05; a single point runs its two
    # directions as a batch of two, and still gets no flag label
    m = mx.riemannian_metric(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
                             mx.Box.cube(2, 0.5))
    with pytest.raises(OutOfChart, match=r"^orbit left the chart at x="):
        jb.transport(m, pp([-0.45, 0.1], [1.0, 0.0]), reach=10, h=0.01)


def test_lockstep_names_the_lowest_flag_whichever_direction_fails():
    # flag 2 crosses x1 = -0.5 going backward at the same RK4 stage as
    # flag 3 crosses x1 = 0.5 going forward
    m = mx.riemannian_metric(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2,
                             mx.Box.cube(2, 0.5))
    x = np.array([[0.0, 0.0], [0.1, 0.2], [-0.45, 0.1], [0.45, 0.1]])
    y = np.tile([1.0, 0.0], (4, 1))
    with pytest.raises(OutOfChart, match=r"^flag 2: orbit left the chart"):
        jb.transport(m, pp(x, y), reach=10, h=0.01)


def one_direction(m, v0, span, steps):
    """The states (x, y, M) and spray data of one direction of a transport
    window, integrated on its own: RK4 from (v0, I) over [0, span], the
    spray data stored at each step's first stage and at the end."""
    n = m.n
    sprays = []

    def field(z):
        sprays.append(mx.spray_data(m, z[..., :n], z[..., n:2 * n]))
        G, DS = sprays[-1]
        M = z[..., 2 * n:].reshape(z.shape[:-1] + (2 * n, 2 * n))
        return np.concatenate([z[..., n:2 * n], -2.0 * G,
                               (DS @ M).reshape(z.shape[:-1] + (-1,))], -1)

    lead = v0.x.shape[:-1]
    eye = np.broadcast_to(np.eye(2 * n), lead + (2 * n, 2 * n))
    z0 = np.concatenate([v0.x, v0.y, eye.reshape(lead + (-1,))], -1)
    zs = [z for _, z in nk.rk_integrate(field, z0, 0.0, span, steps)]
    end = mx.spray_data(m, zs[-1][..., :n], zs[-1][..., n:2 * n])
    return zs, sprays[::4] + [end]


@pytest.mark.parametrize("T, back", [(6, 6), (23, 1), (1, 6)],
                         ids=["back=T", "back<T", "back>T"])
@pytest.mark.parametrize("batch", [(), (4,)], ids=["single", "batch"])
@pytest.mark.parametrize("family", ["hyperbolic", "katok", "randers",
                                    "sphere"])
def test_lockstep_transport_equals_per_direction_runs(family, batch, T, back,
                                                     monkeypatch):
    # the window of W = max(T, back) spacings of 0.05 each way, at 100
    # steps per unit, against runs of their own over T and back spacings
    # on its step: each lane agrees with the run of its direction on every
    # node the run reaches, however long the window runs on.  spray_data
    # rounds a point inside a batch as on its own for Randers and katok, so
    # there the lockstep is bit for bit the two runs; sphere and hyperbolic
    # round the last bit differently at a single point
    m = BATCH_FAMILIES[family][0]()
    rng = np.random.default_rng(3)
    v0 = pp(rng.uniform(-0.3, 0.3, batch + (2,)),
            0.3 * rng.normal(size=batch + (2,)))
    W = max(T, back)
    monkeypatch.setattr(jb, "WINDOW_STEP", 0.01)
    orbit = jb.transport(m, v0, W, h=0.05)
    steps = 5 * W
    dt = W * 0.05 / steps
    fwd_steps, back_steps = 5 * T, 5 * back
    fwd, fwd_sprays = one_direction(m, v0, dt * fwd_steps, fwd_steps)
    bwd, bwd_sprays = one_direction(m, v0, -dt * back_steps, back_steps)
    zs, sprays = bwd[:0:-1] + fwd, bwd_sprays[:0:-1] + fwd_sprays
    assert len(orbit.states) == len(orbit.ts) == 2 * steps + 1
    nodes = slice(steps - back_steps, steps + fwd_steps + 1)
    exact = family in ("katok", "randers")
    for (x, y, M), z, got, ref in zip(orbit.states[nodes], zs,
                                      orbit.sprays[nodes], sprays,
                                      strict=True):
        pairs = [(np.concatenate([x, y, M.reshape(batch + (-1,))], -1), z),
                 (got[0], ref[0]), (got[1], ref[1])]
        for a, b in pairs:
            if exact:
                assert np.array_equal(a, b)
            assert np.max(np.abs(a - b)) <= 1e-13


# -- geodesic -------------------------------------------------------------------

def unit_sphere_great_circle(x0, y0, t):
    """States (x, y) at t of the unit-speed great circle through (x0, y0),
    in the stereographic chart of `zoo_metric('sphere')` (g = 4/(1+|x|^2)^2):
    p(t) = cos t p0 + sin t v0 on the embedded sphere, projected back."""
    def embed(x):
        s = 1.0 + x @ x
        return np.append(2.0 * x, x @ x - 1.0) / s

    def d_embed(x, y):
        s = 1.0 + x @ x
        return (np.append(2.0 * y, 2.0 * (x @ y)) / s
                - embed(x) * (2.0 * (x @ y)) / s)

    p = math.cos(t) * embed(x0) + math.sin(t) * d_embed(x0, y0)
    dp = -math.sin(t) * embed(x0) + math.cos(t) * d_embed(x0, y0)
    x = p[:2] / (1.0 - p[2])
    y = (dp[:2] * (1.0 - p[2]) + p[:2] * dp[2]) / (1.0 - p[2]) ** 2
    return np.concatenate([x, y])


# unsorted, and t = 0
GEODESIC_TIMES = [0.4, 0.7, 0.0, 1.1, 0.25]


def cli_starts(m, count):
    """The CLI's orbit start draw (x in the ball of radius 0.5, y scaled to
    F = 1) for seeds 0 to count - 1, stacked."""
    starts = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        x = sample_in_ball(rng, m.n, 0.5)
        y = rng.normal(size=m.n)
        starts.append((x, y / m.F_value(x, y)))
    return tuple(np.array(a) for a in zip(*starts))


def test_geodesic_great_circle_on_unit_sphere():
    m = mx.zoo_metric("sphere")
    x0 = np.array([0.3, -0.2])
    y0 = np.array([0.4, 0.5])
    y0 = y0 / m.F_value(x0, y0)
    states = jb.geodesic(m, pp(x0, y0), GEODESIC_TIMES)
    assert states.shape == (5, 4)
    assert np.array_equal(states[2], np.concatenate([x0, y0]))
    for t, z in zip(GEODESIC_TIMES, states):
        assert np.max(np.abs(z - unit_sphere_great_circle(x0, y0, t))) < 1e-11
        # and the fundamental tensor is (1 - p3)^2 I along it
        p3 = (z[:2] @ z[:2] - 1.0) / (z[:2] @ z[:2] + 1.0)
        g = mx.fundamental_tensor(m, pp(z[:2], z[2:]))
        assert np.max(np.abs(g - (1.0 - p3) ** 2 * np.eye(2))) < 1e-12


@pytest.mark.parametrize("orbit_time, state_tol, drift_tol", [
    (0.3, 1e-13, 1e-13),     # the orbit-comparison sphere job
    (1.0, 2e-12, 5e-13),     # the invariants-along-orbit default
])
def test_geodesic_at_the_orbit_resolution_on_unit_sphere(orbit_time,
                                                         state_tol,
                                                         drift_tol):
    # the CLI's start draw for seeds 0-7, sampled as its orbit job samples
    # them.  The worst start (seed 4) reaches |x| = 1.19 by t = 1.  The GBS
    # leg (one step of 0.0375 per segment at t = 0.3, three of 0.042 at
    # t = 1) has state error 1.2e-15 and 2.4e-14, drift 2.4e-15 and
    # 5.2e-15; the RK4 leg it replaced, at 400 steps per unit, had 7.0e-14
    # and 1.6e-12, and the bounds are that leg's
    m = mx.zoo_metric("sphere")
    x0, y0 = cli_starts(m, 8)
    ts = np.linspace(0.0, orbit_time, 9)
    states = jb.geodesic(m, pp(x0, y0), ts)
    for i, (x, y) in enumerate(zip(x0, y0)):
        ref = np.array([unit_sphere_great_circle(x, y, t) for t in ts])
        assert np.max(np.abs(states[:, i] - ref)) <= state_tol
    drift = m.F_value(states[..., :2], states[..., 2:]) - 1.0
    assert np.max(np.abs(drift)) <= drift_tol


def test_geodesic_of_constant_randers_is_a_straight_line():
    # F = |y| + b.y with constant b has the Euclidean straight lines at
    # constant velocity as geodesics; the orbit-comparison Randers job's
    # orbit (T = 0.15, 9 samples) for the CLI's starts of seeds 0-7 stays
    # on them to 2.8e-15
    m = mx.zoo_metric("randers", b=(0.25, 0.05))
    x0, y0 = cli_starts(m, 8)
    ts = np.linspace(0.0, 0.15, 9)
    states = jb.geodesic(m, pp(x0, y0), ts)
    ref = np.concatenate([x0 + ts[:, None, None] * y0,
                          np.broadcast_to(y0, (9,) + y0.shape)], axis=-1)
    assert np.max(np.abs(states - ref)) <= 1e-14


def test_geodesic_unsorted_times_match_single_time_calls():
    m = mx.zoo_metric("randers", b=(0.25, 0.05))
    v0 = pp([0.1, 0.2], [0.6, -0.3])
    states = jb.geodesic(m, v0, GEODESIC_TIMES)
    for t, z in zip(GEODESIC_TIMES, states):
        (single,) = jb.geodesic(m, v0, [t])
        assert np.max(np.abs(z - single)) < 1e-13


@pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
def test_batched_geodesic_equals_per_point_calls(family):
    # geodesic adds only elementwise work to spray_data; spray_data itself
    # rounds a point inside a batch and on its own differently in the last
    # bit for some families (the stacked matrix products), so the states
    # agree to rounding rather than bit for bit.  A GBS step sums its four
    # rungs' end states with the Neville weights at H/n = 0 for n = 2, 4,
    # 6, 8 (-0.0028, 0.356, -2.604, 3.251; sum 1), so a 1e-15 difference
    # in the rungs can reach sum |w| * 1e-15 = 6.2e-15; sphere reads 1.8e-15
    m, radius = BATCH_FAMILIES[family][0](), BATCH_FAMILIES[family][1]
    flags = sample_flags(np.random.default_rng(31), m.n, 4, 0.5 * radius)
    x, y = (np.array(a) for a in list(zip(*flags))[:2])
    y = y / m.F_value(x, y)[:, None]
    states = jb.geodesic(m, pp(x, y), GEODESIC_TIMES)
    assert states.shape == (5, 4, 2 * m.n)
    for i in range(4):
        single = jb.geodesic(m, pp(x[i], y[i]), GEODESIC_TIMES)
        assert np.max(np.abs(states[:, i] - single)) <= 6.2e-15


def test_geodesic_agrees_with_transport_on_the_grid():
    # GBS steps against RK4 at 400 steps per unit with the linearization
    # carried along: the two orbits agree to 8.9e-16
    m = mx.zoo_metric("randers", b=(0.2, -0.1))
    v0 = pp([0.0, 0.1], [0.8, 0.6])
    orbit = jb.transport(m, v0, reach=10, h=0.05)
    times = [0.5, 0.2, 0.1, 0.35]
    states = jb.geodesic(m, v0, times)
    for t, z in zip(times, states):
        x, y, _ = orbit.state(t)
        assert np.max(np.abs(z - np.concatenate([x, y]))) < 1e-13


def test_geodesic_names_the_absolute_time_it_leaves_the_box():
    # x1(t) = t on the Euclidean plane, box edge 0.503: the segment from
    # 0.45 takes GBS steps of 0.05, and the first point read outside is the
    # first substep of the 2-substep rung of the step from t = 0.5; the spy
    # records every coordinate the metric is read at
    seen = []

    def g(x):
        seen.extend(np.ravel([nk.scalar_value(c) for c in x]))
        return [[1.0, 0.0], [0.0, 1.0]]

    m = mx.riemannian_metric(g, 2, mx.Box.cube(2, 0.503))
    with pytest.raises(OutOfChart,
                       match=r"^orbit left the chart at t=0\.525, x="):
        jb.geodesic(m, pp([0.0, 0.0], [1.0, 0.0]), [0.1, 0.45, 0.8])
    assert np.max(np.abs(seen)) <= 0.503


def test_geodesic_refuses_negative_times_before_any_spray(monkeypatch):
    calls = []
    spray_data = mx.spray_data

    def counted(*args, **kwargs):
        calls.append(1)
        return spray_data(*args, **kwargs)

    monkeypatch.setattr(mx, "spray_data", counted)
    with pytest.raises(DimensionMismatch, match=r"t=-0\.2"):
        jb.geodesic(mx.zoo_metric("sphere"), pp([0.1, 0.2], [0.6, -0.3]),
                    [0.3, -0.2, 0.0])
    assert calls == []


@pytest.mark.parametrize("run, x1", [
    ("transport", r"1\.00"),
    # the one GBS step of 0.05 first reads the field at its first substep,
    # t = 0.025
    ("geodesic", r"1\.015"),
], ids=["transport", "geodesic"])
def test_orbit_into_an_indefinite_region_raises(run, x1):
    # g = diag(1, 1 - x1) is positive definite only for x1 < 1; the orbit
    # from x1 = 0.99 along e1 crosses x1 = 1 before t = 0.05, inside the box
    m = mx.riemannian_metric(lambda x: [[1.0, 0.0], [0.0, 1.0 - x[0]]], 2,
                             mx.Box.cube(2, 3.0))
    v = pp([0.99, 0.0], [1.0, 0.0])
    with pytest.raises(NotPositiveDefinite,
                       match=r"^fundamental tensor not positive definite "
                             r"at x=\[" + x1):
        if run == "transport":
            jb.transport(m, v, reach=100, h=5e-4)
        else:
            jb.geodesic(m, v, [0.05])


# -- Riemann oracle ---------------------------------------------------------------

def test_riemann_oracle_flat():
    g = lambda x: [[1.0, 0.0], [0.0, 1.0]]
    assert abs(jb.riemann_oracle(g, [0.3, 0.4], [1.0, 0.2], [0.1, 1.0])) < 1e-9


def test_riemann_oracle_sphere_consistency(rng):
    m = mx.zoo_metric("sphere")
    vals = []
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=2)
        vals.append(jb.riemann_oracle(m.g, x, [1.0, 0.0], [0.0, 1.0]))
    vals = np.array(vals)
    assert np.max(np.abs(vals - 1.0)) < 1e-6
    assert vals.max() - vals.min() < 1e-6


def test_riemann_oracle_conformal_closed_form(rng):
    a = 0.5
    m = mx.zoo_metric("riemannian-conformal", a=a, n=3)
    for _ in range(3):
        x = rng.uniform(-0.5, 0.5, size=3)
        # plane orthogonal to the gradient direction: K = -a^2 e^{-2 a x1}
        got = jb.riemann_oracle(m.g, x, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert got == pytest.approx(-a * a * math.exp(-2 * a * x[0]), abs=1e-6)
        # plane containing the gradient direction: flat
        got = jb.riemann_oracle(m.g, x, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert abs(got) < 1e-6


def conformal_curvature(a, x, y, u):
    """Sectional curvature of exp(2 a x1) I on span(y, u), per flag:
    -a^2 exp(-2 a x1) (1 - e1^2 - f1^2) for a Euclidean-orthonormal basis
    (e, f) of the plane."""
    e = y / np.linalg.norm(y, axis=-1, keepdims=True)
    f = u - np.sum(u * e, axis=-1, keepdims=True) * e
    f = f / np.linalg.norm(f, axis=-1, keepdims=True)
    return -a * a * np.exp(-2.0 * a * x[:, 0]) * (1.0 - e[:, 0] ** 2
                                                  - f[:, 0] ** 2)


def test_riemann_oracle_batch_matches_closed_forms(rng):
    def flags(n, count, radius, center=0.0):
        x, y, u = (np.array(a) for a in zip(*sample_flags(rng, n, count,
                                                          radius)))
        return x + center, y, u

    for mid, radius, K in (("sphere", 1.5, 1.0), ("hyperbolic", 0.8, -1.0)):
        x, y, u = flags(2, 20, radius)
        got = jb.riemann_oracle(mx.zoo_metric(mid).g, x, y, u)
        assert got.shape == (20,)
        assert np.max(np.abs(got - K)) < 1e-12
    for n in (3, 4):
        x, y, u = flags(n, 10, 1.0)
        m = mx.zoo_metric("riemannian-conformal", a=0.5, n=n)
        got = jb.riemann_oracle(m.g, x, y, u)
        assert np.max(np.abs(got - conformal_curvature(0.5, x, y, u))) < 1e-12
    # Hopf: the round 3-sphere (every plane, K = 1) over the 2-sphere of
    # half radius (K = 4), in Euler-angle charts
    scn = rd.submersion_scenario("hopf")
    x, y, u = flags(3, 10, 0.5, scn.suggested_x)
    K = jb.riemann_oracle(scn.total.g, x, y, u)
    assert np.max(np.abs(K - 1.0)) < 1e-12
    x, y, u = flags(2, 10, 0.5, scn.suggested_x[:2])
    K = jb.riemann_oracle(scn.base.g, x, y, u)
    assert np.max(np.abs(K - 4.0)) < 1e-12


def test_riemann_oracle_single_flag_is_float():
    got = jb.riemann_oracle(mx.zoo_metric("sphere").g, [0.3, -0.2],
                            [1.0, 0.1], [0.0, 1.0])
    assert isinstance(got, float)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_riemann_oracle_names_parallel_flag():
    x = np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]])
    y = np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 1.0]])
    u = np.array([[0.0, 1.0], [-1.0, -1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateFlag,
                       match=r"^flag 1: flag vectors are parallel"):
        jb.riemann_oracle(mx.zoo_metric("sphere").g, x, y, u)


def test_flag_curvature_matches_riemann_oracle_conformal(rng):
    m = mx.zoo_metric("riemannian-conformal", a=0.5, n=3)
    for _ in range(3):
        x = rng.uniform(-0.6, 0.6, size=3)
        y = rng.normal(size=3)
        u = rng.normal(size=3)
        K = jb.flag_curvature(m, pp(x, y), u)
        K_oracle = jb.riemann_oracle(m.g, x, y, u)
        scale = max(abs(K_oracle), 0.1)
        assert abs(K - K_oracle) / scale < 1e-3


def test_flag_curvature_time_invariance_sphere():
    m = mx.zoo_metric("sphere")
    v0 = pp([0.1, 0.2], [0.5, -0.2])
    orbit = jb.transport(m, v0, reach=2, h=0.4)
    vals = []
    for t in (0.0, 0.4, 0.8):
        x, y, _ = orbit.state(t)
        vals.append(jb.flag_curvature(m, pp(x, y), [-y[1], y[0]]))
    vals = np.array(vals)
    assert np.max(np.abs(vals - 1.0)) < 1e-4


# -- contact reduction ------------------------------------------------------------

def unit_vector(m, x, y):
    return np.asarray(y, float) / m.F_value(x, y)


def test_contact_reduce_needs_unit_speed():
    m = mx.zoo_metric("sphere")
    orbit = jb.transport(m, pp([0.0, 0.0], [1.0, 0.0]), reach=5,
                         h=rd._REDUCTION_H)
    with pytest.raises(NotUnitSpeed):
        rd.contact_reduce(orbit, 0.0)


def test_contact_reduce_r_at_zero_is_canonical():
    m = mx.zoo_metric("sphere")
    x = np.array([0.2, 0.0])
    y = unit_vector(m, x, [1.0, 0.3])
    orbit = jb.transport(m, pp(x, y), reach=8, h=rd._REDUCTION_H)
    split = rd.contact_reduce(orbit, 0.0)
    assert np.allclose(split.r, np.concatenate([np.zeros(2), y]), atol=1e-12)


def test_contact_reduce_euclidean_exact():
    m = mx.zoo_metric("euclidean")
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    orbit = jb.transport(m, pp(x, y), reach=60, h=rd._REDUCTION_H)
    split = rd.contact_reduce(orbit, 0.5)
    assert split.kr_residual < 1e-8
    assert split.block_residual < 1e-8
    assert split.alpha_residual < 1e-10


@pytest.mark.parametrize("metric_fn, x, y, reach, t, tol", [
    # the original case: loose kernel and block bounds
    (lambda: mx.zoo_metric("sphere"), [0.15, -0.1], [0.8, 0.25],
     45, 0.3, 1e-5),
    (lambda: mx.zoo_metric("sphere"), [0.15, -0.1], [0.8, 0.25],
     75, 0.7, 1e-10),
    (lambda: df.katok_metric(0.3), [0.15, -0.1], [0.8, 0.25],
     35, 0.3, 1e-10),
    # three dimensions: the contact part is a 2-plane
    (lambda: mx.zoo_metric("riemannian-conformal", n=3), [0.1, -0.2, 0.15],
     [0.6, 0.3, -0.5], 45, 0.4, 1e-10),
    (lambda: mx.zoo_metric("randers"), [0.1, -0.2], [0.6, 0.7],
     45, 0.4, 1e-10),
], ids=["sphere", "sphere-tight", "katok", "conformal-3d", "randers"])
def test_contact_reduce_sphere_identities(metric_fn, x, y, reach, t, tol):
    m = metric_fn()
    x = np.array(x)
    y = unit_vector(m, x, y)
    orbit = jb.transport(m, pp(x, y), reach, h=rd._REDUCTION_H)
    split = rd.contact_reduce(orbit, t)
    assert split.K_block.shape == (len(x) - 1, len(x) - 1)
    assert split.kr_residual < tol
    assert split.block_residual < tol
    assert split.w_residual < 1e-6
    assert split.alpha_residual < 1e-7
