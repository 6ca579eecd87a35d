"""Tests for the projective one-form deformation and the rotational
dual-norm perturbation of the sphere."""

import math

import numpy as np
import pytest

from conftest import point_evaluations, spray_field
from fanning_lab import cli
from fanning_lab import deformations as df
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab import numkit as nk
from fanning_lab.errors import SmallnessViolation


def pp(x, y):
    return mx.PhasePoint(np.asarray(x, float), np.asarray(y, float))


def constant_form(c):
    c = tuple(float(v) for v in c)

    def theta(x):
        return list(c)

    def potential(x):
        acc = c[0] * x[0]
        for i in range(1, len(c)):
            acc = acc + c[i] * x[i]
        return acc

    return df.ClosedOneForm(theta=theta, potential=potential)


def exact_form(scale=0.2):
    """Exact form with bounded dual norm on the whole sphere chart."""
    return df.ambient_coordinate_form(scale)


def nonclosed_form():
    def theta(x):
        return [x[1] * 0.5, -0.5 * x[0]]

    return df.ClosedOneForm(theta=theta, potential=lambda x: 0.0 * x[0])


# -- construction ---------------------------------------------------------------

def test_one_form_closedness_check():
    sphere = mx.zoo_metric("sphere")
    with pytest.raises(SmallnessViolation):
        df.projective_deform(sphere, nonclosed_form())


def test_one_form_consistency_helpers(rng):
    form = exact_form(0.2)
    xs = rng.uniform(-1, 1, size=(5, 2))
    assert form.closedness_residual(xs) < 1e-12
    assert form.gradient_matches_potential(xs) < 1e-12


def test_closedness_check_fails_on_a_small_form_that_is_not_closed():
    # |theta| <= 0.71 on the Euclidean chart box, so only closedness fails
    def theta(x):
        return [0.01 * x[1], -0.01 * x[0]]

    form = df.ClosedOneForm(theta=theta, potential=lambda x: 0.0 * x[0])
    assert form.closedness_residual(np.array([[0.3, -0.2]])) == 0.02
    with pytest.raises(SmallnessViolation, match="not closed"):
        df.projective_deform(mx.zoo_metric("euclidean"), form)


def test_projective_smallness_violation():
    euclid = mx.zoo_metric("euclidean")
    with pytest.raises(SmallnessViolation):
        df.projective_deform(euclid, constant_form((1.4, 0.0)))


def test_projective_smallness_uses_the_dual_norm_of_minus_theta():
    # on the non-reversible katok base F0*(theta) = 0.63 < 1 at x = (1, 0),
    # but F0*(-theta) = 1.17: F0 + theta is -0.131 at y = (0, 1)
    base = df.katok_metric(0.3)
    x, th = np.array([1.0, 0.0]), np.array([0.0, -0.9])
    assert mx.conorm(base, x, th) < 1.0 < mx.conorm(base, x, -th)
    assert base.F_value(x, np.array([0.0, 1.0])) + th[1] < 0.0
    with pytest.raises(SmallnessViolation):
        df._check_smallness(base, constant_form(th), x)


def quadratic_potential_deformation():
    """theta = d(0.25 x1^2), F0*(-theta) = 0.5 |x1|, on a euclidean chart
    small enough for F0 + theta: the flag points of an rhs check may lie
    outside it."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    base = mx.riemannian_metric(lambda x: eye, 2, mx.Box.cube(2, 1.0))
    form = df.ClosedOneForm(theta=lambda x: [0.5 * x[0], 0.0 * x[1]],
                            potential=lambda x: 0.25 * x[0] * x[0])
    return base, form, df.projective_deform(base, form)


def test_projective_smallness_failure_names_its_flag():
    # F0*(-theta) = 1.5 at the second flag
    base, form, deformed = quadratic_potential_deformation()
    x = np.array([[0.2, 0.0], [3.0, 0.0]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SmallnessViolation, match=r"^flag 1: "):
        df.projective_curvature_rhs(base, form, deformed, pp(x, y), y[::-1])


def test_projective_smallness_failure_of_a_single_flag_names_no_flag():
    base, form, deformed = quadratic_potential_deformation()
    with pytest.raises(SmallnessViolation, match=r"^F0\*\(-theta\) = 1\.5 "
                                                 r">= 1 at x=\[3\. 0\.\]$"):
        df.projective_curvature_rhs(base, form, deformed,
                                    pp([3.0, 0.0], [0.0, 1.0]), [1.0, 0.0])


def test_projective_smallness_failure_on_the_grid_names_no_flag():
    euclid = mx.zoo_metric("euclidean")
    with pytest.raises(SmallnessViolation, match=r"^F0\*\(-theta\) = 1.4 "
                                                 r">= 1 at x=\[-50\. -50\.\]$"):
        df.projective_deform(euclid, constant_form((1.4, 0.0)))


def test_projective_zero_form_is_identity(rng):
    sphere = mx.zoo_metric("sphere")
    deformed = df.projective_deform(sphere, constant_form((0.0, 0.0)))
    for _ in range(4):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        assert deformed.F_value(x, y) == pytest.approx(
            sphere.F_value(x, y), rel=1e-14)


def test_projective_deform_is_randers_sum():
    euclid = mx.zoo_metric("euclidean")
    deformed = df.projective_deform(euclid, constant_form((0.3, 0.0)))
    assert deformed.family == "randers"
    x, y = [0.2, 0.1], [1.0, 2.0]
    assert deformed.F_value(x, y) == pytest.approx(
        math.sqrt(5.0) + 0.3, rel=1e-14)


def test_projective_geodesic_traces_coincide(rng):
    # deformed and base geodesics share their unparametrized traces
    sphere = mx.zoo_metric("sphere")
    form = exact_form(0.15)
    deformed = df.projective_deform(sphere, form)
    for _ in range(3):
        x0 = rng.uniform(-0.4, 0.4, size=2)
        y0 = rng.normal(size=2)
        solF = nk.rk_integrate(lambda z: spray_field(deformed, z),
                               np.concatenate([x0, y0 / deformed.F_value(x0, y0)]),
                               0.0, 0.8, 800)
        sol0 = nk.rk_integrate(lambda z: spray_field(sphere, z),
                               np.concatenate([x0, y0 / sphere.F_value(x0, y0)]),
                               0.0, 1.2, 1200)
        trace0 = np.array([z[:2] for _, z in sol0])
        traceF = np.array([z[:2] for _, z in solF])

        def arclen(tr):
            seg = np.linalg.norm(np.diff(tr, axis=0), axis=1)
            return np.concatenate([[0.0], np.cumsum(seg)])

        s0, sF = arclen(trace0), arclen(traceF)
        keep = sF <= s0[-1]
        interp = np.stack([np.interp(sF[keep], s0, trace0[:, i])
                           for i in range(2)], axis=1)
        dist = np.max(np.linalg.norm(traceF[keep] - interp, axis=1))
        assert dist < 1e-5


def test_pushforward_of_deformed_spray(rng):
    # the spray of the deformed metric, carried over by the correspondence
    # of unit spheres, is phi times the base spray
    base = mx.zoo_metric("sphere")
    form = exact_form(0.15)
    deformed = df.projective_deform(base, form)
    for _ in range(3):
        x = rng.uniform(-0.4, 0.4, size=2)
        y = rng.normal(size=2)
        y = y / deformed.F_value(x, y)
        v = pp(x, y)
        th = np.array(form.theta(list(x)), float)
        xi = mx.legendre(deformed, v) - th
        u = mx.legendre_inverse(base, x, xi, warm=y)
        assert base.F_value(x, u) == pytest.approx(1.0, abs=1e-9)

        # numeric directional derivative of the unit-sphere correspondence
        # along the deformed spray
        vec = spray_field(deformed, np.concatenate([x, y]))
        h = 1e-6
        z0 = np.concatenate([x, y])

        def psi_of(z):
            vv = pp(z[:2], z[2:])
            th_z = np.array(form.theta(list(z[:2])), float)
            xi_z = mx.legendre(deformed, vv) - th_z
            u_z = mx.legendre_inverse(base, z[:2], xi_z, warm=z[2:])
            return np.concatenate([z[:2], u_z])

        dpsi = (psi_of(z0 + h * vec) - psi_of(z0 - h * vec)) / (2 * h)
        phi = 1.0 / (1.0 + th @ u)
        expected = phi * spray_field(base, np.concatenate([x, u]))
        assert np.max(np.abs(dpsi - expected)) < 1e-6


def test_unit_covectors_shift(rng):
    # unit covectors of the deformed metric are theta plus base unit covectors
    base = mx.zoo_metric("sphere")
    form = exact_form(0.15)
    deformed = df.projective_deform(base, form)
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.normal(size=2)
        y = y / deformed.F_value(x, y)
        xi = mx.legendre(deformed, pp(x, y))
        th = np.array(form.theta(list(x)), float)
        assert mx.conorm(base, x, xi - th) == pytest.approx(1.0, abs=1e-8)


def test_projective_rhs_zero_form_reduces_to_base_curvature(rng):
    sphere = mx.zoo_metric("sphere")
    form = constant_form((0.0, 0.0))
    deformed = df.projective_deform(sphere, form)
    x = rng.uniform(-0.5, 0.5, size=2)
    y = rng.normal(size=2)
    u = rng.normal(size=2)
    rhs = df.projective_curvature_rhs(sphere, form, deformed, pp(x, y), u)
    assert rhs == pytest.approx(1.0, abs=1e-4)


def test_projective_euclidean_constant_form_flat(rng):
    euclid = mx.zoo_metric("euclidean")
    form = constant_form((0.3, 0.0))
    deformed = df.projective_deform(euclid, form)
    for _ in range(3):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K_direct = jb.flag_curvature(deformed, pp(x, y), u)
        rhs = df.projective_curvature_rhs(euclid, form, deformed, pp(x, y), u)
        assert abs(K_direct) < 1e-6
        assert abs(rhs) < 1e-6


def test_projective_formula_on_sphere(rng):
    sphere = mx.zoo_metric("sphere")
    form = exact_form(0.2)
    deformed = df.projective_deform(sphere, form)
    for _ in range(3):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K_direct = jb.flag_curvature(deformed, pp(x, y), u)
        K_formula = df.projective_curvature_rhs(sphere, form, deformed,
                                                pp(x, y), u)
        assert abs(K_direct - K_formula) < 1e-3


def test_projective_reversal_relation_on_the_sphere():
    # F0 - theta is the reverse of F0 + theta, whose geodesics run the other
    # way, so K_{F0 - theta}(x, y, u) = K_{F0 + theta}(x, -y, u): the
    # backward half of one window against the forward half of the other.
    # 30 flags, |x| < 0.5: 3.2e-10, while K(y) and K(-y) differ by 0.61
    sphere = mx.zoo_metric("sphere")
    plus, minus = (df.projective_deform(sphere, df.ambient_coordinate_form(s))
                   for s in (0.2, -0.2))
    flags = cli.sample_flags(np.random.default_rng(5), 2, 30, 0.5)
    x, y, u = (np.array(a) for a in zip(*flags))
    K = jb.flag_curvature(minus, pp(x, y), u)
    assert np.max(np.abs(K - jb.flag_curvature(plus, pp(x, -y), u))) < 1e-8
    assert np.max(np.abs(K - jb.flag_curvature(minus, pp(x, -y), u))) > 0.1


def test_projective_rhs_spray_calls(monkeypatch, rng):
    # a batch of flags takes one default window for K0 (9 calls) and one
    # call that seeds the orbit jets of phi and f; no spray-only geodesic
    jet_spray = mx._jet_spray
    sphere, form = mx.zoo_metric("sphere"), exact_form(0.2)
    deformed = df.projective_deform(sphere, form)
    jacobian_calls = []

    def counted(J, g, y):
        jacobian_calls.append(J.T is not None)
        return jet_spray(J, g, y)

    monkeypatch.setattr(mx, "_jet_spray", counted)
    x = rng.uniform(-0.5, 0.5, size=(4, 2))
    df.projective_curvature_rhs(sphere, form, deformed,
                                pp(x, rng.normal(size=(4, 2))),
                                rng.normal(size=(4, 2)))
    assert jacobian_calls.count(False) == 0
    assert jacobian_calls.count(True) == 10


def test_projective_rhs_reads_F_off_one_tensor_per_metric(monkeypatch, rng):
    # F^2 = g(y, y), with g 0-homogeneous in y: one fundamental tensor of
    # the deformed metric, then one of the base, and no F_value call; the
    # smallness check's conorms are not counted
    sphere, form = mx.zoo_metric("sphere"), exact_form(0.2)
    deformed = df.projective_deform(sphere, form)
    x = rng.uniform(-0.5, 0.5, size=(4, 2))
    calls = point_evaluations(monkeypatch)
    df.projective_curvature_rhs(sphere, form, deformed,
                                pp(x, rng.normal(size=(4, 2))),
                                rng.normal(size=(4, 2)))
    assert [call[:2] for call in calls] == [
        ("fundamental_tensor", deformed.name),
        ("fundamental_tensor", sphere.name)]


@pytest.mark.parametrize("base, form", [
    (mx.zoo_metric("sphere"), exact_form(0.2)),
    (df.katok_metric(0.3), exact_form(0.2)),
    (mx.zoo_metric("euclidean"), constant_form((0.3, 0.0))),
], ids=["sphere", "katok", "euclidean"])
def test_projective_rhs_batch_matches_single_flags(base, form, rng):
    x = rng.uniform(-0.5, 0.5, size=(3, 2))
    y = rng.normal(size=(3, 2))
    u = rng.normal(size=(3, 2))
    deformed = df.projective_deform(base, form)
    batch = df.projective_curvature_rhs(base, form, deformed, pp(x, y), u)
    assert batch.shape == (3,)
    for k in range(3):
        single = df.projective_curvature_rhs(base, form, deformed,
                                             pp(x[k], y[k]), u[k])
        assert isinstance(single, float)
        assert abs(batch[k] - single) < 1e-12


def test_projective_formula_on_dual_norm_base(rng):
    # the deformed energy jet is built from the base's
    # implicit-differentiation jet
    katok = df.katok_metric(0.3)
    form = exact_form(0.2)
    deformed = df.projective_deform(katok, form)
    assert deformed.family == "randers"
    for _ in range(2):
        x = rng.uniform(-0.5, 0.5, size=2)
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        K_direct = jb.flag_curvature(deformed, pp(x, y), u)
        K_formula = df.projective_curvature_rhs(katok, form, deformed,
                                                pp(x, y), u)
        assert abs(K_direct - K_formula) < 1e-6


def test_projective_formula_on_randers_base(rng):
    # a Randers base takes the same construction as every other base
    base = mx.zoo_metric("randers", b=(0.25, 0.05))
    form = exact_form(0.2)
    deformed = df.projective_deform(base, form)
    assert deformed.family == "randers"
    x = rng.uniform(-0.5, 0.5, size=(6, 2))
    y = rng.normal(size=(6, 2))
    u = rng.normal(size=(6, 2))
    K_direct = jb.flag_curvature(deformed, pp(x, y), u)
    K_formula = df.projective_curvature_rhs(base, form, deformed, pp(x, y), u)
    assert np.max(np.abs(K_direct - K_formula)) < 1e-6



def test_projective_job_builds_its_deformation_once(monkeypatch, tmp_path):
    # one projective_deform for the whole job, and one batched Legendre
    # solve for each smallness check: the chart grid and the 4 flag points
    calls = {"legendre_inverse": 0, "projective_deform": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapped(*args, **kw):
            calls[name] += 1
            return f(*args, **kw)

        monkeypatch.setattr(module, name, wrapped)

    counted(mx, "legendre_inverse")
    counted(df, "projective_deform")
    cfg = {"experiment": "projective", "metric": {"id": "sphere"},
           "samples": 4}
    _, code = cli.run_config(cfg, output_dir=str(tmp_path))
    assert code == 0
    assert calls == {"legendre_inverse": 2, "projective_deform": 1}

# -- rotational perturbation --------------------------------------------------------

def test_rotation_field_is_killing(rng):
    sphere = mx.zoo_metric("sphere")
    xs = rng.uniform(-1.2, 1.2, size=(6, 2))
    assert df.killing_residual(sphere.g, df.rotation_field, xs) < 1e-10


def test_rotation_field_not_killing_for_anisotropic():
    def g(x):
        return [[1.0 + x[0] * x[0], 0.0], [0.0, 2.0]]

    xs = np.array([[0.4, 0.3]])
    assert df.killing_residual(g, df.rotation_field, xs) > 1e-3


def test_killing_residual_of_a_translation():
    # d/dx2 is Killing for a g that depends on x1 only, d/dx1 is not: its
    # Lie derivative is the x1-derivative of g, diag(2 x1, 0)
    def g(x):
        return [[1.0 + x[0] * x[0], 0.0], [0.0, 2.0]]

    xs = np.array([[0.4, 0.3], [-0.25, 1.0]])
    assert df.killing_residual(g, lambda x: [0.0, 1.0], xs) == 0.0
    assert df.killing_residual(g, lambda x: [1.0, 0.0], xs) == 0.8


def test_katok_smallness():
    with pytest.raises(SmallnessViolation):
        df.katok_metric(1.0)
    with pytest.raises(SmallnessViolation):
        df.katok_metric(-0.2)


def test_katok_eps_zero_is_round_sphere(rng):
    m = df.katok_metric(0.0)
    sphere = mx.zoo_metric("sphere")
    for _ in range(4):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        assert m.F_value(x, y) == pytest.approx(sphere.F_value(x, y),
                                                rel=1e-10)


def test_katok_non_reversible():
    m = df.katok_metric(0.3)
    x = [0.7, 0.2]
    y = [1.0, 0.4]
    asym = abs(m.F_value(x, y) - m.F_value(x, [-y[0], -y[1]]))
    assert asym > 0.01


def test_katok_involution(rng):
    m = df.katok_metric(0.3)
    for _ in range(3):
        x = rng.uniform(-0.8, 0.8, size=2)
        xi = rng.normal(size=2)
        # dual of the dual: the conorm recovers the generating costar
        s = 1.0 + x @ x
        expected = (math.sqrt(xi @ xi) * s * 0.5
                    + 0.3 * (xi @ np.array(df.rotation_field(list(x)))))
        assert mx.conorm(m, x, xi) == pytest.approx(expected, rel=1e-7)


def test_katok_matches_zermelo_closed_form(rng):
    m = df.katok_metric(0.25)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        v = rng.normal(size=2)
        assert m.F_value(x, v) == pytest.approx(
            df.katok_zermelo_cross_check(0.25, x, v), rel=1e-9)


def test_katok_zermelo_cross_check_takes_batches(rng):
    x = rng.uniform(-0.9, 0.9, size=(3, 2, 2))
    v = rng.normal(size=(3, 2, 2))
    F = df.katok_zermelo_cross_check(0.25, x, v)
    assert F.shape == (3, 2)
    for i in np.ndindex(3, 2):
        assert F[i] == df.katok_zermelo_cross_check(0.25, x[i], v[i])


def newton_spy(monkeypatch):
    """Count `metrics._newton` calls (solves) and the residual evaluations
    they make; a batched solve counts once."""
    counts = {"solves": 0, "evaluations": 0}
    real = mx._newton

    def spy(residual, z, where):
        counts["solves"] += 1

        def counted(z):
            counts["evaluations"] += 1
            return residual(z)

        return real(counted, z, where)

    monkeypatch.setattr(mx, "_newton", spy)
    return counts


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_katok_support_solves_take_one_residual_evaluation(monkeypatch, rng,
                                                           eps):
    # the Zermelo covector is the support point itself: the Newton's first
    # KKT residual is already below 1e-12
    flags = [(rng.uniform(-0.8, 0.8, size=2), rng.normal(size=2),
              rng.normal(size=2)) for _ in range(8)]
    counts = newton_spy(monkeypatch)
    K = df.katok_curvature(eps, flags)
    assert np.max(np.abs(K - 1.0)) < 1e-3
    assert counts["solves"] > 0
    assert counts["evaluations"] == counts["solves"]


def test_katok_curvature_solves_once_at_its_flag_points(monkeypatch, rng):
    # the closed-form norm scales y, and g and F^2 = g(y, y) come from the
    # window: its energy jet at v0 is the one support solve there
    flags = [(rng.uniform(-0.8, 0.8, size=2), rng.normal(size=2),
              rng.normal(size=2)) for _ in range(8)]
    x = np.array([f[0] for f in flags])
    real, at_flags = mx._support_newton, []

    def spy(costar, xs, v, warm):
        at_flags.append(np.array_equal(xs, x))
        return real(costar, xs, v, warm)

    monkeypatch.setattr(mx, "_support_newton", spy)
    K = df.katok_curvature(0.3, flags)
    assert np.max(np.abs(K - 1.0)) < 1e-3
    assert at_flags.count(True) == 1


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.6, 0.9, 0.99])
def test_katok_zermelo_start_converges_at_once_on_the_chart(monkeypatch, rng,
                                                            eps):
    r = 20.0 * np.sqrt(rng.uniform(size=64))
    t = rng.uniform(0.0, 2.0 * np.pi, size=64)
    x = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    v = rng.normal(size=(64, 2))
    m = df.katok_metric(eps)
    counts = newton_spy(monkeypatch)
    F = m.F_value(x, v)
    assert counts == {"solves": 1, "evaluations": 1}
    assert np.max(np.abs(F - df.katok_zermelo_cross_check(eps, x, v)) / F) \
        < 1e-12


def cold_katok(eps):
    """katok's dual metric started at v itself, as `dual_metric` allows."""

    def costar(xs, ys):
        s = 1.0 + xs[0] * xs[0] + xs[1] * xs[1]
        a = nk.sqrt(ys[0] * ys[0] + ys[1] * ys[1]) * (s * 0.5)
        V = df.rotation_field(xs)
        return a + eps * (ys[0] * V[0] + ys[1] * V[1])

    return mx.dual_metric(costar, 2, mx.Box.cube(2, 25.0),
                          warm_start=lambda x, v: v)


@pytest.mark.parametrize("eps", [0.3, 0.9])
def test_katok_start_does_not_change_the_answer(rng, eps):
    katok, cold = df.katok_metric(eps), cold_katok(eps)
    x = rng.uniform(-2.0, 2.0, size=(30, 2))
    v = rng.normal(size=(30, 2))
    F, F_cold = katok.F_value(x, v), cold.F_value(x, v)
    assert np.max(np.abs(F - F_cold) / F) < 1e-12
    # the y-gradient of F^2 is 2 F xi, xi the support covector
    xi, xi_cold = (mx.energy_jet(m, x, v, order=2).g[..., 2:] / (2.0 * f)[:, None]
                   for m, f in ((katok, F), (cold, F_cold)))
    assert np.max(np.abs(xi - xi_cold)) < 1e-12 * np.max(np.abs(xi))

    x, y, u = (rng.uniform(-0.8, 0.8, size=(8, 2)), rng.normal(size=(8, 2)),
               rng.normal(size=(8, 2)))
    y = y / katok.F_value(x, y)[:, None]
    K, K_cold = (jb.flag_curvature(m, mx.PhasePoint(x, y), u)
                 for m in (katok, cold))
    assert np.max(np.abs(K - K_cold)) < 1e-9


def test_katok_curvature_stays_one(rng):
    flags = []
    for _ in range(4):
        flags.append((rng.uniform(-0.8, 0.8, size=2),
                      rng.normal(size=2), rng.normal(size=2)))
    K = df.katok_curvature(0.3, flags)
    assert K.shape == (4,)
    assert np.max(np.abs(K - 1.0)) < 1e-3
