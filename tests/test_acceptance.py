"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with the measured worst residual
(run pytest -s to see them).  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from conftest import lagrangian_graph_curve, random_symplectic
from fanning_lab import deformations as df
from fanning_lab import fanning as fc
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab import numkit as nk
from fanning_lab import reduction as rd
from fanning_lab.cli import sample_flags
from fanning_lab.errors import DegenerateRestriction, TransversalityFailure


def report(num, desc, worst, tol, elapsed=None, limit=None):
    ok = worst < tol and (limit is None or elapsed < limit)
    line = (f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}: "
            f"residual {worst:.3e} (tol {tol:.0e})")
    if elapsed is not None:
        line += f", runtime {elapsed:.1f}s (limit {limit:.0f}s)"
    print(line)
    assert ok, line


def pp(x, y):
    return mx.PhasePoint(np.asarray(x, float), np.asarray(y, float))


def test_criterion_01_flat_flag_curvature():
    t0 = time.perf_counter()
    metric = mx.zoo_metric("euclidean")
    xs = np.linspace(-1.0, 1.0, 5)
    angles_v = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    angles_u = np.linspace(0.1, 2 * math.pi + 0.1, 8, endpoint=False)
    worst = 0.0
    for xv in xs:
        for av in angles_v:
            for au in angles_u:
                x = np.array([xv, -0.5 * xv])
                y = np.array([math.cos(av), math.sin(av)])
                u = np.array([math.cos(au), math.sin(au)])
                if abs(y @ u) > 0.99:
                    continue
                worst = max(worst, abs(jb.flag_curvature(metric, pp(x, y), u)))
    report(1, "flat metric has zero flag curvature (5x5x8 grid)",
           worst, 1e-8, time.perf_counter() - t0, 5.0)


def test_criterion_02_sphere_constant_plus_one():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    metric = mx.zoo_metric("sphere")
    worst = 0.0
    for x, y, u in sample_flags(rng, 2, 50, 1.5):
        worst = max(worst, abs(jb.flag_curvature(metric, pp(x, y), u) - 1.0))
    report(2, "unit sphere flag curvature is +1 (50 flags, |x| < 1.5)",
           worst, 1e-4, time.perf_counter() - t0, 30.0)


def test_criterion_03_poincare_constant_minus_one():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    metric = mx.zoo_metric("hyperbolic")
    worst = 0.0
    for x, y, u in sample_flags(rng, 2, 50, 0.8):
        worst = max(worst, abs(jb.flag_curvature(metric, pp(x, y), u) + 1.0))
    report(3, "Poincare disk flag curvature is -1 (50 flags, |x| < 0.8)",
           worst, 1e-4, time.perf_counter() - t0, 30.0)


def test_criterion_04_oracle_equivalence_conformal():
    rng = np.random.default_rng(4)
    worst = 0.0
    for a in (0.2, 0.5):
        metric = mx.zoo_metric("riemannian-conformal", a=a, n=3)
        for x, y, u in sample_flags(rng, 3, 20, 0.8):
            K = jb.flag_curvature(metric, pp(x, y), u)
            oracle = jb.riemann_oracle(metric.g, x, y, u)
            worst = max(worst, abs(K - oracle) / max(abs(oracle), 0.1))
    report(4, "flag curvature matches the Riemann oracle (conformal family)",
           worst, 1e-3)


def test_criterion_05_wronskian_equals_fundamental_tensor():
    worst = 0.0
    for mid, kw in (("sphere", {}), ("randers", {"b": (0.25, 0.05)})):
        metric = mx.zoo_metric(mid, **kw)
        x0 = np.array([0.05, 0.1])
        y0 = np.array([0.6, 0.15])
        y0 = y0 / metric.F_value(x0, y0)
        orbit = jb.transport(metric, pp(x0, y0), T=2.01)
        for t in np.linspace(0.0, 2.0, 9):
            inv = jb.jacobi_frame(orbit, float(t)).invariants
            xx, yy, _ = orbit.state(float(t))
            g = mx.fundamental_tensor(metric, pp(xx, yy))
            worst = max(worst, float(np.max(np.abs(inv.W - g))))
    report(5, "Jacobi-curve Wronskian equals the fundamental tensor on "
              "[0, 2] (sphere, Randers)", worst, 1e-6)


def test_criterion_06_transformation_laws():
    rng = np.random.default_rng(6)
    omega = fc.SymplecticForm.standard(2)
    worst = 0.0
    # analytic curves allow a tighter stencil: truncation of the P-derivative
    # is the only error source at this tolerance
    h = 5e-4
    for _ in range(20):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        stc = nk.Stencil(0.0, h, 4)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)

        T = random_symplectic(rng, 2)
        TA = lambda t: T @ A(t)
        TAd = lambda t: T @ Adot(t)
        TAdd = lambda t: T @ Addot(t)
        inv_T = fc.invariants(fc.stencil_triples(TA, TAd, TAdd, stc), omega)
        Tinv = np.linalg.inv(T)
        worst = max(worst,
                    float(np.max(np.abs(inv_T.F - T @ inv.F @ Tinv))),
                    float(np.max(np.abs(inv_T.K - T @ inv.K @ Tinv))))

        c = float(rng.uniform(0.5, 2.0))
        t0 = float(rng.uniform(-0.1, 0.1))
        stc_s = nk.Stencil(c * t0, h, 4)
        inv_s = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc_s), omega)
        B = lambda t: A(c * t)
        Bd = lambda t: c * Adot(c * t)
        Bdd = lambda t: c * c * Addot(c * t)
        stc_t = nk.Stencil(t0, h, 4)
        inv_t = fc.invariants(fc.stencil_triples(B, Bd, Bdd, stc_t), omega)
        pred = fc.reparametrize(c * t0, c, 0.0, 0.0, inv_s)
        worst = max(worst,
                    float(np.max(np.abs(inv_t.F - pred.F))),
                    float(np.max(np.abs(inv_t.K - pred.K))),
                    float(np.max(np.abs(inv_t.W - pred.W))))
    report(6, "equivariance under symplectic maps and affine "
              "reparametrizations (20 draws)", worst, 1e-9)


def test_criterion_07_horizontal_wronskian_identity():
    rng = np.random.default_rng(7)
    omega = fc.SymplecticForm.standard(2)
    O = omega.Omega
    worst = 0.0
    for _ in range(20):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        stc = nk.Stencil(0.0, 1e-3, 4)
        Hs = []
        for t in stc.nodes:
            _, H, _, _ = fc.horizontal_data(fc.FrameTriple(A(t), Adot(t),
                                                           Addot(t)))
            Hs.append(H)
        Hdot = nk.central_derivative(Hs, stc)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)
        lhs = inv.Hframe.T @ O @ Hdot
        rhs = inv.W @ (0.5 * inv.Schwarzian)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(7, "horizontal Wronskian identity on 20 Lagrangian curves",
           worst, 1e-6)


def test_criterion_08_contact_reduction():
    worst = 0.0
    for metric in (mx.zoo_metric("sphere"), df.katok_metric(0.3)):
        x0 = np.array([0.15, -0.1])
        y0 = np.array([0.8, 0.25])
        y0 = y0 / metric.F_value(x0, y0)
        orbit = jb.transport(metric, pp(x0, y0), T=1.15)
        for t in (0.3, 0.7, 1.1):
            split = rd.contact_reduce(orbit, t)
            worst = max(worst, split.kr_residual, split.block_residual)
    report(8, "contact splitting: K kills C - tS and the blocks agree "
              "(sphere, perturbed sphere)", worst, 1e-5)


def test_criterion_09_oneill_formula():
    t0 = time.perf_counter()
    scn = rd.submersion_scenario("hopf")
    x = scn.suggested_x
    g = np.array(scn.total.g(list(x)), float)
    k = scn.fiber(list(x))
    res = rd.submersion_curvature(
        scn, pp(x, rd.horizontal_part(g, k, [1.0, 0.4, 0.0])),
        rd.horizontal_part(g, k, [0.3, 1.0, 0.0]))
    worst_hopf = max(abs(res.K_base - 4.0), abs(res.K_total - 1.0),
                     abs(res.correction - 3.0))

    rng = np.random.default_rng(9)
    omega = fc.SymplecticForm.standard(2)
    setup = rd.coisotropic_setup(omega, np.eye(4)[:, [0, 1, 2]])
    worst_eq = 0.0
    done = 0
    for _ in range(100):   # bounded, so a fault that always raises fails
        if done == 10:
            break
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = fc.stencil_triples(A, Adot, Addot, nk.Stencil(0.0, 1e-2, 6))
        try:
            red = rd.reduce_curve(setup, fs)
            oneill = rd.oneill_endomorphism(setup, fs, red)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        a = rng.normal(size=red.h_frames[red.center_index].shape[1])
        lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, a)
        worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert done == 10, "too few splitting curves drawn"
    elapsed = time.perf_counter() - t0
    report(9, "O'Neill: Hopf triple (4, 1, 3)", worst_hopf, 1e-2,
           elapsed, 60.0)
    report(9, "O'Neill: reduced-vs-full pairing equality (10 random draws)",
           worst_eq, 1e-3)


def test_criterion_10_projective_formula():
    rng = np.random.default_rng(10)
    sphere = mx.zoo_metric("sphere")
    form = df.ambient_coordinate_form(0.2)
    deformed = df.projective_deform(sphere, form)
    worst = 0.0
    for x, y, u in sample_flags(rng, 2, 10, 0.6):
        K_direct = jb.flag_curvature(deformed, pp(x, y), u)
        K_formula = df.projective_curvature_rhs(sphere, form, deformed,
                                                pp(x, y), u)
        worst = max(worst, abs(K_direct - K_formula))
    report(10, "projective formula vs direct curvature (sphere + exact "
               "form)", worst, 1e-3)

    euclid = mx.zoo_metric("euclidean")
    const = df.ClosedOneForm(theta=lambda x: [0.3, 0.0],
                             potential=lambda x: 0.3 * x[0])
    flat = df.projective_deform(euclid, const)
    worst_flat = 0.0
    for x, y, u in sample_flags(rng, 2, 3, 1.0):
        worst_flat = max(worst_flat,
                         abs(jb.flag_curvature(flat, pp(x, y), u)),
                         abs(df.projective_curvature_rhs(euclid, const, flat,
                                                         pp(x, y), u)))
    report(10, "projective formula: flat case exactly zero both ways",
           worst_flat, 1e-6)


def test_criterion_11_katok_constancy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for eps in (0.1, 0.3):
        flags = sample_flags(rng, 2, 30, 0.8)
        K = df.katok_curvature(eps, flags)
        worst = max(worst, float(np.max(np.abs(K - 1.0))))
    report(11, "perturbed sphere keeps flag curvature 1 (eps 0.1, 0.3; "
               "30 unit flags each)", worst, 1e-3,
           time.perf_counter() - t0, 60.0)


def test_criterion_12_fanning_algebra():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        while True:
            A = rng.normal(size=(2 * n, n))
            Adot = rng.normal(size=(2 * n, n))
            if np.linalg.cond(np.hstack([A, Adot])) < 50:
                break
        ft = fc.FrameTriple(A, Adot, rng.normal(size=(2 * n, n)))
        F = fc.fundamental_endomorphism(ft)
        Fdot, H, P_ell, P_h = fc.horizontal_data(ft)
        I = np.eye(2 * n)
        worst = max(worst,
                    float(np.max(np.abs(F @ F))),
                    float(np.max(np.abs(Fdot @ Fdot - I))),
                    float(np.max(np.abs(P_h @ P_h - P_h))),
                    float(np.max(np.abs(P_h + P_ell - I))))
        # frame independence of the instantaneous data
        R = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        R1 = rng.normal(size=(n, n))
        other = fc.FrameTriple(A @ R, Adot @ R + A @ R1,
                               ft.Addot @ R + 2.0 * Adot @ R1)
        worst = max(worst, float(np.max(np.abs(
            F - fc.fundamental_endomorphism(other)))))

    omega = fc.SymplecticForm.standard(2)
    for _ in range(50):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        stc = nk.Stencil(0.0, 1e-3, 4)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)
        WK = inv.W @ (0.5 * inv.Schwarzian)
        worst = max(worst, float(np.max(np.abs(WK - WK.T))))
    report(12, "fanning algebra: nilpotence, reflection, projectors, frame "
               "independence, W-symmetry (50 draws)", worst, 1e-8)
