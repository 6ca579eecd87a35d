"""Tests for symplectic reduction, the O'Neill endomorphism and submersions."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import lagrangian_graph_curve
from fanning_lab import fanning as fc
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab import numkit as nk
from fanning_lab import reduction as rd
from fanning_lab.errors import (DegenerateRestriction, HorizontalityViolation,
                                RankDeficient, TransversalityFailure)


def std_omega(n):
    return fc.SymplecticForm.standard(n)


# -- symplectic complement ------------------------------------------------------

def test_complement_of_full_space_is_zero():
    omega = std_omega(2)
    comp = rd.symplectic_complement(omega, np.eye(4))
    assert comp.shape == (4, 0)


def test_complement_of_lagrangian_is_itself():
    omega = std_omega(2)
    L = np.zeros((4, 2))
    L[0, 0] = 1.0
    L[1, 1] = 1.0  # span(e1, e2) is Lagrangian for the standard form
    comp = rd.symplectic_complement(omega, L)
    assert comp.shape == (4, 2)
    # same column space
    coeff, *_ = np.linalg.lstsq(L, comp, rcond=None)
    assert np.max(np.abs(L @ coeff - comp)) < 1e-12


def test_complement_brute_force_pairing_table():
    # Omega with pairs (e1, e3), (e2, e4)
    O = np.zeros((4, 4))
    O[0, 2] = O[1, 3] = 1.0
    O -= O.T
    omega = fc.SymplecticForm(O)
    W = np.eye(4)[:, :3]  # span{e1, e2, e3}
    comp = rd.symplectic_complement(omega, W)
    assert comp.shape == (4, 1)
    # oracle: annihilator vectors pair to zero against every W column
    for j in range(3):
        assert abs(comp[:, 0] @ O @ W[:, j]) < 1e-12
    # and the complement lies inside W (coisotropic), namely along e2
    assert abs(comp[2, 0]) < 1e-12 and abs(comp[3, 0]) < 1e-12


def test_complement_rank_deficient():
    omega = std_omega(2)
    W = np.zeros((4, 2))
    W[:, 0] = [1.0, 0, 0, 0]
    W[:, 1] = [2.0, 0, 0, 0]
    with pytest.raises(RankDeficient):
        rd.symplectic_complement(omega, W)


def test_coisotropic_setup_orthonormal_quotient_basis(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]  # e1, e2, f1: coisotropic
    setup = rd.coisotropic_setup(omega, W)
    D, Womega = setup.quotient_basis, setup.WomegaBasis
    assert D.shape == (4, 2)
    assert np.max(np.abs(D.T @ D - np.eye(2))) < 1e-12
    assert np.max(np.abs(D.T @ Womega)) < 1e-12
    # the reduced form is the restriction, and it is invertible
    assert np.array_equal(setup.omega_R.Omega, D.T @ omega.Omega @ D)
    assert np.linalg.svd(setup.omega_R.Omega, compute_uv=False)[-1] > 0.5
    c, a = rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
    assert np.max(np.abs(setup.project(D @ c + Womega @ a) - c)) < 1e-12


def test_coisotropic_setup_rejects_non_coisotropic():
    omega = std_omega(2)
    # span{e1, f1} is symplectic, not coisotropic: its annihilator is the
    # complementary factor span{e2, f2}
    W = np.eye(4)[:, [0, 2]]
    with pytest.raises(TransversalityFailure):
        rd.coisotropic_setup(omega, W)


# -- reduction of curves ----------------------------------------------------------

def curve_stencil(A, Adot, Addot, t=0.0, h=1e-2, order=6):
    # reduced-frame derivatives are taken twice by stencil, so the wider
    # 7-node layout keeps rounding amplification near 1e-10
    return fc.stencil_triples(A, Adot, Addot, nk.Stencil(t, h, order))


def test_reduce_by_full_space_is_identity(rng):
    omega = std_omega(2)
    setup = rd.coisotropic_setup(omega, np.eye(4))
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)
    fs = curve_stencil(A, Adot, Addot)
    red = rd.reduce_curve(setup, fs)
    full = fc.invariants(fs, omega)
    # pairing invariants agree for matching vectors
    for _ in range(5):
        c = rng.normal(size=2)
        a_amb = red.h_frames[red.center_index] @ c
        alpha, *_ = np.linalg.lstsq(fs.center.A, a_amb, rcond=None)
        lhs = (0.5 * red.invariants.Schwarzian @ c) @ red.invariants.W @ c
        rhs = (0.5 * full.Schwarzian @ alpha) @ full.W @ alpha
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def product_curve(rng):
    """Product of two scalar graph curves in the split R^4 = (e1,f1)+(e2,f2)."""
    z = rng.normal(size=4) * 0.3
    z1 = (rng.uniform(0.5, 1.5), z[0], z[1])   # z1(t) = c0 t + c1 t^2 ... slopes
    z2 = (rng.uniform(0.5, 1.5), z[2], z[3])

    def zfun(c, t):
        return c[0] * t + c[1] * t * t + c[2] * t ** 3

    def zdot(c, t):
        return c[0] + 2 * c[1] * t + 3 * c[2] * t * t

    def zddot(c, t):
        return 2 * c[1] + 6 * c[2] * t

    def A(t):
        return np.array([[1.0, 0.0],
                         [0.0, 1.0],
                         [zfun(z1, t), 0.0],
                         [0.0, zfun(z2, t)]])

    def Adot(t):
        return np.array([[0.0, 0.0],
                         [0.0, 0.0],
                         [zdot(z1, t), 0.0],
                         [0.0, zdot(z2, t)]])

    def Addot(t):
        return np.array([[0.0, 0.0],
                         [0.0, 0.0],
                         [zddot(z1, t), 0.0],
                         [0.0, zddot(z2, t)]])

    def A1(t):
        return np.array([[1.0], [zfun(z1, t)]])

    def A1dot(t):
        return np.array([[0.0], [zdot(z1, t)]])

    def A1ddot(t):
        return np.array([[0.0], [zddot(z1, t)]])

    return (A, Adot, Addot), (A1, A1dot, A1ddot)


def test_reduce_product_curve_returns_factor(rng):
    omega = std_omega(2)
    # W = (e1, f1)-factor plus the line f2
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    for _ in range(5):
        (A, Adot, Addot), (A1, A1dot, A1ddot) = product_curve(rng)
        red = rd.reduce_curve(setup, curve_stencil(A, Adot, Addot))
        direct = fc.invariants(
            curve_stencil(A1, A1dot, A1ddot), std_omega(1))
        # the 1x1 curvature block is frame independent
        assert red.invariants.Schwarzian == pytest.approx(
            direct.Schwarzian, abs=1e-10)


def test_reduced_wronskian_is_restriction(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    checked = 0
    for _ in range(5):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = curve_stencil(A, Adot, Addot)
        try:
            red = rd.reduce_curve(setup, fs)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        c_idx = red.center_index
        ft = fs.triples[c_idx]
        Wmat = fc.wronskian(ft, omega)
        beta, *_ = np.linalg.lstsq(ft.A, red.h_frames[c_idx], rcond=None)
        restriction = beta.T @ Wmat @ beta
        assert np.max(np.abs(red.invariants.W - restriction)) < 1e-8
        checked += 1
    assert checked >= 3, "too few splitting curves drawn"


def test_reduce_curve_degenerate_restriction():
    # Z1 = [[0,1],[1,0]] makes the Wronskian vanish on the 1-dim intersection
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    Z0 = np.array([[0.0, 0.0], [0.0, 1.0]])
    Z1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = np.vstack([np.eye(2), Z0])
    Adot = np.vstack([np.zeros((2, 2)), Z1])
    ft = fc.FrameTriple(A, Adot, np.zeros((4, 2)))
    fs = fc.FrameStencil(nk.Stencil(0.0, 1e-2, 6), [ft] * 7)
    with pytest.raises(DegenerateRestriction):
        rd.reduce_curve(setup, fs)


def test_reduce_curve_transversality_failure(rng):
    # second factor sits exactly on the annihilator line f2
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)

    def A_bad(t):
        M = A(t).copy()
        M[:, 1] = [0.0, 0.0, 0.0, 1.0]  # f2 column: meets W^omega
        return M

    fs = curve_stencil(A_bad, Adot, Addot)
    with pytest.raises(TransversalityFailure):
        rd.reduce_curve(setup, fs)


# -- O'Neill ------------------------------------------------------------------------

def test_oneill_vanishes_for_products(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)
    fs = curve_stencil(A, Adot, Addot)
    data = rd.oneill_endomorphism(setup, fs, rd.reduce_curve(setup, fs))
    assert np.max(np.abs(data.matrix)) < 1e-9


def test_oneill_parts_block_case(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)
    fs = curve_stencil(A, Adot, Addot)
    data = rd.oneill_endomorphism(setup, fs, rd.reduce_curve(setup, fs))
    # the W-part is the first factor, the complement the second
    assert np.max(np.abs((fs.center.A @ data.beta_h)[[1, 3], :])) < 1e-10
    assert np.max(np.abs((fs.center.A @ data.beta_v)[[0, 2], :])) < 1e-10


def test_oneill_parts_are_wronskian_orthogonal(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    for _ in range(50):   # bounded, so a fault that always raises fails
        if done == 5:
            break
        fs = curve_stencil(*lagrangian_graph_curve(rng, 2))
        try:
            red = rd.reduce_curve(setup, fs)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        data = rd.oneill_endomorphism(setup, fs, red)
        assert data.beta_h.shape == (2, 1) and data.beta_v.shape == (2, 1)
        Wmat = fc.wronskian(fs.center, omega)
        assert np.max(np.abs(data.beta_h.T @ Wmat @ data.beta_v)) < 1e-9
    assert done == 5, "too few splitting curves drawn"


def test_oneill_symmetry_and_block_structure(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    for _ in range(50):   # bounded, so a fault that always raises fails
        if done == 5:
            break
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = curve_stencil(A, Adot, Addot)
        try:
            data = rd.oneill_endomorphism(setup, fs,
                                          rd.reduce_curve(setup, fs))
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        assert data.symmetry_residual < 1e-8
    assert done == 5, "too few splitting curves drawn"


def test_oneill_formula_random_curves(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    for _ in range(100):   # bounded, so a fault that always raises fails
        if done == 10:
            break
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = curve_stencil(A, Adot, Addot, h=1e-2, order=6)
        try:
            red = rd.reduce_curve(setup, fs)
            oneill = rd.oneill_endomorphism(setup, fs, red)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        a = rng.normal(size=red.h_frames[red.center_index].shape[1])
        lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, a)
        assert abs(lhs - rhs) < 1e-3 * max(1.0, abs(lhs))
    assert done == 10, "too few splitting curves drawn"


def test_oneill_formula_product_both_sides_equal(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)
    fs = curve_stencil(A, Adot, Addot, h=1e-2, order=6)
    red = rd.reduce_curve(setup, fs)
    oneill = rd.oneill_endomorphism(setup, fs, red)
    lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, np.array([1.0]))
    assert lhs == pytest.approx(rhs, abs=1e-9)


# -- reference assembly: least-squares sections, projectors, fitted O'Neill -------

def reference_section_derivatives(setup, ft, H, U):
    """(beta, Hdot, Hddot) of the section through H in the graph gauge over
    span U, from the membership conditions A beta = W gamma stacked with the
    gauge rows and solved by least squares."""
    A, Adot, Addot = ft.A, ft.Adot, ft.Addot
    n, k = A.shape[1], setup.Wbasis.shape[1]
    beta, *_ = np.linalg.lstsq(A, H, rcond=None)
    system = np.vstack([np.hstack([A, -setup.Wbasis]),
                        np.hstack([U.T @ A, np.zeros((U.shape[1], k))])])

    def solve(v):
        rhs = -np.vstack([v, U.T @ v])
        sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        assert np.max(np.abs(system @ sol - rhs)) < 1e-9 * max(
            1.0, np.max(np.abs(rhs)))
        return sol[:n]

    beta_dot = solve(Adot @ beta)
    acc = Addot @ beta + 2.0 * Adot @ beta_dot
    return beta, Adot @ beta + A @ beta_dot, acc + A @ solve(acc)


def reference_reduced_triples(setup, fs, h_frames, c_idx):
    U = h_frames[c_idx]   # the gauge depends on span U only
    out = []
    for H, ft in zip(h_frames, fs.triples):
        _, Hdot, Hddot = reference_section_derivatives(setup, ft, H, U)
        out.append(tuple(setup.project(M) for M in (H, Hdot, Hddot)))
    return out


def reference_oneill_matrix(setup, ft, H, beta_v):
    """The O'Neill matrix in the basis [H | A beta_v], for H a frame of
    l inter W and beta_h^T W beta_v = 0, from projectors onto the parts of
    [H | V | Hor] and a least-squares fit of the images onto [H | V]."""
    p, nv = H.shape[1], beta_v.shape[1]
    V = ft.A @ beta_v
    U_h, _, _ = np.linalg.svd(H, full_matrices=False)
    beta_h, Hdot, _ = reference_section_derivatives(setup, ft, H, U_h)
    beta_h_dot, *_ = np.linalg.lstsq(ft.A, Hdot - ft.Adot @ beta_h,
                                     rcond=None)
    Omega = setup.omega.Omega
    Wmat = fc.wronskian(ft, setup.omega)
    Wdot = ft.Adot.T @ Omega @ ft.Adot + ft.A.T @ Omega @ ft.Addot
    Wdot = 0.5 * (Wdot + Wdot.T)
    U_v, _, _ = np.linalg.svd(V, full_matrices=False)
    system = np.vstack([beta_h.T @ Wmat, U_v.T @ ft.A])
    rhs = np.vstack([-(beta_h_dot.T @ Wmat + beta_h.T @ Wdot) @ beta_v,
                     -U_v.T @ (ft.Adot @ beta_v)])
    Vdot = ft.Adot @ beta_v + ft.A @ np.linalg.solve(system, rhs)

    _, Hor, _, _ = fc.horizontal_data(ft)
    T = np.hstack([H, V, Hor])
    Tinv = np.linalg.inv(T)
    P_h = T[:, :p] @ Tinv[:p]
    P_v = T[:, p:p + nv] @ Tinv[p:p + nv]
    P_hor = np.eye(T.shape[0]) - P_h - P_v
    for P in (P_h, P_v, P_hor):
        assert np.max(np.abs(P @ P - P)) < 1e-9
    basis = np.hstack([H, V])
    images = np.hstack([P_v @ Hdot, -P_h @ Vdot])
    matrix, *_ = np.linalg.lstsq(basis, images, rcond=None)
    assert np.max(np.abs(basis @ matrix - images)) < 1e-9
    return matrix


def hopf_stencil():
    """Coisotropic setup and frame stencil of the default Hopf flag, built
    as `submersion_curvature` builds them."""
    scn = rd.submersion_scenario("hopf")
    v, _ = scn.default_flag()
    h = rd._REDUCTION_H
    orbit = jb.transport(scn.total, v, T=jb.frame_reach(h, 6),
                         resolution=rd._REDUCTION_RESOLUTION)
    fs = jb.jacobi_frame(orbit, 0.0, h=h, order=6).frames
    W = rd._nullspace(scn.constraint_grad(v.x, v.y))
    return rd.coisotropic_setup(orbit.omega, W), fs


def reduction_cases(rng, count=4):
    """Seeded graph curves with W = span(e1, e2, f1) whose center plane
    reduces, then the Hopf stencil.  Only a curve that does not reduce is
    drawn again, a bounded number of times, so a fault in the reduction
    fails the test instead of redrawing forever."""
    setup = rd.coisotropic_setup(std_omega(2), np.eye(4)[:, [0, 1, 2]])
    cases = []
    for _ in range(10 * count):
        fs = curve_stencil(*lagrangian_graph_curve(rng, 2))
        try:
            rd.reduce_curve(setup, fs)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        cases.append((setup, fs))
        if len(cases) == count:
            return cases + [hopf_stencil()]
    raise AssertionError("too few splitting curves drawn")


def test_reduce_curve_matches_least_squares_reference(rng):
    for setup, fs in reduction_cases(rng):
        red = rd.reduce_curve(setup, fs)
        ref = reference_reduced_triples(setup, fs, red.h_frames,
                                        red.center_index)
        for got, want in zip(red.frames.triples, ref):
            for g, w in zip((got.A, got.Adot, got.Addot), want):
                assert np.max(np.abs(g - w)) < 1e-10


def test_oneill_matches_projector_reference(rng):
    for setup, fs in reduction_cases(rng):
        red = rd.reduce_curve(setup, fs)
        data = rd.oneill_endomorphism(setup, fs, red)
        ref = reference_oneill_matrix(setup, fs.center,
                                      red.h_frames[red.center_index],
                                      data.beta_v)
        assert np.max(np.abs(ref)) > 1e-3   # the blocks are not trivially 0
        assert np.max(np.abs(data.matrix - ref)) < 1e-10


def test_oneill_correction_does_not_depend_on_the_intersection_basis(rng):
    # 3 W(Aa, Aa) in the orthonormal coefficient basis of l inter W from
    # `_plane_meets` equals the one read off the reduction's center frame
    for setup, fs in reduction_cases(rng):
        red = rd.reduce_curve(setup, fs)
        data = rd.oneill_endomorphism(setup, fs, red)
        ft, c = fs.center, red.center_index
        Wmat = fc.wronskian(ft, setup.omega)
        b = rd._plane_meets(ft.A, setup.Wbasis)
        b_v = rd._nullspace(b.T @ Wmat)
        matrix = reference_oneill_matrix(setup, ft, ft.A @ b, b_v)
        basis = np.hstack([b, b_v])
        inv = fc.invariants(fs, setup.omega)
        for _ in range(3):
            a = rng.normal(size=b.shape[1])
            alpha = red.betas[c] @ a
            Aa = matrix @ np.linalg.solve(basis, alpha)
            old = 3.0 * (Aa @ basis.T @ Wmat @ basis @ Aa)
            _, _, new = rd._oneill_pairings(red, data, inv, a, alpha)
            assert abs(old) > 1e-3
            assert abs(new - old) < 1e-12 * max(1.0, abs(old))


def test_hopf_reads_the_center_intersection_once(monkeypatch):
    # the O'Neill endomorphism reads l(0) inter W, its frame and beta' off
    # the reduction: 7 intersections and restriction checks for 7 nodes,
    # 2 gauge solves per node and one for the W-orthogonal section; the
    # Wronskian is formed at each of the 7 nodes, which the O'Neill part
    # reads at the center, and by the full and the reduced invariants
    counts = {}
    for mod, name in ((rd, "_plane_meets"), (rd, "_restricted_wronskian"),
                      (rd, "_gauge_solve"), (fc, "wronskian")):
        real = getattr(mod, name)

        def spy(*args, _real=real, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(mod, name, spy)
    scn = rd.submersion_scenario("hopf")
    rd.submersion_curvature(scn, *scn.default_flag())
    assert counts == {"_plane_meets": 7, "_restricted_wronskian": 7,
                      "_gauge_solve": 15, "wronskian": 9}


def test_singular_gauge_system_raises_transversality_failure():
    # a condition row that cuts nothing out leaves the system rank 1
    A = np.vstack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(TransversalityFailure, match="singular"):
        rd._gauge_solve(np.zeros((1, 2)), np.zeros((1, 1)), A[:, :1], A,
                        np.ones((4, 1)))


@pytest.mark.parametrize("tilt", [0.0, 1e-9],
                         ids=["orthogonal", "nearly-orthogonal"])
def test_graph_gauge_fails_when_the_intersection_turns_away(tilt):
    # W = span(e1, e2, f1): the center plane span(e1, f2) meets W in e1, the
    # last node's plane span(tilt e1 + f1, f2) in a line (nearly) orthogonal
    # to it, so the gauge matrix U_c^T A b is 0 or 1e-9
    setup = rd.coisotropic_setup(std_omega(2), np.eye(4)[:, [0, 1, 2]])
    e1, e2, f1, f2 = np.eye(4)

    def triple(u):
        w = np.array([-u[2], 0.0, u[0], 0.0])   # W(u, u) > 0, W(f2, f2) = 1
        return fc.FrameTriple(np.column_stack([u, f2]),
                              np.column_stack([w, -e2]), np.zeros((4, 2)))

    fs = fc.FrameStencil(nk.Stencil(0.0, 1e-2, 6),
                         [triple(e1)] * 6 + [triple(tilt * e1 + f1)])
    with pytest.raises(TransversalityFailure, match="graph gauge failed"):
        rd.reduce_curve(setup, fs)


def test_project_refuses_columns_outside_w():
    setup = rd.coisotropic_setup(std_omega(2), np.eye(4)[:, [0, 1, 2]])
    cols = np.eye(4)[:, [0, 3]]   # e1 lies in W, f2 does not
    with pytest.raises(TransversalityFailure, match="columns do not lie in W"):
        setup.project(cols)


def test_project_onto_the_trivial_quotient_of_a_lagrangian_w():
    setup = rd.coisotropic_setup(std_omega(2), np.eye(4)[:, [0, 1]])
    assert setup.omega_R is None
    assert setup.project(np.eye(4)[:, [0, 1, 0]]).shape == (0, 3)
    with pytest.raises(TransversalityFailure, match="columns do not lie in W"):
        setup.project(np.eye(4)[:, [2]])


def test_reduce_curve_refuses_a_lagrangian_w(rng):
    setup = rd.coisotropic_setup(std_omega(2), np.eye(4)[:, [0, 1]])
    fs = curve_stencil(*lagrangian_graph_curve(rng, 2))
    with pytest.raises(DegenerateRestriction, match="quotient is trivial"):
        rd.reduce_curve(setup, fs)


def test_reduction_does_not_depend_on_the_quotient_basis(rng):
    # on the Hopf stencil omega_R is not orthogonal, so reading quotient
    # coordinates through the form instead of D^T would change W_R
    setup, fs = hopf_stencil()
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    D = setup.quotient_basis @ Q
    turned = dataclasses.replace(
        setup, quotient_basis=D,
        omega_R=fc.SymplecticForm(D.T @ setup.omega.Omega @ D))
    one, two = rd.reduce_curve(setup, fs), rd.reduce_curve(turned, fs)
    for name in ("W", "Schwarzian"):
        got, want = getattr(two.invariants, name), getattr(one.invariants, name)
        assert np.max(np.abs(got - want)) < 1e-12
    # and W_R is the restriction of the full Wronskian to l(0) inter W
    beta = one.betas[one.center_index]
    restriction = beta.T @ fc.wronskian(fs.center, setup.omega) @ beta
    assert np.max(np.abs(one.invariants.W - restriction)) < 1e-12


def test_reduced_frames_are_graphs_over_the_center(rng):
    for setup, fs in reduction_cases(rng):
        red = rd.reduce_curve(setup, fs)
        c = red.center_index
        U_c = red.h_frames[c]
        p = U_c.shape[1]
        assert np.max(np.abs(U_c.T @ U_c - np.eye(p))) < 1e-12
        for H, beta, ft in zip(red.h_frames, red.betas, fs.triples):
            assert np.array_equal(H, ft.A @ beta)
            assert np.max(np.abs(U_c.T @ H - np.eye(p))) < 1e-12


# -- submersions ---------------------------------------------------------------------

def horizontal_vector(scn, x, seed):
    """Project a seed onto the horizontal space at x and return it."""
    g = np.array(scn.total.g(list(x)), float)
    return rd.horizontal_part(g, scn.fiber(list(x)), seed)


def test_trivial_projection_is_flat():
    scn = rd.submersion_scenario("trivial")
    x = scn.suggested_x
    v = mx.PhasePoint(x, horizontal_vector(scn, x, [1.0, 0.2, 0.0]))
    res = rd.submersion_curvature(scn, v, [0.1, 1.0, 0.0])
    assert abs(res.K_base) < 1e-8
    assert abs(res.K_total) < 1e-8
    assert abs(res.correction) < 1e-8


def closed_form_constraint_grad(name, x, y):
    """The Jacobian of c(x, y) = g(x)(y, d/dx3) by hand: y3 on the trivial
    scenario, s2 (cos(x1) y2 + y3) with s2 = r^2 / 4 on the Hopf ones."""
    out = np.zeros((1, 6))
    if name == "trivial":
        out[0, 5] = 1.0
        return out
    s2 = {"hopf": 0.25, "hopf-scaled": 1.0}[name]
    out[0, 0] = -s2 * math.sin(x[0]) * y[1]
    out[0, 4] = s2 * math.cos(x[0])
    out[0, 5] = s2
    return out


@pytest.mark.parametrize("name", ["trivial", "hopf", "hopf-scaled"])
def test_constraint_grad_numeric_matches_closed_form(name):
    scn = rd.submersion_scenario(name)
    x = scn.suggested_x
    y = horizontal_vector(scn, x, [1.0, 0.4, 0.0])
    closed = closed_form_constraint_grad(name, x, y)
    numeric = scn.constraint_grad(x, y)
    assert numeric.shape == closed.shape
    assert np.max(np.abs(numeric - closed)) < 1e-12


@pytest.mark.parametrize("name", ["trivial", "hopf", "hopf-scaled"])
def test_submersion_window_takes_49_spray_calls(name, monkeypatch):
    # 400 steps per unit, 12 steps each way: one call at v0, 47 stages for
    # both lanes in lockstep and one at both ends
    real, calls = mx._jet_spray, []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mx, "_jet_spray", spy)
    scn = rd.submersion_scenario(name)
    rd.submersion_curvature(scn, *scn.default_flag())
    assert rd._REDUCTION_RESOLUTION == 400
    assert len(calls) == 49


def test_submersion_accuracy_at_the_reduction_step():
    # both bounds hold at 400 steps per unit, the stencil's rounding floor,
    # and fail at 200 (hopf residual 1.5e-9, hopf-scaled error 4.6e-11)
    scn = rd.submersion_scenario("hopf")
    assert rd.submersion_curvature(scn, *scn.default_flag()).residual <= 1e-9
    scn = rd.submersion_scenario("hopf-scaled")
    res = rd.submersion_curvature(scn, *scn.default_flag())
    assert abs(res.K_base - 1.0) <= 1e-11


def test_submersion_rejects_non_horizontal():
    scn = rd.submersion_scenario("hopf")
    x = scn.suggested_x
    with pytest.raises(HorizontalityViolation):
        rd.submersion_curvature(scn, mx.PhasePoint(x, np.array([0.1, 0.2, 1.0])),
                                [1.0, 0.0, 0.0])


def test_hopf_oneill_triple():
    scn = rd.submersion_scenario("hopf")
    x = scn.suggested_x
    v = mx.PhasePoint(x, horizontal_vector(scn, x, [1.0, 0.4, 0.0]))
    res = rd.submersion_curvature(scn, v, [0.3, 1.0, 0.0])
    assert res.K_base == pytest.approx(4.0, abs=1e-2)
    assert res.K_total == pytest.approx(1.0, abs=1e-2)
    assert res.correction == pytest.approx(3.0, abs=1e-2)
    assert res.residual < 1e-3


def test_hopf_scaled_oneill_triple():
    scn = rd.submersion_scenario("hopf-scaled")
    x = scn.suggested_x
    v = mx.PhasePoint(x, horizontal_vector(scn, x, [0.8, -0.3, 0.0]))
    res = rd.submersion_curvature(scn, v, [0.2, 1.0, 0.0])
    assert res.K_base == pytest.approx(1.0, abs=1e-2)
    assert res.K_total == pytest.approx(0.25, abs=1e-2)
    assert res.correction == pytest.approx(0.75, abs=1e-2)


def test_hopf_matches_riemann_oracles():
    scn = rd.submersion_scenario("hopf")
    x = scn.suggested_x
    y = horizontal_vector(scn, x, [1.0, 0.4, 0.0])
    v = mx.PhasePoint(x, y)
    w = horizontal_vector(scn, x, [0.3, 1.0, 0.0])
    g = np.array(scn.total.g(list(x)), float)
    w = w - (w @ g @ y) / (y @ g @ y) * y
    res = rd.submersion_curvature(scn, v, w)
    K_tot_oracle = jb.riemann_oracle(scn.total.g, x, y, w)
    K_base_oracle = jb.riemann_oracle(scn.base.g, x[:2], y[:2], w[:2])
    assert res.K_total == pytest.approx(K_tot_oracle, abs=1e-3)
    assert res.K_base == pytest.approx(K_base_oracle, abs=2e-2)
