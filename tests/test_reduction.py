"""Tests for symplectic reduction, the O'Neill endomorphism and submersions."""

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


def test_coisotropic_setup_darboux_property():
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]  # e1, e2, f1: coisotropic
    setup = rd.coisotropic_setup(omega, W)
    D = setup.quotient_basis
    assert D.shape == (4, 2)
    assert np.allclose(D.T @ omega.Omega @ D, std_omega(1).Omega, atol=1e-12)


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


# -- hv split ---------------------------------------------------------------------

def test_hv_split_lagrangian_w_equal_to_plane(rng):
    omega = std_omega(2)
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)
    ft = fc.FrameTriple(A(0.0), Adot(0.0), Addot(0.0))
    setup = rd.coisotropic_setup(omega, ft.A)
    split = rd.hv_split(setup, ft)
    assert split.beta_h.shape == (2, 2)
    assert split.beta_v.shape == (2, 0)
    # the whole plane is the W-part
    coeff, *_ = np.linalg.lstsq(split.Hframe_frak, ft.A, rcond=None)
    assert np.max(np.abs(split.Hframe_frak @ coeff - ft.A)) < 1e-10


def test_hv_split_block_case(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)
    split = rd.hv_split(setup, fc.FrameTriple(A(0.0), Adot(0.0), Addot(0.0)))
    # the W-part is the first factor, the complement the second
    assert np.max(np.abs(split.Hframe_frak[[1, 3], :])) < 1e-10
    assert np.max(np.abs(split.Vframe_frak[[0, 2], :])) < 1e-10


def test_hv_split_projector_algebra(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    while done < 5:
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        ft = fc.FrameTriple(A(0.0), Adot(0.0), Addot(0.0))
        try:
            split = rd.hv_split(setup, ft)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        I = np.eye(4)
        assert np.max(np.abs(split.P_h + split.P_v + split.P_hor - I)) < 1e-10
        for P in (split.P_h, split.P_v, split.P_hor):
            assert np.max(np.abs(P @ P - P)) < 1e-9
        # W-orthogonality of the two parts
        assert np.max(np.abs(split.beta_h.T @ split.Wmat @ split.beta_v)) < 1e-9


def test_hv_split_degenerate_restriction():
    # Z1 = [[0,1],[1,0]] makes the Wronskian vanish on the 1-dim intersection
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    Z0 = np.array([[0.0, 0.0], [0.0, 1.0]])
    Z1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = np.vstack([np.eye(2), Z0])
    Adot = np.vstack([np.zeros((2, 2)), Z1])
    ft = fc.FrameTriple(A, Adot, np.zeros((4, 2)))
    with pytest.raises(DegenerateRestriction):
        rd.hv_split(setup, ft)


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
    data = rd.oneill_endomorphism(setup, curve_stencil(A, Adot, Addot))
    assert np.max(np.abs(data.matrix)) < 1e-9


def test_oneill_symmetry_and_block_structure(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    while done < 5:
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = curve_stencil(A, Adot, Addot)
        try:
            data = rd.oneill_endomorphism(setup, fs)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        assert data.symmetry_residual < 1e-8
        assert data.block_residual < 1e-9


def test_oneill_formula_random_curves(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega, W)
    done = 0
    while done < 10:
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        fs = curve_stencil(A, Adot, Addot, h=1e-2, order=6)
        try:
            red = rd.reduce_curve(setup, fs)
            oneill = rd.oneill_endomorphism(setup, fs)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        a = rng.normal(size=red.h_frames[red.center_index].shape[1])
        lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, a)
        assert abs(lhs - rhs) < 1e-3 * max(1.0, abs(lhs))


def test_oneill_formula_product_both_sides_equal(rng):
    omega = std_omega(2)
    W = np.eye(4)[:, [0, 2, 3]]
    setup = rd.coisotropic_setup(omega, W)
    (A, Adot, Addot), _ = product_curve(rng)
    fs = curve_stencil(A, Adot, Addot, h=1e-2, order=6)
    red = rd.reduce_curve(setup, fs)
    oneill = rd.oneill_endomorphism(setup, fs)
    lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, np.array([1.0]))
    assert lhs == pytest.approx(rhs, abs=1e-9)


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


@pytest.mark.parametrize("name", ["trivial", "hopf", "hopf-scaled"])
def test_constraint_grad_numeric_matches_closed_form(name):
    scn = rd.submersion_scenario(name)
    x = scn.suggested_x
    y = horizontal_vector(scn, x, [1.0, 0.4, 0.0])
    closed = scn.constraint_grad(x, y)
    numeric = scn.constraint_grad_numeric(x, y)
    assert numeric.shape == closed.shape
    assert np.max(np.abs(numeric - closed)) < 1e-12


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
    df = scn.df(x)
    K_base_oracle = jb.riemann_oracle(scn.base.g, scn.f(x), df @ y, df @ w)
    assert res.K_total == pytest.approx(K_tot_oracle, abs=1e-3)
    assert res.K_base == pytest.approx(K_base_oracle, abs=2e-2)
