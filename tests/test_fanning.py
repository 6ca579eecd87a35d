"""Tests for the fanning-curve invariant calculus."""

import math

import numpy as np
import pytest

from conftest import (lagrangian_graph_curve, random_fanning_triple,
                      random_lagrangian_triple, random_symplectic)
from fanning_lab import fanning as fc
from fanning_lab import numkit as nk
from fanning_lab.errors import (DimensionMismatch, NotFanning, NotLagrangian,
                                SingularTransform, batch_labels)


def triple(A, Adot, Addot=None):
    A = np.asarray(A, dtype=float).reshape(2, 1)
    Adot = np.asarray(Adot, dtype=float).reshape(2, 1)
    Addot = np.zeros((2, 1)) if Addot is None else \
        np.asarray(Addot, dtype=float).reshape(2, 1)
    return fc.FrameTriple(A, Adot, Addot)


def rotating_line(t):
    """A(t) = (cos t, sin t): the simplest genuinely curved example."""
    A = lambda s: np.array([[math.cos(s)], [math.sin(s)]])
    Adot = lambda s: np.array([[-math.sin(s)], [math.cos(s)]])
    Addot = lambda s: -A(s)
    return fc.FrameTriple(A(t), Adot(t), Addot(t)), (A, Adot, Addot)


# -- fundamental endomorphism -------------------------------------------------

def test_fundamental_endomorphism_forced_by_relations():
    F = fc.fundamental_endomorphism(triple([1, 0], [0, 1]))
    assert np.allclose(F, [[0, 1], [0, 0]])
    F = fc.fundamental_endomorphism(triple([0, 1], [1, 0]))
    assert np.allclose(F, [[0, 0], [1, 0]])


def test_fundamental_endomorphism_not_fanning():
    with pytest.raises(NotFanning):
        fc.fundamental_endomorphism(triple([1, 0], [2, 0]))


def test_fundamental_endomorphism_defining_relations_random(rng):
    for n in (1, 2, 3):
        ft = random_fanning_triple(rng, n)
        F = fc.fundamental_endomorphism(ft)
        assert np.max(np.abs(F @ ft.A)) < 1e-10
        assert np.max(np.abs(F @ ft.Adot - ft.A)) < 1e-10
        assert np.max(np.abs(F @ F)) < 1e-10  # F^2 = 0


def test_fundamental_endomorphism_frame_choice_irrelevant(rng):
    ft = random_fanning_triple(rng, 2)
    R = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
    other = fc.FrameTriple(ft.A @ R, ft.Adot @ R, ft.Addot @ R)
    assert np.allclose(fc.fundamental_endomorphism(ft),
                       fc.fundamental_endomorphism(other), atol=1e-10)


# -- P, Q and the Schwarzian --------------------------------------------------

def test_pq_zero_acceleration():
    ft = triple([1, 0], [0, 1], [0, 0])
    P, Q = fc.pq_coefficients(ft)
    assert np.allclose(P, 0.0) and np.allclose(Q, 0.0)


def test_pq_rotating_line_at_zero():
    ft = triple([1, 0], [0, 1], [-1, 0])
    P, Q = fc.pq_coefficients(ft)
    assert np.allclose(P, [[0.0]])
    assert np.allclose(Q, [[1.0]])


def test_pq_residual_random(rng):
    for _ in range(5):
        ft = random_fanning_triple(rng, 2)
        P, Q = fc.pq_coefficients(ft)
        res = ft.Addot + ft.Adot @ P + ft.A @ Q
        assert np.max(np.abs(res)) < 1e-12


def test_schwarzian_rotating_line_any_t():
    for t in (0.0, 0.4, -1.1):
        ft, _ = rotating_line(t)
        S = fc.schwarzian(ft, np.zeros((1, 1)))
        assert np.allclose(S, [[2.0]], atol=1e-12)


def test_schwarzian_straight_jacobi_frame():
    ft = triple([-0.7, 1], [-1, 0], [0, 0])
    assert np.allclose(fc.schwarzian(ft, np.zeros((1, 1))), 0.0, atol=1e-14)


def test_normal_frame_identity(rng):
    # P = 0 frames satisfy Addot = -(1/2) A {A, t}
    for _ in range(5):
        n = 3
        while True:
            A = rng.normal(size=(2 * n, n))
            Adot = rng.normal(size=(2 * n, n))
            if np.linalg.cond(np.hstack([A, Adot])) < 50:
                break
        Q0 = rng.normal(size=(n, n))
        ft = fc.FrameTriple(A, Adot, -A @ Q0)
        P, _ = fc.pq_coefficients(ft)
        assert np.max(np.abs(P)) < 1e-12
        S = fc.schwarzian(ft, np.zeros((n, n)))
        assert np.max(np.abs(ft.Addot + 0.5 * ft.A @ S)) < 1e-10


# -- horizontal data ----------------------------------------------------------

def test_horizontal_rotating_line():
    ft, _ = rotating_line(0.0)
    Fdot, H, P_ell, P_h = fc.horizontal_data(ft)
    assert np.allclose(H, [[0.0], [1.0]], atol=1e-12)
    assert np.allclose(Fdot, np.diag([-1.0, 1.0]), atol=1e-12)


def test_reflection_and_projector_algebra(rng):
    for n in (1, 2, 3):
        ft = random_fanning_triple(rng, n)
        Fdot, H, P_ell, P_h = fc.horizontal_data(ft)
        I = np.eye(2 * n)
        assert np.max(np.abs(Fdot @ Fdot - I)) < 1e-10
        assert np.max(np.abs(P_h @ P_h - P_h)) < 1e-10
        assert np.max(np.abs(P_h + P_ell - I)) < 1e-12
        assert np.max(np.abs(P_ell @ ft.A - ft.A)) < 1e-10
        assert np.max(np.abs(P_h @ ft.A)) < 1e-10
        assert np.max(np.abs(P_h @ H - H)) < 1e-10


def test_normal_frame_horizontal_is_adot(rng):
    n = 2
    A = rng.normal(size=(2 * n, n))
    Adot = rng.normal(size=(2 * n, n)) + np.vstack([np.zeros((n, n)), np.eye(n)])
    ft = fc.FrameTriple(A, Adot, -A @ rng.normal(size=(n, n)))
    _, H, _, _ = fc.horizontal_data(ft)
    assert np.allclose(H, ft.Adot, atol=1e-12)


# -- Jacobi endomorphism ------------------------------------------------------

def test_jacobi_endomorphism_rotating_line():
    ft, _ = rotating_line(0.0)
    K = fc.jacobi_endomorphism(ft, fc.schwarzian(ft, np.zeros((1, 1))),
                               fc.horizontal_data(ft)[1])
    assert np.allclose(K, np.eye(2), atol=1e-12)


def test_jacobi_endomorphism_straight_frame():
    ft = triple([-0.3, 1], [-1, 0], [0, 0])
    K = fc.jacobi_endomorphism(ft, fc.schwarzian(ft, np.zeros((1, 1))),
                               fc.horizontal_data(ft)[1])
    assert np.max(np.abs(K)) < 1e-13


def test_jacobi_endomorphism_invariant_subspaces(rng):
    ft = random_fanning_triple(rng, 3)
    Pdot = rng.normal(size=(3, 3))
    _, H, _, _ = fc.horizontal_data(ft)
    K = fc.jacobi_endomorphism(ft, fc.schwarzian(ft, Pdot), H)
    # K span(A) stays in span(A), same for the horizontal frame
    for M in (ft.A, H):
        coeff, res, *_ = np.linalg.lstsq(M, K @ M, rcond=None)
        assert np.max(np.abs(M @ coeff - K @ M)) < 1e-9


def test_jacobi_endomorphism_dual_path_stencil(rng):
    # (1/4) Fddot^2 with Fddot from stencil differentiation of F(t) must agree
    # with the closed-form block assembly
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)
    stc = nk.Stencil(0.0, 1e-2, 4)
    Fs = [fc.fundamental_endomorphism(fc.FrameTriple(A(t), Adot(t), Addot(t)))
          for t in stc.nodes]
    w = nk.fornberg_weights(stc.t, stc.nodes, 2)
    Fddot = sum(wk * Fk for wk, Fk in zip(w, Fs))
    K_stencil = 0.25 * Fddot @ Fddot

    fs = fc.stencil_triples(A, Adot, Addot, stc)
    K_block = fc.invariants(fs).K
    assert np.max(np.abs(K_stencil - K_block)) < 1e-6


def test_invariants_factor_each_block_once(rng, monkeypatch):
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)
    fs = fc.stencil_triples(A, Adot, Addot, nk.Stencil(0.0, 1e-2, 4))
    omega = fc.SymplecticForm.standard(2)
    calls = []
    cond = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(1)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    fc.invariants(fs, omega)
    assert len(calls) == len(fs.triples) == 5


# -- Wronskian ----------------------------------------------------------------

def test_wronskian_standard_line():
    omega = fc.SymplecticForm.standard(1)
    assert np.allclose(fc.wronskian(triple([1, 0], [0, 1]), omega), [[1.0]])
    assert np.allclose(fc.wronskian(triple([1, 0], [0, -1]), omega), [[-1.0]])


def test_wronskian_requires_lagrangian(rng):
    omega = fc.SymplecticForm.standard(2)
    while True:
        ft = random_fanning_triple(rng, 2)
        if np.max(np.abs(ft.A.T @ omega.Omega @ ft.A)) > 1e-3:
            break
    with pytest.raises(NotLagrangian):
        fc.wronskian(ft, omega)


def test_wronskian_symmetry_bookkeeping(rng):
    omega = fc.SymplecticForm.standard(2)
    for _ in range(5):
        ft = random_lagrangian_triple(rng, 2)
        raw = ft.A.T @ omega.Omega @ ft.Adot
        assert np.max(np.abs(raw - raw.T)) < 1e-12
        W = fc.wronskian(ft, omega)
        assert np.max(np.abs(W - W.T)) == 0.0


def test_lagrangian_invariants(rng):
    omega = fc.SymplecticForm.standard(3)
    O = omega.Omega
    for _ in range(5):
        A, Adot, Addot = lagrangian_graph_curve(rng, 3)
        stc = nk.Stencil(0.0, 1e-3, 4)
        fs = fc.stencil_triples(A, Adot, Addot, stc)
        inv = fc.invariants(fs, omega)
        # F takes values in the symplectic Lie algebra
        assert np.max(np.abs(inv.F.T @ O + O @ inv.F)) < 1e-9
        # horizontal curve is Lagrangian
        assert np.max(np.abs(inv.Hframe.T @ O @ inv.Hframe)) < 1e-9
        # K restricted to the plane is W-symmetric: W (S/2) symmetric
        WK = inv.W @ (0.5 * inv.Schwarzian)
        assert np.max(np.abs(WK - WK.T)) < 1e-9


def test_horizontal_wronskian_identity(rng):
    # W_h(H u, H v) = W(K u, v), with dH/dt taken by stencil
    omega = fc.SymplecticForm.standard(2)
    O = omega.Omega
    for _ in range(20):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        stc = nk.Stencil(0.0, 1e-3, 4)
        Hs = []
        for t in stc.nodes:
            ft = fc.FrameTriple(A(t), Adot(t), Addot(t))
            _, H, _, _ = fc.horizontal_data(ft)
            Hs.append(H)
        Hdot = nk.central_derivative(Hs, stc)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)
        lhs = inv.Hframe.T @ O @ Hdot
        rhs = inv.W @ (0.5 * inv.Schwarzian)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


# -- transformation laws ------------------------------------------------------

def test_transform_identity(rng):
    ft = random_fanning_triple(rng, 2)
    out = fc.transform(np.eye(4), ft)
    assert np.allclose(out.A, ft.A)


def test_transform_singular():
    ft = triple([1, 0], [0, 1])
    with pytest.raises(SingularTransform):
        fc.transform(np.zeros((2, 2)), ft)


def test_transform_equivariance_random_symplectic(rng):
    omega = fc.SymplecticForm.standard(2)
    for _ in range(5):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        T = random_symplectic(rng, 2)
        stc = nk.Stencil(0.0, 1e-3, 4)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)
        TA = lambda t: T @ A(t)
        TAdot = lambda t: T @ Adot(t)
        TAddot = lambda t: T @ Addot(t)
        inv_T = fc.invariants(fc.stencil_triples(TA, TAdot, TAddot, stc), omega)
        Tinv = np.linalg.inv(T)
        assert np.max(np.abs(inv_T.F - T @ inv.F @ Tinv)) < 1e-9
        assert np.max(np.abs(inv_T.K - T @ inv.K @ Tinv)) < 1e-9


def test_reparametrize_affine(rng):
    # s(t) = 2t: K picks up the factor 4 and no Schwarzian term
    omega = fc.SymplecticForm.standard(2)
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)
    t0, c = 0.15, 2.0
    stc_s = nk.Stencil(c * t0, 1e-3, 4)
    inv_s = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc_s), omega)

    B = lambda t: A(c * t)
    Bdot = lambda t: c * Adot(c * t)
    Bddot = lambda t: c * c * Addot(c * t)
    stc_t = nk.Stencil(t0, 1e-3, 4)
    inv_t = fc.invariants(fc.stencil_triples(B, Bdot, Bddot, stc_t), omega)

    pred = fc.reparametrize(c * t0, c, 0.0, 0.0, inv_s)
    assert np.max(np.abs(inv_t.F - pred.F)) < 1e-9
    assert np.max(np.abs(inv_t.K - pred.K)) < 1e-9
    assert np.max(np.abs(inv_t.W - pred.W)) < 1e-9


def test_reparametrize_schwarzian_term(rng):
    # genuinely non-affine s(t): K transforms with the (1/2){s,t} correction
    omega = fc.SymplecticForm.standard(2)
    A, Adot, Addot = lagrangian_graph_curve(rng, 2)

    def s(t):
        return t + 0.2 * t * t + 0.05 * t ** 3

    def sdot(t):
        return 1.0 + 0.4 * t + 0.15 * t * t

    t0 = 0.1
    sd, sdd, sddd = sdot(t0), 0.4 + 0.3 * t0, 0.3
    stc_s = nk.Stencil(s(t0), 1e-3, 4)
    inv_s = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc_s), omega)

    B = lambda t: A(s(t))
    Bdot = lambda t: sdot(t) * Adot(s(t))
    Bddot = lambda t: (0.4 + 0.3 * t) * Adot(s(t)) + sdot(t) ** 2 * Addot(s(t))
    stc_t = nk.Stencil(t0, 1e-3, 4)
    inv_t = fc.invariants(fc.stencil_triples(B, Bdot, Bddot, stc_t), omega)

    pred = fc.reparametrize(s(t0), sd, sdd, sddd, inv_s)
    assert np.max(np.abs(inv_t.F - pred.F)) < 1e-8
    assert np.max(np.abs(inv_t.K - pred.K)) < 1e-8


def test_frame_independence_of_invariants(rng):
    # A(t) R(t) with polynomial invertible R(t) gives the same F, Fdot, K
    for _ in range(5):
        A, Adot, Addot = lagrangian_graph_curve(rng, 2)
        R0 = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        R1 = rng.normal(size=(2, 2))
        R2 = rng.normal(size=(2, 2))
        R = lambda t: R0 + t * R1 + t * t * R2
        Rdot = lambda t: R1 + 2.0 * t * R2
        Rddot = lambda t: 2.0 * R2

        B = lambda t: A(t) @ R(t)
        Bdot = lambda t: Adot(t) @ R(t) + A(t) @ Rdot(t)
        Bddot = lambda t: (Addot(t) @ R(t) + 2.0 * Adot(t) @ Rdot(t)
                           + A(t) @ Rddot(t))
        stc = nk.Stencil(0.0, 1e-3, 4)
        inv_A = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc))
        inv_B = fc.invariants(fc.stencil_triples(B, Bdot, Bddot, stc))
        assert np.max(np.abs(inv_A.F - inv_B.F)) < 1e-8
        assert np.max(np.abs(inv_A.Fdot - inv_B.Fdot)) < 1e-8
        assert np.max(np.abs(inv_A.K - inv_B.K)) < 1e-8


# -- batch axes ---------------------------------------------------------------

def stack(triples):
    """One frame triple holding the given ones along a leading batch axis."""
    return fc.FrameTriple(*(np.stack([getattr(ft, k) for ft in triples])
                            for k in ("A", "Adot", "Addot")))


def stacked(stencils):
    """One batched stencil from stencils on the same nodes."""
    return fc.FrameStencil(stencils[0].stencil, tuple(
        stack(node) for node in zip(*(fs.triples for fs in stencils))))


def test_batched_invariants_match_each_triple(rng):
    stc = nk.Stencil(0.0, 1e-3, 4)
    for n in (1, 2, 3):
        J = fc.SymplecticForm.standard(n)
        lagrangian = [fc.stencil_triples(*lagrangian_graph_curve(rng, n), stc)
                      for _ in range(4)]
        generic = [fc.FrameStencil(stc, tuple(random_fanning_triple(rng, n)
                                              for _ in stc.nodes))
                   for _ in range(4)]
        cases = [(lagrangian, J, J),
                 (lagrangian, J, fc.SymplecticForm(np.stack([J.Omega] * 4))),
                 (generic, None, None)]
        for stencils, omega, batch_omega in cases:
            batch = fc.invariants(stacked(stencils), batch_omega)
            for i, fs in enumerate(stencils):
                one = fc.invariants(fs, omega)
                for name in ("F", "Fdot", "Hframe", "Schwarzian", "K", "W"):
                    want, got = getattr(one, name), getattr(batch, name)
                    if want is None:
                        assert got is None
                        continue
                    assert got.shape == (4,) + want.shape
                    assert np.max(np.abs(got[i] - want)) <= \
                        1e-15 * max(1.0, np.max(np.abs(want)))
                want = fc.reparametrize(0.0, 1.3, 0.2, -0.1, one).K
                got = fc.reparametrize(0.0, 1.3, 0.2, -0.1, batch).K[i]
                assert np.max(np.abs(got - want)) <= \
                    1e-15 * max(1.0, np.max(np.abs(want)))


def test_batch_failures_name_the_lowest_failing_flag(rng):
    n = 2
    omega = fc.SymplecticForm.standard(n)
    good = [random_lagrangian_triple(rng, n) for _ in range(4)]

    # flags 1 and 3 stop fanning: Adot falls into span(A)
    stalled = [fc.FrameTriple(ft.A, ft.A @ rng.normal(size=(n, n)), ft.Addot)
               if i in (1, 3) else ft for i, ft in enumerate(good)]
    with pytest.raises(NotFanning, match=r"^flag 1: \[A \| Adot\]"):
        fc.pq_coefficients(stack(stalled))
    with batch_labels(lambda i: f"t={0.25 * i:g}"):
        with pytest.raises(NotFanning, match=r"^t=0.25: "):
            fc.fundamental_endomorphism(stack(stalled))

    # flag 2 is fanning but not Lagrangian
    while True:
        other = random_fanning_triple(rng, n)
        if np.max(np.abs(other.A.T @ omega.Omega @ other.A)) > 1e-3:
            break
    mixed = good[:2] + [other] + good[3:]
    with pytest.raises(NotLagrangian, match=r"^flag 2: A\^T Omega A"):
        fc.wronskian(stack(mixed), omega)

    J = omega.Omega
    with pytest.raises(DimensionMismatch,
                       match=r"^flag 1: Omega must be antisymmetric"):
        fc.SymplecticForm(np.stack([J, J + 1e-3 * np.eye(2 * n), J]))
    with pytest.raises(DimensionMismatch,
                       match=r"^flag 2: Omega must be invertible"):
        fc.SymplecticForm(np.stack([J, J, np.zeros_like(J), J]))
