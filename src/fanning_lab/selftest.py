"""Built-in property suites with measured residuals.

Each check exercises one invariant of the library on small random instances
and reports the worst residual against its tolerance.  The stencil width is
a parameter so that deliberately degrading it (h = 0.1) makes the
stencil-dependent checks fail visibly, which is itself part of the checks'
contract: failures are reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deformations as df
from . import fanning as fc
from . import jacobi as jb
from . import metrics as mx
from . import numkit as nk
from . import reduction as rd
from .errors import DegenerateRestriction, TransversalityFailure
from .jets import Jet, jet_variables

__all__ = ["CheckResult", "run_selftest"]


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tolerance


def _sym(rng, n):
    M = rng.normal(size=(n, n)) * 0.4
    return 0.5 * (M + M.T)


def _graph_curve(rng, n):
    Z0 = _sym(rng, n)
    Z1 = _sym(rng, n) + 2.0 * np.eye(n)
    Z2 = _sym(rng, n)
    Z3 = _sym(rng, n)
    top, zero = np.eye(n), np.zeros((n, n))
    A = lambda t: np.vstack([top, Z0 + t * Z1 + t * t * Z2 + t ** 3 * Z3])
    Adot = lambda t: np.vstack([zero, Z1 + 2 * t * Z2 + 3 * t * t * Z3])
    Addot = lambda t: np.vstack([zero, 2 * Z2 + 6 * t * Z3])
    return A, Adot, Addot


def _random_triple(rng, n):
    while True:
        A = rng.normal(size=(2 * n, n))
        Adot = rng.normal(size=(2 * n, n))
        if np.linalg.cond(np.hstack([A, Adot])) < 50:
            return fc.FrameTriple(A, Adot, rng.normal(size=(2 * n, n)))


def run_selftest(seed: int, stencil_h: float):
    """Run every property suite, five random instances each; returns a
    list of CheckResult.  `cli._SETTINGS` holds the default settings."""
    rng = np.random.default_rng(seed)
    out = []

    def check(name, residual, tol):
        out.append(CheckResult(name=name, residual=float(residual),
                               tolerance=float(tol)))

    # numerics -------------------------------------------------------------
    worst = 0.0
    for _ in range(5):
        p = rng.integers(-4, 5, size=4).astype(float)
        q = rng.integers(-4, 5, size=4).astype(float)
        t0 = float(rng.integers(-3, 4))
        comp = np.polynomial.Polynomial(p)(np.polynomial.Polynomial(q))
        (x,) = jet_variables([t0], order=3)
        acc = Jet(1, 3, p[3])
        for c in (p[2], p[1], p[0]):
            qq = Jet(1, 3, q[3])
            for cq in (q[2], q[1], q[0]):
                qq = qq * x + cq
            acc = acc * qq + c
        expected = [comp(t0), comp.deriv(1)(t0), comp.deriv(2)(t0),
                    comp.deriv(3)(t0)]
        got = [acc.v, acc.g[0], acc.H[0, 0], acc.T[0, 0, 0]]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    check("jet-chain-rule-exact", worst, 0.0)

    G = _sym(rng, 3) + 3.0 * np.eye(3)
    H = nk.fiber_hessian(
        lambda x, y: 0.5 * sum(G[i, j] * y[i] * y[j]
                               for i in range(3) for j in range(3)),
        [0.0] * 3, list(rng.normal(size=3)))
    check("fiber-hessian-quadratic", np.max(np.abs(H - G)), 1e-13)

    field = lambda y: np.array([y[1], -y[0]])
    e40 = np.linalg.norm(nk.rk_integrate(field, [1.0, 0.0], 0.0,
                                         math.pi / 2, 40)[-1][1] - [0, -1])
    e80 = np.linalg.norm(nk.rk_integrate(field, [1.0, 0.0], 0.0,
                                         math.pi / 2, 80)[-1][1] - [0, -1])
    check("rk4-convergence-order", abs(e40 / e80 - 16.0), 2.0)

    stc = nk.Stencil(0.0, 1e-2, 4)
    d = nk.central_derivative([math.sin(t) * np.eye(2) for t in stc.nodes], stc)
    check("stencil-first-derivative", np.max(np.abs(d - np.eye(2))), 1e-8)

    # fanning algebra --------------------------------------------------------
    refl = fsq = proj = 0.0
    for _ in range(5):
        ft = _random_triple(rng, 3)
        F = fc.fundamental_endomorphism(ft)
        Fdot, Hf, P_ell, P_h = fc.horizontal_data(ft)
        I = np.eye(6)
        fsq = max(fsq, np.max(np.abs(F @ F)))
        refl = max(refl, np.max(np.abs(Fdot @ Fdot - I)))
        proj = max(proj, np.max(np.abs(P_h @ P_h - P_h)),
                   np.max(np.abs(P_h + P_ell - I)))
    check("fundamental-endomorphism-nilpotent", fsq, 1e-8)
    check("reflection-squares-to-identity", refl, 1e-8)
    check("projector-idempotence", proj, 1e-8)

    worst = 0.0
    for _ in range(5):
        A, Adot, Addot = _graph_curve(rng, 2)
        R0 = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        R1, R2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        R = lambda t: R0 + t * R1 + t * t * R2
        Rd = lambda t: R1 + 2 * t * R2
        B = lambda t: A(t) @ R(t)
        Bd = lambda t: Adot(t) @ R(t) + A(t) @ Rd(t)
        Bdd = lambda t: Addot(t) @ R(t) + 2 * Adot(t) @ Rd(t) + A(t) @ (2 * R2)
        stc = nk.Stencil(0.0, stencil_h, 6)
        iA = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc))
        iB = fc.invariants(fc.stencil_triples(B, Bd, Bdd, stc))
        worst = max(worst, np.max(np.abs(iA.K - iB.K)),
                    np.max(np.abs(iA.F - iB.F)))
    check("frame-independence", worst, 1e-8)

    omega = fc.SymplecticForm.standard(2)
    O = omega.Omega
    sp_res = lag_res = ksym = hw = 0.0
    for _ in range(5):
        A, Adot, Addot = _graph_curve(rng, 2)
        stc = nk.Stencil(0.0, stencil_h, 4)
        inv = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc), omega)
        sp_res = max(sp_res, np.max(np.abs(inv.F.T @ O + O @ inv.F)))
        lag_res = max(lag_res, np.max(np.abs(inv.Hframe.T @ O @ inv.Hframe)))
        WK = inv.W @ (0.5 * inv.Schwarzian)
        ksym = max(ksym, np.max(np.abs(WK - WK.T)))
        Hs = []
        for t in stc.nodes:
            _, Hf, _, _ = fc.horizontal_data(
                fc.FrameTriple(A(t), Adot(t), Addot(t)))
            Hs.append(Hf)
        Hdot = nk.central_derivative(Hs, stc)
        hw = max(hw, np.max(np.abs(inv.Hframe.T @ O @ Hdot - WK)))
    check("fundamental-endomorphism-in-sp", sp_res, 1e-8)
    check("horizontal-curve-lagrangian", lag_res, 1e-8)
    check("wronskian-symmetry-of-K", ksym, 1e-8)
    check("horizontal-wronskian-identity", hw, 1e-6)

    worst = 0.0
    for _ in range(5):
        A, Adot, Addot = _graph_curve(rng, 2)
        c = float(rng.uniform(0.5, 2.0))
        t0 = 0.1
        stc_s = nk.Stencil(c * t0, c * stencil_h, 4)
        inv_s = fc.invariants(fc.stencil_triples(A, Adot, Addot, stc_s), omega)
        B = lambda t: A(c * t)
        Bd = lambda t: c * Adot(c * t)
        Bdd = lambda t: c * c * Addot(c * t)
        stc_t = nk.Stencil(t0, stencil_h, 4)
        inv_t = fc.invariants(fc.stencil_triples(B, Bd, Bdd, stc_t), omega)
        pred = fc.reparametrize(c * t0, c, 0.0, 0.0, inv_s)
        worst = max(worst, np.max(np.abs(inv_t.K - pred.K)),
                    np.max(np.abs(inv_t.F - pred.F)),
                    np.max(np.abs(inv_t.W - pred.W)))
    check("reparametrization-equivariance", worst, 1e-9)

    # metrics ----------------------------------------------------------------
    sphere = mx.zoo_metric("sphere")
    worst = 0.0
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        y = rng.normal(size=2)
        lam = float(rng.uniform(0.3, 2.5))
        p1 = mx.legendre(sphere, mx.PhasePoint(x, lam * y))
        p0 = mx.legendre(sphere, mx.PhasePoint(x, y))
        worst = max(worst, np.max(np.abs(p1 - lam * p0)))
        g = mx.fundamental_tensor(sphere, mx.PhasePoint(x, y))
        worst = max(worst, abs(y @ g @ y - sphere.F_value(x, y) ** 2))
    check("legendre-homogeneity-and-energy", worst, 1e-10)

    x = np.array([0.3, -0.2])
    y = np.array([0.7, 0.4])
    _, Gam, _ = jb.christoffel(sphere.g, x)
    G, _ = mx.spray_data(sphere, x, y, with_jacobian=False)
    check("spray-vs-christoffel",
          np.max(np.abs(G - 0.5 * np.einsum("ijk,j,k->i", Gam, y, y))), 1e-6)

    Omat = mx.omega_matrix(sphere, mx.PhasePoint(x, y))
    V = np.vstack([np.zeros((2, 2)), np.eye(2)])
    check("omega-vertical-lagrangian",
          max(np.max(np.abs(Omat + Omat.T)), np.max(np.abs(V.T @ Omat @ V))),
          1e-10)

    # the orbit is read at multiples of stencil_h, each a node of the grid,
    # and its frames reach 2 spacings past the last one
    def node(t):
        return stencil_h * round(t / stencil_h)

    v0 = mx.PhasePoint(np.array([0.1, 0.2]), np.array([0.5, -0.1]))
    orbit = jb.transport(sphere, v0, round(0.5 / stencil_h) + 2, stencil_h)
    f0 = sphere.F_value(v0.x, v0.y)
    drift = 0.0
    for t in map(node, (0.2, 0.5, -0.4)):
        xx, yy, M = orbit.state(t)
        drift = max(drift, abs(sphere.F_value(xx, yy) - f0))
    check("energy-conservation", drift, 1e-7)

    wg = 0.0
    for t in map(node, (0.0, 0.25, 0.5)):
        inv = jb.jacobi_frame(orbit, t).invariants
        xx, yy, _ = orbit.state(t)
        g = mx.fundamental_tensor(sphere, mx.PhasePoint(xx, yy))
        wg = max(wg, np.max(np.abs(inv.W - g)))
    check("wronskian-equals-fundamental-tensor", wg, 1e-6)

    # curvature ---------------------------------------------------------------
    euclid = mx.zoo_metric("euclidean")
    worst = 0.0
    for _ in range(3):
        xx = rng.uniform(-1, 1, size=2)
        K = jb.flag_curvature(euclid, mx.PhasePoint(xx, rng.normal(size=2)),
                              rng.normal(size=2), h=stencil_h)
        worst = max(worst, abs(K))
    check("flag-curvature-flat", worst, 1e-8)

    worst = 0.0
    for _ in range(3):
        xx = rng.uniform(-1, 1, size=2)
        K = jb.flag_curvature(sphere, mx.PhasePoint(xx, rng.normal(size=2)),
                              rng.normal(size=2), h=stencil_h)
        worst = max(worst, abs(K - 1.0))
    check("flag-curvature-round-sphere", worst, 1e-4)

    check("riemann-oracle-round-sphere",
          abs(jb.riemann_oracle(sphere.g, rng.uniform(-1, 1, size=2),
                                [1.0, 0.1], [0.0, 1.0]) - 1.0),
          1e-6)

    xs = np.array([0.15, -0.1])
    ys = np.array([0.8, 0.25])
    ys = ys / sphere.F_value(xs, ys)
    # read at t = 0.3, 120 spacings, by an order-6 stencil: 3 more
    orbit = jb.transport(sphere, mx.PhasePoint(xs, ys), 123, rd._REDUCTION_H)
    split = rd.contact_reduce(orbit, 0.3)
    check("contact-reduction-kernel", split.kr_residual, 1e-5)
    check("contact-reduction-block", split.block_residual, 1e-5)

    # reduction -----------------------------------------------------------------
    omega4 = fc.SymplecticForm.standard(2)
    Wb = np.eye(4)[:, [0, 1, 2]]
    setup = rd.coisotropic_setup(omega4, Wb)
    wr = eq = 0.0
    done = 0
    for _ in range(50):    # a fault that makes every draw raise fails below
        if done == 5:
            break
        A, Adot, Addot = _graph_curve(rng, 2)
        fs = fc.stencil_triples(A, Adot, Addot,
                                nk.Stencil(0.0, stencil_h, 6))
        try:
            red = rd.reduce_curve(setup, fs)
            oneill = rd.oneill_endomorphism(setup, fs, red)
        except (TransversalityFailure, DegenerateRestriction):
            continue
        done += 1
        c_idx = red.center_index
        ft = fs.triples[c_idx]
        Wmat = fc.wronskian(ft, omega4)
        beta = red.betas[c_idx]
        wr = max(wr, np.max(np.abs(red.invariants.W - beta.T @ Wmat @ beta)))
        a = rng.normal(size=red.h_frames[c_idx].shape[1])
        lhs, rhs = rd.oneill_formula(setup, fs, red, oneill, a)
        eq = max(eq, abs(lhs - rhs) / max(1.0, abs(lhs)))
    if done < 5:
        wr = eq = math.inf
    check("reduced-wronskian-is-restriction", wr, 1e-8)
    check("oneill-formula-equality", eq, 1e-3)

    scn = rd.submersion_scenario("hopf")
    res = rd.submersion_curvature(scn, *scn.default_flag())
    check("hopf-oneill-triple",
          max(abs(res.K_base - 4.0), abs(res.K_total - 1.0),
              abs(res.correction - 3.0)),
          1e-2)

    # deformations ----------------------------------------------------------------
    form = df.ambient_coordinate_form(0.2)
    deformed = df.projective_deform(sphere, form)
    xx = rng.uniform(-0.5, 0.5, size=2)
    yy = rng.normal(size=2)
    uu = rng.normal(size=2)
    K_direct = jb.flag_curvature(deformed, mx.PhasePoint(xx, yy), uu,
                                 h=stencil_h)
    K_formula = df.projective_curvature_rhs(sphere, form, deformed,
                                            mx.PhasePoint(xx, yy), uu)
    check("projective-dual-path", abs(K_direct - K_formula), 1e-3)

    flags = [(rng.uniform(-0.8, 0.8, size=2), rng.normal(size=2),
              rng.normal(size=2)) for _ in range(2)]
    check("katok-constant-curvature",
          np.max(np.abs(df.katok_curvature(0.3, flags) - 1.0)), 1e-3)

    xk, vk = (np.array(a) for a in zip(*[
        (rng.uniform(-0.8, 0.8, size=2), rng.normal(size=2))
        for _ in range(2)]))
    check("katok-zermelo-cross-check",
          np.max(np.abs(df.katok_metric(0.3).F_value(xk, vk)
                        - df.katok_zermelo_cross_check(0.3, xk, vk))), 1e-8)

    return out
