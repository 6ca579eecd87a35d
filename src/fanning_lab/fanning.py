"""Invariant calculus of fanning curves of n-planes in R^2n.

A curve of planes is described near an instant by a frame A(t) (2n x n) and
its first two derivatives; it is fanning when [A | Adot] spans the whole
space.  From that data alone one obtains, algebraically, the fundamental
endomorphism F (F A = 0, F Adot = A), the reflection Fdot, the horizontal
frame, the Schwarzian matrix, the Jacobi endomorphism K = (1/2 Fddot)^2 and,
when a symplectic form is present, the Wronskian form W.

The only genuinely numerical ingredient is the t-derivative of the frame
coefficient P, which is always taken by finite differences over a stencil of
frame triples; everything else is exact linear algebra on the inputs, which
share one factorization of [A | Adot] per triple.

Frames and forms may carry leading batch axes S (frames S+(2n, n), forms
S+(2n, 2n)); every function here then works on the whole stack at once, and
a failed check names the lowest failing entry (`errors.raise_at`).  A
single frame is the case S = ().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, NotFanning, NotLagrangian,
                     SingularTransform, raise_at)
from .numkit import Stencil, central_derivative

FANNING_COND_LIMIT = 1e10

__all__ = [
    "FrameTriple",
    "SymplecticForm",
    "FanningInvariants",
    "FrameStencil",
    "fundamental_endomorphism",
    "pq_coefficients",
    "schwarzian",
    "horizontal_data",
    "jacobi_endomorphism",
    "wronskian",
    "transform",
    "reparametrize",
    "schwarzian_of_map",
    "stencil_triples",
    "invariants",
]


@dataclass(frozen=True)
class FrameTriple:
    """Frame A(t) of an n-plane in R^2n with its first two t-derivatives,
    each of shape S+(2n, n)."""

    A: np.ndarray
    Adot: np.ndarray
    Addot: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        for name in ("A", "Adot", "Addot"):
            M = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, M)
            if M.shape != A.shape:
                raise DimensionMismatch("frame matrices must share one shape")
        if A.ndim < 2 or A.shape[-2] != 2 * A.shape[-1]:
            raise DimensionMismatch(f"frame must be 2n x n, got {A.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @cached_property
    def fanning_data(self):
        """(inverse of [A | Adot], P, Q), computed once; NotFanning if singular."""
        B = np.concatenate([self.A, self.Adot], axis=-1)
        raise_at(NotFanning, np.linalg.cond(B) > FANNING_COND_LIMIT,
                 lambda i: "[A | Adot] has condition number above "
                           f"{FANNING_COND_LIMIT:g}")
        Binv = np.linalg.inv(B)
        QP = Binv @ (-self.Addot)
        # shared by every caller, so read-only like the triple itself
        Binv.flags.writeable = QP.flags.writeable = False
        n = self.n
        return Binv, QP[..., n:, :], QP[..., :n, :]


@dataclass(frozen=True)
class SymplecticForm:
    """Matrix of a symplectic form, S+(2n, 2n): antisymmetric and invertible."""

    Omega: np.ndarray

    def __post_init__(self):
        O = np.asarray(self.Omega, dtype=float)
        object.__setattr__(self, "Omega", O)
        if O.ndim < 2 or O.shape[-2] != O.shape[-1]:
            raise DimensionMismatch("Omega must be square")
        scale = np.maximum(1.0, np.max(np.abs(O), axis=(-2, -1)))
        raise_at(DimensionMismatch,
                 np.max(np.abs(O + O.mT), axis=(-2, -1)) > 1e-10 * scale,
                 lambda i: "Omega must be antisymmetric")
        raise_at(DimensionMismatch, np.linalg.cond(O) > 1e12,
                 lambda i: "Omega must be invertible")

    @staticmethod
    def standard(n: int) -> "SymplecticForm":
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = np.eye(n)
        J[n:, :n] = -np.eye(n)
        return SymplecticForm(J)


@dataclass
class FanningInvariants:
    """Per-instant bundle of invariants of a fanning curve.

    Endomorphisms are expressed in the ambient standard basis; P, Q, Pdot and
    the Schwarzian are n x n coefficient matrices in the frame basis.  W is
    present only when a symplectic form was supplied.
    """

    F: np.ndarray
    Fdot: np.ndarray
    Hframe: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    Pdot: np.ndarray
    Schwarzian: np.ndarray
    K: np.ndarray
    W: Optional[np.ndarray] = None


def fundamental_endomorphism(ft: FrameTriple) -> np.ndarray:
    """The endomorphism F with F A = 0 and F Adot = A.

    Depends only on the plane curve, not on the frame chosen for it.
    """
    Binv, _, _ = ft.fanning_data
    target = np.concatenate([np.zeros_like(ft.A), ft.A], axis=-1)
    return target @ Binv


def pq_coefficients(ft: FrameTriple):
    """Unique (P, Q) with Addot + Adot P + A Q = 0."""
    _, P, Q = ft.fanning_data
    return P, Q


def schwarzian(ft: FrameTriple, Pdot: np.ndarray) -> np.ndarray:
    """Schwarzian matrix 2Q - (1/2)P^2 - Pdot of the frame."""
    P, Q = pq_coefficients(ft)
    Pdot = np.asarray(Pdot, dtype=float)
    if Pdot.shape != P.shape:
        raise DimensionMismatch("Pdot must be n x n")
    return 2.0 * Q - 0.5 * (P @ P) - Pdot


def horizontal_data(ft: FrameTriple):
    """Reflection Fdot, horizontal frame and the two projectors.

    Fdot is assembled in closed form from the differentiated defining
    relations Fdot A = -A and Fdot Adot = Adot + A P, rather than by
    numerically differentiating F(t); the horizontal frame is
    Hframe = Adot + (1/2) A P, and P_h = (I + Fdot)/2, P_ell = I - P_h.
    """
    Binv, P, _ = ft.fanning_data
    Fdot = np.concatenate([-ft.A, ft.Adot + ft.A @ P], axis=-1) @ Binv
    Hframe = ft.Adot + 0.5 * ft.A @ P
    n2 = Fdot.shape[-1]
    P_h = 0.5 * (np.eye(n2) + Fdot)
    P_ell = np.eye(n2) - P_h
    return Fdot, Hframe, P_ell, P_h


def jacobi_endomorphism(ft: FrameTriple, Pdot: np.ndarray) -> np.ndarray:
    """Jacobi endomorphism K = (1/4) Fddot^2 in the ambient basis.

    (1/2)Fddot has block matrix [[0, -(1/2)S], [-I, 0]] in the basis
    (A, Hframe) with S the Schwarzian; K is its square and is block diagonal
    (1/2)S on both the plane and its horizontal complement.  The basis
    [A | Hframe] = [A | Adot] [[I, P/2], [0, I]] is inverted from the cache.
    """
    n = ft.n
    Binv, P, _ = ft.fanning_data
    half_S = 0.5 * schwarzian(ft, Pdot)
    Hframe = ft.Adot + 0.5 * ft.A @ P
    return (ft.A @ half_S @ (Binv[..., :n, :] - 0.5 * P @ Binv[..., n:, :])
            + Hframe @ half_S @ Binv[..., n:, :])


def wronskian(ft: FrameTriple, omega: SymplecticForm,
              tol: float = 1e-8) -> np.ndarray:
    """Wronskian matrix A^T Omega Adot of a curve of Lagrangian planes.

    Requires span(A) Lagrangian; the raw matrix is symmetric up to rounding
    for genuine Lagrangian curves and is symmetrized before returning.
    """
    O = omega.Omega
    if O.shape[-1] != 2 * ft.n:
        raise DimensionMismatch("symplectic form has wrong size for the frame")
    scale = np.maximum(1.0, np.linalg.norm(ft.A, axis=(-2, -1)) ** 2
                       * np.linalg.norm(O, axis=(-2, -1)))
    defect = np.max(np.abs(ft.A.mT @ O @ ft.A), axis=(-2, -1))
    raise_at(NotLagrangian, defect > tol * scale,
             lambda i: f"A^T Omega A deviates from zero by {defect[i]:.3e}")
    W = ft.A.mT @ O @ ft.Adot
    return 0.5 * (W + W.mT)


def transform(T: np.ndarray, ft: FrameTriple) -> FrameTriple:
    """Push the frame triple forward by an invertible linear map."""
    T = np.asarray(T, dtype=float)
    if T.shape != (2 * ft.n, 2 * ft.n):
        raise DimensionMismatch("transform must be 2n x 2n")
    if np.linalg.cond(T) > 1e12:
        raise SingularTransform("transform is numerically singular")
    return FrameTriple(T @ ft.A, T @ ft.Adot, T @ ft.Addot)


def schwarzian_of_map(sdot: float, sddot: float, sdddot: float) -> float:
    """Schwarzian derivative (d/dt)(sddot/sdot) - (1/2)(sddot/sdot)^2."""
    if sdot == 0.0:
        raise SingularTransform("reparametrization with vanishing derivative")
    r = sddot / sdot
    return sdddot / sdot - 1.5 * r * r


@dataclass(frozen=True)
class ReparametrizedInvariants:
    F: np.ndarray
    K: np.ndarray
    W: Optional[np.ndarray] = None


def reparametrize(s: float, sdot: float, sddot: float, sdddot: float,
                  inv_at_s: FanningInvariants) -> ReparametrizedInvariants:
    """Predicted invariants of the reparametrized curve t -> l(s(t)).

    W scales by sdot and F by 1/sdot (the defining relation F Bdot = B forces
    the inverse factor on F); K picks up sdot^2 plus half the Schwarzian
    derivative of the parameter change times the identity.
    """
    schw = schwarzian_of_map(sdot, sddot, sdddot)
    F = inv_at_s.F / sdot
    K = sdot * sdot * inv_at_s.K + 0.5 * schw * np.eye(inv_at_s.K.shape[-1])
    W = None if inv_at_s.W is None else sdot * inv_at_s.W
    return ReparametrizedInvariants(F=F, K=K, W=W)


# ---------------------------------------------------------------------------
# stencils of frame triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameStencil:
    """Frame triples sampled on a finite-difference stencil around one instant."""

    stencil: Stencil
    triples: tuple

    def __post_init__(self):
        if len(self.triples) != len(self.stencil.offsets):
            raise DimensionMismatch("triple count must match stencil nodes")
        object.__setattr__(self, "triples", tuple(self.triples))

    @property
    def center(self) -> FrameTriple:
        return self.triples[len(self.triples) // 2]


def stencil_triples(A, Adot, Addot, stencil: Stencil) -> FrameStencil:
    """Sample analytic frame callables on a stencil."""
    triples = [FrameTriple(A(t), Adot(t), Addot(t)) for t in stencil.nodes]
    return FrameStencil(stencil, tuple(triples))


def invariants(fs: FrameStencil,
               omega: Optional[SymplecticForm] = None) -> FanningInvariants:
    """Full invariant bundle at the stencil center.

    Pdot comes from the first-derivative stencil over P evaluated at every
    node; everything else is closed-form in the center triple.
    """
    Ps = []
    for ft in fs.triples:
        P, _ = pq_coefficients(ft)
        Ps.append(P)
    Pdot = central_derivative(Ps, fs.stencil)

    ft = fs.center
    P, Q = pq_coefficients(ft)
    F = fundamental_endomorphism(ft)
    Fdot, Hframe, P_ell, P_h = horizontal_data(ft)
    S = 2.0 * Q - 0.5 * (P @ P) - Pdot
    K = jacobi_endomorphism(ft, Pdot)
    W = None if omega is None else wronskian(ft, omega)
    return FanningInvariants(F=F, Fdot=Fdot, Hframe=Hframe, P=P, Q=Q,
                             Pdot=Pdot, Schwarzian=S, K=K, W=W)
