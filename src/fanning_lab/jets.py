"""Multivariate truncated Taylor scalars (order 2 or 3).

One jet evaluation of a scalar function in m variables yields its gradient,
Hessian and (at order 3) full third-derivative tensor in a single forward
pass (the vector forward mode of Griewank & Walther, Evaluating
Derivatives, 2008).  This is the package's only Taylor scalar: the spray
and its Jacobian take one jet of F^2 in all 2n phase variables, the
fundamental tensor and the support Newton take order-2 jets, and
univariate jets (m = 1) seeded with t-derivatives carry Taylor expansions
along a curve.

The derivative tensors are stored unpacked (numpy arrays H: (m,m), T:
(m,m,m)); m <= 16 in this package, so symmetry packing would buy nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue

__all__ = ["Jet", "jet_variables"]


def _sym3(X: np.ndarray) -> np.ndarray:
    """Symmetrized tensor X_ijk + X_jik + X_kij.

    For X_ijk = g_i H_jk this is g_i H_jk + g_j H_ik + g_k H_ij.
    """
    return X + X.transpose(1, 0, 2) + X.transpose(1, 2, 0)


class Jet:
    """Taylor polynomial of a scalar at a point, truncated at `order`.

    v is the value, g the gradient, H the Hessian and T (order 3 only) the
    third-derivative tensor, all with respect to the m seeded variables.
    """

    __slots__ = ("m", "order", "v", "g", "H", "T")

    def __init__(self, m, order, v, g=None, H=None, T=None):
        self.m = m
        self.order = order
        self.v = float(v)
        self.g = np.zeros(m) if g is None else g
        self.H = np.zeros((m, m)) if H is None else H
        self.T = None
        if order >= 3:
            self.T = np.zeros((m, m, m)) if T is None else T

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(value, m, order):
        return Jet(m, order, value)

    def _like(self, v, g, H, T):
        return Jet(self.m, self.order, v, g, H, T)

    def __repr__(self):
        return f"Jet(m={self.m}, order={self.order}, v={self.v})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            T = None if self.T is None else self.T + other.T
            return self._like(self.v + other.v, self.g + other.g,
                              self.H + other.H, T)
        return self._like(self.v + other, self.g, self.H, self.T)

    __radd__ = __add__

    def __neg__(self):
        T = None if self.T is None else -self.T
        return self._like(-self.v, -self.g, -self.H, T)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            T = None if self.T is None else c * self.T
            return self._like(c * self.v, c * self.g, c * self.H, T)
        a, b = self, other
        v = a.v * b.v
        g = a.v * b.g + b.v * a.g
        gg = a.g[:, None] * b.g
        H = a.v * b.H + b.v * a.H + gg + gg.T
        T = None
        if self.T is not None:
            T = (a.v * b.T + b.v * a.T
                 + _sym3(a.g[:, None, None] * b.H + b.g[:, None, None] * a.H))
        return self._like(v, g, H, T)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return other * self._reciprocal()

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(1.0, self.m, self.order)
            base, k = self, p
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        v = self.v
        return self._compose(v ** p, p * v ** (p - 1),
                             p * (p - 1) * v ** (p - 2),
                             p * (p - 1) * (p - 2) * v ** (p - 3))

    # -- composition with a smooth univariate function ------------------------

    def _compose(self, c0, c1, c2, c3):
        g = c1 * self.g
        gg = self.g[:, None] * self.g
        H = c1 * self.H + c2 * gg
        T = None
        if self.T is not None:
            T = (c1 * self.T + c2 * _sym3(self.g[:, None, None] * self.H)
                 + c3 * gg[:, :, None] * self.g[None, None, :])
        return self._like(c0, g, H, T)

    def _reciprocal(self):
        v = self.v
        return self._compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)

    def sqrt(self):
        s = math.sqrt(self.v)
        return self._compose(s, 0.5 / s, -0.25 / (s * self.v),
                             0.375 / (s * self.v * self.v))

    def exp(self):
        e = math.exp(self.v)
        return self._compose(e, e, e, e)

    def log(self):
        v = self.v
        return self._compose(math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def sin(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._compose(s, c, -s, -c)

    def cos(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._compose(c, -s, -c, s)

    # -- accessors -----------------------------------------------------------

    @property
    def value(self):
        return self.v

    def check_finite(self):
        ok = (math.isfinite(self.v) and np.isfinite(self.g).all()
              and np.isfinite(self.H).all())
        if ok and self.T is not None:
            ok = np.isfinite(self.T).all()
        if not ok:
            raise NonFiniteValue("jet evaluation produced non-finite derivatives")
        return self


def jet_variables(values, order=3):
    """Seed one jet per entry of `values`, each with a unit gradient slot."""
    values = [float(v) for v in values]
    m = len(values)
    if m == 0:
        raise DimensionMismatch("no variables to seed")
    out = []
    for i, v in enumerate(values):
        g = np.zeros(m)
        g[i] = 1.0
        out.append(Jet(m, order, v, g=g))
    return out
