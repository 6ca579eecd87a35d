"""Multivariate truncated Taylor scalars (order 2 or 3), optionally batched.

One jet evaluation of a scalar function in m variables yields its gradient,
Hessian and (at order 3) full third-derivative tensor in a single forward
pass (the vector forward mode of Griewank & Walther, Evaluating
Derivatives, 2008).  This is the package's only Taylor scalar: the spray
and its Jacobian take one jet of F^2 in the 2n phase variables (built from
n-variable jets of g and of every added one-form), the fundamental tensor
and the support Newton take order-2 jets, and univariate jets (m = 1)
seeded with t-derivatives carry Taylor expansions along a curve.
`stack` is the one layout in which the float or jet entries of a chart
field (g, a one-form, a vector field, a fiber) become derivative arrays.

Batch axes.  A jet may carry leading batch axes S: v has shape S, g
S+(m,), H S+(m,m) and T S+(m,m,m), and every operation broadcasts over
them, so one evaluation of a metric differentiates it at a whole batch of
points at once (the batched Taylor mode of Bettencourt, Johnson & Duvenaud,
2019, without a tracing framework).  S = () is the scalar jet, whose value
is a plain number.  Derivative arrays need only broadcast against S: seeds
and constants keep unbatched gradients until arithmetic mixes them with
batched values.

Structural zeros.  Each jet flags an H (hz) and a T (tz) that are zero by
construction: seeds and constants have both, sums, negations and scalar
multiples keep the flags their operands share, and a product of two jets
with zero H and T has zero T.  The flags are never read off the values.
Products and compositions skip the terms a flag makes zero, and keep the
order of the others, so a result keeps its bits (up to the sign of an
exact zero) while the first products of every evaluator, on seeds and
their linear combinations, do a fraction of the work: the sparsity of
forward mode (Griewank & Walther, ch. 7) and the symbolic zeros of Taylor
mode (Bettencourt, Johnson & Duvenaud, 2019).  The arrays stay dense; a
flagged one may lack the batch axes.

The derivative tensors are stored unpacked (numpy arrays H: (m,m), T:
(m,m,m)); m <= 16 in this package, so symmetry packing would buy nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, raise_at

__all__ = ["Jet", "jet_variables", "components", "stack"]


# index tuples that place a gradient or Hessian for an outer product over
# the last axes, whatever the batch axes in front (prebuilt: indexing with a
# constant tuple is as cheap as the unbatched g[:, None])
_COL = (Ellipsis, slice(None), None)                  # g_i  -> [..., i, 1]
_ROW = (Ellipsis, None, slice(None))                  # g_j  -> [..., 1, j]
_COL2 = (Ellipsis, slice(None), None, None)           # g_i  -> [..., i, 1, 1]
_LAYER = (Ellipsis, None, slice(None), slice(None))   # H_jk -> [..., 1, j, k]
_ROW2 = (Ellipsis, None, None, slice(None))           # g_k  -> [..., 1, 1, k]


def _sym3(X: np.ndarray) -> np.ndarray:
    """Symmetrized tensor X_ijk + X_jik + X_kij over the last three axes.

    For X_ijk = g_i H_jk this is g_i H_jk + g_j H_ik + g_k H_ij.
    """
    Y = X.swapaxes(-3, -2)
    return X + Y + Y.swapaxes(-2, -1)


def _total(*terms):
    """Left-to-right sum of the terms that are not None (structural zeros
    skipped); None when every term is."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _lift(c):
    """c ready to scale a gradient, a Hessian and a third-derivative tensor.

    A plain number scales them as it is; a batch of values gets one, two
    and three trailing unit axes.
    """
    if isinstance(c, np.ndarray):
        return c[..., None], c[..., None, None], c[..., None, None, None]
    return c, c, c


def _elementwise(math_fn, np_fn):
    """math_fn on a plain number, np_fn on a batch of values."""
    return lambda v: np_fn(v) if isinstance(v, np.ndarray) else math_fn(v)


_sqrt = _elementwise(math.sqrt, np.sqrt)
_exp = _elementwise(math.exp, np.exp)
_log = _elementwise(math.log, np.log)
_sin = _elementwise(math.sin, np.sin)
_cos = _elementwise(math.cos, np.cos)
# the same five by name, for numkit's smooth functions on non-jet arguments
ELEMENTWISE = {"sqrt": _sqrt, "exp": _exp, "log": _log, "sin": _sin,
               "cos": _cos}
_isfinite = _elementwise(math.isfinite, lambda v: np.isfinite(v).all())


class Jet:
    """Taylor polynomial of a scalar at a point, truncated at `order`.

    v is the value, g the gradient, H the Hessian and T (order 3 only) the
    third-derivative tensor, all with respect to the m seeded variables and
    all with the same leading batch axes (none for a single point).

    hz and tz flag an H and a T that are zero by construction: those of
    seeds and constants, and of sums, negations and scalar multiples of
    flagged jets; a product of two jets with zero H and T has zero T.
    They are never read off the values.
    """

    __slots__ = ("m", "order", "v", "g", "H", "T", "hz", "tz")

    def __init__(self, m, order, v, g=None, H=None, T=None):
        self.m = m
        self.order = order
        self.v = v
        self.g = np.zeros(m) if g is None else g
        self.H = np.zeros((m, m)) if H is None else H
        self.T = None
        if order >= 3:
            self.T = np.zeros((m, m, m)) if T is None else T
        self.hz = H is None
        self.tz = T is None

    # -- construction -------------------------------------------------------

    def _like(self, v, g, H, T, hz=False, tz=False):
        out = Jet(self.m, self.order, v, g, H, T)
        out.hz, out.tz = hz, tz
        return out

    def __repr__(self):
        return f"Jet(m={self.m}, order={self.order}, v={self.v})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            H = (other.H if self.hz else self.H if other.hz
                 else self.H + other.H)
            T = self.T
            if T is not None:
                T = other.T if self.tz else T if other.tz else T + other.T
            return self._like(self.v + other.v, self.g + other.g, H, T,
                              self.hz and other.hz, self.tz and other.tz)
        return self._like(self.v + other, self.g, self.H, self.T,
                          self.hz, self.tz)

    __radd__ = __add__

    def __neg__(self):
        T = self.T if self.T is None or self.tz else -self.T
        return self._like(-self.v, -self.g, self.H if self.hz else -self.H,
                          T, self.hz, self.tz)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c1, c2, c3 = _lift(other)
            H = self.H if self.hz else c2 * self.H
            T = self.T if self.T is None or self.tz else c3 * self.T
            return self._like(other * self.v, c1 * self.g, H, T,
                              self.hz, self.tz)
        a, b = self, other
        a1, a2, a3 = _lift(a.v)
        b1, b2, b3 = _lift(b.v)
        v = a.v * b.v
        g = a1 * b.g + b1 * a.g
        gg = a.g[_COL] * b.g[_ROW]
        H = _total(None if b.hz else a2 * b.H, None if a.hz else b2 * a.H,
                   gg) + gg.mT
        T, tz = self.T, False
        if T is not None:
            X = _total(None if b.hz else a.g[_COL2] * b.H[_LAYER],
                       None if a.hz else b.g[_COL2] * a.H[_LAYER])
            T = _total(None if b.tz else a3 * b.T, None if a.tz else b3 * a.T,
                       None if X is None else _sym3(X))
            tz = T is None
            if tz:
                T = np.zeros((self.m,) * 3)
        return self._like(v, g, H, T, False, tz)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return other * self._reciprocal()

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet(self.m, self.order, 1.0)
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
        """Jet of f(self) from the value and derivatives c0..c3 of f at v;
        the terms through a flagged H or T are skipped, each on its own."""
        c1g, c1H, c1T = _lift(c1)
        _, c2H, c2T = _lift(c2)
        g = c1g * self.g
        gg = self.g[_COL] * self.g[_ROW]
        H = _total(None if self.hz else c1H * self.H, c2H * gg)
        T = None
        if self.T is not None:
            T = _total(None if self.tz else c1T * self.T,
                       None if self.hz
                       else c2T * _sym3(self.g[_COL2] * self.H[_LAYER]),
                       _lift(c3)[2] * gg[..., None] * self.g[_ROW2])
        return self._like(c0, g, H, T)

    def _reciprocal(self):
        v = self.v
        return self._compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4)

    def sqrt(self):
        s = _sqrt(self.v)
        return self._compose(s, 0.5 / s, -0.25 / (s * self.v),
                             0.375 / (s * self.v * self.v))

    def exp(self):
        e = _exp(self.v)
        return self._compose(e, e, e, e)

    def log(self):
        v = self.v
        return self._compose(_log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def sin(self):
        s, c = _sin(self.v), _cos(self.v)
        return self._compose(s, c, -s, -c)

    def cos(self):
        s, c = _sin(self.v), _cos(self.v)
        return self._compose(c, -s, -c, s)

    # -- accessors -----------------------------------------------------------

    def check_finite(self):
        """Raise NonFiniteValue, naming the lowest failing batch index, if
        the value or a derivative is NaN or infinite."""
        if (_isfinite(self.v) and np.isfinite(self.g).all()
                and np.isfinite(self.H).all()
                and (self.T is None or np.isfinite(self.T).all())):
            return self
        parts = [self.v, self.g, self.H] + ([] if self.T is None else [self.T])
        bad = np.zeros(np.shape(self.v), dtype=bool)
        for r, p in enumerate(parts):
            bad = bad | ~np.isfinite(p).all(axis=tuple(range(-r, 0)))
        raise_at(NonFiniteValue, bad,
                 lambda i: "jet evaluation produced non-finite derivatives")
        return self


def components(a) -> list:
    """Entries of a along its last axis: floats for one point, arrays over
    the batch axes for a batch of points (the argument form of evaluators)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return a.tolist()
    return [a[..., i] for i in range(a.shape[-1])]


def jet_variables(values, order=3):
    """Seed one jet per entry of the last axis of `values`, each with a unit
    gradient slot; leading axes of `values` become the jets' batch axes."""
    values = components(values)
    m = len(values)
    if m == 0:
        raise DimensionMismatch("no variables to seed")
    out = []
    for i, v in enumerate(values):
        g = np.zeros(m)
        g[i] = 1.0
        out.append(Jet(m, order, v, g=g))
    return out


def stack(entries, lead, m: int) -> list:
    """Values, gradients and Hessians of k float or jet entries in m
    variables, of shapes lead+(k,), lead+(k, m) and lead+(k, m, m) for batch
    axes lead; float entries get zero derivatives.  Filled entry-first, then
    viewed with the entry axis after the batch axes."""
    k, nb = len(entries), len(lead)
    out = [np.zeros((k,) + tuple(lead) + (m,) * r) for r in range(3)]
    for a, ent in enumerate(entries):
        if isinstance(ent, Jet):
            out[0][a], out[1][a], out[2][a] = ent.v, ent.g, ent.H
        else:
            out[0][a] = ent
    return [s.transpose(tuple(range(1, nb + 1)) + (0,)
                        + tuple(range(nb + 1, s.ndim))) for s in out]
