"""Tests for multivariate Taylor jets against finite differences and hand
derivatives."""

import math

import numpy as np
import pytest

from fanning_lab import numkit as nk
from fanning_lab.errors import NonFiniteValue
from fanning_lab.jets import Jet, jet_variables, stack


def test_polynomial_jet_exact():
    # f(a, b) = a^2 b + 3 a - b^3
    a, b = jet_variables([2.0, -1.0], order=3)
    f = a * a * b + 3.0 * a - b ** 3
    assert f.v == pytest.approx(2 ** 2 * (-1) + 6 + 1)
    assert f.g == pytest.approx([2 * 2 * (-1) + 3, 2 ** 2 - 3 * 1])
    assert f.H == pytest.approx(np.array([[-2.0, 4.0], [4.0, 6.0]]))
    T = np.zeros((2, 2, 2))
    T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 2.0  # d^3/da^2 db of a^2 b
    T[1, 1, 1] = -6.0
    assert f.T == pytest.approx(T)


def smooth(x, y):
    return nk.sqrt(1.0 + x * x + x * y) * nk.exp(y * 0.2) + nk.sin(x) / (2.0 + y)


def test_jet_matches_finite_difference_line_derivatives():
    # independent oracle: 7-point Fornberg stencils along t -> (x0, y0) + t d
    rng = np.random.default_rng(3)
    x0, y0 = 0.7, -0.4
    a, b = jet_variables([x0, y0], order=3)
    J = smooth(a, b)
    stc = nk.Stencil(0.0, 2e-3, 6)
    w1, w2, w3 = (nk.fornberg_weights(0.0, stc.nodes, k) for k in (1, 2, 3))

    for _ in range(10):
        d = rng.normal(size=2)
        vals = np.array([smooth(x0 + t * d[0], y0 + t * d[1])
                         for t in stc.nodes])
        assert J.g @ d == pytest.approx(w1 @ vals, abs=1e-10)
        assert d @ J.H @ d == pytest.approx(w2 @ vals, abs=1e-8)
        t3 = np.einsum("ijk,i,j,k->", J.T, d, d, d)
        assert t3 == pytest.approx(w3 @ vals, abs=1e-5)


def test_jet_mixed_partials_match_analytic():
    # f = (x1 y1 y2 + y1^2 x2) exp(x1/10) in the variables (x1, x2, y1, y2)
    x0, y0 = [0.4, -0.3], [1.2, 0.5]
    x1, x2, y1, y2 = jet_variables(x0 + y0, order=2)
    f = (x1 * y1 * y2 + y1 * y1 * x2) * nk.exp(x1 * 0.1)
    # d^2 f / dy1 dy2 and d^2 f / dx2 dy1
    assert f.H[2, 3] == pytest.approx(x0[0] * math.exp(0.04), rel=1e-12)
    assert f.H[1, 2] == pytest.approx(2 * y0[0] * math.exp(0.04), rel=1e-12)


def test_jet_order2_skips_third_tensor():
    a, b = jet_variables([1.0, 2.0], order=2)
    f = (a * b).sqrt()
    assert f.T is None
    assert f.v == pytest.approx(math.sqrt(2.0))


def test_jet_division_and_rops():
    (x,) = jet_variables([2.0], order=3)
    f = 1.0 / (1.0 + x) - (3.0 - x) * 0.5
    # value and derivatives of 1/(1+x) - (3-x)/2 at x=2
    assert f.v == pytest.approx(1 / 3 - 0.5)
    assert f.g[0] == pytest.approx(-1 / 9 + 0.5)
    assert f.H[0, 0] == pytest.approx(2 / 27)
    assert f.T[0, 0, 0] == pytest.approx(-6 / 81)


def test_jet_integer_power_matches_mul():
    a, b = jet_variables([1.3, 0.4], order=3)
    f = (a + b) ** 3
    g = (a + b) * (a + b) * (a + b)
    assert f.v == pytest.approx(g.v)
    assert f.g == pytest.approx(g.g)
    assert f.H == pytest.approx(g.H)
    assert f.T == pytest.approx(g.T)


def every_operation(a, b):
    """One jet per operation of Jet, on positive arguments."""
    return [a + b, a - b, 1.5 - a, a + 2.0, a * b, 3.0 * b, a / b, 2.0 / b,
            b / 4.0, -a, a ** 3, b ** 0, a ** 2.5, b ** -1.5, a.sqrt(),
            nk.exp(a * b), nk.log(a + b), nk.sin(a - b), nk.cos(a * b)]


@pytest.mark.parametrize("order", [2, 3])
def test_batched_jet_equals_stacked_scalar_jets(order):
    # a jet with batch axes is the stack of the S = () jets of its points
    rng = np.random.default_rng(8)
    points = rng.uniform(0.2, 1.5, size=(7, 2))
    batched = every_operation(*jet_variables(points, order=order))
    single = [every_operation(*jet_variables(p, order=order)) for p in points]
    for k, J in enumerate(batched):
        parts = ["v", "g", "H"] + (["T"] if order == 3 else [])
        for name in parts:
            shape = (7,) + (2,) * parts.index(name)
            got = np.broadcast_to(getattr(J, name), shape)
            want = np.stack([getattr(s[k], name) for s in single])
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
        assert (J.T is None) == (order == 2)


def test_batched_jet_names_the_non_finite_point():
    x = jet_variables(np.array([[0.5], [-1.0], [2.0], [-3.0]]), order=2)[0]
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteValue, match=r"^flag 1: "):
        x.log().check_finite()
    (s,) = jet_variables([-1.0], order=2)
    with pytest.raises(ValueError):
        s.log()


def test_stack_places_values_and_derivatives_after_the_batch_axes():
    # batched values with unbatched seed gradients, a product with batched
    # derivatives, and a float entry (zero derivatives)
    x = np.array([[0.5, -1.0], [2.0, 3.0], [0.25, 0.75]])
    a, b = jet_variables(x, order=2)
    ab = a * b
    v, g, H = stack([a, 2.5, ab], x.shape[:-1], 2)
    assert (v.shape, g.shape, H.shape) == ((3, 3), (3, 3, 2), (3, 3, 2, 2))
    np.testing.assert_array_equal(v[:, 0], x[:, 0])
    np.testing.assert_array_equal(v[:, 1], 2.5)
    np.testing.assert_array_equal(v[:, 2], x[:, 0] * x[:, 1])
    np.testing.assert_array_equal(g[:, 0], np.broadcast_to([1.0, 0.0], (3, 2)))
    np.testing.assert_array_equal(g[:, 1], 0.0)
    np.testing.assert_array_equal(g[:, 2], x[:, ::-1])
    np.testing.assert_array_equal(H[:, :2], 0.0)
    np.testing.assert_array_equal(H[:, 2], np.broadcast_to([[0.0, 1.0],
                                                            [1.0, 0.0]],
                                                           (3, 2, 2)))
    # a single point: no batch axes, the entry axis first
    v, g, H = stack([3.0, jet_variables([1.0, 2.0], order=3)[1]], (), 2)
    assert (v.shape, g.shape, H.shape) == ((2,), (2, 2), (2, 2, 2))
    np.testing.assert_array_equal(v, [3.0, 2.0])
    np.testing.assert_array_equal(g, [[0.0, 0.0], [0.0, 1.0]])


def dense_arithmetic(monkeypatch):
    """Make every jet unflagged, so that arithmetic computes every term, as
    without structural zeros."""
    init, like = Jet.__init__, Jet._like

    def unflagged(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.hz = self.tz = False

    monkeypatch.setattr(Jet, "__init__", unflagged)
    monkeypatch.setattr(Jet, "_like", lambda self, v, g, H, T, hz=False,
                        tz=False: like(self, v, g, H, T))


def assert_same_bits(flagged, dense):
    """Equal values and derivatives, the flagged ones broadcast to the
    dense shapes (array_equal ignores the sign of an exact zero)."""
    for F, D in zip(flagged, dense, strict=True):
        assert not (D.hz or D.tz)
        for name in ("v", "g", "H") + (("T",) if D.T is not None else ()):
            got, want = getattr(F, name), getattr(D, name)
            assert np.array_equal(np.broadcast_to(got, np.shape(want)), want)


# (H zero, T zero) by construction, for each result of every_operation
EVERY_OPERATION_FLAGS = [
    (True, True), (True, True), (True, True), (True, True), (False, True),
    (True, True), (False, False), (False, False), (True, True), (True, True),
    (False, False), (True, True), (False, False), (False, False),
    (False, False), (False, False), (False, False), (False, False),
    (False, False)]


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("order", [2, 3])
def test_flagged_jet_arithmetic_equals_dense_arithmetic(order, batched,
                                                        monkeypatch):
    points = np.random.default_rng(8).uniform(0.2, 1.5, size=(7, 2))
    if not batched:
        points = points[0]
    flagged = every_operation(*jet_variables(points, order=order))
    for J, (hz, tz) in zip(flagged, EVERY_OPERATION_FLAGS, strict=True):
        assert J.hz == hz
        assert order == 2 or J.tz == tz
    with monkeypatch.context() as mp:
        dense_arithmetic(mp)
        dense = every_operation(*jet_variables(points, order=order))
    assert_same_bits(flagged, dense)


def test_product_of_two_nonlinear_jets_is_never_flagged():
    a, b = jet_variables([0.7, 1.3], order=3)
    for p in ((a * b) * (a * b), nk.exp(a) * nk.sin(b), a.sqrt() * b ** 3,
              (a * a) * (a * a + b)):
        assert not (p.hz or p.tz)
    # a product of two jets with zero H and T keeps a zero T, not a zero H
    assert ((a * (b - a)).hz, (a * (b - a)).tz) == (False, True)


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_compose_skips_each_structural_zero_on_its_own(batched, monkeypatch):
    # a jet whose H is zero but T is not, and one whose T is zero but H is
    # not: each flag skips only its own terms
    rng = np.random.default_rng(4)
    v = rng.uniform(0.5, 1.5, size=(3,)) if batched else 0.8
    g = rng.normal(size=2)
    H = rng.normal(size=(2, 2))
    H = H + H.T
    T = rng.normal(size=(2, 2, 2))
    T = T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)

    def jets():
        return [Jet(2, 3, v, g=g, T=T), Jet(2, 3, v, g=g, H=H)]

    def results(J):
        return [J.sqrt(), J.exp(), J.log(), J.sin(), J.cos(), J ** 2.5,
                1.0 / J, J * J, 3.0 * J - J, -J * J.exp()]

    assert [(J.hz, J.tz) for J in jets()] == [(True, False), (False, True)]
    flagged = [r for J in jets() for r in results(J)]
    with monkeypatch.context() as mp:
        dense_arithmetic(mp)
        dense = [r for J in jets() for r in results(J)]
    assert_same_bits(flagged, dense)
