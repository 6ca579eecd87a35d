"""Row-level checks of `fanning-lab run` CSV output.

Every reference here is computed from closed forms, independently of the
fanning-curve pipeline: constant curvatures, the conformal-flat curvature
formula, great circles of the round sphere, the fundamental tensor of a
constant Randers metric and the Hopf triples.  Only the projective rows are
checked against the program's second route (`K_formula`).  Tolerances are
those pinned in tests/test_acceptance.py.

`check_rows` returns one margin per expected row: log10(tolerance / error)
for the worst check of the row, with the error floored at machine epsilon
times the reference scale (at least 1).  A negative margin is a row that
missed its reference; None marks a row that is missing, malformed or
non-finite.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

EPS = float(np.finfo(float).eps)

TOL_CONSTANT_K = 1e-4
TOL_KATOK = 1e-3
TOL_WRONSKIAN = 1e-6
TOL_HOPF = 1e-2
TOL_SUBMERSION = 1e-3
TOL_PROJECTIVE = 1e-3

CONSTANT_K = {"sphere": 1.0, "hyperbolic": -1.0, "randers": 0.0}

# (K_base, K_total, correction) for the submersion scenarios
SUBMERSION_TRIPLES = {
    "trivial": (0.0, 0.0, 0.0),
    "hopf": (4.0, 1.0, 3.0),
    "hopf-scaled": (1.0, 0.25, 0.75),
}


class RowFailure(Exception):
    """A row carried a non-finite value."""


def _margin(err: float, tol: float, scale: float) -> float:
    """Digits by which err beats tol; negative when err is above tol."""
    if not math.isfinite(err):
        raise RowFailure(f"non-finite error {err}")
    return math.log10(tol / max(err, EPS * max(scale, 1.0)))


def _floats(cells) -> np.ndarray:
    vals = np.array([float(c) for c in cells])
    if not np.all(np.isfinite(vals)):
        raise RowFailure("non-finite value in row")
    return vals


def conformal_curvature(a: float, x, y, u) -> float:
    """Sectional curvature of exp(2 a x1) I on span(y, u).

    For g = exp(2 phi) I with phi = a x1 and a Euclidean-orthonormal basis
    (e, f) of the plane, K = -a^2 exp(-2 a x1) (1 - e1^2 - f1^2).
    """
    e = y / np.linalg.norm(y)
    f = u - (u @ e) * e
    f = f / np.linalg.norm(f)
    return -a * a * math.exp(-2.0 * a * x[0]) * (1.0 - e[0] ** 2 - f[0] ** 2)


def _grid_row(cfg, header, row):
    metric = cfg["metric"]
    n = (len(header) - 4) // 3
    vals = _floats(row[1:1 + 3 * n + 1])
    x, y, u = vals[:n], vals[n:2 * n], vals[2 * n:3 * n]
    K = vals[3 * n]
    if metric["id"] == "riemannian-conformal":
        a = float(metric.get("params", {}).get("a", 0.2))
        ref = conformal_curvature(a, x, y, u)
    else:
        ref = CONSTANT_K[metric["id"]]
    margin = _margin(abs(K - ref), TOL_CONSTANT_K, abs(ref))
    if row[3 * n + 2] != "":
        # The program's finite-difference Riemann oracle must also hit the
        # reference.  Its error (up to 1e-6 near the Poincare rim) is far
        # above that of K, so it fails the row but does not set the margin.
        oracle = _floats([row[3 * n + 2]])[0]
        oracle_margin = _margin(abs(oracle - ref), TOL_CONSTANT_K, abs(ref))
        if oracle_margin < 0.0:
            return oracle_margin
    return margin


def _katok_row(cfg, header, row):
    return _margin(abs(_floats([row[2]])[0] - 1.0), TOL_KATOK, 1.0)


def _sample_in_ball(rng, n, radius):
    while True:
        x = rng.uniform(-radius, radius, size=n)
        if np.linalg.norm(x) < radius:
            return x


def _orbit_start(cfg, F, n=2):
    """(x0, y0) as the orbit experiment draws them from its seed."""
    rng = np.random.default_rng(cfg["seed"])
    x = _sample_in_ball(rng, n, float(cfg.get("x_radius", 0.5)))
    y = rng.normal(size=n)
    return x, y / F(x, y)


def _sphere_tensor_along(cfg):
    """t -> g(x(t)) along the unit-speed great circle of the unit sphere.

    The chart is stereographic from the north pole, g = 4/(1+|x|^2)^2 I,
    so on the embedded sphere g = (1 - p3)^2 I.
    """
    if cfg["metric"].get("params"):
        raise ValueError("sphere orbit reference assumes radius 1")

    def F(x, y):
        return 2.0 * np.linalg.norm(y) / (1.0 + x @ x)

    x, y = _orbit_start(cfg, F)
    s = 1.0 + x @ x
    p0 = np.append(2.0 * x, x @ x - 1.0) / s
    xy = x @ y
    v0 = np.append(2.0 * y / s - 4.0 * x * xy / s ** 2, 4.0 * xy / s ** 2)

    def g(t):
        p3 = math.cos(t) * p0[2] + math.sin(t) * v0[2]
        return (1.0 - p3) ** 2 * np.eye(2)
    return g


def randers_tensor(b, y) -> np.ndarray:
    """Fundamental tensor of F = |y| + b.y (independent of x)."""
    alpha = np.linalg.norm(y)
    ell = y / alpha
    F = alpha + b @ y
    return (F / alpha) * (np.eye(len(y)) - np.outer(ell, ell)) \
        + np.outer(ell + b, ell + b)


def _randers_tensor_along(cfg):
    """Constant-b Randers geodesics are straight lines at constant velocity."""
    b = np.array(cfg["metric"]["params"]["b"], dtype=float)
    _, y = _orbit_start(cfg, lambda x, y: np.linalg.norm(y) + b @ y, len(b))
    g = randers_tensor(b, y)
    return lambda t: g


_ORBIT_REFERENCES = {"sphere": _sphere_tensor_along,
                     "randers": _randers_tensor_along}


def _orbit_row(cfg, header, row):
    n = math.isqrt(sum(h.startswith("wronskian_") for h in header))
    vals = _floats(row)
    W = vals[1 + n * n:1 + 2 * n * n].reshape(n, n)
    g = _ORBIT_REFERENCES[cfg["metric"]["id"]](cfg)(vals[0])
    return _margin(float(np.max(np.abs(W - g))), TOL_WRONSKIAN,
                   float(np.max(np.abs(g))))


def _submersion_row(cfg, header, row):
    K_total, K_base, correction, _ = _floats(row[1:])
    ref = SUBMERSION_TRIPLES[row[0]]
    got = (K_base, K_total, correction)
    triple = max(abs(g - r) for g, r in zip(got, ref))
    identity = abs(K_base - K_total - correction)
    return min(_margin(triple, TOL_HOPF, max(map(abs, ref))),
               _margin(identity, TOL_SUBMERSION, abs(K_base)))


def _projective_row(cfg, header, row):
    K_direct, K_formula = _floats(row[1:3])
    return _margin(abs(K_direct - K_formula), TOL_PROJECTIVE, abs(K_formula))


_CHECKS = {
    "curvature-grid": _grid_row,
    "katok": _katok_row,
    "invariants-along-orbit": _orbit_row,
    "submersion": _submersion_row,
    "projective": _projective_row,
}


def check_rows(cfg: dict, csv_text: str, expected: int) -> list:
    """Margins (digits) per expected row; None marks a row with no margin."""
    table = list(csv.reader(io.StringIO(csv_text)))
    header, rows = table[0], table[1:]
    check = _CHECKS[cfg["experiment"]]
    margins = []
    for row in rows[:expected]:
        try:
            margins.append(check(cfg, header, row))
        except (RowFailure, ValueError, IndexError, KeyError):
            margins.append(None)
    margins.extend([None] * (expected - len(margins)))
    return margins
