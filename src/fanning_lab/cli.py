"""Scenario runner: JSON config in, CSV rows and a JSON summary out.

Configs are fail-closed (unknown keys are errors) and fully seeded, so a
fixed config produces byte-identical output files.  Exit codes: 0 success,
1 tolerance violation, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import deformations as df
from . import jacobi as jb
from . import metrics as mx
from . import reduction as rd
from .errors import ConfigError, FanningLabError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_COMMON_KEYS = {"experiment", "seed", "output_dir", "steps_per_unit",
                "stencil_h", "tolerance"}

_EXPERIMENTS = {
    "curvature-grid": _COMMON_KEYS | {"metric", "samples", "x_radius"},
    "invariants-along-orbit": _COMMON_KEYS | {"metric", "orbit_time",
                                              "orbit_samples", "x_radius"},
    "submersion": _COMMON_KEYS | {"scenarios"},
    "projective": _COMMON_KEYS | {"metric", "samples", "theta_scale",
                                  "x_radius"},
    "katok": _COMMON_KEYS | {"epsilons", "samples", "x_radius"},
    "selftest": _COMMON_KEYS,
}

_DEFAULT_TOL = {
    "curvature-grid": 1e-4,
    "invariants-along-orbit": 1e-6,
    "submersion": 1e-3,
    "projective": 1e-3,
    "katok": 1e-3,
    "selftest": 1.0,
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    x = float(v)
    if not math.isfinite(x):
        raise FanningLabError(f"non-finite value in output: {x}")
    return format(x, ".17g")


def _is_number(v) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _require_positive(cfg, key):
    v = cfg.get(key)
    if v is not None and (not _is_number(v) or v <= 0):
        raise ConfigError(f"config key {key!r} must be positive, got {v!r}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    exp = cfg.get("experiment")
    if exp not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown or missing experiment {exp!r}; choose one of "
            + ", ".join(sorted(_EXPERIMENTS)))
    allowed = _EXPERIMENTS[exp]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(
                f"unknown config key {key!r} for experiment {exp!r}")
    for key in ("samples", "steps_per_unit", "stencil_h", "tolerance",
                "orbit_time", "orbit_samples", "x_radius", "theta_scale"):
        _require_positive(cfg, key)
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config key 'seed' must be an integer")
    metric = cfg.get("metric")
    if metric is not None:
        if not isinstance(metric, dict) or "id" not in metric:
            raise ConfigError("config key 'metric' must be {'id': ..., "
                              "'params': {...}}")
        for key in metric:
            if key not in ("id", "params"):
                raise ConfigError(f"unknown metric key {key!r}")
    if "epsilons" in cfg:
        eps = cfg["epsilons"]
        if (not isinstance(eps, list) or not eps
                or not all(_is_number(e) and 0 <= e < 1
                           for e in eps)):
            raise ConfigError("'epsilons' must be a list of values in [0, 1)")
    if "scenarios" in cfg:
        sc = cfg["scenarios"]
        known = set(rd.list_scenarios())
        if (not isinstance(sc, list) or not sc
                or any(s not in known for s in sc)):
            raise ConfigError(
                f"'scenarios' must be a nonempty list from {sorted(known)}")
    return cfg


def _build_metric(cfg, default_id="euclidean"):
    spec = cfg.get("metric") or {"id": default_id}
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("metric params must be an object")
    try:
        return mx.zoo_metric(spec["id"], **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for metric {spec['id']!r}: {exc}")
    except FanningLabError as exc:
        raise ConfigError(str(exc))


def sample_in_ball(rng, n, radius):
    while True:
        x = rng.uniform(-radius, radius, size=n)
        if np.linalg.norm(x) < radius:
            return x


def sample_flags(rng, n, count, radius):
    """Deterministic flag samples (x, y, u) with |x| < radius."""
    flags = []
    while len(flags) < count:
        x = sample_in_ball(rng, n, radius)
        y = rng.normal(size=n)
        u = rng.normal(size=n)
        cross = np.linalg.norm(y) * np.linalg.norm(u)
        if cross == 0.0 or abs(y @ u) > 0.99 * cross:
            continue
        flags.append((x, y, u))
    return flags


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_curvature_grid(cfg):
    metric = _build_metric(cfg)
    rng = np.random.default_rng(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 50))
    radius = float(cfg.get("x_radius", 1.0))
    resolution = int(cfg.get("steps_per_unit", jb.DEFAULT_RESOLUTION))
    h = float(cfg.get("stencil_h", jb.DEFAULT_FRAME_H))
    tol = float(cfg.get("tolerance", _DEFAULT_TOL["curvature-grid"]))

    n = metric.n
    header = (["metric"] + [f"x{i+1}" for i in range(n)]
              + [f"y{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(n)]
              + ["K", "oracle_K", "abs_err"])
    rows = []
    worst = 0.0
    for x, y, u in sample_flags(rng, n, samples, radius):
        K = jb.flag_curvature(metric, mx.PhasePoint(x, y), u,
                              resolution=resolution, h=h)
        oracle = None
        err = None
        if metric.family == "riemannian":
            oracle = jb.riemann_oracle(metric.g, x, y, u)
            err = abs(K - oracle)
            worst = max(worst, err)
        rows.append([metric.name] + list(x) + list(y) + list(u)
                    + [K, oracle, err])
    return header, rows, worst, tol


def _run_invariants_along_orbit(cfg):
    metric = _build_metric(cfg, default_id="sphere")
    rng = np.random.default_rng(cfg.get("seed", 0))
    radius = float(cfg.get("x_radius", 0.5))
    T = float(cfg.get("orbit_time", 1.0))
    count = int(cfg.get("orbit_samples", 9))
    resolution = int(cfg.get("steps_per_unit", jb.DEFAULT_RESOLUTION))
    h = float(cfg.get("stencil_h", jb.DEFAULT_FRAME_H))
    tol = float(cfg.get("tolerance", _DEFAULT_TOL["invariants-along-orbit"]))

    n = metric.n
    x = sample_in_ball(rng, n, radius)
    y = rng.normal(size=n)
    y = y / metric.F_value(x, y)
    reach = jb.frame_reach(h)
    orbit = jb.transport(metric, mx.PhasePoint(x, y), T + reach,
                         resolution=resolution, back=reach)
    header = (["t"] + [f"schwarzian_{i+1}{j+1}" for i in range(n)
                       for j in range(n)]
              + [f"wronskian_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + [f"K_eig_{k+1}" for k in range(2 * n)])
    rows = []
    worst = 0.0
    for t in np.linspace(0.0, T, count):
        sample = jb.jacobi_frame(orbit, float(t), h=h)
        inv = sample.invariants
        xx, yy, _ = orbit.state(float(t))
        g = mx.fundamental_tensor(metric, mx.PhasePoint(xx, yy))
        worst = max(worst, float(np.max(np.abs(inv.W - g))))
        eig = np.sort(np.linalg.eigvals(inv.K).real)
        rows.append([t] + list(inv.Schwarzian.ravel())
                    + list(inv.W.ravel()) + list(eig))
    return header, rows, worst, tol


def _default_submersion_flag(scn):
    x = scn.suggested_x
    g = np.array(scn.total.g(list(x)), dtype=float)
    k = scn.fiber(list(x))
    v = rd.horizontal_part(g, k, [1.0, 0.4, 0.0])
    w = rd.horizontal_part(g, k, [0.3, 1.0, 0.0])
    return mx.PhasePoint(x, v), w


def _run_submersion(cfg):
    names = cfg.get("scenarios", rd.list_scenarios())
    resolution = int(cfg.get("steps_per_unit", jb.DEFAULT_RESOLUTION))
    tol = float(cfg.get("tolerance", _DEFAULT_TOL["submersion"]))
    header = ["scenario", "K_total", "K_base", "correction", "residual"]
    rows = []
    worst = 0.0
    for name in names:
        scn = rd.submersion_scenario(name)
        v, w = _default_submersion_flag(scn)
        res = rd.submersion_curvature(scn, v, w, resolution=resolution)
        worst = max(worst, res.residual)
        rows.append([name, res.K_total, res.K_base, res.correction,
                     res.residual])
    return header, rows, worst, tol


def _run_projective(cfg):
    spec = cfg.get("metric") or {"id": "sphere"}
    rng = np.random.default_rng(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 10))
    scale = float(cfg.get("theta_scale", 0.2))
    radius = float(cfg.get("x_radius", 0.5))
    resolution = int(cfg.get("steps_per_unit", jb.DEFAULT_RESOLUTION))
    tol = float(cfg.get("tolerance", _DEFAULT_TOL["projective"]))

    if spec.get("id") == "sphere":
        base = mx.zoo_metric("sphere", **spec.get("params", {}))
        form = df.ambient_coordinate_form(scale)
    elif spec.get("id") == "euclidean":
        base = mx.zoo_metric("euclidean", **spec.get("params", {}))
        c = (scale, 0.0)
        form = df.ClosedOneForm(
            theta=lambda x: list(c),
            potential=lambda x: c[0] * x[0] + c[1] * x[1])
    else:
        raise ConfigError(
            "projective experiment supports metric ids 'sphere' and "
            "'euclidean'")
    deformed = df.projective_deform(base, form)

    header = ["flag_id", "K_direct", "K_formula", "abs_err"]
    rows = []
    worst = 0.0
    for i, (x, y, u) in enumerate(sample_flags(rng, base.n, samples, radius)):
        K_direct = jb.flag_curvature(deformed, mx.PhasePoint(x, y), u,
                                     resolution=resolution)
        K_formula = df.projective_curvature_rhs(base, form,
                                                mx.PhasePoint(x, y), u,
                                                resolution=resolution)
        err = abs(K_direct - K_formula)
        worst = max(worst, err)
        rows.append([i, K_direct, K_formula, err])
    return header, rows, worst, tol


def _run_katok(cfg):
    rng = np.random.default_rng(cfg.get("seed", 0))
    samples = int(cfg.get("samples", 30))
    radius = float(cfg.get("x_radius", 0.8))
    epsilons = cfg.get("epsilons", [0.1, 0.3])
    resolution = int(cfg.get("steps_per_unit", jb.DEFAULT_RESOLUTION))
    tol = float(cfg.get("tolerance", _DEFAULT_TOL["katok"]))

    header = ["epsilon", "flag_id", "K", "dev_from_1"]
    rows = []
    worst = 0.0
    for eps in epsilons:
        metric = df.katok_metric(float(eps))
        flags = sample_flags(rng, 2, samples, radius)
        for i, (x, y, u) in enumerate(flags):
            y = y / metric.F_value(x, y)
            K = jb.flag_curvature(metric, mx.PhasePoint(x, y), u,
                                  resolution=resolution)
            dev = abs(K - 1.0)
            worst = max(worst, dev)
            rows.append([eps, i, K, dev])
    return header, rows, worst, tol


def _run_selftest_experiment(cfg):
    h = float(cfg.get("stencil_h", 1e-3))
    seed = int(cfg.get("seed", 20240811))
    results = run_selftest(seed=seed, stencil_h=h)
    header = ["check", "residual", "tolerance", "passed"]
    rows = [[r.name, r.residual, r.tolerance, r.passed] for r in results]
    worst = 0.0 if all(r.passed for r in results) else 2.0
    return header, rows, worst, 1.0


_RUNNERS = {
    "curvature-grid": _run_curvature_grid,
    "invariants-along-orbit": _run_invariants_along_orbit,
    "submersion": _run_submersion,
    "projective": _run_projective,
    "katok": _run_katok,
    "selftest": _run_selftest_experiment,
}


def run_config(cfg: dict, output_dir=None):
    """Execute a validated config; returns (summary dict, exit code)."""
    cfg = validate_config(cfg)
    exp = cfg["experiment"]
    header, rows, worst, tol = _RUNNERS[exp](cfg)

    out_dir = output_dir if output_dir is not None \
        else cfg.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{exp}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    passed = worst <= tol
    summary = {
        "experiment": exp,
        "seed": cfg.get("seed", 0),
        "rows": len(rows),
        "max_residual": worst,
        "tolerance": tol,
        "passed": bool(passed),
        "csv": os.path.basename(csv_path),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary, (EXIT_OK if passed else EXIT_TOLERANCE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanning-lab",
        description="curvature experiments on Finsler metrics via curves of "
                    "tangent planes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario config")
    p_run.add_argument("config", help="path to the config file")

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--stencil-h", type=float, default=1e-3)
    p_self.add_argument("--seed", type=int, default=20240811)

    sub.add_parser("list-metrics", help="list metric ids in the zoo")

    args = parser.parse_args(argv)

    if args.command == "list-metrics":
        for mid, summary in mx.list_metrics():
            print(f"{mid:24s} {summary}")
        print("submersion scenarios: " + ", ".join(rd.list_scenarios()))
        return EXIT_OK

    if args.command == "selftest":
        results = run_selftest(seed=args.seed, stencil_h=args.stencil_h)
        ok = True
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            ok = ok and r.passed
            print(f"{status}  {r.name:42s} residual={r.residual:.3e} "
                  f"tolerance={r.tolerance:.1e}")
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        return EXIT_OK if ok else EXIT_TOLERANCE

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary, code = run_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FanningLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
