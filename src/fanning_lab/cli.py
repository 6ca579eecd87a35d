"""Scenario runner: JSON config in, CSV rows and a JSON summary out.

Configs are fail-closed: `_SETTINGS` declares each key an experiment reads,
with its check and its default, and any other key is an error.  Runs are
fully seeded, so a fixed config produces byte-identical output files.  Exit
codes: 0 success, 1 tolerance violation, 2 config error, 3 numeric failure
(one line on stderr naming the failing flag, or the failing sample time
along an orbit, where there is one).  The flags of a curvature-grid, katok
or projective run go through one frame window (`jacobi.frame_invariants`),
and so do the sample points of an invariants-along-orbit run.  No setting
counts window steps: the code sizes each window from its stencil spacing
(`stencil_h`, where an experiment takes it, in [6e-4, 0.1]).
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
from .errors import ConfigError, FanningLabError, batch_labels, labelled
from .selftest import run_selftest

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


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
    """A finite JSON number, one a float holds; true and false are not
    numbers here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return abs(v) <= sys.float_info.max


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check(ok, what, cast=None):
    """The check of a setting: ok(value) tells a valid value, what says
    which values are.  It returns the value the runner reads (cast, when
    given) or raises ConfigError."""
    def check(key, v):
        if not ok(v):
            raise ConfigError(f"config key {key!r} must be {what}, got {v!r}")
        return v if cast is None else cast(v)
    return check


_count = _check(lambda v: _is_integer(v) and v >= 1, "an integer >= 1")
_positive = _check(lambda v: _is_number(v) and v > 0, "positive", float)
# past 0.1, the selftest's degraded width, every stencil check fails, and a
# window's steps grow with h; below 6e-4 the selftest's orbit of 0.5 / h
# spacings, and its run time, grow without bound as h falls.  No check sets
# the bound: the stencil sums weigh differences from the node, and seeds
# 0-29 pass at each width tried down to 1e-4 (there within 3.4% of every
# tolerance)
_stencil = _check(lambda v: _is_number(v) and 6e-4 <= v <= 0.1,
                  "in [6e-4, 0.1]", float)
_seed = _check(lambda v: _is_integer(v) and v >= 0, "an integer >= 0")
_path = _check(lambda v: isinstance(v, str), "a string")
_metric_spec = _check(
    lambda v: isinstance(v, dict) and "id" in v and set(v) <= {"id", "params"},
    "{'id': ..., 'params': {...}}")
_epsilons = _check(
    lambda v: isinstance(v, list) and v
    and all(_is_number(e) and 0 <= e < 1 for e in v),
    "a nonempty list of values in [0, 1)")
_scenarios = _check(
    lambda v: isinstance(v, list) and v
    and all(s in rd.list_scenarios() for s in v),
    f"a nonempty list from {rd.list_scenarios()}")


# Every setting each experiment reads, as key: (check, default).  Every
# experiment also takes the _COMMON settings; an entry of its own overrides
# the common default.  Nothing else holds a default.
_COMMON = {"seed": (_seed, 0), "output_dir": (_path, ".")}

_SETTINGS = {
    "curvature-grid": {
        "metric": (_metric_spec, {"id": "euclidean"}),
        "samples": (_count, 50),
        "x_radius": (_positive, 1.0),
        "stencil_h": (_stencil, jb.DEFAULT_FRAME_H),
        "tolerance": (_positive, 1e-4),
    },
    "invariants-along-orbit": {
        "metric": (_metric_spec, {"id": "sphere"}),
        "orbit_time": (_positive, 1.0),
        "orbit_samples": (_count, 9),
        "x_radius": (_positive, 0.5),
        "stencil_h": (_stencil, jb.DEFAULT_FRAME_H),
        "tolerance": (_positive, 1e-6),
    },
    "submersion": {
        "scenarios": (_scenarios, rd.list_scenarios()),
        "tolerance": (_positive, 1e-3),
    },
    "projective": {
        "metric": (_metric_spec, {"id": "sphere"}),
        "samples": (_count, 10),
        "theta_scale": (_positive, 0.2),
        "x_radius": (_positive, 0.5),
        "tolerance": (_positive, 1e-3),
    },
    "katok": {
        "epsilons": (_epsilons, [0.1, 0.3]),
        "samples": (_count, 30),
        "x_radius": (_positive, 0.8),
        "tolerance": (_positive, 1e-3),
    },
    "selftest": {
        "seed": (_seed, 20240811),
        "stencil_h": (_stencil, jb.DEFAULT_FRAME_H),
    },
}


def validate_config(cfg: dict) -> dict:
    """The settings of a config: every key its experiment reads, checked,
    with the defaults of `_SETTINGS` filled in for the keys left out."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in _SETTINGS:
        raise ConfigError(
            f"unknown or missing experiment {exp!r}; choose one of "
            + ", ".join(sorted(_SETTINGS)))
    table = {**_COMMON, **_SETTINGS[exp]}
    for key in cfg:
        if key != "experiment" and key not in table:
            raise ConfigError(
                f"unknown config key {key!r} for experiment {exp!r}")
    settings = {"experiment": exp}
    for key, (check, default) in table.items():
        settings[key] = check(key, cfg[key]) if key in cfg else default
    return settings


def _metric_params(spec) -> dict:
    """The params of a metric spec; each must be a number or a nonempty
    list of numbers."""
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("metric params must be an object")
    for key, val in params.items():
        vals = val if isinstance(val, list) else [val]
        if not vals or not all(_is_number(v) for v in vals):
            raise ConfigError(f"metric param {key!r} must be a finite number "
                              f"or a list of them, got {val!r}")
    return params


def _build_metric(s):
    metric_id, params = s["metric"]["id"], _metric_params(s["metric"])
    try:
        return mx.zoo_metric(metric_id, **params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for metric {metric_id!r}: {exc}")
    except FanningLabError as exc:
        raise ConfigError(str(exc))


def _stack_flags(flags):
    """Flag triples (x, y, u) as three arrays of shape (count, n)."""
    return (np.array(a) for a in zip(*flags))


def sample_in_ball(rng, n, radius):
    while True:
        x = rng.uniform(-radius, radius, size=n)
        if np.linalg.norm(x / radius) < 1.0:
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

def _run_curvature_grid(s):
    metric = _build_metric(s)
    rng = np.random.default_rng(s["seed"])
    n = metric.n
    header = (["metric"] + [f"x{i+1}" for i in range(n)]
              + [f"y{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(n)]
              + ["K", "oracle_K", "abs_err"])
    xs, ys, us = _stack_flags(sample_flags(rng, n, s["samples"],
                                           s["x_radius"]))
    Ks = jb.flag_curvature(metric, mx.PhasePoint(xs, ys), us, h=s["stencil_h"])
    oracle = err = [None] * len(Ks)
    worst = 0.0
    if metric.family == "riemannian":
        oracle = jb.riemann_oracle(metric.g, xs, ys, us)
        err = np.abs(Ks - oracle)
        worst = float(np.max(err))
    rows = [[metric.name] + list(x) + list(y) + list(u) + [K, o, e]
            for x, y, u, K, o, e in zip(xs, ys, us, Ks, oracle, err)]
    return header, rows, worst, s["tolerance"]


def _run_invariants_along_orbit(s):
    metric = _build_metric(s)
    rng = np.random.default_rng(s["seed"])
    n = metric.n
    x = sample_in_ball(rng, n, s["x_radius"])
    y = rng.normal(size=n)
    y = y / metric.F_value(x, y)
    header = (["t"] + [f"schwarzian_{i+1}{j+1}" for i in range(n)
                       for j in range(n)]
              + [f"wronskian_{i+1}{j+1}" for i in range(n) for j in range(n)]
              + [f"K_eig_{k+1}" for k in range(2 * n)])
    # batch index k is named by its time (on the samples, see `jacobi`)
    ts = np.linspace(0.0, s["orbit_time"], s["orbit_samples"])
    with batch_labels(lambda k: f"t={ts[k]:.6g}"):
        states = jb.geodesic(metric, mx.PhasePoint(x, y), ts)
        points = mx.PhasePoint(states[:, :n], states[:, n:])
        inv = jb.frame_invariants(metric, points, s["stencil_h"])
    # the flow keeps F = 1, and F^2 = y.W.y with W = g at each sample
    F = np.sqrt(np.einsum("ki,kij,kj->k", points.y, inv.W, points.y))
    worst = float(np.max(np.abs(F - 1.0)))
    eigs = np.sort(np.linalg.eigvals(inv.K).real, axis=-1)
    rows = [[t] + list(S.ravel()) + list(W.ravel()) + list(eig)
            for t, S, W, eig in zip(ts, inv.Schwarzian, inv.W, eigs)]
    return header, rows, worst, s["tolerance"]


def _run_submersion(s):
    header = ["scenario", "K_total", "K_base", "correction", "residual"]
    rows = []
    worst = 0.0
    for name in s["scenarios"]:
        scn = rd.submersion_scenario(name)
        v, w = scn.default_flag()
        res = rd.submersion_curvature(scn, v, w)
        worst = max(worst, res.residual)
        rows.append([name, res.K_total, res.K_base, res.correction,
                     res.residual])
    return header, rows, worst, s["tolerance"]


def _run_projective(s):
    rng = np.random.default_rng(s["seed"])
    scale = s["theta_scale"]
    metric_id = s["metric"]["id"]
    if metric_id == "sphere":
        form = df.ambient_coordinate_form(scale)
    elif metric_id == "euclidean":
        c = (scale, 0.0)
        form = df.ClosedOneForm(
            theta=lambda x: list(c),
            potential=lambda x: c[0] * x[0] + c[1] * x[1])
    else:
        raise ConfigError(
            "projective experiment supports metric ids 'sphere' and "
            "'euclidean'")
    base = _build_metric(s)
    if base.n != 2:
        # both one-forms above are written in two coordinates
        raise ConfigError("projective experiment needs a 2-dimensional "
                          f"metric, got n={base.n}")
    deformed = df.projective_deform(base, form)

    header = ["flag_id", "K_direct", "K_formula", "abs_err"]
    xs, ys, us = _stack_flags(sample_flags(rng, base.n, s["samples"],
                                           s["x_radius"]))
    flags = mx.PhasePoint(xs, ys)
    Ks = jb.flag_curvature(deformed, flags, us)
    K_formula = df.projective_curvature_rhs(base, form, deformed, flags, us)
    err = np.abs(Ks - K_formula)
    rows = [[i, *vals] for i, vals in enumerate(zip(Ks, K_formula, err))]
    return header, rows, float(np.max(err)), s["tolerance"]


def _run_katok(s):
    rng = np.random.default_rng(s["seed"])
    header = ["epsilon", "flag_id", "K", "dev_from_1"]
    rows = []
    worst = 0.0
    for eps in s["epsilons"]:
        flags = sample_flags(rng, 2, s["samples"], s["x_radius"])
        with labelled(f"epsilon {eps}"):
            Ks = df.katok_curvature(float(eps), flags)
        for i, K in enumerate(Ks):
            dev = abs(K - 1.0)
            worst = max(worst, dev)
            rows.append([eps, i, K, dev])
    return header, rows, worst, s["tolerance"]


def _run_selftest_experiment(s):
    results = run_selftest(seed=s["seed"], stencil_h=s["stencil_h"])
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
    s = validate_config(cfg)
    exp = s["experiment"]
    header, rows, worst, tol = _RUNNERS[exp](s)

    out_dir = output_dir if output_dir is not None else s["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{exp}.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    passed = worst <= tol
    summary = {
        "experiment": exp,
        "seed": s["seed"],
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


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


def _config_error(exc) -> int:
    print(f"config error: {_one_line(exc)}", file=sys.stderr)
    return EXIT_CONFIG


def _run_selftest_command(seed, stencil_h) -> int:
    s = validate_config({"experiment": "selftest", "seed": seed,
                         "stencil_h": stencil_h})
    results = run_selftest(seed=s["seed"], stencil_h=s["stencil_h"])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:42s} residual={r.residual:.3e} "
              f"tolerance={r.tolerance:.1e}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanning-lab",
        description="curvature experiments on Finsler metrics via curves of "
                    "tangent planes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario config")
    p_run.add_argument("config", help="path to the config file")

    p_self = sub.add_parser("selftest", help="run the property suites")
    defaults = _SETTINGS["selftest"]
    p_self.add_argument("--stencil-h", type=float,
                        default=defaults["stencil_h"][1])
    p_self.add_argument("--seed", type=int, default=defaults["seed"][1])

    sub.add_parser("list-metrics", help="list metric ids in the zoo")

    args = parser.parse_args(argv)

    if args.command == "list-metrics":
        for mid, summary in mx.list_metrics():
            print(f"{mid:24s} {summary}")
        print("submersion scenarios: " + ", ".join(rd.list_scenarios()))
        return EXIT_OK

    if args.command == "run":
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _config_error(exc)

    try:
        # a non-finite value inside a batch is reported by the finiteness
        # checks that name its flag, not by numpy warnings on stderr
        with np.errstate(all="ignore"):
            if args.command == "selftest":
                return _run_selftest_command(args.seed, args.stencil_h)
            summary, code = run_config(cfg)
    except ConfigError as exc:
        return _config_error(exc)
    except FanningLabError as exc:
        print(f"numeric failure: {_one_line(exc)}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # any other escape is a numeric failure too
        print(f"numeric failure: {type(exc).__name__}: {_one_line(exc)}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(summary, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
