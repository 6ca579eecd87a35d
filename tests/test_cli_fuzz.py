"""Config fuzz for `fanning-lab run`.

Every key each experiment accepts, and every param of every zoo metric, is
drawn from valid and boundary values; in half the draws one of them is then
replaced by a fractional, negative, bool, non-finite or wrongly typed value.
Whatever the draw, a run ends in a documented exit code with at most one
line on stderr, and exit 1 means a finite residual above a finite
tolerance.  The keys that set the amount of work (samples, orbit_samples,
orbit_time, epsilons, scenarios) are always present and small, so a draw
runs in a fraction of a second.  The property suites behind
the selftest experiment take seconds, so a stub stands in for them here;
tests/test_selftest.py runs them.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from fanning_lab import cli
from fanning_lab import metrics as mx
from fanning_lab.selftest import CheckResult

NON_FINITE = [math.nan, math.inf, -math.inf]
WRONG_TYPE = [True, False, None, "1", [], {}]


def count(*valid):
    """(valid, invalid) values of a count; 1 is its boundary, and 2.0 is
    integral but not a JSON integer."""
    return valid, [0, -1, 0.5, 2.7, 2.0] + NON_FINITE + WRONG_TYPE


def positive(*valid):
    return valid + (5e-324,), [0, -0.5, -1, 10 ** 400] + NON_FINITE \
        + WRONG_TYPE


NUMBER = [-0.5, 0.0, 0.2, 3], NON_FINITE + WRONG_TYPE[:4]
DIMENSION = [2, 3, 8], [1, 9, 2.5, 3.0, -2] + NON_FINITE + WRONG_TYPE
METRIC_PARAMS = {
    "euclidean": {"n": DIMENSION},
    "sphere": {"radius": positive(0.5, 1.0, 2.0)},
    "hyperbolic": {},
    "riemannian-conformal": {"a": NUMBER, "n": DIMENSION},
    "randers": {"b": ([[0.0, 0.0], [0.25, 0.05], [-0.5, 0.2, 0.1],
                       [0.99, 0.0]],
                      [[], [1.5, 0.0], [True, 0.0], [math.nan, 0.0], 0.2])},
    "katok": {"epsilon": ([0.0, 0.3, 0.99], [1.0, -0.1, True] + NON_FINITE)},
}
METRIC_IDS = sorted(METRIC_PARAMS)


@st.composite
def metric_specs(draw, ids, broken):
    mid = draw(st.sampled_from(ids))
    table = METRIC_PARAMS[mid]
    params = {p: draw(st.sampled_from(table[p][0])) for p in table
              if draw(st.booleans())}
    spec = {"id": mid, "params": params}
    if not broken:
        return spec
    how = draw(st.sampled_from(["param", "unknown-param", "id", "no-id",
                                "extra-key", "params-type", "spec-type"]))
    if how == "param" and table:
        p = draw(st.sampled_from(sorted(table)))
        params[p] = draw(st.sampled_from(table[p][1]))
    elif how == "unknown-param":
        params["nope"] = 1.0
    elif how == "id":
        spec["id"] = draw(st.sampled_from(METRIC_IDS + ["nope", 3, None]))
    elif how == "no-id":
        del spec["id"]
    elif how == "extra-key":
        spec["nope"] = 1
    elif how == "params-type":
        spec["params"] = [params]
    elif how == "spec-type":
        spec = draw(st.sampled_from([None, mid, [spec]]))
    return spec


def metric(*ids):
    return metric_specs(list(ids), False), metric_specs(list(ids), True)


def stencil(*valid):
    """(valid, invalid) values of stencil_h, positive and at most 0.1."""
    valid, invalid = positive(*valid)
    return valid, invalid + [0.5, 1e300]


RADIUS = positive(0.3, 1.0, 1.5, 1e200)
STENCIL = stencil(1e-3, 1e-2)
TOLERANCE = positive(1e-30, 1e-3, 1.0, 1e300)
# The keys of each experiment beyond seed and output_dir, as (always drawn,
# drawn or left out), each mapped to its (valid, invalid) values.
KEYS = {
    "curvature-grid": (
        {"samples": count(1, 2)},
        {"metric": metric(*METRIC_IDS), "x_radius": RADIUS,
         "stencil_h": STENCIL, "tolerance": TOLERANCE}),
    "invariants-along-orbit": (
        {"orbit_time": positive(0.01, 0.05), "orbit_samples": count(1, 2, 3)},
        {"metric": metric(*METRIC_IDS), "x_radius": RADIUS,
         "stencil_h": STENCIL, "tolerance": TOLERANCE}),
    "submersion": (
        {"scenarios": ([["trivial"], ["hopf"], ["hopf-scaled"]],
                       [[], ["nope"], "hopf", [["hopf"]], None])},
        {"tolerance": TOLERANCE}),
    "projective": (
        {"samples": count(1, 2)},
        {"metric": metric("sphere", "euclidean"),
         "theta_scale": positive(0.05, 0.2, 0.9), "x_radius": RADIUS,
         "tolerance": TOLERANCE}),
    "katok": (
        {"epsilons": ([[0.0], [0.3], [0.99]],
                      [[1.0], [-0.1], [], [True], [math.nan], 0.3]),
         "samples": count(1, 2)},
        {"x_radius": RADIUS, "tolerance": TOLERANCE}),
    "selftest": ({}, {"stencil_h": stencil(1e-3, 0.1)}),
}
SEED = [0, 1, 2 ** 40, -1], [1.5, "1"] + WRONG_TYPE[:3] + NON_FINITE


def strategy(values):
    return values if isinstance(values, st.SearchStrategy) \
        else st.sampled_from(values)


@st.composite
def configs(draw):
    """(config, output_dir): output_dir "fresh" stands for a new directory."""
    exp = draw(st.sampled_from(sorted(KEYS)))
    always, optional = KEYS[exp]
    table = {**always, "seed": SEED, "output_dir": (["fresh"], [5, None])}
    table.update((k, v) for k, v in optional.items() if draw(st.booleans()))
    cfg = {k: draw(strategy(valid)) for k, (valid, _) in table.items()}
    if draw(st.booleans()):
        k = draw(st.sampled_from(sorted(table) + ["experiment", "unknown"]))
        if k in table:
            cfg[k] = draw(strategy(table[k][1]))
        elif k == "experiment":
            exp = draw(st.sampled_from(["nope", None, 3]))
        else:
            # a key the experiment does not read
            unread = "bogus" if "stencil_h" in {**always, **optional} \
                else "stencil_h"
            cfg[unread] = 0.05
    out = cfg.pop("output_dir")
    return dict(cfg, experiment=exp), out


def stub_selftest(seed, stencil_h):
    return [CheckResult("stencil", stencil_h, 1e-2)]


def test_fuzz_draws_every_accepted_key():
    for exp, table in cli._SETTINGS.items():
        always, optional = KEYS[exp]
        assert set(always) | set(optional) | {"seed", "output_dir"} \
            == set(table) | set(cli._COMMON)
    assert METRIC_IDS == [mid for mid, _ in mx.list_metrics()]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(configs())
def test_run_ends_in_a_documented_exit_code(drawn):
    cfg, out = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        cfg["output_dir"] = str(out_dir) if out == "fresh" else out
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with mock.patch.object(cli, "run_selftest", stub_selftest), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        if code == cli.EXIT_TOLERANCE:
            summary = json.loads((out_dir / "summary.json").read_text())
            worst, tol = summary["max_residual"], summary["tolerance"]
            assert math.isfinite(worst) and math.isfinite(tol)
            assert worst > tol
