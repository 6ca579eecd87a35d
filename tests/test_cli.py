"""Tests for the scenario runner: config validation, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import point_evaluations
from fanning_lab import cli
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx
from fanning_lab.errors import ConfigError, OutOfChart
from fanning_lab.selftest import CheckResult


def run_cfg(cfg, tmp_path, name="out"):
    out = tmp_path / name
    summary, code = cli.run_config(dict(cfg), output_dir=str(out))
    return out, summary, code


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config({"experiment": "curvature-grid", "bogus": 1},
                       output_dir=str(tmp_path))


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config({"experiment": "nope"}, output_dir=str(tmp_path))


def test_negative_knob_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config({"experiment": "curvature-grid", "samples": -3},
                       output_dir=str(tmp_path))


def test_bad_metric_params_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config({"experiment": "curvature-grid",
                        "metric": {"id": "sphere", "params": {"nope": 1}}},
                       output_dir=str(tmp_path))


def test_curvature_grid_euclidean_passes(tmp_path):
    cfg = {"experiment": "curvature-grid", "seed": 7, "samples": 6,
           "metric": {"id": "euclidean"}, "tolerance": 1e-8}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    assert summary["passed"] is True
    lines = (out / "curvature-grid.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["metric", "x1", "x2"]
    assert lines[0].split(",")[-3:] == ["K", "oracle_K", "abs_err"]
    assert len(lines) == 7
    for line in lines[1:]:
        assert abs(float(line.split(",")[7])) < 1e-8  # K column


def test_curvature_grid_impossible_tolerance_fails(tmp_path):
    cfg = {"experiment": "curvature-grid", "seed": 7, "samples": 4,
           "metric": {"id": "sphere"}, "x_radius": 1.0, "tolerance": 1e-30}
    _, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_TOLERANCE
    assert summary["passed"] is False


@pytest.mark.parametrize("cfg", [
    {"experiment": "curvature-grid", "seed": 123, "samples": 5,
     "metric": {"id": "sphere"}, "x_radius": 1.2},
    {"experiment": "invariants-along-orbit", "seed": 9,
     "metric": {"id": "randers", "params": {"b": [0.25, 0.05]}},
     "orbit_time": 0.2, "orbit_samples": 3},
    {"experiment": "projective", "seed": 4, "samples": 2},
], ids=lambda cfg: cfg["experiment"])
def test_byte_identical_reruns(tmp_path, cfg):
    out1, _, _ = run_cfg(cfg, tmp_path, "a")
    out2, _, _ = run_cfg(cfg, tmp_path, "b")
    name = cfg["experiment"] + ".csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize("steps_per_unit", [1, 400, 1500])
@pytest.mark.parametrize("cfg", [
    {"experiment": "curvature-grid", "samples": 2,
     "metric": {"id": "sphere"}},
    {"experiment": "curvature-grid", "samples": 2, "stencil_h": 7e-4},
    {"experiment": "invariants-along-orbit", "orbit_time": 0.2,
     "orbit_samples": 3},
    {"experiment": "invariants-along-orbit", "orbit_time": 0.2,
     "orbit_samples": 3, "stencil_h": 2.5e-3},
    {"experiment": "submersion", "scenarios": ["trivial", "hopf"]},
    {"experiment": "projective", "samples": 2},
    {"experiment": "katok", "samples": 2, "epsilons": [0.3]},
], ids=["curvature-grid", "curvature-grid-h7e-4", "invariants-along-orbit",
        "invariants-along-orbit-h2.5e-3", "submersion", "projective",
        "katok"])
def test_frame_windows_run_at_any_steps_per_unit(tmp_path, capsys, cfg,
                                                 steps_per_unit):
    # 7e-4 and 2.5e-3 are no whole number of window steps; each frame
    # window takes a whole number of steps per h, and a reduction window a
    # whole number per its 1e-2.  No setting
    # sizes a window: a config naming `steps_per_unit`, at any value, is
    # refused with one line before anything runs
    _, summary, code = run_cfg({**cfg, "seed": 1}, tmp_path)
    assert code == cli.EXIT_OK
    assert summary["passed"] is True
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "seed": 1,
                                    "steps_per_unit": steps_per_unit,
                                    "output_dir": str(tmp_path / "old")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert "'steps_per_unit'" in err
    assert not (tmp_path / "old").exists()


def test_selftest_reads_its_orbit_at_multiples_of_stencil_h(capsys):
    # 0.2, 0.25 and 0.5 are no multiples of 7e-4: the orbit is read at the
    # nearest multiples, all of them grid nodes
    assert cli.main(["selftest", "--stencil-h", "7e-4"]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("29/29 checks passed\n")


def test_invariants_along_orbit_residual_includes_energy_drift(
        tmp_path, monkeypatch):
    # the residual is the energy drift |F(x_t, y_t) - 1| of the geodesic
    # samples, F^2 = y.W.y off each window's Wronskian.  The GBS leg drifts
    # by about 1e-15, so a known drift is put in: every sample's y scaled
    # by 1 + 1e-8, which F, homogeneous of degree one, reads as 1e-8
    geodesic = jb.geodesic

    def drifting(*args):
        states = geodesic(*args)
        n = states.shape[-1] // 2
        states[..., n:] *= 1.0 + 1e-8
        return states

    monkeypatch.setattr(jb, "geodesic", drifting)
    cfg = {"experiment": "invariants-along-orbit", "seed": 3,
           "metric": {"id": "sphere"}, "orbit_time": 1.0}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    assert abs(summary["max_residual"] - 1e-8) <= 1e-12
    _, summary, code = run_cfg(dict(cfg, tolerance=1e-9), tmp_path, "tight")
    assert code == cli.EXIT_TOLERANCE
    assert not summary["passed"]
    csv = "invariants-along-orbit.csv"
    assert (tmp_path / "tight" / csv).read_bytes() == (out / csv).read_bytes()


def test_invariants_along_orbit_reads_F_off_the_wronskian(tmp_path,
                                                          monkeypatch):
    # each sample's t = 0 Wronskian is g there, and F^2 = y.W.y gives the
    # energy drift: from the orbit on, no F_value or fundamental_tensor
    # call (the calls before it build the metric and scale the start)
    calls = point_evaluations(monkeypatch)
    geodesic = jb.geodesic

    def from_the_orbit_on(*args):
        calls.clear()
        return geodesic(*args)

    monkeypatch.setattr(jb, "geodesic", from_the_orbit_on)
    cfg = {"experiment": "invariants-along-orbit", "seed": 2,
           "metric": {"id": "randers", "params": {"b": [0.25, 0.05]}}}
    _, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    assert summary["max_residual"] < 1e-9
    assert calls == []


def test_invariants_along_orbit_columns(tmp_path):
    cfg = {"experiment": "invariants-along-orbit", "seed": 3,
           "metric": {"id": "sphere"}, "orbit_time": 0.4, "orbit_samples": 3}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    lines = (out / "invariants-along-orbit.csv").read_text().splitlines()
    head = lines[0].split(",")
    assert head[0] == "t"
    assert "schwarzian_11" in head and "wronskian_22" in head
    assert "K_eig_4" in head
    assert len(lines) == 4


def long_orbit_rows(cfg):
    """Rows of the orbit experiment read off one long transported orbit:
    the orbit from the start point over T plus the frame's 2 spacings
    each way, with the Jacobi frame taken at each sample time."""
    metric = cli._build_metric(cfg)
    rng = np.random.default_rng(cfg["seed"])
    x = cli.sample_in_ball(rng, metric.n, 0.5)
    y = rng.normal(size=metric.n)
    y = y / metric.F_value(x, y)
    h, T = jb.DEFAULT_FRAME_H, cfg["orbit_time"]
    orbit = jb.transport(metric, mx.PhasePoint(x, y), round(T / h) + 2, h)
    rows = []
    for t in np.linspace(0.0, T, cfg["orbit_samples"]):
        inv = jb.jacobi_frame(orbit, float(t)).invariants
        rows.append(np.concatenate([[t], inv.Schwarzian.ravel(),
                                    inv.W.ravel(),
                                    np.sort(np.linalg.eigvals(inv.K).real)]))
    return np.array(rows)


@pytest.mark.parametrize("metric", [
    {"id": "sphere"},
    {"id": "randers", "params": {"b": [0.25, 0.05]}},
], ids=["sphere", "randers"])
def test_invariants_along_orbit_batched_window(tmp_path, monkeypatch, metric):
    # the sample points go through one batched transport over the frame
    # window of 2 spacings each way, and the rows agree with reading a
    # long orbit
    cfg = {"experiment": "invariants-along-orbit", "seed": 5,
           "metric": metric, "orbit_time": 0.2, "orbit_samples": 3}
    transport = jb.transport
    orbits = []

    def spy(*args, **kwargs):
        orbits.append(transport(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(jb, "transport", spy)
    out, _, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    (orbit,) = orbits
    h = jb.DEFAULT_FRAME_H
    assert orbit.v0.x.shape == (3, 2) and orbit.h == h
    assert orbit.ts[0] == -2 * h and orbit.ts[-1] == 2 * h
    monkeypatch.setattr(jb, "transport", transport)

    rows = np.loadtxt(out / "invariants-along-orbit.csv", delimiter=",",
                      skiprows=1)
    ref = long_orbit_rows(cfg)
    assert np.array_equal(rows[:, 0], ref[:, 0])
    assert np.max(np.abs(rows[:, 5:9] - ref[:, 5:9])) <= 1e-12   # W
    assert np.max(np.abs(rows[:, 1:5] - ref[:, 1:5])) <= 1e-8    # Schwarzian
    assert np.max(np.abs(rows[:, 9:] - ref[:, 9:])) <= 1e-8      # K_eig


def test_invariants_along_orbit_rows_are_the_frame_invariants():
    # the Schwarzian and W of each row are those of one frame window around
    # the sample points, bit for bit
    s = {key: default for key, (_, default)
         in {**cli._COMMON, **cli._SETTINGS["invariants-along-orbit"]}.items()}
    s.update(seed=3, orbit_time=0.4, orbit_samples=5)
    _, rows, _, _ = cli._run_invariants_along_orbit(s)
    metric = cli._build_metric(s)
    rng = np.random.default_rng(3)
    x = cli.sample_in_ball(rng, 2, s["x_radius"])
    y = rng.normal(size=2)
    y = y / metric.F_value(x, y)
    states = jb.geodesic(metric, mx.PhasePoint(x, y), np.linspace(0, 0.4, 5))
    inv = jb.frame_invariants(metric,
                              mx.PhasePoint(states[:, :2], states[:, 2:]),
                              jb.DEFAULT_FRAME_H)
    rows = np.array(rows)
    assert np.array_equal(rows[:, 1:5], inv.Schwarzian.reshape(5, 4))
    assert np.array_equal(rows[:, 5:9], inv.W.reshape(5, 4))


@pytest.mark.parametrize("orbit_time", [0.1, 0.6])
def test_invariants_along_orbit_jacobian_spray_calls(tmp_path, monkeypatch,
                                                     orbit_time):
    # the linearization is carried over the 9-call frame window only; the
    # orbit between the samples is integrated with the spray alone: 8
    # segments of a whole number of GBS steps of at most 0.05 each (1 at
    # orbit_time 0.1, 2 at 0.6), 8 spray-only calls a step
    jet_spray = mx._jet_spray
    jacobian_calls = []

    def counted(J, g, y):
        jacobian_calls.append(J.T is not None)
        return jet_spray(J, g, y)

    monkeypatch.setattr(mx, "_jet_spray", counted)
    cfg = {"experiment": "invariants-along-orbit", "seed": 2,
           "metric": {"id": "sphere"}, "orbit_time": orbit_time}
    _, _, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    assert sum(jacobian_calls) == 9
    steps = jb._steps(orbit_time / 8 / 0.05)
    assert len(jacobian_calls) - 9 == 8 * 8 * steps


def test_invariants_along_orbit_geodesic_steps(tmp_path, monkeypatch):
    # the orbit-comparison sphere job: 8 segments of 0.0375 take one GBS
    # step each, 8 spray-only calls a step; the frame window takes 9 calls
    jet_spray = mx._jet_spray
    jacobian_calls = []

    def counted(J, g, y):
        jacobian_calls.append(J.T is not None)
        return jet_spray(J, g, y)

    monkeypatch.setattr(mx, "_jet_spray", counted)
    cfg = {"experiment": "invariants-along-orbit", "seed": 1,
           "metric": {"id": "sphere"}, "orbit_time": 0.3, "orbit_samples": 9}
    _, _, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    assert jacobian_calls.count(False) == 64
    assert jacobian_calls.count(True) == 9


@pytest.mark.parametrize("orbit_time, start", [
    # the geodesic pass between the samples leaves the box: the GBS step
    # from t = 3 reads its 4-substep rung at 3.0375
    (6.0, "numeric failure: orbit left the chart at t=3.0375, "),
    # the last sample is inside, but its frame window leaves the box
    (3.034, "numeric failure: t=3.034: orbit left the chart at x="),
], ids=["between-samples", "frame-window"])
def test_main_names_the_failing_orbit_time(tmp_path, capsys, orbit_time,
                                           start):
    # the hyperbolic orbit of seed 4 crosses x1 = 0.95 at t = 3.035
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "invariants-along-orbit", "seed": 4,
         "metric": {"id": "hyperbolic"}, "orbit_time": orbit_time,
         "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith(start)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [0, 3])
def test_sphere_grid_reaches_far_into_its_chart(tmp_path, seed):
    # flags out to |x| = 15 of the sphere's chart box [-40, 40]^2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "curvature-grid", "metric": {"id": "sphere"},
         "x_radius": 15, "seed": seed, "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_OK


def test_main_names_the_sample_whose_frame_fails(tmp_path, capsys,
                                                monkeypatch):
    # the frames of samples 1 and 2 (t = 0.1, 0.2), the orbits that start
    # away from the first sample point, stop fanning; the error names the
    # earlier one
    x_start = cli.sample_in_ball(np.random.default_rng(3), 2, 0.5)
    frame_data = jb.OrbitData.frame_data

    def stalled(orbit, t):
        A, Adot = frame_data(orbit, t)
        moved = np.any(orbit.v0.x != x_start, axis=-1)
        return A, np.where(moved[..., None, None], A, Adot)

    monkeypatch.setattr(jb.OrbitData, "frame_data", stalled)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "invariants-along-orbit", "seed": 3,
         "metric": {"id": "sphere"}, "orbit_time": 0.2, "orbit_samples": 3,
         "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: t=0.1: ")
    assert "[A | Adot] has condition number above" in err
    assert len(err.strip().splitlines()) == 1


def test_submersion_rows(tmp_path):
    cfg = {"experiment": "submersion", "scenarios": ["trivial", "hopf"]}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    lines = (out / "submersion.csv").read_text().splitlines()
    assert lines[0] == "scenario,K_total,K_base,correction,residual"
    hopf = [l for l in lines if l.startswith("hopf")][0].split(",")
    assert float(hopf[1]) == pytest.approx(1.0, abs=1e-2)
    assert float(hopf[2]) == pytest.approx(4.0, abs=1e-2)
    assert float(hopf[3]) == pytest.approx(3.0, abs=1e-2)


def test_projective_experiment(tmp_path):
    cfg = {"experiment": "projective", "seed": 5, "samples": 2,
           "theta_scale": 0.2}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    lines = (out / "projective.csv").read_text().splitlines()
    assert lines[0] == "flag_id,K_direct,K_formula,abs_err"
    assert summary["max_residual"] < 1e-3


def test_katok_experiment(tmp_path):
    cfg = {"experiment": "katok", "seed": 11, "samples": 2,
           "epsilons": [0.3]}
    out, summary, code = run_cfg(cfg, tmp_path)
    assert code == cli.EXIT_OK
    lines = (out / "katok.csv").read_text().splitlines()
    assert lines[0] == "epsilon,flag_id,K,dev_from_1"
    for line in lines[1:]:
        assert abs(float(line.split(",")[2]) - 1.0) < 1e-3


def test_katok_bad_epsilon_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cli.run_config({"experiment": "katok", "epsilons": [1.5]},
                       output_dir=str(tmp_path))


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "curvature-grid", "seed": 1, "samples": 3,
         "metric": {"id": "euclidean"}, "tolerance": 1e-8,
         "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_OK

    def reject(token):
        raise ValueError(f"summary.json holds the non-JSON constant {token}")

    json.loads((tmp_path / "out" / "summary.json").read_text(),
               parse_constant=reject)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"experiment": "curvature-grid",
                                   "nope": 1}))
    assert cli.main(["run", str(unknown)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("entries", [
    '"samples": 2, "x_radius": Infinity',
    '"samples": 2, "tolerance": NaN',
    '"samples": true',
    '"samples": 2, "stencil_h": true',
    '"samples": 2, "seed": false',
    '"samples": 2, "metric": {"id": "sphere", "params": {"radius": true}}',
    '"samples": 2, "metric": {"id": "sphere", "params": {"radius": NaN}}',
    '"samples": 2, "metric": {"id": "randers", '
    '"params": {"b": [Infinity, 0]}}',
    '"samples": 2, "metric": {"id": "riemannian-conformal", '
    '"params": {"n": 9}}',
], ids=["x_radius-infinity", "tolerance-nan", "samples-true", "stencil_h-true",
        "seed-false", "radius-true", "radius-nan", "randers-b-infinity",
        "conformal-n-9"])
def test_main_rejects_non_numbers(tmp_path, capsys, entries):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"experiment": "curvature-grid", ' + entries
                        + ', "output_dir": ' + json.dumps(str(tmp_path / "out"))
                        + '}')
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, key", [
    ({"experiment": "katok", "samples": 1, "epsilons": [0.3],
      "stencil_h": 0.05}, "stencil_h"),
    ({"experiment": "projective", "samples": 1, "stencil_h": 0.05},
     "stencil_h"),
    ({"experiment": "submersion", "scenarios": ["trivial"],
      "stencil_h": 0.05}, "stencil_h"),
    ({"experiment": "selftest", "tolerance": 1e-30}, "tolerance"),
    ({"experiment": "selftest", "steps_per_unit": 2000}, "steps_per_unit"),
    ({"experiment": "curvature-grid", "samples": 2.7}, "samples"),
    ({"experiment": "curvature-grid", "samples": 0.5}, "samples"),
    ({"experiment": "curvature-grid", "samples": 0}, "samples"),
    ({"experiment": "invariants-along-orbit", "orbit_time": 0.05,
      "orbit_samples": 0.5}, "orbit_samples"),
    ({"experiment": "curvature-grid", "samples": 2, "steps_per_unit": 0.5},
     "steps_per_unit"),
    ({"experiment": "invariants-along-orbit", "steps_per_unit": 2000},
     "steps_per_unit"),
    ({"experiment": "submersion", "steps_per_unit": 2000}, "steps_per_unit"),
    ({"experiment": "projective", "steps_per_unit": 2000}, "steps_per_unit"),
    ({"experiment": "katok", "steps_per_unit": 2000}, "steps_per_unit"),
    ({"experiment": "curvature-grid", "samples": 2, "x_radius": 10 ** 400},
     "x_radius"),
    ({"experiment": "curvature-grid", "samples": 2, "metric": None},
     "metric"),
    ({"experiment": "submersion", "scenarios": [["hopf"]]}, "scenarios"),
    ({"experiment": "curvature-grid", "samples": 1, "seed": -1}, "seed"),
], ids=["katok-stencil_h", "projective-stencil_h", "submersion-stencil_h",
        "selftest-tolerance", "selftest-steps_per_unit", "samples-2.7",
        "samples-0.5", "samples-0", "orbit_samples-0.5", "steps_per_unit-0.5",
        "invariants-along-orbit-steps_per_unit", "submersion-steps_per_unit",
        "projective-steps_per_unit", "katok-steps_per_unit",
        "x_radius-beyond-float", "metric-null", "scenarios-unhashable",
        "seed-negative"])
def test_main_names_the_rejected_setting(tmp_path, capsys, cfg, key):
    # an experiment accepts only the settings its runner reads (no setting
    # counts RK4 steps), counts are integers >= 1, and each value is checked
    # before anything runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg,
                                        output_dir=str(tmp_path / "out"))))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, key", [
    (["--seed", "-1"], "seed"),
    (["--stencil-h", "-1"], "stencil_h"),
    (["--stencil-h", "nan"], "stencil_h"),
    (["--stencil-h", "0.5"], "stencil_h"),
    (["--stencil-h", "1e300"], "stencil_h"),
], ids=["seed-negative", "stencil_h-negative", "stencil_h-nan",
        "stencil_h-0.5", "stencil_h-1e300"])
def test_selftest_command_checks_its_settings(capsys, monkeypatch, args, key):
    # the selftest subcommand checks its flags against the settings table
    # before any suite runs
    runs = []
    monkeypatch.setattr(cli, "run_selftest",
                        lambda **kwargs: runs.append(kwargs) or [])
    assert cli.main(["selftest"] + args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert repr(key) in err
    assert runs == []


def test_stencil_h_past_the_degraded_width_exits_2_at_once(tmp_path, capsys,
                                                           monkeypatch):
    # a window's RK4 steps grow with stencil_h (1e300 asked for about
    # 8e302), so a width past 0.1, the selftest's degraded one, is a
    # config error before anything is transported
    s = cli.validate_config({"experiment": "curvature-grid", "stencil_h": 0.1})
    assert s["stencil_h"] == 0.1
    calls = []
    monkeypatch.setattr(jb, "transport",
                        lambda *args, **kwargs: calls.append(1))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "curvature-grid", "metric": {"id": "sphere"},
        "samples": 2, "stencil_h": 1e300,
        "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: config key 'stencil_h' must be in [6e-4, 0.1], "
        "got 1e+300\n")
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("width", ["1e-300", "5e-324", "9e-5", "5.5e-4"])
def test_stencil_h_below_its_rounding_floor_exits_2_at_once(tmp_path, capsys,
                                                            monkeypatch,
                                                            width):
    # the selftest's orbit spans 0.5 / stencil_h spacings (1e-300 would ask
    # for about 5e299 RK4 steps), and its run time grows as the width
    # falls: below 6e-4, a config error before any spray
    jets = []
    energy_jet = mx.energy_jet

    def counted(*args, **kwargs):
        jets.append(1)
        return energy_jet(*args, **kwargs)

    monkeypatch.setattr(mx, "energy_jet", counted)
    assert cli.main(["selftest", "--stencil-h", width]) == cli.EXIT_CONFIG
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "invariants-along-orbit", "stencil_h": float(width),
        "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    errs = capsys.readouterr().err.splitlines()
    assert len(errs) == 2
    for err in errs:
        assert err.startswith("config error: config key 'stencil_h' must be "
                              "in [6e-4, 0.1], got ")
    assert jets == [] and not (tmp_path / "out").exists()


def test_selftest_summary_names_the_seed_it_ran_with(tmp_path, monkeypatch):
    seeds = []

    def spy(seed, stencil_h):
        seeds.append(seed)
        return [CheckResult("stub", 0.0, 1.0)]

    monkeypatch.setattr(cli, "run_selftest", spy)
    out, summary, code = run_cfg({"experiment": "selftest"}, tmp_path)
    assert code == cli.EXIT_OK
    assert seeds == [20240811]
    assert json.loads((out / "summary.json").read_text())["seed"] == 20240811


@pytest.mark.parametrize("cfg, start", [
    ({"experiment": "curvature-grid", "samples": 1, "output_dir": 5},
     "config error: config key 'output_dir' must be a string, got 5"),
    ({"experiment": ["katok"]},
     "config error: unknown or missing experiment ['katok']"),
], ids=["output_dir-5", "experiment-list"])
def test_main_rejects_malformed_output_dir_and_experiment(tmp_path, capsys,
                                                          cfg, start):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(start)
    assert len(err.strip().splitlines()) == 1


def test_readme_example_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("`run` takes a single JSON object")[1]
    example = example.split("```json\n")[1].split("```")[0]
    cfg = json.loads(example)
    assert cli.validate_config(cfg)["experiment"] == cfg["experiment"]


def readme_settings_table():
    """Experiment -> set of keys, one entry per row of the README table of
    settings.  A key is a backticked name at the start of the cell or after
    the closing parenthesis of the previous key's default; the selftest
    row names its seed as "its `seed`"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| experiment | keys (default) |\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines()[1:]:
        exp, keys = line.strip("| ").split(" | ")
        rows[exp.strip("`")] = set(re.findall(r"(?:^|\), |its )`(\w+)`",
                                              keys))
    return rows


def test_readme_settings_table_lists_each_experiments_keys():
    # the table and `_SETTINGS` are edited apart: a key added to one only,
    # or an experiment row missing, fails here
    rows = readme_settings_table()
    assert rows == {exp: set(table) for exp, table in cli._SETTINGS.items()}


def test_main_names_the_failing_flag(tmp_path, capsys):
    # the Poincare chart is the box |x_i| <= 0.95; with x_radius 1.2, flags
    # 1, 2 and 3 of seed 5 start outside it, and the error names flag 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "curvature-grid", "seed": 5, "samples": 6,
         "metric": {"id": "hyperbolic"}, "x_radius": 1.2,
         "output_dir": str(tmp_path / "out")}))
    flags = cli.sample_flags(np.random.default_rng(5), 2, 6, 1.2)
    outside = [i for i, (x, _, _) in enumerate(flags)
               if np.max(np.abs(x)) > 0.95]
    assert outside == [1, 2, 3]
    errs = []
    for _ in range(2):
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_NUMERIC
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("numeric failure: flag 1: orbit left the chart")
    assert len(errs[0].strip().splitlines()) == 1
    assert "Traceback" not in errs[0]


def test_main_maps_other_escapes_to_numeric_failure(tmp_path, capsys,
                                                    monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "curvature-grid",
                                    "output_dir": str(tmp_path / "out")}))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(jb, "flag_curvature", singular)
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "numeric failure: LinAlgError: Singular matrix\n"


@pytest.mark.parametrize("exc", [OutOfChart("orbit left the chart at t=0.5"),
                                 ValueError("bad\nvalue")],
                         ids=["OutOfChart", "ValueError"])
def test_selftest_command_maps_escapes_to_numeric_failure(capsys, monkeypatch,
                                                          exc):
    # the selftest subcommand goes through the same handlers as `run`
    def fail(**kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_selftest", fail)
    assert cli.main(["selftest"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cfg, code, prefix", [
    ({"experiment": "katok", "samples": 2, "x_radius": 1000.0},
     cli.EXIT_NUMERIC, "numeric failure: epsilon 0.1: "),
    ({"experiment": "projective", "metric": {"id": "hyperbolic"}},
     cli.EXIT_CONFIG, "config error: "),
    ({"experiment": "curvature-grid",
      "metric": {"id": "sphere", "params": {"radius": 0}}},
     cli.EXIT_CONFIG, "config error: "),
], ids=["katok-off-chart", "projective-hyperbolic", "sphere-radius-0"])
def test_main_reports_each_failure_in_one_line(tmp_path, capsys, cfg, code,
                                               prefix):
    # a katok failure carries its epsilon; the projective experiment takes
    # only the sphere and euclidean bases; a sphere needs a positive radius
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
    assert cli.main(["run", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_main_refuses_a_projective_base_of_dimension_other_than_2(tmp_path,
                                                                 capsys, n):
    # the projective one-forms are written in two coordinates
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"experiment": "projective",
         "metric": {"id": "euclidean", "params": {"n": n}},
         "output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("config error: projective experiment needs a "
                   f"2-dimensional metric, got n={n}\n")
    assert not (tmp_path / "out").exists()


def test_main_list_metrics(capsys):
    assert cli.main(["list-metrics"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    for mid in ("euclidean", "sphere", "hyperbolic", "riemannian-conformal",
                "randers", "katok"):
        assert mid in text
    assert "hopf" in text


def test_console_entry_point_installed():
    # the subprocess finds the package where this process found it, with
    # or without PYTHONPATH set by the caller
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fanning_lab.cli",
                           "list-metrics"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "sphere" in proc.stdout
