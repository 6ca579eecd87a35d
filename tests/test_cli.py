"""Tests for the scenario runner: config validation, outputs, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fanning_lab import cli
from fanning_lab import jacobi as jb
from fanning_lab.errors import ConfigError


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


def test_byte_identical_reruns(tmp_path):
    cfg = {"experiment": "curvature-grid", "seed": 123, "samples": 5,
           "metric": {"id": "sphere"}, "x_radius": 1.2}
    out1, _, _ = run_cfg(cfg, tmp_path, "a")
    out2, _, _ = run_cfg(cfg, tmp_path, "b")
    assert (out1 / "curvature-grid.csv").read_bytes() == \
        (out2 / "curvature-grid.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == \
        (out2 / "summary.json").read_bytes()


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


def test_invariants_along_orbit_one_sided_window(tmp_path, monkeypatch):
    # the orbit reaches back only as far as the t = 0 stencil reads, and the
    # rows equal those of a run on the symmetric window
    cfg = {"experiment": "invariants-along-orbit", "seed": 5,
           "metric": {"id": "sphere"}, "orbit_time": 0.2, "orbit_samples": 3}
    transport = jb.transport
    orbits = []

    def spy(*args, **kwargs):
        orbits.append(transport(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(jb, "transport", spy)
    one_sided, _, _ = run_cfg(cfg, tmp_path, "one-sided")
    (orbit,) = orbits
    reach = jb.frame_reach(jb.DEFAULT_FRAME_H)
    assert orbit.ts[0] == -reach
    assert orbit.ts[-1] == pytest.approx(0.2 + reach, abs=1e-15)

    def symmetric(*args, back=None, **kwargs):
        return transport(*args, **kwargs)

    monkeypatch.setattr(jb, "transport", symmetric)
    both, _, _ = run_cfg(cfg, tmp_path, "symmetric")
    name = "invariants-along-orbit.csv"
    assert (one_sided / name).read_bytes() == (both / name).read_bytes()


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
], ids=["x_radius-infinity", "tolerance-nan", "samples-true", "stencil_h-true",
        "seed-false"])
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


def test_main_list_metrics(capsys):
    assert cli.main(["list-metrics"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    for mid in ("euclidean", "sphere", "hyperbolic", "riemannian-conformal",
                "randers", "katok"):
        assert mid in text
    assert "hopf" in text


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "fanning_lab.cli",
                           "list-metrics"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sphere" in proc.stdout
