"""Seeded workloads: fixed lists of `fanning-lab run` configs.

Each workload is a closed loop with one client: its jobs run back to back
through `fanning_lab.cli.run_config`, one pass after another.  Only the job
seeds depend on the benchmark seed, so every seed gives the same amount of
work on different flags and orbits.
"""

from __future__ import annotations

import hashlib

RANDERS_B = [0.25, 0.05]

# Job templates; "seed" is filled in per benchmark seed.  Why each workload
# exists, and which ROADMAP item it should expose, is in BENCHMARK.json.
_TEMPLATES = {
    "grid-2d": [
        {"experiment": "curvature-grid", "metric": {"id": "sphere"},
         "samples": 30, "x_radius": 1.5},
        {"experiment": "curvature-grid", "metric": {"id": "hyperbolic"},
         "samples": 30, "x_radius": 0.8},
        {"experiment": "curvature-grid",
         "metric": {"id": "randers", "params": {"b": RANDERS_B}},
         "samples": 30, "x_radius": 1.0},
        {"experiment": "katok", "epsilons": [0.1, 0.3], "samples": 8},
    ],
    # split into four jobs so that the calibration kernel, which runs
    # between jobs, samples the host speed every second or so
    "grid-nd": [
        {"experiment": "curvature-grid",
         "metric": {"id": "riemannian-conformal",
                    "params": {"n": 4, "a": 0.5}},
         "samples": 10, "x_radius": 1.0},
        {"experiment": "curvature-grid",
         "metric": {"id": "riemannian-conformal",
                    "params": {"n": 8, "a": 0.2}},
         "samples": 2, "x_radius": 1.0},
    ] * 2,
    "orbit-comparison": [
        {"experiment": "invariants-along-orbit", "metric": {"id": "sphere"},
         "orbit_time": 0.3, "orbit_samples": 9, "x_radius": 0.5},
        {"experiment": "invariants-along-orbit",
         "metric": {"id": "randers", "params": {"b": RANDERS_B}},
         "orbit_time": 0.15, "orbit_samples": 9, "x_radius": 0.5},
        {"experiment": "submersion",
         "scenarios": ["trivial", "hopf", "hopf-scaled"]},
        {"experiment": "projective", "metric": {"id": "sphere"},
         "samples": 4},
    ],
}

NAMES = tuple(_TEMPLATES)


def job_seed(workload: str, index: int, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{index}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def jobs(workload: str, seed: int) -> list:
    """The workload's job configs for one benchmark seed."""
    return [dict(tpl, seed=job_seed(workload, k, seed))
            for k, tpl in enumerate(_TEMPLATES[workload])]


def expected_rows(cfg: dict) -> int:
    """CSV data rows a successful run of cfg writes."""
    exp = cfg["experiment"]
    if exp == "curvature-grid" or exp == "projective":
        return cfg["samples"]
    if exp == "katok":
        return cfg["samples"] * len(cfg["epsilons"])
    if exp == "invariants-along-orbit":
        return cfg["orbit_samples"]
    if exp == "submersion":
        return len(cfg["scenarios"])
    raise ValueError(f"no row count for experiment {exp!r}")
