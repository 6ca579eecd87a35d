"""Set-up probe: one fresh process that imports the CLI and builds metrics.

    python3 perfbench/setup_probe.py JOBS.json

Prints the wall time in seconds from before `import fanning_lab.cli`
(which also imports numpy) to the last metric built.
"""

from __future__ import annotations

import json
import sys
import time

t_start = time.perf_counter()


def build_metrics(cfg: dict) -> list:
    """The metric objects a job config names, built through the public API."""
    from fanning_lab import deformations as df
    from fanning_lab import metrics as mx
    from fanning_lab import reduction as rd
    exp = cfg["experiment"]
    if exp in ("curvature-grid", "invariants-along-orbit"):
        spec = cfg["metric"]
        return [mx.zoo_metric(spec["id"], **spec.get("params", {}))]
    if exp == "katok":
        return [df.katok_metric(float(e)) for e in cfg["epsilons"]]
    if exp == "submersion":
        return [rd.submersion_scenario(s) for s in cfg["scenarios"]]
    if exp == "projective":
        base = mx.zoo_metric(cfg["metric"]["id"])
        form = df.ambient_coordinate_form(cfg.get("theta_scale", 0.2))
        return [df.projective_deform(base, form)]
    raise ValueError(f"no metric builder for experiment {exp!r}")


def main(jobs_path: str) -> None:
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    import fanning_lab.cli  # noqa: F401  (the set-up being timed)
    for cfg in jobs:
        build_metrics(cfg)
    print(repr(time.perf_counter() - t_start))


if __name__ == "__main__":
    main(sys.argv[1])
