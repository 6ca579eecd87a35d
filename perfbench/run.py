"""Benchmark of fanning-lab curvature jobs.

    python3 perfbench/run.py --workload grid-2d --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The workload's job configs are generated from --seed and handed to
one worker process (perfbench/worker.py) with BLAS and OpenMP pinned to one
thread.  Job outputs go to a temporary directory inside the checkout that
is removed afterwards.

--trace 0 reports the end-to-end metrics: set-up time of fresh processes
(setup_probe.py), the median pass time, the accuracy margin of the worst
row and the worker's peak memory.  Times are scaled to a reference host
speed (calibrate.py).  --trace 1 alternates untraced and traced passes and
reports per-layer call counts and self times instead; the spans are written
to .perfbench-out/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A run whose child
processes cannot start or finish exits with code 1 and prints no result.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
# before numpy is imported (by calibrate), so that this process, which
# times the set-up probes against the kernel, runs it like the worker
os.environ.update(PINNED_THREADS)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import DERIVED, SPAN_NAMES  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBE = HERE / "setup_probe.py"

SETUP_PROBES = 13        # timed fresh processes, after one untimed warm-up
DEADLINE_S = 170         # the whole run, child processes included


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _call(script, args, env, deadline) -> str:
    """Run a benchmark script in a child process; returns its stdout.

    The child is killed and waited for if it runs past the deadline
    (a time.monotonic() value).
    """
    try:
        proc = subprocess.run([sys.executable, str(script), *args], env=env,
                              cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script.name} timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{script.name} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return proc.stdout


def setup_probes(jobs_path, env, deadline) -> list:
    """(setup_s, kernel_s) of fresh processes that build the metrics.

    kernel_s is the mean of the kernel times measured in this process just
    before and just after the probe.
    """
    _call(SETUP_PROBE, [str(jobs_path)], env, deadline)  # warms caches
    probes = []
    before = calibrate.kernel_seconds()
    for _ in range(SETUP_PROBES):
        out = _call(SETUP_PROBE, [str(jobs_path)], env, deadline)
        after = calibrate.kernel_seconds()
        probes.append((float(out.strip().splitlines()[-1]),
                       0.5 * (before + after)))
        before = after
    return probes


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled_passes(res) -> list:
    """Pass times scaled by the kernel times measured during each pass."""
    return [calibrate.scaled(w, k)
            for w, k in zip(res["pass_wall_s"], res["pass_kernel_s"])]


def end_to_end(res, probes) -> dict:
    setup = statistics.median(calibrate.scaled(s, k) for s, k in probes)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "run_s": {"value": statistics.median(scaled_passes(res)),
                  "unit": "s"},
        "accuracy_margin_digits": {"value": res["margin_p10"],
                                   "unit": "digits"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res) -> dict:
    layers = res["layers"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = {"value": layers[f"{name}.calls"],
                                "unit": "count"}
        out[f"{name}.self_s"] = {"value": layers[f"{name}.self_s"],
                                 "unit": "s"}
    for name, unit in DERIVED.items():
        out[name] = {"value": layers[name], "unit": unit}
    out["trace.overhead_frac"] = {"value": layers["trace.overhead_frac"],
                                  "unit": "ratio"}
    out["failed_frac"] = {"value": res["failed"] / res["attempted"],
                          "unit": "ratio"}
    return out


def _fmt_times(values, digits=4) -> str:
    return " ".join(f"{v:.{digits}f}" for v in values)


def report(args, res, probes, metrics) -> None:
    """Human-readable lines before the result line."""
    lines = [
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds}  trace {args.trace}",
        "env " + json.dumps(dict(res["env"], nproc=os.cpu_count(),
                                 affinity=len(os.sched_getaffinity(0)),
                                 **PINNED_THREADS)),
        f"passes {len(res['pass_wall_s'])} untraced, "
        f"{len(res['traced_pass_wall_s'])} traced; "
        f"{res['rows_per_pass']} rows per pass",
        "run_s quartiles %.4f %.4f %.4f" % quartiles(scaled_passes(res)),
        "pass wall s " + _fmt_times(res["pass_wall_s"]),
        "pass kernel s " + _fmt_times(res["pass_kernel_s"], 5)
        + f" (reference {calibrate.REF_KERNEL_S})",
        f"failed_frac {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} rows)",
        f"accuracy margin of the worst row {res['margin_min']:.4f} digits",
    ]
    if probes:
        lines.append("setup wall s " + _fmt_times(s for s, _ in probes))
        lines.append("setup kernel s " + _fmt_times((k for _, k in probes), 5))
    lines += [f"failure: {f}" for f in res["failures"]]
    if args.trace:
        lines.append("traced pass wall s "
                     + _fmt_times(res["traced_pass_wall_s"]))
        lines.append(f"counts repeat across traced passes: "
                     f"{res['counts_repeat']}")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    print("\n".join(lines))


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs = workloads.jobs(args.workload, args.seed)
    env = worker_env()
    spans_dir = ROOT / ".perfbench-out"
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        probes = [] if args.trace else setup_probes(jobs_path, env, deadline)
        result_path = tmp / "result.json"
        worker_args = [str(jobs_path), str(result_path),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--out-dir", str(tmp / "out")]
        if args.trace:
            spans_dir.mkdir(exist_ok=True)
            worker_args += ["--spans", str(
                spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")]
        _call(WORKER, worker_args, env, deadline)
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = per_layer(res) if args.trace else end_to_end(res, probes)
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    report(args, res, probes, metrics)
    return {"correct": bool(correct), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= DEADLINE_S // 2:
        parser.error(f"--seconds must be from 1 to {DEADLINE_S // 2}")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
