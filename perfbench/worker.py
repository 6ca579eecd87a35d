"""Benchmark worker: one process that runs a workload's jobs pass after pass.

    python3 perfbench/worker.py JOBS.json RESULT.json --seconds S
        --trace 0|1 --out-dir DIR [--spans SPANS.jsonl.gz]

Times passes over the jobs through `fanning_lab.cli.run_config`, with the
calibration kernel run before the first job and after every job, checks
every CSV row against references.py and every output file against the first
pass, and writes the result as JSON.  With --trace 1, untraced and traced
passes alternate.  The parent starts this process with BLAS pinned to one
thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import references
import workloads
from tracer import Tracer, write_spans

MIN_PASSES = 3          # untraced passes per run, at least
MIN_TRACED_PASSES = 2   # of each kind with --trace 1
MAX_REPORTED_FAILURES = 10
# accuracy_margin_digits is this percentile of the row margins.  The minimum
# is set by the most degenerate flag a seed happens to draw and moved by
# 0.19 of its median across seeds on grid-2d; the 10th percentile by 0.045.
MARGIN_PERCENTILE = 10


def load_package() -> dict:
    """The package modules, imported from the checkout's src directory."""
    from fanning_lab import (cli, deformations, fanning, jacobi, metrics,
                             numkit, reduction)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"fanning_lab imported from {cli.__file__}, "
                          f"not from {src}")
    return {"cli": cli, "deformations": deformations, "fanning": fanning,
            "jacobi": jacobi, "metrics": metrics, "numkit": numkit,
            "reduction": reduction}


def _digest(job_dir: Path, cfg: dict) -> str:
    h = hashlib.sha256()
    for name in (f"{cfg['experiment']}.csv", "summary.json"):
        h.update((job_dir / name).read_bytes())
    return h.hexdigest()


class Run:
    """Passes over one job list, with row verification and output hashes."""

    def __init__(self, mods, jobs, out_dir: Path):
        self.mods = mods
        self.jobs = jobs
        self.out_dir = out_dir
        self.expected = [workloads.expected_rows(cfg) for cfg in jobs]
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.margins = []      # per row of the first pass, see references.py
        self.passes = 0

    def _fail(self, k, rows, why):
        self.failed += rows
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"pass {self.passes} job {k}: {why}")

    def one_pass(self, tracer=None) -> tuple:
        """Run every job once; returns (wall seconds, kernel seconds).

        The calibration kernel runs before the first job and after each
        job, outside the timed region; the kernel time returned is the mean
        of those runs, so it reflects the host speed during this pass.
        """
        pass_dir = self.out_dir / f"pass{self.passes}"
        cli = self.mods["cli"]
        outcomes = []
        wall = 0.0
        kernel_s = [calibrate.kernel_seconds()]
        for k, cfg in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = f"pass{self.passes}.job{k}"
            t0 = time.perf_counter()
            try:
                # looked up per call, so a traced pass goes through the wrapper
                _, code = cli.run_config(dict(cfg),
                                         output_dir=str(pass_dir / f"job{k}"))
                outcomes.append((code, None))
            except Exception as exc:    # a job that raised fails its rows
                outcomes.append((None, f"{type(exc).__name__}: {exc}"))
            wall += time.perf_counter() - t0
            kernel_s.append(calibrate.kernel_seconds())
        self._verify(pass_dir, outcomes)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes += 1
        return wall, statistics.fmean(kernel_s)

    def _verify(self, pass_dir, outcomes):
        digests = []
        for k, (cfg, (code, error)) in enumerate(zip(self.jobs, outcomes)):
            rows = self.expected[k]
            self.attempted += rows
            job_dir = pass_dir / f"job{k}"
            digest = None
            if error is None:
                try:
                    digest = _digest(job_dir, cfg)
                except OSError as exc:
                    error = f"missing output: {exc}"
            digests.append(digest)
            if error is not None:
                self._fail(k, rows, error)
                continue
            if code != 0:
                self._fail(k, rows, f"exit code {code}")
                continue
            if self.first_digests is not None \
                    and digest != self.first_digests[k]:
                self._fail(k, rows, "output differs from the first pass")
                continue
            text = (job_dir / f"{cfg['experiment']}.csv").read_text()
            margins = references.check_rows(cfg, text, rows)
            bad = sum(m is None or m < 0.0 for m in margins)
            if bad:
                self._fail(k, bad, f"{bad} rows missed their reference")
            finite = [m for m in margins if m is not None]
            if self.passes == 0:
                self.margins.extend(finite)
        if self.first_digests is None:
            self.first_digests = digests


def _blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run(args) -> dict:
    jobs = json.loads(Path(args.jobs).read_text())
    mods = load_package()
    run_ = Run(mods, jobs, Path(args.out_dir))
    rows_per_pass = sum(run_.expected)
    untraced, traced, layers, tracers = [], [], [], []
    need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        if args.trace and len(untraced) > len(traced):
            tracer = Tracer(mods)
            with tracer:
                traced.append(run_.one_pass(tracer))
            _, kernel = traced[-1]
            layers.append(tracer.summary(rows_per_pass,
                                         calibrate.scaled(1.0, kernel)))
            tracers.append(tracer)
        else:
            untraced.append(run_.one_pass())
        done = min(len(untraced), len(traced)) if args.trace \
            else len(untraced)
        elapsed = time.perf_counter() - start
        typical = elapsed / run_.passes
        if done >= need and elapsed + typical > args.seconds:
            break
    out = {
        "pass_wall_s": [w for w, _ in untraced],
        "pass_kernel_s": [k for _, k in untraced],
        "traced_pass_wall_s": [w for w, _ in traced],
        "rows_per_pass": rows_per_pass,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "failures": run_.failures,
        # 0 when no row produced a finite error; such a run fails anyway
        "margin_p10": float(np.percentile(run_.margins, MARGIN_PERCENTILE))
        if run_.margins else 0.0,
        "margin_min": min(run_.margins, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "openblas": _blas_version()},
    }
    if args.trace:
        out["layers"] = _layer_metrics(
            layers, [calibrate.scaled(w, k) for w, k in traced],
            [calibrate.scaled(w, k) for w, k in untraced])
        out["counts_repeat"] = all(_counts(s) == _counts(layers[0])
                                   for s in layers)
        if args.spans:
            write_spans(args.spans, tracers)
    return out


def _counts(summary: dict) -> dict:
    """The entries of a traced pass that must repeat exactly."""
    return {k: v for k, v in summary.items() if not k.endswith(".self_s")}


def _layer_metrics(layers, traced, untraced) -> dict:
    out = dict(layers[0])
    for key in layers[0]:
        if key.endswith(".self_s"):
            out[key] = statistics.median(s[key] for s in layers)
    out["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
