"""Host-speed calibration for benchmark timings.

The benchmark host is shared: the same job takes anywhere from 1x to 1.7x
its quiet-host time, in slow periods that last minutes, and process CPU
time swings just as much, so the slowdown is per cycle, not descheduling.
A fixed kernel of small numpy operations driven from Python, the same kind
of work as the Taylor-jet arithmetic, slows down with it.  Each timed piece
of work (a pass over the jobs, a set-up probe) is therefore reported as
`measured * REF_KERNEL_S / kernel_s`, with `kernel_s` the mean kernel time
measured around and during it, outside the timed region: seconds at the
host speed where the kernel takes REF_KERNEL_S.  On a 2-core x86-64
sandbox, medians over 30 s windows of one job's wall time rose by 70% in a
slow period while the job-to-kernel ratio stayed within 5%.  The kernel
does not touch the program, so any change in the program's own speed
passes through unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time on the quiet 2-core x86-64 sandbox the benchmark was tuned on
REF_KERNEL_S = 0.0060
REPEATS = 5


def kernel() -> float:
    """Fixed jet-like work: 4x4x4 contractions, small inverses, scalar code."""
    rng = np.random.default_rng(0)
    T = rng.normal(size=(4, 4, 4))
    H = rng.normal(size=(4, 4))
    g = rng.normal(size=4)
    shift = 4.0 * np.eye(4)
    acc = 0.0
    for _ in range(300):
        a = np.einsum("ijk,k->ij", T, g) + H
        b = np.linalg.inv(a + shift)
        c = np.einsum("il,ljp,jk->ikp", b, T, b)
        acc += float(c[0, 0, 0]) + float(np.sum(b * H))
        g = g * 0.999 + 1e-3
    return acc


def kernel_seconds() -> float:
    """Median wall time of a few kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(measured_s: float, kernel_s: float) -> float:
    return measured_s * REF_KERNEL_S / kernel_s
