"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed moves by tens of
percent within seconds to minutes, which would swamp any regression
bound. The run therefore times a fixed calibration kernel between jobs
and scales each job's time by REF_KERNEL_S over the mean of the kernel
times just before and just after the job. Times are so reported in
seconds at the reference speed, at which the kernel takes REF_KERNEL_S.
A change to the program moves the scaled times by the same factor as
the raw ones, while machine drift slows the jobs and the kernels next to
them alike and cancels. On a 2-vCPU shared machine this cut the spread
of 20-second medians of one job from 16-26% to 3-8%.

The kernel is the benchmark's own code and never calls the program. It
mixes the two kinds of work the program does: dense 8x8 linear algebra
(as in the interior-point solver) and interpreted scalar loops over
2-vectors (as in the scheme and bound searches).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical kernel time on the 2-vCPU machine the benchmark was written on.
REF_KERNEL_S = 0.025


def kernel() -> float:
    """A fixed, deterministic amount of work; returns a checksum."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    s = a @ a.T + 8.0 * np.eye(8)
    g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    acc = 0.0
    for i in range(120):
        low = np.linalg.cholesky(s)
        w = np.linalg.eigvalsh(s)
        x = np.linalg.solve(low, s[:, i % 8])
        s = 0.5 * (s + s.T) + 1e-3 * np.outer(x, x)
        acc += float(w[0]) + float(x @ x)
        for k in range(12):
            b = np.outer(g, g.conj()) * (k + 1.0)
            num = abs(g @ b @ g) ** 2
            den = np.linalg.norm(b @ g) ** 2 + 1.0
            acc += 0.5 * math.log2(1.0 + float(num / den))
    return acc


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel samples `before` and `after`,
    scaled to the reference speed."""
    return seconds * REF_KERNEL_S / (0.5 * (before + after))
