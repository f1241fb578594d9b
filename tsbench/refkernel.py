"""Fixed numpy-only reference kernel used to correct timings for host drift.

On a shared host the speed of the machine drifts by 10-20% within
minutes, while the per-op CPU time tracks wall time: the cause is the host
running slower, not preemption. Timing this fixed kernel right after each
measured interval and scaling the interval by R_NOMINAL / R_wall removes
most of that drift.

The kernel never touches tsflow. It mixes the kinds of work tsflow's layers
do: complex FFTs, batched small dense solves, elementwise complex updates of
a few MB, and an interpreter loop. R_NOMINAL is its median time on the
machine where the benchmark was defined; it is a constant of the benchmark
and is never re-tuned.
"""

from __future__ import annotations

import time

import numpy as np

R_NOMINAL = 0.070  # seconds; see README.md, "Drift correction"


class ReferenceKernel:
    """Owns the kernel's inputs, so that every timing does the same work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.cube = rng.standard_normal((64, 64, 64)) + 1j * rng.standard_normal((64, 64, 64))
        mats = rng.standard_normal((16384, 4, 4)) + 1j * rng.standard_normal((16384, 4, 4))
        self.mats = mats + 8.0 * np.eye(4)
        self.rhs = rng.standard_normal((16384, 4, 1)) + 0j
        self.a = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)  # 4 MB
        self.b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1 << 18))
        self.sink = 0.0

    def run(self):
        """Do the fixed work once and return its wall time in seconds."""
        t0 = time.perf_counter()
        spec = np.fft.ifftn(np.fft.fftn(self.cube))
        x = np.linalg.solve(self.mats, self.rhs)
        c = self.a
        for _ in range(6):
            c = c * self.b + 0.5 * self.a
        acc = 0
        for i in range(200_000):
            acc += (i * 7) % 13
        self.sink = float(spec[1, 2, 3].real + x[0, 0, 0].real + c[7].real) + acc
        return time.perf_counter() - t0
