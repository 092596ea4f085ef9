"""Calibration kernel, run by run.py in a process of its own.

For every line read on standard input it runs a fixed kernel once and prints
the kernel's wall time in seconds on a line; it exits at the end of its input.
The kernel mixes what the workloads do: an interpreter loop, tiny numpy calls,
and small and medium dense ``eig``. It never imports kslab, and its own process
keeps it clear of whatever state kslab's calls leave in the benchmark's
process (heap, caches, threads).
"""
import sys
import time

import numpy as np


def main() -> int:
    rng = np.random.default_rng(0)
    m64 = rng.standard_normal((64, 64))
    m232 = rng.standard_normal((232, 232))
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    while sys.stdin.readline():
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += (i * 0.5) % 3.0
        for _ in range(3000):
            np.cross(v, w)
            np.exp(-0.1 * v)
            v @ w
        for _ in range(8):
            np.linalg.eig(m64)
        np.linalg.eig(m232)
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
