"""A running measure of how fast this box is, to scale a run's timings by.

The sandbox's two virtual cores change speed by up to 1.7× for seconds
to minutes at a time (other tenants of the host): ten runs of the same
code spread their raw median iteration time by 7–25 % and their medians
move by up to 11 % within the hour (``results/ten_seeds*.md``), two runs
minutes apart differ by up to 31 % (``results/two_sets.md``); the benchmark
contract allows no bound above 25 % and wants spreads a third of the bound.  A fixed numpy kernel, timed with its thread's CPU
clock every ``PERIOD_S`` while the program runs, slows down and speeds up
with the training loop.  Every duration of a run is reported multiplied
by ``NOMINAL_KERNEL_S`` over the kernel's median during the stretch the
duration was measured in — the time it would have taken on a box where
the kernel takes ``NOMINAL_KERNEL_S``.  That constant only fixes the unit
(it is the kernel's time on this box when no neighbour is active) and
cancels whenever two runs are compared.  The result tables print every
scaled duration with the unscaled one under it (1–13 % against 7–25 %);
``repeat.py`` regenerates them.

What it costs and what it cannot do:

* One more thread, busy for 0.3–0.5 ms in every 50 ms (under 1 % of one
  core); numpy releases the GIL for the kernel.
* The kernel is numpy only, so no change under ``src/`` moves it directly,
  but it shares the cores with the program.  Running this file
  measures that (``results/calibrator.md``): next to two threads that keep
  both cores busy the kernel takes the same time whether they run numpy
  matmuls or a matmul/bytecode mix (within 3 %) and 1.17× as long when
  they stream 16 MB arrays, which evict its matrices; when a core is idle
  (nothing running, or two threads queueing for the GIL) the kernel wakes
  on a cold virtual core and takes 1.2–1.5× as long.  The median ignores
  cold wake-ups as long as the program keeps both cores busy for more than
  half of the stretch, which all four workloads do.  So a change that moved
  the program from compute to streaming, or idled a core for most of the
  window, would be reported up to 1.17× (1.5×) faster than it is; a change
  of a few per cent in either share moves the factor by a fraction of that.
* A dense matmul follows the slowdowns of the transformer and ConvNet
  workloads closely and those of the memory-bound MLP workload less so
  (see the spreads in ``results/ten_seeds.md``).  Kernels tried in its
  place (a tanh-MLP step of small numpy calls, an 8 MB streaming add, a
  bytecode loop, pairwise blends) each followed one workload better and the
  others worse; those runs are not kept.
* Pausing the ranks and probing the speed between chunks of the window,
  which would have no such dependence, tracked the slowdowns worse than no
  scaling at all (the speed changes within a chunk).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

if __name__ == "__main__":  # run.py has pinned BLAS already when it imports this
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

#: The kernel's CPU time on this box next to two busy rank threads, no neighbour active.
NOMINAL_KERNEL_S = 300e-6
PERIOD_S = 0.05


class Calibrator:
    """Context manager around a run; ``factor(t0, t1)`` afterwards."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="calibrator", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        matrix = np.ones((192, 192))
        out = np.empty_like(matrix)
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            c = time.thread_time()
            np.matmul(matrix, matrix, out=out)
            self.samples.append((t, time.thread_time() - c))

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_KERNEL_S`` over the median kernel time sampled in [t0, t1]."""
        return NOMINAL_KERNEL_S / statistics.median(
            c for t, c in list(self.samples) if t0 <= t <= t1)


def _coupling():
    """Kernel time next to programs of different kinds, in turns of 1 s."""
    square, big = np.ones((256, 256)), np.ones(1 << 21)
    scratch, total, kind = np.empty_like(square), np.empty_like(big), ["idle"]

    def bytecode():
        x = 0
        for i in range(2000):
            x += i & 3

    programs = {
        "idle": lambda: time.sleep(0.005),
        "numpy matmul": lambda: np.matmul(square, square, out=scratch),
        "numpy + bytecode": lambda: (bytecode(), np.matmul(square, square, out=scratch)),
        "16 MB streaming add": lambda: np.add(big, big, out=total),
        "bytecode only (GIL-bound)": lambda: [bytecode() for _ in range(10)],
    }

    def program():
        while kind[0]:
            programs[kind[0]]()

    threads = [threading.Thread(target=program) for _ in range(2)]
    for thread in threads:
        thread.start()
    turns = []
    with Calibrator() as calibrator:
        for _ in range(12):
            for name in programs:
                kind[0] = name
                time.sleep(0.1)
                turns.append((name, time.perf_counter(), time.perf_counter() + 1.0))
                time.sleep(1.0)
        kind[0] = None
        for thread in threads:
            thread.join()
    medians = {
        name: statistics.median(
            c for n, t0, t1 in turns if n == name for t, c in calibrator.samples if t0 <= t <= t1)
        for name in programs
    }
    print("The speed kernel's CPU time next to two threads of each kind, 12 turns of 1 s "
          "each (`python3 benchmarks/e2e/calibrate.py`).\n")
    print("| two threads running | kernel median | vs numpy matmul |\n|---|---|---|")
    for name, value in medians.items():
        print(f"| {name} | {value * 1e6:.0f} µs | {value / medians['numpy matmul']:.2f} |")


if __name__ == "__main__":
    _coupling()
