"""Reference tasks that track how fast the host runs right now.

On a shared host the same call can take 1.7 times longer from one second to
the next, and medians of whole runs differ by 20-40 %. Every operation is
therefore timed next to a fixed task that does not depend on meanscape, run
just before and just after it, and reported both raw and normalized: raw
seconds times the task's nominal time over its measured time. Normalized times read as
seconds on a host where the task takes its nominal time; they compare
across runs and commits because the task never changes.

The task matches the kind of operation:

- Short in-process calls are timed between two runs of a short pure-Python
  kernel in the same process (``ComputeReference``). For calls that last
  seconds neither this nor a kernel timed on the other core during the call
  tracked the call's speed, so those stay raw.
- Operations that start a process (CLI commands, set-up trials) are timed
  between two runs of a fresh interpreter importing numpy
  (``ProcessReference``), because process start-up slows in other ways than
  computation does.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

KERNEL_NOMINAL_S = 1e-3
PROCESS_NOMINAL_S = 0.15


def _kernel() -> float:
    # the kind of work meanscape does: Python calls and float math
    def mean(a: float, b: float) -> float:
        return math.sqrt(a * b) / (a + b)

    s = 0.0
    for i in range(1, 4001):
        x = i * 1e-3
        s += mean(x, x + 1.0)
    return s


class ComputeReference:
    """Times the kernel (median of five runs); keeps every timing."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        times = []
        for _ in range(5):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        t = statistics.median(times)
        self.samples.append(t)
        return t

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Normalization of calls timed between two reference timings."""
        return KERNEL_NOMINAL_S / (0.5 * (before + after))


class ProcessReference:
    """Times a fresh interpreter importing numpy; keeps every timing."""

    def __init__(self, cwd, env: dict | None = None):
        self.cwd, self.env = cwd, env
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.cwd, env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=60)
        t = perf_counter() - t0
        self.samples.append(t)
        return t

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Normalization of a process timed between two reference timings."""
        return PROCESS_NOMINAL_S / (0.5 * (before + after))
