"""Host-speed calibration, sampled while the benchmark measures.

The boxes this benchmark runs on change speed by 10-20 % from one second to
the next (shared hosts: the same pure-Python loop takes 7 to 14 ms).  Raw wall
and CPU times therefore spread far wider between runs than any bound worth
gating on.  While a repetition runs, an interval timer interrupts the main
thread every ``INTERVAL_S`` and times a small fixed kernel (an interpreter
loop and a few numpy calls) on the thread's CPU clock; the median of the
samples taken during the repetition, over ``REFERENCE_S``, is how much slower
than the reference the machine was during it.  Every reported time is the
measured one divided by that factor: "seconds on a machine whose kernel takes
``REFERENCE_S``", which is this box when quiet.  Pool workers the program
forks inherit no timer, so only the measuring process pays the ~1 % the
samples cost.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Seconds between samples.
INTERVAL_S = 0.04
#: What the kernel takes on the reference machine.
REFERENCE_S = 0.0005

_COLUMN = np.random.default_rng(0).random(4096)


def _kernel() -> int:
    total = 0
    table = {}
    for index in range(3000):
        table[index & 255] = index
        total += index * 3
    np.cumsum(_COLUMN[np.argsort(_COLUMN, kind="stable")])
    return total


class Calibrator:
    """Samples the kernel on a timer; ``factor()`` folds the samples so far."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        # Thread CPU time: a sample taken while pool workers hold both cores
        # must not count the wait for a core as a slow machine.
        start = time.thread_time()
        _kernel()
        self._samples.append(time.thread_time() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def reset(self) -> None:
        """Forget the samples so far: the next ``factor()`` starts here."""
        self._samples.clear()

    def factor(self) -> float:
        """Slowdown against the reference since the last reset or call (1.0 = reference)."""
        if not self._samples:
            self._sample()
        slowdown = statistics.median(self._samples) / REFERENCE_S
        self._samples.clear()
        return slowdown
