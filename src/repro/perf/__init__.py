"""Performance measurement: microbenchmarks, timers, and profile hooks.

The ``repro.perf`` package makes replay throughput a first-class, observable
metric.  It complements ``benchmarks/run.py`` + ``benchmarks/compare.py``
(calibrated end-to-end throughput, and the parent-vs-change gate) with
per-component microbenchmarks driven by ``python -m repro perf``, so a
regression is attributable to the layer that caused it.
"""

from repro.perf.perf import (
    MICROBENCHES,
    Timer,
    profile_call,
    run_perf,
    time_callable,
)

__all__ = [
    "MICROBENCHES",
    "Timer",
    "profile_call",
    "run_perf",
    "time_callable",
]
