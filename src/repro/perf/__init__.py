"""Work counts: how much a replay's components do, not how fast.

The ``repro.perf`` package complements ``benchmarks/run.py`` +
``benchmarks/compare.py`` (calibrated throughput, per layer with
``--trace 1``, and the parent-vs-change gate) with exact counts driven by
``python -m repro perf`` — calls per request, kernel calls per cut, objects
built per flush — and a cProfile hook, so a layer that starts doing more
work shows up as a number that repeats exactly.
"""

from repro.perf.perf import MICROBENCHES, profile_call, run_perf

__all__ = ["MICROBENCHES", "profile_call", "run_perf"]
