"""Per-key additivity: an oracle that does not come from comparing engines.

An unbounded single cache without concurrency keeps no state across keys:
each key's entry, tracker row, buffered write, E[W] counters and poll timer
see that key's requests only, and the flush schedule (``T``, ``2T``, ...)
is the same whatever the trace holds.  So every integer counter of a run
equals the sum of the same counter over the runs of its one-key
sub-traces — the same requests at the same times, every other key's
removed.  A state leak across keys, or across the cuts of a columnar
window, breaks the sum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import CompiledTrace, compile_workload
from repro.workload.poisson import PoissonZipfWorkload

DURATION = 10.0
TRACE = compile_workload(PoissonZipfWorkload(num_keys=10, rate_per_key=12.0, seed=3), DURATION)
POLICIES = ["ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"]
#: The float columns: sums of per-request and per-message charges.
COSTS = ("freshness_cost", "staleness_cost", "useful_work")


def one_key(trace: CompiledTrace, key: int) -> CompiledTrace:
    """``trace``'s requests of ``key`` alone, at their own times."""
    mine = trace.key_ids == key
    return CompiledTrace(
        times=trace.times[mine],
        key_ids=trace.key_ids[mine],
        is_read=trace.is_read[mine],
        key_sizes=trace.key_sizes[mine],
        value_sizes=trace.value_sizes[mine],
        key_names=trace.key_names,
    )


def counters(engine: str, trace: CompiledTrace, policy: str, bound: float) -> dict:
    """A run's row, with its policy's decision counts."""
    config = dict(policy=make_policy(policy), staleness_bound=bound, duration=DURATION)
    if engine == "scalar":
        simulation = Simulation(trace.iter_requests(), **config)
    else:
        simulation = VectorSimulation(trace, **config)
    row = simulation.run().as_dict()
    assert engine == "scalar" or simulation.used_vector_path
    row["decisions"] = sum(
        getattr(simulation.policy, name, 0)
        for name in ("decisions_update", "decisions_invalidate")
    )
    return row


@pytest.mark.parametrize("bound", [0.1, 1.0])
@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("policy", POLICIES)
def test_every_counter_is_the_sum_over_the_one_key_traces(
    policy: str, engine: str, bound: float
) -> None:
    """Integer counters add up exactly.  A cost column is a running float sum
    of ``n`` positive charges (reads, misses, messages, polls), so each run's
    column is within ``(n - 1) * eps`` of its exact sum, relative to it, and
    adding the sub-runs' columns costs ``(keys - 1) * eps`` more: the whole
    and the sum of the parts agree within ``2 * n * eps`` of the column,
    with ``n`` bounded by the run's requests, messages and polls."""
    whole = counters(engine, TRACE, policy, bound)
    parts = [
        counters(engine, one_key(TRACE, key), policy, bound)
        for key in np.unique(TRACE.key_ids).tolist()
    ]
    integers = [name for name, value in whole.items() if type(value) is int]
    assert {"reads", "hits", "stale_misses", "cold_misses", "staleness_violations",
            "invalidates_sent", "updates_sent", "suppressed_invalidates", "updates_wasted",
            "decisions", "polls"} <= set(integers)
    assert {name: whole[name] for name in integers} == {
        name: sum(part[name] for part in parts) for name in integers
    }
    assert whole["reads"] and whole["stale_misses"] + whole["cold_misses"]
    if policy in ("invalidate", "update", "adaptive"):
        assert whole["invalidates_sent"] + whole["updates_sent"]
    charges = (
        whole["reads"] + whole["writes"] + whole["invalidates_sent"] + whole["updates_sent"]
        + whole["polls"]
    )
    tolerance = 2 * charges * np.finfo(np.float64).eps
    for name in COSTS:
        total = sum(part[name] for part in parts)
        assert abs(whole[name] - total) <= tolerance * max(abs(total), 1.0), name
