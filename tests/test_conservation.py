"""Conservation laws of a replay's counters, on both engines.

Whatever a policy does, every read is a hit, a stale miss or a cold miss
and is one cache lookup; every update sent is applied or ignored, and on a
single tier an ignored update is a wasted one; an invalidate marks at most
one entry invalid.  These hold per host and for the fleet's totals, for the
single cache and a 3-node fleet (RF 2, round-robin reads), under every
write-reactive policy, at a tight and a loose bound, on the scalar loop and
the columnar engine alike.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSimulation, ReplicationConfig, VectorClusterSimulation
from repro.experiments.registry import make_policy
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

POLICIES = ("invalidate", "update", "adaptive", "adaptive+cs")
BOUNDS = (0.01, 0.5)
DURATION = 4.0

WORKLOAD = PoissonZipfWorkload(num_keys=200, rate_per_key=5.0, read_ratio=0.8, seed=13)
TRACE = compile_workload(WORKLOAD, DURATION)


def assert_conserved(result) -> None:
    """The laws on one host's result (or a fleet's totals)."""
    stats = result.cache_stats
    assert result.reads == result.hits + result.stale_misses + result.cold_misses
    assert stats["lookups"] == result.reads
    assert result.updates_sent == stats["updates_applied"] + stats["updates_ignored"]
    assert result.updates_wasted == stats["updates_ignored"]
    assert result.invalidates_sent >= stats["invalidations"]


def replay(shape: str, engine: str, policy: str, bound: float):
    config = dict(staleness_bound=bound, duration=DURATION, workload_name=WORKLOAD.name)
    if shape == "single":
        if engine == "vector":
            simulation = VectorSimulation(TRACE, policy=make_policy(policy), **config)
        else:
            simulation = Simulation(TRACE.iter_requests(), policy=make_policy(policy), **config)
    else:
        config.update(
            policy=policy,
            num_nodes=3,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        )
        if engine == "vector":
            simulation = VectorClusterSimulation(TRACE, **config)
        else:
            simulation = ClusterSimulation(TRACE.iter_requests(), **config)
    result = simulation.run()
    if engine == "vector":
        assert simulation.used_vector_path
    return result


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_single_cache_conserves_its_counters(policy: str, bound: float, engine: str) -> None:
    result = replay("single", engine, policy, bound)
    assert result.reads > 0 and result.writes > 0
    assert_conserved(result)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_fleet_conserves_its_counters_per_node_and_in_total(
    policy: str, bound: float, engine: str
) -> None:
    result = replay("fleet", engine, policy, bound)
    assert len(result.nodes) == 3
    for node in result.nodes:
        assert node.reads > 0
        assert_conserved(node)
    assert_conserved(result.totals)
    assert result.totals.reads == sum(node.reads for node in result.nodes)
