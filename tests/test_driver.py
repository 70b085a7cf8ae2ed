"""The one replay driver's shared prelude: one bound rule, asked eagerly.

A staleness bound or a horizon that is not positive and finite is a
``ConfigurationError`` at construction, on every entry point: the four
engines, shard-parallel replay and an experiment grid.  Before the shared
prelude a NaN bound replayed silently on the single cache and on a grid (one
flush, at finalize), crashed the fleet with an ``AttributeError`` mid-run,
and an ``inf`` bound ran everywhere.

The flush schedule is the driver's too: a run whose nodes have no flush work
schedules no flush.
"""

import json

import pytest

from repro.cluster import (
    ClusterSimulation,
    HotKeyConfig,
    VectorClusterSimulation,
    replay_cluster_parallel,
)
from repro.errors import ConfigurationError
from repro.experiments.registry import make_policy
from repro.experiments.spec import ExperimentSpec
from repro.sim.node import CacheNode
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.store.snapshot import StoreConfig
from repro.tier import TierConfig
from repro.workload.compiled import compile_workload
from repro.workload.poisson import PoissonZipfWorkload

BAD = [0.0, -1.0, float("nan"), float("inf")]

TRACE = compile_workload(PoissonZipfWorkload(num_keys=20, rate_per_key=10.0, seed=1), 2.0)

#: Every way to start a replay, given a bound, a horizon and a store.
ENTRY_POINTS = {
    "Simulation": lambda **run: Simulation(
        TRACE.iter_requests(), policy=make_policy("invalidate"), **run
    ),
    "VectorSimulation": lambda **run: VectorSimulation(
        TRACE, policy=make_policy("invalidate"), **run
    ),
    "ClusterSimulation": lambda **run: ClusterSimulation(
        TRACE.iter_requests(), policy="invalidate", num_nodes=2, **run
    ),
    "VectorClusterSimulation": lambda **run: VectorClusterSimulation(
        TRACE, policy="invalidate", num_nodes=2, **run
    ),
    "replay_cluster_parallel": lambda **run: replay_cluster_parallel(
        TRACE, workers=2, policy="invalidate", num_nodes=2, **run
    ),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_engines_refuse_a_bound_or_horizon_that_is_not_positive_and_finite(
    tmp_path, entry: str, value: float
) -> None:
    """Refused before the first side effect: the store directory never appears."""
    root = tmp_path / "store"
    for name, run in (
        ("staleness_bound", dict(staleness_bound=value, duration=2.0)),
        ("duration", dict(staleness_bound=0.5, duration=value)),
    ):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a positive finite number"):
            ENTRY_POINTS[entry](store=StoreConfig(str(root)), **run)
        assert not root.exists()


@pytest.mark.parametrize("value", BAD, ids=repr)
def test_a_spec_refuses_a_bound_or_duration_that_is_not_positive_and_finite(value: float) -> None:
    """Asked of every entry when the spec is built, not when its cell runs."""
    grid = dict(name="bounds", policies=["invalidate"], workloads=["poisson"])
    with pytest.raises(ConfigurationError, match="^staleness_bounds entries must be"):
        ExperimentSpec(staleness_bounds=[0.5, value], **grid)
    with pytest.raises(ConfigurationError, match="^duration must be"):
        ExperimentSpec(staleness_bounds=[0.5], duration=value, **grid)


def _count_flushes(monkeypatch) -> list:
    flushes = []
    flush = CacheNode.flush

    def counting(node, flush_time):
        flushes.append(flush_time)
        flush(node, flush_time)

    monkeypatch.setattr(CacheNode, "flush", counting)
    return flushes


@pytest.mark.parametrize("policy", ["ttl-expiry", "ttl-polling"])
def test_a_fleet_without_flush_work_takes_no_flush(monkeypatch, policy: str) -> None:
    """A TTL fleet used to step through every no-op flush of the run: at
    ``--bounds 1e-12`` that was 10^12 of them, a run that never ended."""
    flushes = _count_flushes(monkeypatch)
    fleet = dict(policy=policy, num_nodes=2, staleness_bound=0.01, duration=2.0)
    scalar = ClusterSimulation(TRACE.iter_requests(), **fleet).run()
    vector = VectorClusterSimulation(TRACE, **fleet)
    rows = [json.dumps(result.as_dict(), sort_keys=True) for result in (scalar, vector.run())]
    assert vector.used_vector_path
    assert flushes == []
    assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "policy, config",
    [
        ("invalidate", {}),
        ("ttl-expiry", dict(tier=TierConfig(l1_capacity=8))),
        ("ttl-expiry", dict(hotkey=HotKeyConfig(hot_policy="update"))),
    ],
    ids=["reacts-to-writes", "l1", "detector"],
)
def test_a_fleet_with_flush_work_flushes_every_interval(
    monkeypatch, policy: str, config: dict
) -> None:
    flushes = _count_flushes(monkeypatch)
    ClusterSimulation(
        TRACE.iter_requests(), policy=policy, num_nodes=2, staleness_bound=0.5,
        duration=2.0, **config,
    ).run()
    assert sorted(set(flushes)) == [0.5, 1.0, 1.5, 2.0]
