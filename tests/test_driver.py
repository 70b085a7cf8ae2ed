"""The one replay driver's shared prelude: one bound rule, asked eagerly.

A staleness bound or a horizon that is not positive and finite is a
``ConfigurationError`` at construction, on every entry point: the four
engines, shard-parallel replay and an experiment grid.  Before the shared
prelude a NaN bound replayed silently on the single cache and on a grid (one
flush, at finalize), crashed the fleet with an ``AttributeError`` mid-run,
and an ``inf`` bound ran everywhere.
"""

import pytest

from repro.cluster import ClusterSimulation, VectorClusterSimulation, replay_cluster_parallel
from repro.errors import ConfigurationError
from repro.experiments.registry import make_policy
from repro.experiments.spec import ExperimentSpec
from repro.sim.simulation import Simulation
from repro.sim.vector import VectorSimulation
from repro.store.snapshot import StoreConfig
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
