"""Sharded multi-node cache fleet simulation.

The paper's single-cache model answers "which freshness policy?"; this
package asks the production question on top of it: what happens when that
policy runs **per shard across a fleet**, invalidates fan out to every
replica over unreliable channels, nodes fail and rejoin, and hot keys have to
be detected online with sketches instead of exact counters.

The pieces:

* :class:`~repro.cluster.hashring.ConsistentHashRing` — key placement with
  virtual nodes and minimal-movement rebalance,
* :class:`~repro.cluster.replication.ReplicationConfig` — replica count and
  replica-read routing,
* :class:`~repro.sim.node.CacheNode` — one shard: cache + per-shard policy +
  buffer/tracker + channel (the core the single-cache simulator also drives),
* :class:`~repro.cluster.hotkey.HotKeyDetector` — sketch-driven online hot
  key detection that can switch hot keys to a different policy per shard,
* :class:`~repro.cluster.scenarios.Scenario` — deterministic failure /
  flash-crowd / partition scripts,
* :class:`~repro.cluster.cluster.ClusterSimulation` — the routing loop,
* :class:`~repro.cluster.vector.VectorClusterSimulation` — the columnar
  replay engine over a compiled trace (byte-identical, much faster; a fleet
  replays in one process, :func:`~repro.cluster.vector.replay_cluster_parallel`
  is its function-call spelling), and
* :class:`~repro.cluster.results.ClusterResult` — per-node and fleet-level
  aggregation sharing the single-cache result schema.

Run one from Python::

    from repro.cluster import ClusterSimulation, ReplicationConfig, make_scenario
    from repro import PoissonZipfWorkload

    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=20.0, seed=7)
    cluster = ClusterSimulation(
        workload=workload.iter_requests(duration=20.0),
        policy="adaptive",
        num_nodes=8,
        staleness_bound=1.0,
        replication=ReplicationConfig(factor=2, read_policy="round-robin"),
        scenario=make_scenario("node-failure"),
        duration=20.0,
        seed=7,
    )
    result = cluster.run()
    print(result.totals.staleness_violations, result.load_imbalance)

or from the command line via ``python -m repro cluster``.
"""

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.hotkey import HotKeyConfig, HotKeyDetector
from repro.cluster.replication import ReplicaRouter, ReplicationConfig
from repro.cluster.results import ClusterResult, NodeResult
from repro.cluster.scenarios import (
    SCENARIO_FACTORIES,
    ColdL1Scenario,
    CrashRestartScenario,
    FlashCrowdScenario,
    L2OutageScenario,
    NodeFailureScenario,
    PartitionScenario,
    Scenario,
    make_scenario,
)
from repro.cluster.vector import VectorClusterSimulation, replay_cluster_parallel
from repro.sim.node import CacheNode

__all__ = [
    "CacheNode",
    "ClusterResult",
    "ClusterSimulation",
    "ColdL1Scenario",
    "ConsistentHashRing",
    "CrashRestartScenario",
    "FlashCrowdScenario",
    "HotKeyConfig",
    "HotKeyDetector",
    "L2OutageScenario",
    "NodeFailureScenario",
    "NodeResult",
    "PartitionScenario",
    "ReplicaRouter",
    "ReplicationConfig",
    "SCENARIO_FACTORIES",
    "Scenario",
    "VectorClusterSimulation",
    "make_scenario",
    "replay_cluster_parallel",
]
