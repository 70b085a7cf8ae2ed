"""Reproduction of "Revisiting Cache Freshness for Emerging Real-Time Applications".

The package is organised around the pipeline the paper's evaluation uses:

``workload`` -> ``sim`` (driving ``cache`` + ``backend``) -> ``core`` policies
-> ``experiments``, the orchestration layer that expands declarative
policy x workload x staleness-bound grids, runs them across worker processes,
and exports the rows that regenerate the paper's figures and tables — with
the closed-form counterpart in ``model``, the ``E[W]`` sketches in
``sketch``, the sharded multi-node fleet simulation (consistent hashing,
replicated invalidation, failure scenarios, hot-key detection) in
``cluster``, the two-level L1/L2
cache hierarchy (admission, promotion, write-through/write-back, degraded
serving) in ``tier``, the durable persistence layer (write-ahead log,
snapshots, crash recovery, warm node rejoin) in ``store``, and time-resolved
telemetry (windowed series, request spans, percentile histograms,
JSONL/CSV/Prometheus exporters, and post-hoc analysis: run diffing, anomaly
detection, SLO gating, and HTML reports) in ``obs``.

The pipeline streams end-to-end: workloads yield requests lazily via
``iter_requests`` and the simulator consumes the stream without copying it,
so arbitrarily long traces replay in constant memory.  The most common entry
points are re-exported here so that downstream users can write::

    from repro import Simulation, PoissonZipfWorkload, AdaptivePolicy, CostModel

    workload = PoissonZipfWorkload(num_keys=100, rate_per_key=10.0, seed=1)
    sim = Simulation(
        workload=workload.iter_requests(duration=50.0),
        policy=AdaptivePolicy(),
        staleness_bound=1.0,
        costs=CostModel(),
    )
    result = sim.run()
    print(result.normalized_freshness_cost, result.normalized_staleness_cost)

Single runs, grids and the component microbenchmarks are also available from
the command line via ``python -m repro`` (``run``, ``sweep``, ``cluster``,
``tier``, ``perf``, ``store`` and ``obs`` subcommands); end-to-end replay
throughput is measured by ``benchmarks/run.py``.
"""

from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.policy import Action, FreshnessPolicy
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.optimal import OptimalPolicy
from repro.cache.cache import Cache
from repro.backend.datastore import DataStore
from repro.sim.simulation import Simulation
from repro.sim.results import SimulationResult
from repro.workload.base import OpType, Request
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.meta import MetaWorkload
from repro.workload.twitter import TwitterWorkload
from repro.sketch.exact import ExactEWTracker
from repro.sketch.countmin import CountMinEWSketch, CountMinSketch
from repro.sketch.topk import TopKEWSketch
from repro.sketch.memory import estimator_memory_bytes, storage_saving
from repro.cluster.cluster import ClusterSimulation
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.hotkey import HotKeyConfig, HotKeyDetector
from repro.cluster.replication import ReplicationConfig
from repro.cluster.results import ClusterResult
from repro.cluster.scenarios import make_scenario
from repro.experiments.spec import ChannelSpec, ExperimentSpec, ScenarioSpec, WorkloadSpec
from repro.experiments.runner import run_experiment
from repro.obs.analyze import detect_anomalies, diff_payloads
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ObsConfig, ObsRecorder
from repro.obs.report import render_report
from repro.obs.slo import evaluate_slo
from repro.resilience import AutoscaleScenario, ChaosPlan, ChaosSpec
from repro.store.wal import Journal, WriteAheadLog
from repro.store.snapshot import Snapshot, SnapshotManager, StoreConfig
from repro.store.recovery import RecoveryReport, recover_datastore, warm_state
from repro.store.runtime import StoreRuntime
from repro.tier.config import TierConfig
from repro.tier.l1 import L1Tier
from repro.tier.admission import AdmissionPolicy, make_admission

__version__ = "4.0.0"

__all__ = [
    "Action",
    "AdaptivePolicy",
    "AdmissionPolicy",
    "AutoscaleScenario",
    "ChannelSpec",
    "ChaosPlan",
    "ChaosSpec",
    "ClusterResult",
    "ClusterSimulation",
    "ConsistentHashRing",
    "ExperimentSpec",
    "HotKeyConfig",
    "HotKeyDetector",
    "Journal",
    "L1Tier",
    "MetricsRegistry",
    "ObsConfig",
    "ObsRecorder",
    "RecoveryReport",
    "ReplicationConfig",
    "ScenarioSpec",
    "Snapshot",
    "SnapshotManager",
    "StoreConfig",
    "StoreRuntime",
    "TierConfig",
    "WorkloadSpec",
    "WriteAheadLog",
    "detect_anomalies",
    "diff_payloads",
    "estimator_memory_bytes",
    "evaluate_slo",
    "make_admission",
    "make_scenario",
    "recover_datastore",
    "render_report",
    "run_experiment",
    "storage_saving",
    "warm_state",
    "AlwaysInvalidatePolicy",
    "AlwaysUpdatePolicy",
    "Cache",
    "CacheStateAdaptivePolicy",
    "CostBreakdown",
    "CostModel",
    "CountMinEWSketch",
    "CountMinSketch",
    "DataStore",
    "ExactEWTracker",
    "FreshnessPolicy",
    "MetaWorkload",
    "OpType",
    "OptimalPolicy",
    "PoissonMixWorkload",
    "PoissonZipfWorkload",
    "Request",
    "Simulation",
    "SimulationResult",
    "TTLExpiryPolicy",
    "TTLPollingPolicy",
    "TopKEWSketch",
    "TwitterWorkload",
]
