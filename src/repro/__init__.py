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
points are exported here so that downstream users can write::

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

Every package of it is a façade of the same shape (:func:`_facade`): one
table names each export once, by the module that defines it, and a name is
imported on first use, so ``import repro`` imports no other module of the
package and a run loads only the modules it uses.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "4.0.0"


def _facade(
    namespace: Dict[str, Any], table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of a module whose
    ``table`` maps each defining module to the names it exports from there.
    A name is imported from its module on first access (PEP 562) and kept
    in the ``namespace`` of the module, so every later access is a plain
    attribute read."""
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(owners[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owners})

    return list(owners), __getattr__, __dir__


__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.core.cost_model": ("CostBreakdown", "CostModel"),
    "repro.core.policy": ("Action", "FreshnessPolicy"),
    "repro.core.ttl": ("TTLExpiryPolicy", "TTLPollingPolicy"),
    "repro.core.write_reactive": ("AlwaysInvalidatePolicy", "AlwaysUpdatePolicy"),
    "repro.core.adaptive": ("AdaptivePolicy", "CacheStateAdaptivePolicy"),
    "repro.core.optimal": ("OptimalPolicy",),
    "repro.cache.cache": ("Cache",),
    "repro.backend.datastore": ("DataStore",),
    "repro.sim.simulation": ("Simulation",),
    "repro.sim.results": ("SimulationResult",),
    "repro.workload.base": ("OpType", "Request"),
    "repro.workload.poisson": ("PoissonZipfWorkload",),
    "repro.workload.mixed": ("PoissonMixWorkload",),
    "repro.workload.meta": ("MetaWorkload",),
    "repro.workload.twitter": ("TwitterWorkload",),
    "repro.sketch.exact": ("ExactEWTracker",),
    "repro.sketch.countmin": ("CountMinEWSketch", "CountMinSketch"),
    "repro.sketch.topk": ("TopKEWSketch",),
    "repro.sketch.memory": ("estimator_memory_bytes", "storage_saving"),
    "repro.cluster.cluster": ("ClusterSimulation",),
    "repro.cluster.hashring": ("ConsistentHashRing",),
    "repro.cluster.hotkey": ("HotKeyConfig", "HotKeyDetector"),
    "repro.cluster.replication": ("ReplicationConfig",),
    "repro.cluster.results": ("ClusterResult",),
    "repro.cluster.scenarios": ("make_scenario",),
    "repro.experiments.spec": ("ChannelSpec", "ExperimentSpec", "ScenarioSpec", "WorkloadSpec"),
    "repro.experiments.runner": ("run_experiment",),
    "repro.obs.analyze": ("detect_anomalies", "diff_payloads"),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.recorder": ("ObsConfig", "ObsRecorder"),
    "repro.obs.report": ("render_report",),
    "repro.obs.slo": ("evaluate_slo",),
    "repro.resilience.autoscale": ("AutoscaleScenario",),
    "repro.resilience.chaos": ("ChaosPlan", "ChaosSpec"),
    "repro.store.wal": ("Journal", "WriteAheadLog"),
    "repro.store.snapshot": ("Snapshot", "SnapshotManager", "StoreConfig"),
    "repro.store.recovery": ("RecoveryReport", "recover_datastore", "warm_state"),
    "repro.store.runtime": ("StoreRuntime",),
    "repro.tier.config": ("TierConfig",),
    "repro.tier.l1": ("L1Tier",),
    "repro.tier.admission": ("AdmissionPolicy", "make_admission"),
})
