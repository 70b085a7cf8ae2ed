"""The traced run: per-layer clocks and counts, taken from outside the program.

A traced child alternates an untraced and a traced repetition of the same
work (their gap is the tracing overhead), then runs the workload's probes:
calls into one layer's public functions that a repetition cannot time apart
(overhead-by-difference replays, micro-benchmarks over the workload's key
sequence).  A layer is a package of ``src/repro``; a layer's ``*_s`` metric
is the self time of its spans in one repetition, median over repetitions.
Times are calibrated like the end-to-end ones (see ``calibrate.py``); the
``trace-<workload>.jsonl`` file keeps the raw clock.  A metric a workload
does not exercise reads 0.
"""

from __future__ import annotations

import glob
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

import repro.experiments.runner as runner
from repro.cache.cache import Cache
from repro.cluster import ConsistentHashRing, VectorClusterSimulation
from repro.model import (
    InvalidationModel,
    KeyParameters,
    TTLExpiryModel,
    TTLPollingModel,
    UpdateModel,
    aggregate_normalized_costs,
)
from repro.obs.export import write_run
from repro.sketch.countmin import CountMinSketch
from repro.store.format import KIND_WRITE
from repro.store.recovery import recover_datastore
from repro.store.wal import WriteAheadLog
from repro.workload.compiled import compile_workload

import workloads
from trace import Tracer

#: Untraced/traced repetition pairs made even when the time share is spent.
MIN_PAIRS = 3
#: Share of ``--seconds`` spent on the pairs; the probes take the rest.
PAIRS_SHARE = 0.6
#: Samples of each overhead-by-difference replay.
PROBE_REPS = 3

_MODELS = {
    "ttl-expiry": TTLExpiryModel,
    "ttl-polling": TTLPollingModel,
    "invalidate": InvalidationModel,
    "update": UpdateModel,
}


class Metrics(dict):
    """Every per-layer metric of ``BENCHMARK.json``, 0 until measured."""

    def __init__(self, names: List[str]) -> None:
        super().__init__((name, 0.0) for name in names)

    def __setitem__(self, name: str, value: float) -> None:
        if name not in self:
            raise KeyError(f"{name} is not a per_layer metric of BENCHMARK.json")
        super().__setitem__(name, float(value))

    def set_spans(self, spans: Dict[str, float]) -> None:
        """``sim.vector_replay.update`` feeds ``sim.vector_replay_s.update``."""
        for name, seconds in spans.items():
            layer, _, rest = name.partition(".")
            call, dot, label = rest.partition(".")
            metric = f"{layer}.{call}_s{dot}{label}"
            if metric in self:
                self[metric] = seconds


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Probe:
    """Times calls into one layer, calibrated like the repetitions are."""

    def __init__(self, tracer: Tracer, calibrator, metrics: Metrics, spans: Dict[str, float]):
        self.tracer = tracer
        self.calibrator = calibrator
        self.metrics = metrics
        #: Median self time per span name over the traced repetitions.
        self.spans = spans

    def spans_of(self, name: str, call: Callable[[], Any]) -> Dict[str, float]:
        """Calibrated self time per span name that ``call()`` records under ``name``."""
        first = len(self.tracer.spans)
        self.calibrator.reset()
        with self.tracer.span(name):
            call()
        slowdown = self.calibrator.factor()
        totals: Dict[str, float] = defaultdict(float)
        for (_, span_name), seconds in self.tracer.self_times(first).items():
            totals[span_name] += seconds / slowdown
        return totals

    def clock(self, name: str, call: Callable[[], Any]) -> float:
        """Calibrated seconds of one ``call()``."""
        return sum(self.spans_of(name, call).values())

    def median(self, name: str, call: Callable[[], Any]) -> float:
        return statistics.median(self.clock(name, call) for _ in range(PROBE_REPS))


# --------------------------------------------------------------------------- #
# Counts read off the result rows
# --------------------------------------------------------------------------- #
def row_counts(workload, rep: workloads.Rep, metrics: Metrics) -> None:
    rows = list(rep.rows.values())

    def total(field: str) -> float:
        return sum(row.get(field, 0) for row in rows)

    sent = total("invalidates_sent") + total("updates_sent")
    metrics["cache.hit_ratio"] = ratio(total("hits"), total("reads"))
    metrics["backend.messages_sent"] = sent
    metrics["backend.messages_dropped"] = total("messages_dropped")
    metrics["backend.fanout_per_write"] = ratio(sent, total("writes"))
    metrics["cluster.rebalances"] = max(row.get("rebalances", 0) for row in rows)
    metrics["cluster.load_imbalance"] = max(row.get("load_imbalance", 0.0) for row in rows)
    metrics["tier.l1_hit_share"] = ratio(total("l1_hits"), total("hits"))
    metrics["concurrency.backend_fetches"] = total("backend_fetches")
    metrics["concurrency.coalesced_share"] = ratio(
        total("coalesced_reads"), total("coalesced_reads") + total("backend_fetches")
    )
    payloads = [row["obs"] for row in rows if row.get("obs")]
    metrics["obs.windows"] = sum(len(obs["windows"]["rows"]) for obs in payloads)
    metrics["obs.payload_bytes"] = sum(
        len(workloads.canonical_json({"obs": obs})) for obs in payloads
    )
    # Every snapshot compacts the log, so the file on disk is all but empty:
    # the bytes written are the store's own counter.
    metrics["store.wal_bytes"] = sum(
        row["store"]["wal_bytes_written"] for row in rows if row.get("store")
    )
    if isinstance(workload, (workloads.SteadyVector, workloads.SteadyScalar)):
        cost = {policy: row["normalized_freshness_cost"] for policy, row in rep.rows.items()}
        metrics["sim.adaptive_cost_ratio"] = ratio(
            cost["adaptive"], min(cost["invalidate"], cost["update"])
        )
        source = workload.workload
        keys = [
            KeyParameters(profile.rate, profile.read_ratio, source.key_size, source.value_size)
            for profile in source.key_profiles()
        ]
        errors = []
        for policy, model in _MODELS.items():
            modelled = aggregate_normalized_costs(
                model(), keys, workload.bound, workload.duration
            ).freshness_cost
            errors.append(abs(rep.rows[policy]["freshness_cost"] - modelled) / modelled)
        metrics["sim.freshness_model_err"] = max(errors)


# --------------------------------------------------------------------------- #
# Probes, one per workload
# --------------------------------------------------------------------------- #
def probe_cache(probe: Probe, keys: List[str]) -> None:
    cache = Cache(capacity=4096)
    fills = 0

    def lookup_fill():
        nonlocal fills
        for key in keys:
            if cache.lookup(key, 0.0)[0] is None:
                cache.fill(key, 1, 0.0)
                fills += 1

    seconds = probe.clock("cache.lookup_fill", lookup_fill)
    probe.metrics["cache.ops_per_s"] = (len(keys) + fills) / seconds


def probe_steady_scalar(workload, probe: Probe) -> None:
    requests = workload.workload.iter_requests(workload.duration)
    probe_cache(probe, [request.key for request in requests])


def probe_fleet_parallel(workload, probe: Probe) -> None:
    trace = compile_workload(workload.workload, workload.duration)
    planners = [
        VectorClusterSimulation(trace, **workload.fleet(policy, workload.duration))
        for policy in workloads.POLICIES
    ]
    metrics = probe.metrics
    metrics["sim.vector_path_share"] = ratio(
        sum(planner.vector_eligible() for planner in planners), len(planners)
    )
    metrics["cluster.plan_s"] = probe.clock(
        "cluster.plan", lambda: [planner.build_plan() for planner in planners]
    )
    serial = probe.spans_of("cluster.serial", lambda: workload.rep(probe.tracer, workers=1))
    metrics["cluster.pool_overhead_s"] = (
        probe.spans["cluster.shard_replay"] - serial["cluster.shard_replay"] / workloads.WORKERS
    )


def probe_fleet_scenario(workload, probe: Probe) -> None:
    trace = compile_workload(workload.workload, workload.duration)
    metrics = probe.metrics
    metrics["tier.overhead_s"] = probe.spans["cluster.scalar_replay"] - probe.median(
        "tier.without",
        lambda: [workload.replay(trace, policy, None) for policy in workload.policies],
    )
    keys = [trace.key_names[key_id] for key_id in trace.key_ids.tolist()]
    ring = ConsistentHashRing()
    for index in range(8):
        ring.add_node(f"node-{index:03d}")
    metrics["cluster.route_per_s"] = len(keys) / probe.clock(
        "cluster.route", lambda: [ring.route(key, 2) for key in keys]
    )
    probe_cache(probe, keys)
    metrics["sketch.add_per_s"] = len(keys) / probe.clock(
        "sketch.add_many", lambda: CountMinSketch().add_many(keys)
    )


def probe_stateful_writes(workload, probe: Probe) -> None:
    requests = list(workload.workload.iter_requests(workload.duration))
    metrics = probe.metrics
    for layer in ("concurrency", "obs", "store"):

        def without(layer=layer):
            workload.prepare()
            workload.replay(requests, **{layer: False})

        metrics[f"{layer}.overhead_s"] = probe.spans["cluster.scalar_replay"] - probe.median(
            f"{layer}.without", without
        )
    workload.prepare()
    result = workload.replay(requests)
    metrics["obs.export_s"] = probe.clock(
        "obs.export", lambda: write_run(result.obs, os.path.join(workload.scratch, "obs"))
    )
    root = workload.store_root
    metrics["store.snapshot_bytes"] = sum(
        os.path.getsize(path) for path in glob.glob(os.path.join(root, "snapshot-*.json"))
    )
    metrics["store.recover_s"] = probe.clock("store.recover", lambda: recover_datastore(root))
    writes = [request for request in requests if not request.is_read]
    wal = WriteAheadLog(os.path.join(workload.scratch, "probe-wal.log"))

    def append():
        for request in writes:
            wal.append(
                KIND_WRITE, {"key": request.key, "t": request.time, "vs": request.value_size}
            )
        wal.flush()

    try:
        metrics["store.wal_append_per_s"] = len(writes) / probe.clock("store.wal_append", append)
        metrics["store.wal_replay_per_s"] = len(writes) / probe.clock(
            "store.wal_replay", lambda: sum(1 for _ in wal.replay())
        )
    finally:
        wal.close()


def probe_sweep_grid(workload, probe: Probe) -> None:
    spec = workload.spec(workload.duration)
    metrics, tracer = probe.metrics, probe.tracer
    cells: List[Any] = []
    metrics["experiments.expand_s"] = probe.clock(
        "experiments.expand", lambda: cells.extend(spec.expand())
    )
    # The rows of a sweep do not say which path replayed them, and a cell's
    # compile and replay happen inside run_cell: for this serial pass only,
    # the names run_cell looks up are swapped for span-recording ones.
    vector_used: List[bool] = []

    def traced_engine(engine):
        class Traced(engine):
            def run(self, *args, **kwargs):
                policy = getattr(self, "policy_name", None) or self.policy.name
                with tracer.span(f"sim.vector_replay.{policy}"):
                    result = super().run(*args, **kwargs)
                vector_used.append(self.used_vector_path)
                return result

        return Traced

    def traced_compile(*args, **kwargs):
        with tracer.span("workload.compile"):
            return compile_workload(*args, **kwargs)

    def serial_pass():
        for cell in cells:
            with tracer.span("experiments.cell"):
                runner.run_cell(cell)

    originals = {
        name: getattr(runner, name)
        for name in ("compile_workload", "VectorSimulation", "VectorClusterSimulation")
    }
    runner.compile_workload = traced_compile
    runner.VectorSimulation = traced_engine(originals["VectorSimulation"])
    runner.VectorClusterSimulation = traced_engine(originals["VectorClusterSimulation"])
    first = len(tracer.spans)
    try:
        serial = probe.spans_of("experiments.serial", serial_pass)
    finally:
        for name, original in originals.items():
            setattr(runner, name, original)
    raw_cells = [
        span["end"] - span["start"]
        for span in tracer.spans[first:]
        if span["name"] == "experiments.cell"
    ]
    cells_total = sum(serial.values()) - serial["experiments.serial"]
    metrics.set_spans(
        {name: seconds for name, seconds in serial.items() if not name.startswith("experiments.")}
    )
    metrics["experiments.cell_s_p50"] = (
        statistics.median(raw_cells) * cells_total / sum(raw_cells)
    )
    metrics["experiments.pool_overhead_s"] = (
        probe.spans["experiments.run"] * workloads.WORKERS - cells_total
    )
    metrics["sim.vector_path_share"] = ratio(sum(vector_used), len(vector_used))


PROBES = {
    "steady-scalar": probe_steady_scalar,
    "fleet-parallel": probe_fleet_parallel,
    "fleet-scenario": probe_fleet_scenario,
    "stateful-writes": probe_stateful_writes,
    "sweep-grid": probe_sweep_grid,
}


# --------------------------------------------------------------------------- #
# The traced child
# --------------------------------------------------------------------------- #
def child_traced(
    workload, calibrator, names: List[str], seconds: float, out: str, verify: bool
) -> Dict[str, Any]:
    """Measure ``workload``'s per-layer metrics, the ``names`` of ``BENCHMARK.json``."""
    tracer = Tracer()
    metrics = Metrics(names)
    workload.prepare()
    warm = workload.rep()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    per_rep: Dict[str, List[float]] = defaultdict(list)
    failed = 0
    deadline = time.perf_counter() + PAIRS_SHARE * seconds
    while len(traced_walls) < MIN_PAIRS or time.perf_counter() < deadline:
        workload.prepare()
        calibrator.reset()
        start = time.perf_counter()
        plain = workload.rep()
        plain_walls.append((time.perf_counter() - start) / calibrator.factor())
        workload.prepare()
        tracer.rep = len(traced_walls)
        first = len(tracer.spans)
        calibrator.reset()
        with tracer.span("rep") as root:
            rep = workload.rep(tracer)
        slowdown = calibrator.factor()
        traced_walls.append((root["end"] - root["start"]) / slowdown)
        for (_, name), own in tracer.self_times(first).items():
            per_rep[name].append(own / slowdown)
        for name, value in rep.counts.items():
            per_rep[name].append(value / slowdown if name.endswith("_s") else value)
        failed += plain.mismatches(warm) + rep.mismatches(warm)
    tracer.rep = -1

    spans = {name: statistics.median(samples) for name, samples in per_rep.items()}
    metrics.set_spans(spans)
    for name in rep.counts:
        metrics[name] = spans[name]
    metrics["layers_sum_share"] = statistics.median(
        1.0 - own / wall for own, wall in zip(per_rep["rep"], traced_walls)
    )
    plain_wall = statistics.median(plain_walls)
    metrics["trace.overhead_share"] = (statistics.median(traced_walls) - plain_wall) / plain_wall
    if "workload.compile" in spans:
        metrics["workload.compile_req_per_s"] = (
            rep.requests / len(rep.rows) / spans["workload.compile"]
        )
    if "workload.generate" in spans:
        metrics["workload.generate_req_per_s"] = rep.requests / spans["workload.generate"]
    metrics["sim.vector_path_share"] = ratio(sum(rep.vector_used), len(rep.vector_used))
    row_counts(workload, rep, metrics)
    if workload.name in PROBES:
        PROBES[workload.name](workload, Probe(tracer, calibrator, metrics, spans))
    tracer.dump(os.path.join(out, f"trace-{workload.name}.jsonl"))
    return {
        "per_layer": dict(metrics),
        "digests": warm.digests,
        "attempted": len(warm.digests) * (1 + 2 * len(traced_walls)),
        "failed": failed,
        "problems": workload.verify(rep) if verify else [],
    }
