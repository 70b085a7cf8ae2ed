"""Work counts for the replay hot paths.

``benchmarks/run.py`` measures how fast a replay goes (calibrated,
digest-checked throughput, per layer with ``--trace 1``, and the gate); this
module measures how much *work* its components do — calls per request,
kernel calls per cut, objects built per flush, bytes per request of the
trace index and per WAL record — so a change that makes a layer do more is
visible before it drowns in a noisy clock.

Every row is a count: the same numbers on every run of one interpreter.

Two building blocks:

* :data:`MICROBENCHES` — the registry of named count rows driven by
  :func:`run_perf` and the ``perf`` CLI subcommand.
* :func:`profile_call` — a cProfile hook that returns the profile table as
  text, for ``python -m repro perf --profile <name>``.
"""

from __future__ import annotations

import cProfile
import gc
import io
import platform
import pstats
import sys
from collections import deque
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The built-in policies a calls-per-request row counts, in report order.
POLICIES = ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive")


def profile_call(fn: Callable[[], Any], limit: int = 25) -> str:
    """Run ``fn()`` under cProfile and return the top-``limit`` table as text."""
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(limit)
    return stream.getvalue()


# --------------------------------------------------------------------- #
# Count rows
# --------------------------------------------------------------------- #

def _scaled(base: int, scale: float) -> int:
    return max(1, int(base * scale))


def bench_workload_generation(scale: float = 1.0) -> Dict[str, Any]:
    """The Zipf sampler's counts for one streamed Poisson/Zipf pass: ``draws``
    and how many of them the CDF search resolved (``searched``; the guide
    table answers the rest)."""
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=1000, rate_per_key=100.0, seed=0)
    sampler = workload._sampler
    draws, searched = sampler.draws, sampler.searched
    deque(workload.iter_requests(requests / (100.0 * 1000)), maxlen=0)
    return {"draws": sampler.draws - draws, "searched": sampler.searched - searched}


def _profiler_active() -> bool:
    """Whether a profiler already watches this thread (:func:`profile_call`'s,
    or ``python -m cProfile``'s).  A second cProfile cannot run inside it:
    on 3.11 it takes the hook over, on 3.12 it raises."""
    monitoring = getattr(sys, "monitoring", None)  # CPython 3.12+
    return sys.getprofile() is not None or (
        monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID) is not None
    )


def _counted_calls(
    requests: int, replay: Callable[[str], Any], policies: Sequence[str] = POLICIES
) -> Dict[str, float]:
    """Function calls per request of ``replay(policy).run()``, per policy.

    Python and built-in calls as cProfile counts them.  A count, not a
    timing: every run of one interpreter gives the same numbers.  Summed per
    code object, because ``pstats`` keys functions by file, line and name,
    and every dataclass ``__init__`` is ``<string>:2``: merged there, all but
    one of them drop out of its total.  Under another profiler the replays
    run in its view and nothing is counted.
    """
    counts = {}
    watched = _profiler_active()
    for policy in policies:
        run = replay(policy).run
        if watched:
            run()
            continue
        # Earlier garbage is collected here, not by a collection inside the
        # count: the count does not depend on what the process ran before.
        gc.collect()
        profiler = cProfile.Profile()
        profiler.runcall(run)
        counts[policy] = sum(entry.callcount for entry in profiler.getstats()) / requests
    return counts


def calls_per_request(scale: float = 1.0) -> Dict[str, float]:
    """Calls per request of the single cache's scalar replay loop.

    ``Simulation`` replays the ``steady-scalar`` benchmark's trace shape
    (1 000 keys at 100 req/s each, 90 % reads, bound 1 s; 2 s of it at scale
    1), compiled first, so the feed costs no generator frames.
    """
    from repro.experiments.registry import make_policy
    from repro.sim.simulation import Simulation
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    duration = 2.0 * scale
    workload = PoissonZipfWorkload(num_keys=1000, rate_per_key=100.0, read_ratio=0.9, seed=0)
    trace = compile_workload(workload, duration)
    return _counted_calls(
        len(trace),
        lambda policy: Simulation(
            trace, policy=make_policy(policy), staleness_bound=1.0, duration=duration
        ),
    )


def fleet_calls_per_request(scale: float = 1.0) -> Dict[str, float]:
    """Calls per request of the fleet's scalar replay loop.

    ``ClusterSimulation`` replays the ``fleet-scenario`` benchmark's shape: 8
    nodes, factor 2 with round-robin reads, a 256-entry write-through
    second-hit L1 per node and a ``node-failure`` scenario, bound 0.5 s over
    30 s of 1 000 keys at 5 req/s each at scale 1 (the rate scales, so the
    scenario's timeline stays inside the run).  Most reads are L1 hits.
    """
    from repro.cluster.cluster import ClusterSimulation
    from repro.cluster.replication import ReplicationConfig
    from repro.cluster.scenarios import make_scenario
    from repro.tier.config import TierConfig
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    duration = 30.0
    workload = PoissonZipfWorkload(num_keys=1000, rate_per_key=5.0 * scale, seed=0)
    trace = compile_workload(workload, duration)

    def replay(policy: str) -> ClusterSimulation:
        return ClusterSimulation(
            trace,
            policy=policy,
            num_nodes=8,
            staleness_bound=0.5,
            replication=ReplicationConfig(factor=2, read_policy="round-robin"),
            scenario=make_scenario("node-failure"),
            tier=TierConfig(l1_capacity=256, mode="write-through", admission="second-hit"),
            duration=duration,
        )

    # Ring fingerprints are memoised process-wide: one replay outside the
    # count warms the memo, so the count does not depend on what ran before.
    replay("invalidate").run()
    return _counted_calls(len(trace), replay)


def stateful_calls_per_request(scale: float = 1.0) -> Dict[str, float]:
    """Calls per request of the fleet loop with a store, a recorder and
    in-flight fetches.

    ``ClusterSimulation`` replays the ``stateful-writes`` benchmark's shape:
    4 nodes under ``invalidate`` at bound 0.5 s, single-flight fetches, an obs
    window of 0.25 s and a store snapshotting every 0.5 s into a temporary
    directory, over 1 s of 1 000 keys at 100 req/s each at scale 1, half of
    them writes (the rate scales, so both snapshots stay inside the run).
    """
    import tempfile

    from repro.cluster.cluster import ClusterSimulation
    from repro.concurrency.config import ConcurrencyConfig
    from repro.obs.recorder import ObsConfig
    from repro.store.snapshot import StoreConfig
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    duration = 1.0
    workload = PoissonZipfWorkload(
        num_keys=1000, rate_per_key=100.0 * scale, read_ratio=0.5, seed=0
    )
    trace = compile_workload(workload, duration)
    concurrency = ConcurrencyConfig(
        service_time="exponential", mean=0.002, capacity=8, policy="single-flight"
    )
    with tempfile.TemporaryDirectory(prefix="repro-perf-store-") as root:

        def replay(policy: str) -> ClusterSimulation:
            return ClusterSimulation(
                trace,
                policy=policy,
                num_nodes=4,
                staleness_bound=0.5,
                duration=duration,
                seed=0,
                concurrency=concurrency,
                obs=ObsConfig(window=0.25),
                store=StoreConfig(tempfile.mkdtemp(dir=root), snapshot_interval=0.5),
            )

        # As for the fleet row: one replay outside the count warms the
        # process-wide fingerprint memo.
        replay("invalidate").run()
        return _counted_calls(len(trace), replay, ("invalidate",))


def bench_replay_single(scale: float = 1.0) -> Dict[str, Any]:
    """The single cache's :func:`calls_per_request` for each built-in policy."""
    return {"calls_per_request": calls_per_request(scale)}


def bench_replay_cluster(scale: float = 1.0) -> Dict[str, Any]:
    """The fleet's :func:`fleet_calls_per_request` for each built-in policy."""
    return {"calls_per_request": fleet_calls_per_request(scale)}


def bench_replay_stateful(scale: float = 1.0) -> Dict[str, Any]:
    """The stateful fleet's :func:`stateful_calls_per_request` under ``invalidate``."""
    return {"calls_per_request": stateful_calls_per_request(scale)}


def _kernel_trace(scale: float):
    """The 500-key trace of the kernel rows: ``(workload, duration, trace)``."""
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=100.0, seed=0)
    duration = requests / (100.0 * 500)
    return workload, duration, compile_workload(workload, duration)


def _replay_vector(
    workload, duration: float, trace, bound: float, policy: str = "invalidate", nodes: int = 0
) -> Any:
    """One columnar replay of ``trace``: the single cache, or a ``nodes``-node
    fleet.  Returns the finished engine."""
    from repro.cluster.vector import VectorClusterSimulation
    from repro.experiments.registry import make_policy
    from repro.sim.vector import VectorSimulation

    config = dict(staleness_bound=bound, duration=duration, workload_name=workload.name)
    if nodes:
        engine = VectorClusterSimulation(trace, policy=policy, num_nodes=nodes, **config)
    else:
        engine = VectorSimulation(trace, policy=make_policy(policy), **config)
    engine.run()
    return engine


def _kernel_calls(
    name: str, replay: Callable[[], Any], counts: Optional[Callable[[Any, Any], None]] = None
) -> int:
    """How many times ``replay()`` calls the kernel ``repro.sim.vector.<name>``;
    ``counts(*args)`` runs after each call, on its arguments, when given."""
    from repro.sim import vector

    kernel = getattr(vector, name)
    calls = 0

    def counted(*args: Any) -> Any:
        nonlocal calls
        calls += 1
        done = kernel(*args)
        if counts is not None:
            counts(*args)
        return done

    setattr(vector, name, counted)
    try:
        replay()
    finally:
        setattr(vector, name, kernel)
    return calls


def _schedule_batches(trace: Any, bound: float) -> int:
    """Build every cut of a walk of ``trace`` at ``bound`` into its span
    table, a batch at a time, as a replay's first lookup of each does; how
    many batches that took."""
    index = trace.index()
    schedule = index.cut_ends(trace.times, bound)
    batches, start = 0, 0
    for end in schedule.tolist():
        if (start, end) not in index.table:
            batches += 1
        index.span(start, end, schedule)
        start = end
    return batches


def non_empty_spans(times: Any, bound: float) -> int:
    """Spans of a reactive replay: flush intervals holding at least one request.

    Walks the same accumulated boundaries ``bound, bound + bound, ...`` as the
    engines' interval flush.
    """
    import numpy as np

    spans, start, boundary = 0, 0, bound
    while start < times.size:
        end = int(np.searchsorted(times, boundary, side="left"))
        spans += end > start
        start = end
        boundary += bound
    return spans


@contextmanager
def _constructions(built: Sequence[Tuple[Any, str]]) -> Iterator[Callable[[], int]]:
    """Count the constructions of the classes ``built`` names — ``(module,
    name)`` pairs, each wrapped with ``mock.patch`` — while the block runs;
    yields a function that returns the count so far."""
    from unittest import mock

    with ExitStack() as stack:
        counters = [
            stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
            for module, name in built
        ]
        yield lambda: sum(counter.call_count for counter in counters)


def _state_classes() -> List[Tuple[Any, str]]:
    """Every ``(module, name)`` through which a replay constructs a cache
    entry, a buffered write or an E[W] counter row."""
    from repro.backend import buffer
    from repro.cache import cache
    from repro.sim import vector
    from repro.sketch import exact

    return [
        (vector, "CacheEntry"),
        (vector, "BufferedWrite"),
        (vector, "_KeyCounters"),
        (cache, "CacheEntry"),
        (buffer, "BufferedWrite"),
        (exact, "_KeyCounters"),
    ]


def _span_objects(replay: Callable[[], Any]) -> int:
    """The state objects ``replay()`` constructs from the start of its first
    cut to its return.

    Counts the constructions of cache entries, buffered writes, E[W] counter
    rows (:func:`_state_classes`) and key histories, in every module that
    builds one (:func:`_constructions`), taking the counts when the
    lockstep unit's first cut starts and when ``replay()`` returns.
    """
    from unittest import mock

    from repro.backend import datastore
    from repro.sim import vector

    built = _state_classes() + [(vector, "KeyHistory"), (datastore, "KeyHistory")]
    marks: List[int] = []
    with _constructions(built) as count, ExitStack() as stack:
        window = vector._Lockstep.window

        def first_window(unit: Any, engine: Any, *cut: Any) -> None:
            if not marks:
                marks.append(count())
            window(unit, engine, *cut)

        stack.enter_context(mock.patch.object(vector._Lockstep, "window", first_window))
        replay()
        marks.append(count())
    return marks[-1] - marks[0]


def _objects_built(replay: Callable[[], Any]) -> int:
    """The node state objects ``replay()`` builds when nothing reads its
    nodes: the cache entries, buffered writes and E[W] counter rows it
    constructs (:func:`_state_classes`), and the rows its nodes'
    invalidation trackers hold when it returns (read from each tracker's
    ``__dict__``, so a pending build stays pending).  ``replay()`` returns
    the finished engine, whose nodes start empty."""
    with _constructions(_state_classes()) as count:
        engine = replay()
        built = count()
    return built + sum(len(vars(node.tracker)["_invalidated"]) for node in engine._node_list)


def _histories_built(replay: Callable[[], Any]) -> int:
    """The key histories ``replay()`` constructs (:func:`_constructions`),
    in every module that builds one: what a replay's end costs a caller that
    reads no history."""
    from repro.backend import datastore
    from repro.sim import vector

    with _constructions([(vector, "KeyHistory"), (datastore, "KeyHistory")]) as count:
        replay()
        return count()


def bench_span_kernel_tight(scale: float = 1.0) -> Dict[str, Any]:
    """The kernel trace replayed at a tight bound (``T = 0.01``).

    A hundred times as many spans as at ``T = 1``, each of about one request
    per key: the regime where per-span cost, not per-request cost, decides
    the speed.  ``kernel_calls`` counts the reactive kernel's calls — one
    per window of cuts, whatever the key count; a replay alone with no obs
    window to roll takes a window per batch of cuts, so it must equal
    ``batches``, the span table's builds of the replay's schedule — and so
    must ``fleet_kernel_calls``, the same trace on a 3-node fleet: one call
    per window, whatever the node count.  ``key_spans`` sums the keys of
    every span's groups, the rows the kernel works through.  ``span_objects`` /
    ``fleet_span_objects`` are :func:`_span_objects` of the two replays: 0,
    as the hosts' state lives in columns from the first cut to the end
    of the replay.  ``histories_built`` / ``fleet_histories_built`` are
    :func:`_histories_built` of one ``run()`` of each, per policy: 0, as a
    columnar replay defers its datastore histories until one is read (one
    per written key when every replay built them).  ``objects_built`` /
    ``fleet_objects_built`` are :func:`_objects_built` of one ``run()`` of
    each, per policy: 0, as a columnar replay leaves its nodes' objects to
    a build on their first read (one per cached entry, tracked key,
    buffered write and E[W] row when every replay built them).
    """
    bound = 0.01
    workload, duration, trace = _kernel_trace(scale)
    key_spans = 0

    def count_key_spans(ctx: Any, columns: Any, prelude: Any, flushes: Any) -> None:
        nonlocal key_spans
        key_spans += int(prelude.block.keys.size)

    def single() -> None:
        _replay_vector(workload, duration, trace, bound)

    def fleet() -> None:
        _replay_vector(workload, duration, trace, bound, nodes=3)

    batches = _schedule_batches(trace, bound)
    calls = _kernel_calls("_kernel_reactive_window", single, count_key_spans)
    fleet_calls = _kernel_calls("_kernel_reactive_window", fleet)
    return {
        "spans": non_empty_spans(trace.times, bound),
        "batches": batches,
        "kernel_calls": calls,
        "fleet_kernel_calls": fleet_calls,
        "key_spans": key_spans,
        "span_objects": _span_objects(single),
        "fleet_span_objects": _span_objects(fleet),
        "histories_built": {
            policy: _histories_built(
                lambda: _replay_vector(workload, duration, trace, bound, policy)
            )
            for policy in POLICIES
        },
        "fleet_histories_built": {
            policy: _histories_built(
                lambda: _replay_vector(workload, duration, trace, bound, policy, nodes=3)
            )
            for policy in POLICIES
        },
        "objects_built": {
            policy: _objects_built(
                lambda: _replay_vector(workload, duration, trace, bound, policy)
            )
            for policy in POLICIES
        },
        "fleet_objects_built": {
            policy: _objects_built(
                lambda: _replay_vector(workload, duration, trace, bound, policy, nodes=3)
            )
            for policy in POLICIES
        },
    }


def bench_ttl_kernels(scale: float = 1.0) -> Dict[str, Any]:
    """The kernel trace replayed under ``ttl-polling`` at ``T = 1``.

    ``kernel_calls`` is one per trace, whatever the key count, and
    ``fleet_kernel_calls`` the same on a 3-node fleet: one call for every
    node's keys.  ``charging_reads`` are the reads that settle at least one
    poll — the rows the flush sorts and folds.  ``ttl_objects`` is
    :func:`_span_objects` of the single-cache replay: 0, as the kernel
    scatters its entries into the unit's columns and the write-back that
    builds them waits for their first read.  ``sweep_kernel_calls`` is
    :func:`_ttl_sweep_calls`.
    """
    workload, duration, trace = _kernel_trace(scale)
    charging_reads = 0

    def count_charging_reads(ctx: Any, columns: Any, tallies: Any, groups: Any) -> None:
        nonlocal charging_reads
        charging_reads += sum(int(tally.charge_counts.size) for tally in tallies)

    def single() -> None:
        _replay_vector(workload, duration, trace, 1.0, "ttl-polling")

    calls = _kernel_calls("_kernel_ttl_polling", single, count_charging_reads)
    fleet_calls = _kernel_calls(
        "_kernel_ttl_polling",
        lambda: _replay_vector(workload, duration, trace, 1.0, "ttl-polling", nodes=3),
    )
    return {
        "kernel_calls": calls,
        "fleet_kernel_calls": fleet_calls,
        "charging_reads": charging_reads,
        "ttl_objects": _span_objects(single),
        "sweep_kernel_calls": _ttl_sweep_calls(scale),
    }


def _ttl_sweep_calls(scale: float) -> int:
    """TTL kernel calls of a serial vector sweep: ``ttl-expiry`` and
    ``ttl-polling`` at two bounds on the single cache and a 3-node fleet
    (one replica a key) of one trace (200 keys at 20 req/s each, 4 s; the
    key count scales).  Each TTL policy's cells replay the whole trace as
    one cut, with one read stride, so they are one unit and one kernel
    call, whatever their bound and fleet shape."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec, WorkloadSpec

    spec = ExperimentSpec(
        name="perf-ttl-sweep",
        policies=["ttl-expiry", "ttl-polling"],
        workloads=[
            WorkloadSpec.of("poisson", {"num_keys": _scaled(200, scale), "rate_per_key": 20.0})
        ],
        staleness_bounds=[0.25, 1.0],
        num_nodes=[None, 3],
        duration=4.0,
        engine="vector",
    )
    polling = 0

    def sweep() -> None:
        nonlocal polling
        polling = _kernel_calls(
            "_kernel_ttl_polling", lambda: run_experiment(spec, processes=1)
        )

    return _kernel_calls("_kernel_ttl_expiry", sweep) + polling


def bench_flush(scale: float = 1.0) -> Dict[str, Any]:
    """One node's interval flushes under ``update`` on an ideal channel.

    Over 20 intervals a seeded mix of writes and reads dirties the buffer,
    feeds the estimator and re-fetches invalidated copies, so every flush
    has something to decide.  ``decisions`` counts the dirty keys flushed,
    ``messages`` the sends (one per decision under ``update``), and
    ``objects_built`` the message / pending / record objects constructed for
    them, which an instant channel never needs.
    """
    import random

    from repro.backend import channel
    from repro.backend.channel import Channel
    from repro.backend.datastore import DataStore
    from repro.core.cost_model import CostModel
    from repro.experiments.registry import make_policy
    from repro.sim import node as node_module
    from repro.sim.node import CacheNode
    from repro.sim.results import SimulationResult

    built = [
        (node_module, "InvalidateMessage"),
        (node_module, "UpdateMessage"),
        (node_module, "PendingDelivery"),
        (channel, "DeliveryRecord"),
    ]
    keys = [f"perf-key-{index:06d}" for index in range(_scaled(2_000, scale))]
    rng = random.Random(7)
    datastore = DataStore()
    with _constructions(built) as count:
        node = CacheNode(
            "perf", make_policy("update"), 1.0, CostModel(), datastore, SimulationResult(),
            channel=Channel(seed=7),
        )
        decisions = 0
        for interval in range(1, 21):
            for key in keys:
                draw = rng.random()
                if draw < 0.7:
                    datastore.write(key, interval - 0.5, 128)
                    node.observe_write(interval - 0.5, key, 16, 128, True)
                if draw > 0.4:
                    node.handle_read(interval - 0.25, key, 16, 128)
            decisions += len(node.buffer)
            node.flush(float(interval))
        objects_built = count()
    return {
        "decisions": decisions,
        "messages": node.channel.sent,
        "objects_built": objects_built,
    }


def bench_trace_index(scale: float = 1.0) -> Dict[str, Any]:
    """The trace index and its span table over two 30-span walks, and the
    table's share of a sweep.

    The policy-independent share of a columnar replay: bytes per request of
    the key-major index (span table included) and of the table alone, after
    a first walk builds each cut.  ``table_hits`` counts the cuts the second
    walk finds in the table — 30 when the table holds the whole walk, fewer
    when a walk outgrows it and the oldest batches, each with every cut
    built with it, are evicted.
    ``sweep_cut_lookups`` / ``sweep_table_hits`` / ``sweep_cut_builds`` /
    ``sweep_kernel_calls`` / ``sweep_flush_calls`` are :func:`_sweep_lookups`.
    """
    _, _, trace = _kernel_trace(scale)
    index = trace.index()
    ends = [len(trace) * span // 30 for span in range(1, 31)]

    def walk() -> int:
        hits, start = 0, 0
        for end in ends:
            hits += (start, end) in index.table
            index.span(start, end)
            start = end
        return hits

    walk()
    hits = walk()
    requests = max(len(trace), 1)
    lookups, sweep_hits, builds, kernel_calls, flush_calls = _sweep_lookups(scale)
    return {
        "index_bytes_per_request": index.nbytes / requests,
        "table_bytes_per_request": index.table_bytes / requests,
        "table_hits": hits,
        "sweep_cut_lookups": lookups,
        "sweep_table_hits": sweep_hits,
        "sweep_cut_builds": builds,
        "sweep_kernel_calls": kernel_calls,
        "sweep_flush_calls": flush_calls,
    }


def _sweep_lookups(scale: float) -> Tuple[int, int, int, int, int]:
    """Span-table lookups of a serial vector sweep, how many found their cut,
    the builder's calls, and the sweep's reactive kernel calls and the
    interval flushes they ran.

    Three write-reacting policies at two bounds on one trace (200 keys at
    20 req/s each, 4 s; the key count scales): the policies of a bound are
    one unit, whose first lookup builds as much of the bound's 16 or 4 cuts
    in one batch as the table has room for; each member looks up the cut a
    window starts at, and each window of cuts is one kernel call for all
    three, with a flush per cut.  ``TraceIndex.span``, ``TraceIndex.cuts``
    and ``_kernel_reactive_window`` are wrapped for the sweep to count them.
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec, WorkloadSpec
    from repro.sim import vector
    from repro.workload.compiled import TraceIndex

    counts = [0, 0, 0, 0, 0]
    span, cuts = TraceIndex.span, TraceIndex.cuts
    kernel = vector._kernel_reactive_window

    def counted(index, start, end, schedule=None):
        counts[0] += 1
        counts[1] += (start, end) in index.table
        return span(index, start, end, schedule)

    def counted_cuts(index, start, ends):
        counts[2] += 1
        return cuts(index, start, ends)

    def counted_kernel(ctx: Any, columns: Any, prelude: Any, flushes: Any) -> Any:
        counts[3] += 1
        counts[4] += len(flushes)
        return kernel(ctx, columns, prelude, flushes)

    spec = ExperimentSpec(
        name="perf-sweep",
        policies=["invalidate", "update", "adaptive"],
        workloads=[
            WorkloadSpec.of("poisson", {"num_keys": _scaled(200, scale), "rate_per_key": 20.0})
        ],
        staleness_bounds=[0.25, 1.0],
        duration=4.0,
        engine="vector",
    )
    TraceIndex.span, TraceIndex.cuts = counted, counted_cuts
    vector._kernel_reactive_window = counted_kernel
    try:
        run_experiment(spec, processes=1)
    finally:
        TraceIndex.span, TraceIndex.cuts = span, cuts
        vector._kernel_reactive_window = kernel
    return counts[0], counts[1], counts[2], counts[3], counts[4]


def bench_census(scale: float = 1.0) -> Dict[str, Any]:
    """The census of what runs where: the requests each envelope row sends
    to the scalar loop, and the requests the kernels replay.

    Each configuration of the grid below replays one trace (60 keys for 4 s,
    12 000 requests at scale 1; the rate scales) on a columnar engine, and
    its requests count toward the row its ``fallback_reason`` names, or
    toward ``kernels``.  One configuration trips each of the 15 rows of
    ``repro.cluster.vector.FLEET_ENVELOPE`` (``membership`` by the public
    ``remove_node`` before the run, ``stop-at`` by ``run(stop_at=)`` into
    a store), and the controls run the five kernel policies and
    ``adaptive+cs`` inside it, on the single cache and on a 3-node fleet.
    A change that widens the envelope moves requests from a row to
    ``kernels``; ``scripts/check_calls.py`` gates each count exactly.
    """
    import tempfile
    from operator import methodcaller

    from repro.backend.channel import Channel
    from repro.cluster.hotkey import HotKeyConfig
    from repro.cluster.scenarios import make_scenario
    from repro.cluster.vector import FLEET_ENVELOPE, VectorClusterSimulation
    from repro.concurrency.config import ConcurrencyConfig
    from repro.core.adaptive import AdaptivePolicy
    from repro.core.ttl import TTLExpiryPolicy
    from repro.experiments.registry import make_cost_model, make_policy
    from repro.experiments.spec import ChannelSpec
    from repro.resilience.chaos import ChaosSpec
    from repro.sim.vector import VectorSimulation
    from repro.sketch.countmin import CountMinEWSketch
    from repro.store.snapshot import StoreConfig
    from repro.tier.config import TierConfig
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    keys, duration = 60, 4.0
    rate = _scaled(12_000, scale) / (keys * duration)
    workload = PoissonZipfWorkload(num_keys=keys, rate_per_key=rate, seed=0)
    trace = compile_workload(workload, duration)
    requests = {"kernels": 0, **{row.name: 0 for row in FLEET_ENVELOPE}}
    with tempfile.TemporaryDirectory(prefix="repro-perf-census-") as root:
        run = methodcaller("run")
        # (engine, policy: a name or a factory, options, how it runs): the
        # controls, then the rows in FLEET_ENVELOPE's order (channel twice).
        grid = [
            *[("single", policy, {}, run) for policy in POLICIES + ("adaptive+cs",)],
            *[("fleet", policy, {}, run) for policy in POLICIES + ("adaptive+cs",)],
            ("fleet", "invalidate", dict(scenario=make_scenario("node-failure")), run),
            ("fleet", "invalidate", dict(chaos=ChaosSpec(seed=1, kinds=("delay",))), run),
            ("fleet", "invalidate", dict(store=StoreConfig(f"{root}/stop-at")),
             lambda fleet: fleet.run(stop_at=duration / 2)),
            ("single", "invalidate", dict(store=StoreConfig(f"{root}/store")), run),
            ("single", "invalidate", dict(concurrency=ConcurrencyConfig(mean=0.02)), run),
            ("single", "invalidate", dict(costs=make_cost_model("cpu")), run),
            ("single", "optimal", {}, run),
            ("single", lambda: AdaptivePolicy(estimator=CountMinEWSketch()), {}, run),
            ("single", lambda: TTLExpiryPolicy(ttl=2.0), {}, run),
            ("single", lambda: TTLExpiryPolicy(ttl=1e-19), {}, run),
            ("fleet", "invalidate", dict(hotkey=HotKeyConfig(hot_policy="update")), run),
            ("fleet", "invalidate", dict(tier=TierConfig(l1_capacity=16)), run),
            ("single", "invalidate", dict(cache_capacity=16), run),
            ("fleet", "invalidate", {}, lambda fleet: (fleet.remove_node(0, 0.0), fleet.run())[1]),
            ("single", "invalidate", dict(channel=Channel(delay=0.05, seed=1)), run),
            ("fleet", "invalidate", dict(channel=ChannelSpec(delay=0.05)), run),
        ]
        for engine, policy, options, replay in grid:
            config = dict(staleness_bound=0.5, duration=duration, **options)
            if engine == "fleet":
                simulation = VectorClusterSimulation(trace, policy=policy, num_nodes=3, **config)
            else:
                built = make_policy(policy) if isinstance(policy, str) else policy()
                simulation = VectorSimulation(trace, policy=built, **config)
            result = replay(simulation)
            totals = getattr(result, "totals", result)
            requests[simulation.fallback_reason or "kernels"] += totals.reads + totals.writes
    return {"requests": requests}


def _wal_records(scale: float) -> List[Any]:
    """``(kind, fields)`` pairs in the mix the journal emits.

    Every write is one record, every other one sends an invalidate, and a
    read delta precedes every fourth.
    """
    from repro.store.format import KIND_MESSAGE, KIND_READS, KIND_WRITE

    count = _scaled(60_000, scale)
    records: List[Any] = []
    index = 0
    while len(records) < count:
        key, time_ = f"key-{index % 1000:06d}", index * 0.001
        if index % 4 == 0:
            records.append((KIND_READS, {"n": 1 + index % 7}))
        records.append((KIND_WRITE, {"key": key, "t": time_, "vs": 128}))
        if index % 2 == 0:
            records.append((KIND_MESSAGE, {"mk": "invalidate", "key": key, "t": time_, "v": index}))
        index += 1
    return records


def bench_wal(scale: float = 1.0) -> Dict[str, Any]:
    """The journal mix appended to a fresh WAL, then read back.

    The journal's three kinds in the journal's mix, group-committed and
    charged to a cost model, open to close; ``bytes_per_record`` is what one
    durable backend write adds to the log, and ``replayed`` must equal
    ``records``.
    """
    import tempfile
    from pathlib import Path

    from repro.core.cost_model import CostModel
    from repro.store.wal import WriteAheadLog

    records = _wal_records(scale)
    with tempfile.TemporaryDirectory(prefix="repro-perf-wal-") as root:
        wal = WriteAheadLog(Path(root) / "wal.log", costs=CostModel())
        for kind, fields in records:
            wal.append(kind, fields)
        wal.close()
        replayed = sum(1 for _ in wal.replay())
    return {
        "records": len(records),
        "replayed": replayed,
        "bytes_per_record": wal.stats.bytes_written / len(records),
    }


#: Registry of count rows, in report order.
MICROBENCHES: Dict[str, Callable[[float], Dict[str, Any]]] = {
    "workload-generation": bench_workload_generation,
    "replay-single": bench_replay_single,
    "replay-cluster": bench_replay_cluster,
    "replay-stateful": bench_replay_stateful,
    "span-kernel-tight": bench_span_kernel_tight,
    "ttl-kernels": bench_ttl_kernels,
    "flush": bench_flush,
    "trace-index": bench_trace_index,
    "wal": bench_wal,
    "census": bench_census,
}


def run_perf(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """Run the named count rows (default: all) and return the record.

    Args:
        names: Row names from :data:`MICROBENCHES`; ``None`` runs all.
        scale: Multiplier on every row's operation count (CI smoke passes a
            small value, local investigation a larger one).

    Returns:
        A JSON-ready record with one row per name; two runs with the same
        arguments on one interpreter give the same record.

    Raises:
        KeyError: If a name is not in the registry.
    """
    selected = list(MICROBENCHES) if names is None else list(names)
    unknown = [name for name in selected if name not in MICROBENCHES]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s) {unknown}; available: {sorted(MICROBENCHES)}"
        )
    results = []
    for name in selected:
        row = MICROBENCHES[name](scale)
        row["name"] = name
        results.append(row)
    return {
        "kind": "repro-perf",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "results": results,
    }
