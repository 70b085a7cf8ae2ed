"""Microbenchmark harness for the replay hot paths.

``benchmarks/run.py`` measures the end product (calibrated, digest-checked
replay throughput, and the gate); this module measures the *components* that
replay is made of — fingerprinting, ring routing, workload generation,
sketch updates, cache operations, and small end-to-end replays — so a
regression in any one layer is attributable before it drowns in an
aggregate number.

Three building blocks:

* :class:`Timer` / :func:`time_callable` — wall-clock timing primitives.
* :func:`profile_call` — a cProfile hook that returns the profile table as
  text, for ``python -m repro perf --profile <name>``.
* :data:`MICROBENCHES` — the registry of named component benchmarks driven
  by :func:`run_perf` and the ``perf`` CLI subcommand.

Every benchmark is deterministic in its *work* (fixed keys, fixed seeds);
only the measured wall time varies between runs.
"""

from __future__ import annotations

import cProfile
import io
import platform
import pstats
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence


class Timer:
    """Context manager measuring wall-clock seconds.

    Example:

        >>> with Timer() as timer:
        ...     _ = sum(range(1000))
        >>> timer.seconds > 0
        True
    """

    __slots__ = ("started", "seconds")

    def __init__(self) -> None:
        self.started = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self.started


def time_callable(fn: Callable[[], Any], repeats: int = 3) -> Dict[str, float]:
    """Time ``fn()`` ``repeats`` times; report best and mean wall seconds.

    The *best* run is the least-noisy estimate of the code's cost (anything
    slower was interference); the mean is reported for context.
    """
    runs: List[float] = []
    for _ in range(max(1, repeats)):
        with Timer() as timer:
            fn()
        runs.append(timer.seconds)
    return {"best_seconds": min(runs), "mean_seconds": sum(runs) / len(runs)}


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
# Component benchmarks
# --------------------------------------------------------------------- #

def _scaled(base: int, scale: float) -> int:
    return max(1, int(base * scale))


def bench_fingerprint(scale: float = 1.0) -> Dict[str, Any]:
    """Memoized vs raw BLAKE2 fingerprint throughput."""
    from repro.sketch.hashing import (
        _compute_fingerprint,
        fingerprint_cache_clear,
        stable_fingerprint,
    )

    ops = _scaled(200_000, scale)
    keys = [f"perf-key-{index % 10_000:06d}" for index in range(ops)]
    fingerprint_cache_clear()

    def cached() -> None:
        for key in keys:
            stable_fingerprint(key)

    def raw() -> None:
        for key in keys[: ops // 10]:
            _compute_fingerprint(key)

    cached_timing = time_callable(cached)
    raw_timing = time_callable(raw)
    return {
        "ops": ops,
        "ops_per_sec": ops / cached_timing["best_seconds"],
        "raw_ops_per_sec": (ops // 10) / raw_timing["best_seconds"],
        **cached_timing,
    }


def bench_hashring_route(scale: float = 1.0) -> Dict[str, Any]:
    """Cached consistent-hash routing throughput (8 nodes, factor 2)."""
    from repro.cluster.hashring import ConsistentHashRing

    ops = _scaled(200_000, scale)
    ring = ConsistentHashRing(vnodes=64)
    for index in range(8):
        ring.add_node(f"node-{index:03d}")
    keys = [f"perf-key-{index % 10_000:06d}" for index in range(ops)]
    route = ring.route

    def routed() -> None:
        for key in keys:
            route(key, 2)

    timing = time_callable(routed)
    return {"ops": ops, "ops_per_sec": ops / timing["best_seconds"], **timing}


def bench_workload_generation(scale: float = 1.0) -> Dict[str, Any]:
    """Streamed Poisson/Zipf generation throughput (no replay attached), the
    same workload compiled into columns, and the Zipf sampler's counts for
    one pass: ``draws`` and how many of them the CDF search resolved
    (``searched``; the guide table answers the rest)."""
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=1000, rate_per_key=100.0, seed=0)
    duration = requests / (100.0 * 1000)

    def drain() -> None:
        deque(workload.iter_requests(duration), maxlen=0)

    timing = time_callable(drain)
    compile_timing = time_callable(lambda: compile_workload(workload, duration))
    sampler = workload._sampler
    draws, searched = sampler.draws, sampler.searched
    drain()
    return {
        "ops": requests,
        "ops_per_sec": requests / timing["best_seconds"],
        "compile_ops_per_sec": requests / compile_timing["best_seconds"],
        "draws": sampler.draws - draws,
        "searched": sampler.searched - searched,
        **timing,
    }


def bench_sketch_update(scale: float = 1.0) -> Dict[str, Any]:
    """Count-min add/query throughput, scalar and vectorized batch paths."""
    from repro.sketch.countmin import CountMinSketch

    ops = _scaled(100_000, scale)
    sketch = CountMinSketch(width=512, depth=4, seed=0)
    batch_sketch = CountMinSketch(width=512, depth=4, seed=0)
    keys = [f"perf-key-{index % 2_000:06d}" for index in range(ops)]

    def update() -> None:
        add = sketch.add
        query = sketch.query
        for index, key in enumerate(keys):
            add(key)
            if not index % 16:
                query(key)

    def update_batched() -> None:
        # The vectorized path: one row_indices pass + np.add.at per chunk.
        for start in range(0, ops, 4096):
            batch_sketch.add_many(keys[start : start + 4096])

    timing = time_callable(update)
    batch_timing = time_callable(update_batched)
    return {
        "ops": ops,
        "ops_per_sec": ops / timing["best_seconds"],
        "batch_ops_per_sec": ops / batch_timing["best_seconds"],
        **timing,
    }


def bench_cache_ops(scale: float = 1.0) -> Dict[str, Any]:
    """Cache fill + lookup throughput under LRU at capacity."""
    from repro.cache.cache import Cache

    ops = _scaled(100_000, scale)
    cache = Cache(capacity=4096)
    keys = [f"perf-key-{index % 8_000:06d}" for index in range(ops)]

    def churn() -> None:
        fill = cache.fill
        lookup = cache.lookup
        for index, key in enumerate(keys):
            entry, outcome = lookup(key, float(index))
            if entry is None:
                fill(key, version=1, time=float(index))

    timing = time_callable(churn)
    return {"ops": ops, "ops_per_sec": ops / timing["best_seconds"], **timing}


def _streamed_replay(
    scale: float, obs: Any = None, num_nodes: Optional[int] = None
) -> Dict[str, Any]:
    """Streamed ``invalidate`` replay, generation included (shared harness).

    One cache by default, a ``num_nodes`` fleet (routing + fan-out) otherwise.
    """
    from repro.cluster.cluster import ClusterSimulation
    from repro.experiments.registry import make_policy
    from repro.sim.simulation import Simulation
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(50_000, scale)
    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=100.0, seed=0)
    duration = requests / (100.0 * 500)
    settings = dict(
        staleness_bound=1.0, duration=duration, workload_name=workload.name, obs=obs
    )

    def replay() -> None:
        stream = workload.iter_requests(duration)
        if num_nodes is None:
            Simulation(workload=stream, policy=make_policy("invalidate"), **settings).run()
        else:
            ClusterSimulation(
                workload=stream, policy="invalidate", num_nodes=num_nodes, **settings
            ).run()

    timing = time_callable(replay)
    return {"ops": requests, "ops_per_sec": requests / timing["best_seconds"], **timing}


def _counted_calls(requests: int, replay: Callable[[str], Any]) -> Dict[str, float]:
    """Function calls per request of ``replay(policy).run()``, per built-in policy.

    Python and built-in calls as cProfile counts them.  A count, not a
    timing: every run of one interpreter gives the same numbers.  Summed per
    code object, because ``pstats`` keys functions by file, line and name,
    and every dataclass ``__init__`` is ``<string>:2``: merged there, all but
    one of them drop out of its total.
    """
    counts = {}
    for policy in ("ttl-expiry", "ttl-polling", "invalidate", "update", "adaptive"):
        run = replay(policy).run
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


def bench_replay_single(scale: float = 1.0) -> Dict[str, Any]:
    """End-to-end single-cache replay (generation + simulation), plus the
    loop's :func:`calls_per_request` for each built-in policy."""
    return {**_streamed_replay(scale), "calls_per_request": calls_per_request(scale)}


def bench_replay_cluster(scale: float = 1.0) -> Dict[str, Any]:
    """End-to-end 3-node cluster replay (routing + fan-out included), plus
    the fleet loop's :func:`fleet_calls_per_request` for each built-in policy."""
    return {
        **_streamed_replay(scale, num_nodes=3),
        "calls_per_request": fleet_calls_per_request(scale),
    }


def _kernel_trace(scale: float):
    """The 500-key trace of the kernel benchmarks: ``(workload, duration, trace)``."""
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=100.0, seed=0)
    duration = requests / (100.0 * 500)
    return workload, duration, compile_workload(workload, duration)


def _replay_vector(
    workload, duration: float, trace, bound: float, policy: str = "invalidate", nodes: int = 0
) -> None:
    """One columnar replay of ``trace``: the single cache, or a ``nodes``-node fleet."""
    from repro.cluster.vector import VectorClusterSimulation
    from repro.experiments.registry import make_policy
    from repro.sim.vector import VectorSimulation

    # A simulation instance is single-shot; construction is cheap next to
    # the replay itself.
    config = dict(staleness_bound=bound, duration=duration, workload_name=workload.name)
    if nodes:
        VectorClusterSimulation(trace, policy=policy, num_nodes=nodes, **config).run()
    else:
        VectorSimulation(trace, policy=make_policy(policy), **config).run()


def _kernel_calls(
    name: str, replay: Callable[[], Any], counts: Optional[Callable[[Any, Any], None]] = None
) -> int:
    """How many times ``replay()`` calls the kernel ``repro.sim.vector.<name>``;
    ``counts(tallies, groups)`` runs after each call when given."""
    from repro.sim import vector

    kernel = getattr(vector, name)
    calls = 0

    def counted(ctx: Any, hosts: Any, tallies: Any, groups: Any) -> None:
        nonlocal calls
        calls += 1
        kernel(ctx, hosts, tallies, groups)
        if counts is not None:
            counts(tallies, groups)

    setattr(vector, name, counted)
    try:
        replay()
    finally:
        setattr(vector, name, kernel)
    return calls


def bench_vector_kernels(scale: float = 1.0) -> Dict[str, Any]:
    """Columnar replay of a precompiled trace (kernels only, no compile).

    Compiles the trace once outside the timed region, then replays it
    through :class:`~repro.sim.vector.VectorSimulation` — the isolated cost
    of the span/kernel machinery inside an end-to-end vector replay.
    """
    workload, duration, trace = _kernel_trace(scale)
    timing = time_callable(lambda: _replay_vector(workload, duration, trace, 1.0))
    return {
        "ops": len(trace),
        "ops_per_sec": len(trace) / timing["best_seconds"],
        **timing,
    }


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


def bench_span_kernel_tight(scale: float = 1.0) -> Dict[str, Any]:
    """The ``vector-kernels`` trace replayed at a tight bound (``T = 0.01``).

    A hundred times as many spans, each of about one request per key: the
    regime where per-span cost, not per-request cost, decides the speed.
    ``kernel_calls`` is counted on an extra untimed replay and must equal
    ``spans`` — one reactive kernel call per span, whatever the key count.
    ``fleet_ops_per_sec`` replays the same trace on a 3-node fleet, and its
    ``fleet_kernel_calls`` must equal ``spans`` too: one call per span,
    whatever the node count.
    """
    bound, nodes = 0.01, 3
    workload, duration, trace = _kernel_trace(scale)
    timing = time_callable(lambda: _replay_vector(workload, duration, trace, bound))
    fleet = time_callable(lambda: _replay_vector(workload, duration, trace, bound, nodes=nodes))
    key_spans = 0

    def count_key_spans(tallies: Any, prelude: Any) -> None:
        nonlocal key_spans
        key_spans += int(prelude.groups.keys.size)

    calls = _kernel_calls(
        "_kernel_reactive_span",
        lambda: _replay_vector(workload, duration, trace, bound),
        count_key_spans,
    )
    fleet_calls = _kernel_calls(
        "_kernel_reactive_span",
        lambda: _replay_vector(workload, duration, trace, bound, nodes=nodes),
    )
    return {
        "ops": len(trace),
        "ops_per_sec": len(trace) / timing["best_seconds"],
        "key_spans_per_sec": key_spans / timing["best_seconds"],
        "fleet_ops_per_sec": len(trace) / fleet["best_seconds"],
        "spans": non_empty_spans(trace.times, bound),
        "kernel_calls": calls,
        "fleet_kernel_calls": fleet_calls,
        **timing,
    }


def bench_ttl_kernels(scale: float = 1.0) -> Dict[str, Any]:
    """The ``vector-kernels`` trace replayed under the two TTL baselines.

    ``ops_per_sec`` is the TTL-polling replay (a closed form over every read
    row), ``expiry_ops_per_sec`` the TTL-expiry one (a bisection per key and
    epoch).  ``kernel_calls`` and ``charging_reads`` are counted on an extra
    untimed polling replay: one kernel call per trace, whatever the key
    count, and the reads that settle at least one poll — the rows the flush
    sorts and folds.  ``fleet_kernel_calls`` counts the same on a 3-node
    fleet: one call for every node's keys.
    """
    workload, duration, trace = _kernel_trace(scale)
    polling = time_callable(
        lambda: _replay_vector(workload, duration, trace, 1.0, "ttl-polling")
    )
    expiry = time_callable(
        lambda: _replay_vector(workload, duration, trace, 1.0, "ttl-expiry")
    )

    charging_reads = 0

    def count_charging_reads(tallies: Any, groups: Any) -> None:
        nonlocal charging_reads
        charging_reads += sum(int(tally.poll_counts.size) for tally in tallies)

    calls = _kernel_calls(
        "_kernel_ttl_polling",
        lambda: _replay_vector(workload, duration, trace, 1.0, "ttl-polling"),
        count_charging_reads,
    )
    fleet_calls = _kernel_calls(
        "_kernel_ttl_polling",
        lambda: _replay_vector(workload, duration, trace, 1.0, "ttl-polling", nodes=3),
    )
    return {
        "ops": len(trace),
        "ops_per_sec": len(trace) / polling["best_seconds"],
        "expiry_ops_per_sec": len(trace) / expiry["best_seconds"],
        "kernel_calls": calls,
        "fleet_kernel_calls": fleet_calls,
        "charging_reads": charging_reads,
        **polling,
    }


def _flush_run(policy: str, scale: float, **channel: Any) -> Any:
    """``(seconds inside flush, dirty keys flushed, node)`` over 20 seeded intervals.

    Only ``CacheNode.flush`` is timed; between flushes a seeded mix of writes
    and reads dirties the buffer, feeds the estimator and re-fetches
    invalidated copies, so every interval has something to decide.
    """
    import random

    from repro.backend.channel import Channel
    from repro.backend.datastore import DataStore
    from repro.core.cost_model import CostModel
    from repro.experiments.registry import make_policy
    from repro.sim.node import CacheNode
    from repro.sim.results import SimulationResult

    keys = [f"perf-key-{index:06d}" for index in range(_scaled(2_000, scale))]
    rng = random.Random(7)
    datastore = DataStore()
    node = CacheNode(
        "perf", make_policy(policy), 1.0, CostModel(), datastore, SimulationResult(),
        channel=Channel(seed=7, **channel),
    )
    seconds, decisions = 0.0, 0
    for interval in range(1, 21):
        for key in keys:
            draw = rng.random()
            if draw < 0.7:
                datastore.write(key, interval - 0.5, 128)
                node.observe_write(interval - 0.5, key, 16, 128, True)
            if draw > 0.4:
                node.handle_read(interval - 0.25, key, 16, 128)
        decisions += len(node.buffer)
        with Timer() as timer:
            node.flush(float(interval))
        seconds += timer.seconds
    return seconds, decisions, node


def bench_flush(scale: float = 1.0) -> Dict[str, Any]:
    """The interval flush alone: decisions per second over one node's dirty keys.

    ``ops_per_sec`` is the ``update`` policy on an ideal channel (every dirty
    key is charged, sent and applied); ``invalidate_ops_per_sec`` and
    ``adaptive_ops_per_sec`` are the other reactive policies on the same mix,
    ``lossy_ops_per_sec`` is ``update`` over a channel that loses one message
    in ten and retries twice — the walk an instant channel skips.
    ``messages`` and ``objects_built`` are counted on an extra untimed ideal
    run: the sends, and the message / pending / record objects constructed
    for them, which an instant channel never needs.
    """
    from contextlib import ExitStack
    from unittest import mock

    from repro.backend import channel
    from repro.sim import node

    def timed(policy: str, **link: Any) -> Any:
        runs = [_flush_run(policy, scale, **link) for _ in range(3)]
        seconds = [run[0] for run in runs]
        return runs[0][1], min(seconds), sum(seconds) / len(seconds)

    decisions, best, mean = timed("update")
    rates = {
        f"{name}_ops_per_sec": count / seconds
        for name, (count, seconds, _) in (
            ("invalidate", timed("invalidate")),
            ("adaptive", timed("adaptive")),
            ("lossy", timed("update", loss_probability=0.1, retries=2)),
        )
    }
    built = [
        (node, "InvalidateMessage"), (node, "UpdateMessage"), (node, "PendingDelivery"),
        (channel, "DeliveryRecord"),
    ]
    with ExitStack() as stack:
        counters = [
            stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
            for module, name in built
        ]
        sent = _flush_run("update", scale)[2].channel.sent
    return {
        "ops": decisions,
        "ops_per_sec": decisions / best,
        **rates,
        "messages": sent,
        "objects_built": sum(counter.call_count for counter in counters),
        "best_seconds": best,
        "mean_seconds": mean,
    }


def bench_trace_index(scale: float = 1.0) -> Dict[str, Any]:
    """Trace index build plus a 30-span slicing walk (no kernels), cold and warm.

    The policy-independent share of a columnar replay.  Cold is what the
    first replay of a compiled trace pays once: the key-major index, and per
    span the cut's facts (per-key read/write slices, write batch) that go
    into the index's span table.  Warm is the same walk again on that index —
    what every later replay pays, a table lookup per span.  Builds the index
    directly so no repeat is served from the trace's memo.
    """
    from repro.workload.compiled import SpanCursor, TraceIndex, compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=100.0, seed=0)
    trace = compile_workload(workload, requests / (100.0 * 500))
    ends = [len(trace) * span // 30 for span in range(1, 31)]
    index = None

    def walk() -> None:
        cursor = SpanCursor(index)
        read_pos, write_pos = index.read_pos, index.write_pos
        sliced = start = 0
        for end in ends:
            columns = index.span(start, end, cursor).columns
            start = end
            for _, r_lo, r_hi, w_lo, w_hi in zip(*(column.tolist() for column in columns)):
                sliced += read_pos[r_lo:r_hi].size + write_pos[w_lo:w_hi].size
        if sliced != len(trace):
            raise AssertionError(f"span slices cover {sliced} of {len(trace)} requests")

    def build_and_walk() -> None:
        nonlocal index
        index = TraceIndex(
            trace.times, trace.key_ids, trace.is_read, trace.value_sizes, len(trace.key_names)
        )
        walk()

    timing = time_callable(build_and_walk)
    warm = time_callable(walk)
    cold_ops_per_sec = len(trace) / timing["best_seconds"]
    return {
        "ops": len(trace),
        "ops_per_sec": cold_ops_per_sec,
        "walk_cold_ops_per_sec": cold_ops_per_sec,
        "walk_warm_ops_per_sec": len(trace) / warm["best_seconds"],
        "index_bytes_per_request": index.nbytes / max(len(trace), 1),
        "table_bytes_per_request": index.table_bytes / max(len(trace), 1),
        **timing,
    }


def bench_obs_disabled(scale: float = 1.0) -> Dict[str, Any]:
    """Replay with telemetry off — the zero-cost claim under a clock.

    ``obs=None`` binds the raw callables (the node's ``handle_read``, the
    driver's ``_process_write``) at the top of ``run()``, so this must be
    indistinguishable from a build without the hooks: it is ``replay-single``'s
    timed replay under the name that pairs with ``obs-enabled``.
    """
    return _streamed_replay(scale)


def bench_obs_enabled(scale: float = 1.0) -> Dict[str, Any]:
    """Replay with a live recorder (1s windows, sampled spans) — the paid cost."""
    from repro.obs.recorder import ObsConfig

    return _streamed_replay(scale, obs=ObsConfig(window=1.0))


def bench_scalar_feed(scale: float = 1.0) -> Dict[str, Any]:
    """Requests/s through ``Simulation`` for each input shape of the chunk feed.

    The same Poisson/Zipf trace replayed under ``invalidate`` three ways: the
    lazy stream of ``iter_requests`` (its chunks are taken as drawn;
    generation is inside the timed region, as it is for a user), a
    precompiled ``CompiledTrace`` (column slices), and a pre-built ``Request``
    list (the batching adapter).  ``ops_per_sec`` is the stream's; the gap
    between the list and the compiled figure is what the adapter costs.
    """
    from repro.experiments.registry import make_policy
    from repro.sim.simulation import Simulation
    from repro.workload.compiled import compile_workload
    from repro.workload.poisson import PoissonZipfWorkload

    requests = _scaled(100_000, scale)
    workload = PoissonZipfWorkload(num_keys=500, rate_per_key=100.0, seed=0)
    duration = requests / (100.0 * 500)
    trace = compile_workload(workload, duration)
    as_list = list(trace)
    shapes = {
        "stream": lambda: workload.iter_requests(duration),
        "compiled": lambda: trace,
        "list": lambda: as_list,
    }
    # The shapes take turns within each round, so a host that changes speed
    # between rounds slows all three alike.
    runs: Dict[str, List[float]] = {shape: [] for shape in shapes}
    for _ in range(5):
        for shape, source in shapes.items():
            simulation = Simulation(
                workload=source(),
                policy=make_policy("invalidate"),
                staleness_bound=1.0,
                duration=duration,
                workload_name=workload.name,
            )
            with Timer() as timer:
                simulation.run()
            runs[shape].append(timer.seconds)
    best = {shape: min(seconds) for shape, seconds in runs.items()}
    return {
        "ops": len(trace),
        "ops_per_sec": len(trace) / best["stream"],
        "compiled_ops_per_sec": len(trace) / best["compiled"],
        "list_ops_per_sec": len(trace) / best["list"],
        "best_seconds": best["stream"],
        "mean_seconds": sum(runs["stream"]) / len(runs["stream"]),
    }


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


def _wal_bench(scale: float, timed: str) -> Dict[str, Any]:
    """Append the journal mix to a fresh WAL, replay it; time one of the two."""
    import tempfile
    from pathlib import Path

    from repro.core.cost_model import CostModel
    from repro.store.wal import WriteAheadLog

    records = _wal_records(scale)
    with tempfile.TemporaryDirectory(prefix="repro-perf-wal-") as root:
        path = Path(root) / "wal.log"
        wal: Any = None

        def append_all() -> None:
            nonlocal wal
            path.unlink(missing_ok=True)
            wal = WriteAheadLog(path, costs=CostModel())
            append = wal.append
            for kind, fields in records:
                append(kind, fields)
            wal.close()

        def replay_all() -> None:
            replayed = sum(1 for _ in wal.replay())
            if replayed != len(records):
                raise AssertionError(f"replayed {replayed} of {len(records)} records")

        if timed == "append":
            timing = time_callable(append_all)
        else:
            append_all()
            timing = time_callable(replay_all)
        return {
            "ops": len(records),
            "ops_per_sec": len(records) / timing["best_seconds"],
            "bytes_per_record": wal.stats.bytes_written / len(records),
            **timing,
        }


def bench_wal_append(scale: float = 1.0) -> Dict[str, Any]:
    """Records/s through ``WriteAheadLog.append`` (staging, framing, commit).

    The journal's three kinds in the journal's mix, group-committed every 64
    records and charged to a cost model, open to close — what one durable
    backend write costs the replay loop.
    """
    return _wal_bench(scale, "append")


def bench_wal_replay(scale: float = 1.0) -> Dict[str, Any]:
    """Records/s through ``WriteAheadLog.replay`` (verify, chunked decode).

    Reads back the log ``wal-append`` writes — the cost of recovery, of
    ``store inspect`` and of the scan that reopens an existing log.
    """
    return _wal_bench(scale, "replay")


#: Registry of component benchmarks, in report order.
MICROBENCHES: Dict[str, Callable[[float], Dict[str, Any]]] = {
    "fingerprint": bench_fingerprint,
    "hashring-route": bench_hashring_route,
    "workload-generation": bench_workload_generation,
    "sketch-update": bench_sketch_update,
    "cache-ops": bench_cache_ops,
    "replay-single": bench_replay_single,
    "replay-cluster": bench_replay_cluster,
    "vector-kernels": bench_vector_kernels,
    "span-kernel-tight": bench_span_kernel_tight,
    "ttl-kernels": bench_ttl_kernels,
    "flush": bench_flush,
    "trace-index": bench_trace_index,
    "obs-disabled": bench_obs_disabled,
    "obs-enabled": bench_obs_enabled,
    "scalar-feed": bench_scalar_feed,
    "wal-append": bench_wal_append,
    "wal-replay": bench_wal_replay,
}


def run_perf(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """Run the named microbenchmarks (default: all) and return the record.

    Args:
        names: Benchmark names from :data:`MICROBENCHES`; ``None`` runs all.
        scale: Multiplier on every benchmark's operation count (CI smoke
            passes a small value, local investigation a larger one).

    Returns:
        A JSON-ready record with one row per benchmark.

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
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "results": results,
    }
