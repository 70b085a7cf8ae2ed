"""The single-cache driver over the cache-aside core.

The cache-aside loop of the paper's Figure 1 — reads served from the cache,
misses filled from the backend, writes bypassing the cache, and a freshness
policy holding cached data within the staleness bound ``T`` — lives in
exactly one place: :class:`~repro.sim.node.CacheNode`, where the cost
accounting of §2.1 and the lazy TTL settlement are documented.
:class:`Simulation` is the thin driver that replays a time-ordered request
stream against *one* such node.  It owns what is not per-cache: the backend
datastore (and its optional write-ahead log and snapshots), the clock, the
loop over the stream's column chunks, the interval-flush / snapshot schedule,
and the recorder's begin and finish.  Every read, write observation, flush,
message delivery, TTL settle, fetch completion and the final settlement is
handed to the node, which is the same code a fleet's shards run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

from repro.backend.channel import Channel
from repro.backend.datastore import DataStore
from repro.cache.eviction import EvictionPolicy
from repro.concurrency.backend import BackendServer
from repro.concurrency.config import as_concurrency
from repro.core.cost_model import CostModel
from repro.core.policy import FreshnessPolicy, FutureIndex
from repro.errors import ConfigurationError
from repro.obs.recorder import as_recorder, obs_process_read, obs_process_write
from repro.sim.clock import SimulationClock
from repro.sim.node import CacheNode
from repro.sim.results import SimulationResult
from repro.store.runtime import StoreRuntime
from repro.store.snapshot import StoreConfig
from repro.workload.base import Request, iter_chunks


class Simulation:
    """Replay a request stream under a freshness policy and account its costs.

    The workload may be any iterable of requests — a list, the lazy stream of
    :meth:`~repro.workload.base.Workload.iter_requests`, a trace file reader,
    a :class:`~repro.workload.compiled.CompiledTrace`.  It is replayed a
    column chunk at a time (:func:`~repro.workload.base.iter_chunks`): column
    sources hand their chunks over as they are, anything else is batched, and
    only one chunk is ever buffered, so replaying tens of millions of requests
    runs in constant memory.  The one exception is a clairvoyant policy
    (``policy.needs_future``): it requires the full future request index, so
    the stream is materialized up front.

    Args:
        workload: Time-ordered request stream to replay.  Ordering is
            validated during replay; an out-of-order request raises
            :class:`~repro.errors.WorkloadError`.
        policy: The freshness policy under test.
        staleness_bound: The bound ``T`` in seconds that cached data must
            satisfy (also the TTL duration and the write-batching interval).
        costs: Cost model supplying ``c_m``, ``c_i``, ``c_u``.
        cache_capacity: Maximum number of cached objects (``None`` =
            unbounded).
        eviction: Eviction policy for the cache (default LRU).
        channel: Backend-to-cache message channel; ``None`` means ideal
            (instantaneous and lossless).
        tracker_capacity: Capacity of the backend's invalidated-key tracker
            (``None`` = exact tracking).
        duration: Simulated horizon ``T'``; defaults to the time of the last
            request.
        workload_name: Label recorded in the result (for reports).
        discard_buffer_on_miss_fill: Whether the backend drops a buffered
            write for a key once a miss has re-fetched that key within the
            same interval (the backend served that miss, so it knows the cache
            is fresh again).
        final_flush: Whether to flush the write buffer once more at the end of
            the run, matching the closed-form model that charges every
            interval containing a write.
        store: Optional persistence config (:class:`~repro.store.StoreConfig`).
            When given, every backend write is journaled to a write-ahead log
            and the datastore is snapshotted at ``snapshot_interval`` plus
            once at the end of the run, so the backend can be rebuilt
            byte-for-byte by :func:`repro.store.recover_datastore`.
        history_retention: Optional retention window for the datastore's
            per-key write history (see :class:`~repro.backend.datastore.DataStore`).
        obs: Optional observability settings — an
            :class:`~repro.obs.ObsConfig` (or a pre-built
            :class:`~repro.obs.ObsRecorder`).  When set, the run records
            windowed time-series, sampled request spans, and events into
            ``self.obs`` (see :mod:`repro.obs`); when ``None`` (default) the
            replay binds its plain hot path and pays zero overhead.  The
            recorder only observes result counters — replay results are
            byte-identical with observability on or off.
        concurrency: Optional in-flight fetch model — a
            :class:`~repro.concurrency.ConcurrencyConfig`.  When set, cache
            misses *occupy* the backend for a sampled service time (finite
            slot capacity, FIFO queueing), fetch completions become simulator
            events, stampede-mitigation policies apply, and per-read latency
            is recorded into the result's HDR buckets.  When ``None``
            (default) the replay binds the classic instant-fetch hot path —
            byte-identical to previous releases (test-pinned).
    """

    def __init__(
        self,
        workload: Iterable[Request],
        policy: FreshnessPolicy,
        staleness_bound: float,
        costs: Optional[CostModel] = None,
        cache_capacity: Optional[int] = None,
        eviction: Optional[EvictionPolicy] = None,
        channel: Optional[Channel] = None,
        tracker_capacity: Optional[int] = None,
        duration: Optional[float] = None,
        workload_name: str = "",
        discard_buffer_on_miss_fill: bool = True,
        final_flush: bool = True,
        store: Optional[StoreConfig] = None,
        history_retention: Optional[float] = None,
        obs: Optional[Any] = None,
        concurrency: Optional[Any] = None,
    ) -> None:
        if staleness_bound <= 0:
            raise ConfigurationError(
                f"staleness_bound must be positive, got {staleness_bound}"
            )
        self.policy = policy
        # Clairvoyant policies need the full future request index, so only
        # they force materialization; everyone else replays the stream as-is.
        if policy.needs_future:
            self.requests: Optional[List[Request]] = list(workload)
            self._stream: Iterable[Request] = self.requests
        else:
            self.requests = None
            self._stream = workload
        self.staleness_bound = float(staleness_bound)
        self.costs = costs if costs is not None else CostModel()
        self.workload_name = workload_name
        self.final_flush = final_flush

        if duration is None:
            # For a streaming workload the horizon is unknown up front; it is
            # finalized from the clock (the last request time) after replay.
            duration = self.requests[-1].time if self.requests else 0.0
        self.duration = float(duration)

        self.obs = as_recorder(obs)
        self.datastore = DataStore(retention=history_retention)
        self._store: Optional[StoreRuntime] = None
        if store is not None:
            self._store = StoreRuntime(store, self.costs)
            self._store.attach(self.datastore)
            if self.obs is not None:
                self._store.attach_obs(self.obs)
        self.clock = SimulationClock()
        self.result = SimulationResult(
            policy_name=policy.name,
            workload_name=workload_name,
            staleness_bound=self.staleness_bound,
            duration=self.duration,
        )
        #: Non-empty exactly while the node has freshness messages in flight,
        #: so the loop only sweeps deliveries when there is one to find.
        self._pending: set = set()
        #: The cache-aside core; this driver's one node.
        self.node = CacheNode(
            node_id="cache",
            policy=policy,
            staleness_bound=self.staleness_bound,
            costs=self.costs,
            datastore=self.datastore,
            result=self.result,
            cache_capacity=cache_capacity,
            eviction=eviction,
            channel=channel,
            tracker_capacity=tracker_capacity,
            discard_buffer_on_miss_fill=discard_buffer_on_miss_fill,
            pending_registry=self._pending,
            future=(
                FutureIndex.from_requests(self.requests)
                if self.requests is not None
                else None
            ),
        )
        self.cache = self.node.cache
        self.buffer = self.node.buffer
        self.tracker = self.node.tracker

        # Concurrent-fetch model (None keeps the instant-fetch hot path).
        self.concurrency = as_concurrency(concurrency)
        self.backend_server: Optional[BackendServer] = None
        if self.concurrency is not None:
            self.backend_server = BackendServer(self.concurrency.capacity)
            self.node.attach_concurrency(
                self.concurrency, self.backend_server, self.concurrency.seed
            )

        # Only write-reactive policies flush; a TTL policy's next flush is never.
        self._next_flush = self.staleness_bound if self.node.reacts_to_writes else math.inf
        self._refresh_next_due()
        self._has_run = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Replay the whole request stream and return the accumulated result.

        The loop is the single-cache hot path, and the only one: it walks the
        chunks of :func:`~repro.workload.base.iter_chunks` (which also checks
        the time order) and hands each row to the handlers as scalars, so no
        request object is built or unpacked here.  Background work is only
        entered when a flush/snapshot is actually due or a delivery is in
        flight, and the clock — which only finalisation reads — is advanced
        once after the loop rather than per request.
        """
        if self._has_run:
            raise ConfigurationError("a Simulation instance can only be run once")
        self._has_run = True
        # Observability binds wrapper methods *instead of* the plain ones:
        # with obs disabled this loop is byte-for-byte the plain hot path.
        if self.obs is not None:
            self._obs_begin("scalar")
            process_read = self._obs_process_read
            process_write = self._obs_process_write
        else:
            process_read = self._process_read
            process_write = self._process_write
        advance_background = self._advance_background_work
        pending = self._pending
        last = self.clock.now
        next_due = self._next_due
        for chunk in iter_chunks(self._stream):
            for time, key, is_read, key_size, value_size in zip(*chunk):
                if pending or time >= next_due:
                    advance_background(time)
                    next_due = self._next_due
                if is_read:
                    process_read(time, key, key_size, value_size)
                else:
                    process_write(time, key, key_size, value_size)
            last = chunk[0][-1]
        if last > self.clock.now:
            self.clock.advance_to(last)
        self._finalize()
        return self.result

    # ------------------------------------------------------------------ #
    # Observability wrappers (only ever bound when a recorder is attached)
    # ------------------------------------------------------------------ #
    def _obs_begin(self, engine: str) -> None:
        self.obs.attach((("cache", self.result, self.cache.stats),))
        self.obs.run_start(
            0.0,
            policy=self.policy.name,
            workload=self.workload_name,
            engine=engine,
            nodes=1,
        )

    _obs_process_read = obs_process_read
    _obs_process_write = obs_process_write

    # ------------------------------------------------------------------ #
    # Request processing
    # ------------------------------------------------------------------ #
    @property
    def _process_read(self):
        """The node's read handler (the concurrent one once attached) *is*
        this driver's: ``run()`` resolves it once, so the hot path gains no
        frame over calling the node directly."""
        return self.node.handle_read

    def _process_write(self, time: float, key: str, key_size: int, value_size: int) -> None:
        """Commit a write to the backend, then let the node observe it."""
        self.datastore.write(key, time, value_size)
        self.node.observe_write(time, key, key_size, value_size, True)

    # ------------------------------------------------------------------ #
    # Background work: interval flushes, snapshots, message delivery
    # ------------------------------------------------------------------ #
    def _refresh_next_due(self) -> None:
        """Recompute the earliest time background work must run."""
        next_snapshot = self._store.next_snapshot if self._store else math.inf
        self._next_due = min(self._next_flush, next_snapshot)

    def _advance_background_work(self, until: float) -> None:
        """Run interval flushes, snapshots, and deliveries due before ``until``.

        Flushes and snapshots are interleaved in time order (flush first on a
        tie, so a snapshot observes the flushed state of its instant).  At a
        flush instant the node applies the deliveries due by then, then (under
        the in-flight fetch model) the fetch completions due by then, then
        flushes.
        """
        node = self.node
        while self._next_due <= until:
            due = self._next_due
            if due == self._next_flush:
                node.deliver_until(due)
                node.flush(due)
                self._next_flush += self.staleness_bound
            else:
                self._store.checkpoint(due, self.datastore)
            self._refresh_next_due()
        node.deliver_until(until)

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def _finalize(self) -> None:
        end_time = max(self.duration, self.clock.now)
        self.clock.advance_to(end_time)
        self._advance_background_work(end_time)
        self.node.finalize(end_time, self.final_flush)
        if self._store is not None:
            self._store.checkpoint(end_time, self.datastore)
            stats = self._store.stats()
            self.result.persistence_cost = stats["persistence_cost"]
            self.result.wal_appends = stats["wal_appends"]
            self.result.wal_flushes = stats["wal_flushes"]
            self.result.snapshots_taken = stats["snapshots"]
            self._store.close()
        if self.obs is not None:
            self.obs.finish(end_time)

    def store_stats(self) -> Optional[Dict[str, Any]]:
        """Deterministic persistence counters (``None`` without a store)."""
        return self._store.stats() if self._store is not None else None
