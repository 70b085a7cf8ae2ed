"""The single-cache driver over the cache-aside core.

The cache-aside loop of the paper's Figure 1 — reads served from the cache,
misses filled from the backend, writes bypassing the cache, and a freshness
policy holding cached data within the staleness bound ``T`` — lives in
exactly one place: :class:`~repro.sim.node.CacheNode`, where the cost
accounting of §2.1 and the lazy TTL settlement are documented.  The request
loop, the flush / snapshot / delivery schedule and finalize live in one place
too, :class:`~repro.sim.driver.ReplayDriver`.  :class:`Simulation` is its
one-node, unrouted case: it keeps only its node, the node's read handler as
its read callable, the backend commit of a write, the clairvoyant policy's
future index, and its :class:`~repro.sim.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.backend.channel import Channel
from repro.core.cost_model import CostModel
from repro.core.policy import FreshnessPolicy, FutureIndex
from repro.sim.driver import ReplayDriver
from repro.sim.results import SimulationResult
from repro.store.snapshot import StoreConfig
from repro.workload.base import Request


class Simulation(ReplayDriver):
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
            satisfy (also the TTL duration and the write-batching interval);
            positive and finite.
        costs: Cost model supplying ``c_m``, ``c_i``, ``c_u``.
        cache_capacity: Maximum number of cached objects (``None`` =
            unbounded); a bounded cache evicts its least recently used key.
        channel: Backend-to-cache message channel; ``None`` means ideal
            (instantaneous and lossless).
        duration: Simulated horizon ``T'`` (positive and finite); defaults
            to the time of the last request.
        workload_name: Label recorded in the result (for reports).
        store: Optional persistence config (:class:`~repro.store.StoreConfig`).
            When given, every backend write is journaled to a write-ahead log
            and the datastore is snapshotted at ``snapshot_interval`` plus
            once at the end of the run, so the backend can be rebuilt
            byte-for-byte by :func:`repro.store.recover_datastore`.
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
        channel: Optional[Channel] = None,
        duration: Optional[float] = None,
        workload_name: str = "",
        store: Optional[StoreConfig] = None,
        obs: Optional[Any] = None,
        concurrency: Optional[Any] = None,
    ) -> None:
        super().__init__(
            staleness_bound=staleness_bound,
            duration=duration,
            costs=costs,
            workload_name=workload_name,
            concurrency=concurrency,
        )
        self.policy = policy
        self.policy_name = policy.name
        # Clairvoyant policies need the full future request index, so only
        # they force materialization; everyone else replays the stream as-is.
        self.requests: Optional[List[Request]] = list(workload) if policy.needs_future else None
        self._stream: Iterable[Request] = self.requests if self.requests is not None else workload
        if duration is None and self.requests:
            self.duration = float(self.requests[-1].time)
        self._open(store, obs)
        self.result = SimulationResult(
            policy_name=policy.name,
            workload_name=workload_name,
            staleness_bound=self.staleness_bound,
            duration=self.duration,
        )
        #: The cache-aside core; this driver's one node.
        self.node = self._node(
            self.concurrency.seed if self.concurrency is not None else 0,
            node_id="cache",
            policy=policy,
            result=self.result,
            cache_capacity=cache_capacity,
            channel=channel,
            future=(
                FutureIndex.from_requests(self.requests) if self.requests is not None else None
            ),
        )
        self._adopt([self.node])
        self.cache = self.node.cache
        self.buffer = self.node.buffer
        self.tracker = self.node.tracker

    def run(self) -> SimulationResult:
        """Replay the whole request stream and return the accumulated result."""
        self._spend()
        self._start("scalar")
        self._replay(self._stream)
        return self._finalize()

    @property
    def _process_read(self):
        """The node's read handler *is* this driver's: the loop resolves it
        once, so the hot path gains no frame over calling the node directly."""
        return self.node.handle_read

    def _process_write(self, time: float, key: str, key_size: int, value_size: int) -> None:
        """Commit a write to the backend, then let the node observe it."""
        self.datastore.write(key, time, value_size)
        self.node.observe_write(time, key, key_size, value_size, True)

    def _result(self, end_time, stats, interrupted):
        return self.result, self.result
