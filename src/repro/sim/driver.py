"""The one replay driver: what the single cache and the fleet share.

:class:`ReplayDriver` owns everything around the
:class:`~repro.sim.node.CacheNode` s that is not per cache — the staleness
bound and horizon (positive and finite), the cost model, the datastore and its
optional store runtime, the recorder, the clock, the backend fetch server of
the in-flight fetch model — and the one copy of the three steps of a replay:
the request loop (:meth:`~ReplayDriver._replay`), the due work between
requests (:meth:`~ReplayDriver._advance`: flushes, snapshots, timed events,
deliveries) and finalize (:meth:`~ReplayDriver._finalize`).
:class:`~repro.sim.simulation.Simulation` is its one-node, unrouted case;
:class:`~repro.cluster.cluster.ClusterSimulation` adds routing, membership,
scenario events, the kill point and resume; the columnar twins
(:class:`~repro.sim.vector.SpanReplay`) swap the request loop for span
kernels and keep the rest.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.backend.datastore import DataStore
from repro.concurrency.backend import BackendServer
from repro.concurrency.config import as_concurrency
from repro.core.cost_model import CostModel
from repro.errors import ConfigurationError
from repro.obs.recorder import as_recorder, obs_process_read, obs_process_write
from repro.sim.clock import SimulationClock
from repro.sim.node import CacheNode, ConcurrentCacheNode
from repro.store.runtime import StoreRuntime
from repro.store.snapshot import StoreConfig
from repro.workload.base import Chunk, Request, iter_chunks


def positive_finite(name: str, value: float) -> float:
    """``value`` as a float, or a :class:`~repro.errors.ConfigurationError`
    unless positive and finite: the rule for every staleness bound and
    horizon (the CLI's ``_positive_float`` asks the same)."""
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return number


def _window(
    chunks: Iterator[Chunk], after: Optional[float], upto: Optional[float]
) -> Iterator[Chunk]:
    """The rows with ``after < time <= upto`` (``None``: unbounded).  The
    stream is time-ordered, so a resume trims a prefix and a kill point a
    suffix; reading stops at the first row past ``upto``."""
    for chunk in chunks:
        times = chunk[0]
        lo = 0 if after is None else bisect_right(times, after)
        hi = len(times) if upto is None else bisect_right(times, upto)
        if lo < hi:
            yield chunk if hi - lo == len(times) else tuple(column[lo:hi] for column in chunk)
        if hi < len(times):
            return


class ReplayDriver:
    """Replay a request stream against cache nodes.

    A subclass calls ``__init__`` (checks and plain fields, no side effect),
    then :meth:`_open`, builds its nodes with :meth:`_node` and hands them to
    :meth:`_adopt`.  It supplies ``policy_name``, ``_stream``,
    ``_process_read`` / ``_process_write`` (where a request goes) and
    ``_result(end_time, store_stats, interrupted) -> (result, totals)``; one
    with timed events sets ``_next_event`` and applies them in
    ``_apply_event()``.
    """

    #: What a misuse of the driver raises, and the name the message gives it.
    _error: type = ConfigurationError
    _name = "Simulation"

    def __init__(
        self,
        *,
        staleness_bound: float,
        duration: Optional[float],
        costs: Optional[CostModel],
        workload_name: str,
        concurrency: Optional[Any],
    ) -> None:
        self.staleness_bound = positive_finite("staleness_bound", staleness_bound)
        # Without a duration the horizon is the last request, known after replay.
        self.duration = positive_finite("duration", duration) if duration is not None else 0.0
        self.costs = costs if costs is not None else CostModel()
        self.workload_name = workload_name
        self.concurrency = as_concurrency(concurrency)
        #: The fetch server every node queues on (``None``: instant fetches).
        self.backend: Optional[BackendServer] = (
            BackendServer(self.concurrency.capacity) if self.concurrency is not None else None
        )
        self.clock = SimulationClock()
        #: Ids of the nodes with freshness messages in flight: non-empty
        #: exactly while one is, so the loop only sweeps deliveries then.
        self._pending: set = set()
        self._next_flush = self.staleness_bound
        self._next_event = math.inf
        #: ``hook(driver, time)``, run after every interval flush.
        self._interval_hook = None
        #: The checkpoint time a resumed run continues after.
        self._resume_from: Optional[float] = None
        self._has_run = False

    def _open(self, store: Optional[StoreConfig], obs: Any) -> None:
        """The recorder, the datastore and its store runtime: the first side
        effect (a store opens its log)."""
        self.obs = as_recorder(obs)
        self.datastore = DataStore()
        self._store: Optional[StoreRuntime] = None
        if store is not None:
            self._store = StoreRuntime(store, self.costs)
            self._store.attach(self.datastore)
            if self.obs is not None:
                self._store.attach_obs(self.obs)

    def _node(self, fetch_seed: int, **config: Any) -> CacheNode:
        """One node on the driver's datastore, costs and bound: a
        :class:`~repro.sim.node.ConcurrentCacheNode` on the driver's fetch
        server (draws seeded with ``fetch_seed``) under the fetch model."""
        config.update(
            staleness_bound=self.staleness_bound,
            costs=self.costs,
            datastore=self.datastore,
            pending_registry=self._pending,
        )
        if self.concurrency is None:
            return CacheNode(**config)
        return ConcurrentCacheNode(
            concurrency=self.concurrency, server=self.backend, seed=fetch_seed, **config
        )

    def _adopt(self, nodes: List[CacheNode]) -> None:
        """Take ``nodes``, in creation order and by id."""
        self._node_list = nodes
        self._nodes = {node.node_id: node for node in nodes}

    def _spend(self) -> None:
        """A driver replays once."""
        if self._has_run:
            raise self._error(f"a {self._name} instance can only be run once")
        self._has_run = True

    def _start(self, engine: str) -> None:
        """Settle the schedule and start the recorder, right before the replay.

        A flush is work only for a node that buffers writes, decays an L1's
        admission or rotates a hot-key detector, or for an interval hook;
        without any of them the next flush is never, so a run takes no
        no-op flush per interval however small the bound.
        """
        if self._interval_hook is None and not any(
            node.reacts_to_writes or node.l1 is not None or node.detector is not None
            for node in self._node_list
        ):
            self._next_flush = math.inf
        self._refresh_next_due()
        if self.obs is None:
            return
        self.obs.attach([(node.node_id, node.result, node.cache.stats) for node in self._node_list])
        self.obs.run_start(
            self._resume_from if self._resume_from is not None else 0.0,
            policy=self.policy_name,
            workload=self.workload_name,
            engine=engine,
            nodes=len(self._node_list),
            **self._run_meta(),
        )

    def _run_meta(self) -> Dict[str, Any]:
        """What the recorder's run-start says besides the common fields."""
        return {}

    def _replay(self, stream: Iterable[Request], stop_at: Optional[float] = None) -> None:
        """The one request loop: replay ``stream`` after the resume point, up to ``stop_at``.

        Each row of the stream's column chunks goes to the bound callables as
        scalars; due work runs only when something is due or a delivery is
        in flight, and the clock moves once, after the loop.
        """
        chunks = iter_chunks(stream)
        if self._resume_from is not None or stop_at is not None:
            chunks = _window(chunks, self._resume_from, stop_at)
        read, write = self._handlers()
        advance = self._advance
        pending = self._pending
        next_due = self._next_due
        last = self.clock.now
        for chunk in chunks:
            for time, key, is_read, key_size, value_size in zip(*chunk):
                if pending or time >= next_due:
                    advance(time)
                    next_due = self._next_due
                if is_read:
                    read(time, key, key_size, value_size)
                else:
                    write(time, key, key_size, value_size)
            last = chunk[0][-1]
        if last > self.clock.now:
            self.clock.advance_to(last)

    def _handlers(self):
        """The read and write callables of the loop: the recorder's wrappers
        *instead of* the plain ones while a recorder is attached."""
        if self.obs is not None:
            return self._obs_process_read, self._obs_process_write
        return self._process_read, self._process_write

    _obs_process_read = obs_process_read
    _obs_process_write = obs_process_write

    def _refresh_next_due(self) -> None:
        """When due work next runs: the earliest flush, snapshot or event."""
        next_snapshot = self._store.next_snapshot if self._store is not None else math.inf
        self._next_due = min(self._next_flush, next_snapshot, self._next_event)

    def _advance(self, until: float) -> None:
        """Run the due work up to ``until``, in time order.

        On a tie the flush goes first (a snapshot observes the flushed state
        of its instant) and an event last.  At a flush every node takes its
        due deliveries and flushes (:meth:`_flush_nodes`), then the interval
        hook runs; at the end
        the nodes with messages in flight take those due by ``until``.
        """
        while self._next_due <= until:
            due = self._next_due
            if due == self._next_flush:
                self._flush_nodes(due)
                self._next_flush += self.staleness_bound
                if self._interval_hook is not None:
                    self._interval_hook(self, due)
            elif self._store is not None and due == self._store.next_snapshot:
                self._checkpoint(due)
            else:
                self._apply_event()
            self._refresh_next_due()
        self._deliver(until)

    def _flush_nodes(self, time: float) -> None:
        """The interval boundary at ``time``: every node, in creation order,
        takes its due deliveries and flushes its write buffer."""
        for node in self._node_list:
            node.deliver_until(time)
            node.flush(time)

    def _deliver(self, until: float) -> None:
        """Apply the freshness messages due by ``until``, nodes in id order."""
        if self._pending:
            for node_id in sorted(self._pending):
                self._nodes[node_id].deliver_until(until)

    def _checkpoint(self, time: float) -> None:
        """One durable snapshot (the single cache's: the datastore alone)."""
        self._store.checkpoint(time, self.datastore)

    def _finalize(self, stop_at: Optional[float] = None):
        """End the run and return its result.

        Without ``stop_at`` the run ends at its horizon (the duration or the
        last request, whichever is later) and the nodes settle; at a kill
        point it ends there and the nodes keep what a crash leaves.  Either
        way the due work runs to the end, the store takes its last checkpoint
        and closes, its counters land on the result, and the recorder
        finishes.
        """
        end_time = stop_at if stop_at is not None else max(self.duration, self.clock.now)
        self._advance(end_time)
        self.clock.advance_to(end_time)
        if stop_at is None:
            for node in self._node_list:
                node.finalize(end_time)
        stats = None
        if self._store is not None:
            self._checkpoint(end_time)
            stats = self._store.stats()
            self._store.close()
        result, totals = self._result(end_time, stats, stop_at is not None)
        if stats is not None:
            totals.persistence_cost = stats["persistence_cost"]
            totals.wal_appends = stats["wal_appends"]
            totals.wal_flushes = stats["wal_flushes"]
            totals.snapshots_taken = stats["snapshots"]
        if self.obs is not None:
            self.obs.finish(end_time)
        return result

    def store_stats(self) -> Optional[Dict[str, Any]]:
        """Deterministic persistence counters (``None`` without a store)."""
        return self._store.stats() if self._store is not None else None
