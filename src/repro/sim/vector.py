"""Vectorized (columnar) replay of a compiled trace.

The scalar :class:`~repro.sim.simulation.Simulation` pays Python-interpreter
overhead per request.  For the policies the paper sweeps most, almost nothing
*happens* per request: between two simulation events (interval flushes,
message deliveries) a key's entry changes state at most once, so the hit/miss
classification, the staleness check, and the cost accumulation over a whole
span of requests follow from each key's *endpoints* in the span — how many
reads, the first and the last one, the first and the last write.

:class:`VectorSimulation` exploits exactly that.  It consumes a
:class:`~repro.workload.compiled.CompiledTrace` and replays each span between
flush boundaries with **one kernel call**: the write-reactive kernel gathers
every key's endpoints with a fixed number of numpy operations over the span's
key columns and leaves only the unavoidable object work (an entry lookup and
hit bump per key, an entry fill per miss, a buffered write per written key)
to a Python loop over plain columns.  The cost of a replay is therefore
O(requests) of numpy, plus O(keys touched) of object work and a fixed charge
per span — not O(keys x spans) kernel calls, which is what made a tight
staleness bound (many short spans) the slow case.  The TTL policies never
react to writes and have no flush boundaries, so their whole trace is one
span and one kernel call per host: TTL-polling is a closed form over the
host's read rows, taken a fixed block of rows at a time, and TTL-expiry
bisects every key's next epoch at once.  Every simulation *event* — the
interval flush, policy decisions, message sends and deliveries, finalisation —
runs through the one driver's unmodified due work and finalize
(:class:`~repro.sim.driver.ReplayDriver`) and its
:class:`~repro.sim.node.CacheNode` s, against real :class:`Cache` / :class:`DataStore` /
:class:`WriteBuffer` objects that the kernels keep in sync at span ends.  The
result is byte-for-byte identical to the scalar engine: same counters, same
float accumulation order, same dict insertion orders, same
:class:`DataStore` history (the equivalence suite pins this for every
policy/workload combination).

Why byte-identity is achievable at all:

* **Span writes are safe to pre-apply.**  A span never outlives one staleness
  interval ``T``, so any in-span hit's staleness horizon ``t - T`` lies before
  the span start — freshness checks only ever consult writes from *earlier*
  spans, which are all applied in both engines.
* **Miss versions are positional.**  ``DataStore.read`` at a scalar read sees
  exactly the writes that precede the read in stream order, so the version a
  miss fetches equals the count of that key's writes with smaller stream
  position — computable from the compiled columns regardless of pre-applied
  writes (and robust to timestamp ties).
* **Uniform-cost folds are order-free.**  With a fixed cost preset the per-read
  serve cost and the per-miss cost are constants; accumulating ``n`` of them
  left-to-right gives the same float regardless of which keys they came from.
  Varying-order sums (TTL poll charges) are replayed in global stream order.
* **Per-key span groups are slices, not sorts.**  A stable key sort of the
  whole trace, restricted to a span's position range, *is* the stable key
  sort of that span, so the trace's memoised
  :class:`~repro.workload.compiled.TraceIndex` — built by the first replay,
  shared by every later one — hands each span its per-key read and write
  positions as bounds into two key-major columns.
* **A span is a fact of the trace.**  Where a replay cuts depends on its
  bound; what the cut holds — those bounds, the write batch the datastore
  commits, each host's groups and the policy-independent prelude of the
  reactive kernel (:class:`_SpanPrelude`) — depends on the trace and the two
  cut positions only, so it lives in the index's span table
  (:class:`~repro.workload.compiled.SpanFacts`), built by the first replay
  that asks for the cut and read, never written, by all the others.
* **A write's place among the reads is arithmetic.**  The index stores, per
  write, where in the key-major read column the key's next read sits, so how
  many of a span's writes precede a key's first read (the version a miss
  fetches, the buffered writes a miss fill discards) or fall between two of
  its reads (the runs the E[W] estimator folds) is computed for all keys of a
  span from the span's writes alone, never from its reads.

Both columnar engines are one class, :class:`SpanReplay`, mixed in front of
their scalar driver: it owns ``run()``, the span loop and the envelope
members, :class:`VectorSimulation` is its one-host, unrouted case, and the
fleet twin (:class:`~repro.cluster.vector.VectorClusterSimulation`) adds
routed groups, one per node.  When a configuration falls outside the
vectorizable envelope — a row of :data:`ENVELOPE` holds for it — ``run()``
transparently falls back to the scalar driver's request loop over the trace's
column chunks — identical by construction, just slower — and names the row in
``fallback_reason``.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore, KeyHistory
from repro.cache.entry import CacheEntry, EntryState
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.errors import ConfigurationError, WorkloadError
from repro.sim.node import CacheNode
from repro.sim.simulation import Simulation
from repro.sketch.exact import ExactEWTracker
from repro.workload.compiled import CompiledTrace, SpanCursor, SpanFacts, TraceIndex

#: Policy classes with a vectorized kernel.  Exact types only: a subclass may
#: override hooks in ways the kernels would not reproduce.
_VECTOR_POLICIES = (
    AlwaysInvalidatePolicy,
    AlwaysUpdatePolicy,
    AdaptivePolicy,
    CacheStateAdaptivePolicy,
    TTLExpiryPolicy,
    TTLPollingPolicy,
)


def _ttl_resolvable(node: CacheNode, trace: CompiledTrace) -> bool:
    """Whether the trace's clock resolves the node's TTL timer.

    The TTL kernels need ``fetched_at + ttl`` to move past ``fetched_at`` and
    a poll count ``(t - anchor) / ttl`` to fit an integer column with room to
    spare, everywhere on the trace: the TTL must span a few float spacings at
    the trace's last timestamp and divide it fewer than ``2**50`` times.
    Inside that envelope the accounted poll count never overtakes the seen
    one, which is what the polling kernel's closed form rests on; outside it
    the scalar loop's Python floats and unbounded ints are the reference.
    A policy without a TTL timer has nothing to resolve.
    """
    if node.policy.ttl_mode is None or len(trace) == 0:
        return True
    ttl, end = node._ttl_value, trace.times[-1]
    return bool(ttl >= 4 * np.spacing(end) and end / ttl < 2**50)


class EnvelopeRow(NamedTuple):
    """One way out of the vectorizable envelope: a configuration ``predicate``
    holds for replays on the scalar path, with ``name`` as its
    ``fallback_reason``.  :func:`envelope_exit` says what each ``scope`` of
    predicate is asked of."""

    name: str
    scope: str
    reason: str
    predicate: Callable[..., bool]


#: The envelope of both columnar engines and the only statement of it:
#: ``vector_eligible()`` and ``run()`` ask it through
#: :func:`envelope_exit`, the fleet engine puts its own rows in front
#: (``repro.cluster.vector.FLEET_ENVELOPE``), and "What runs where" in
#: docs/guides/performance.md renders it.  Widening the envelope is deleting
#: a row, next to the kernel that makes it unnecessary.
ENVELOPE: Tuple[EnvelopeRow, ...] = (
    EnvelopeRow(
        "store", "driver",
        "persistence journals every write and checkpoints node state; the kernels do neither",
        lambda engine: engine._store is not None,
    ),
    EnvelopeRow(
        "concurrency", "driver",
        "in-flight fetches queue fills in time order; the kernels assume instant fills",
        lambda engine: engine.concurrency is not None,
    ),
    EnvelopeRow(
        "cost-breakdown", "driver",
        "a per-size cost breakdown prices each request; the kernels fold one constant per read",
        lambda engine: engine.costs.breakdown is not None,
    ),
    EnvelopeRow(
        "history-retention", "driver",
        "a retention window trims write history as time passes; the kernels pre-apply span writes",
        lambda engine: engine.datastore.retention is not None,
    ),
    EnvelopeRow(
        "policy", "node",
        "no kernel for the policy class (exact types only: a subclass may override any hook)",
        lambda node, trace: type(node.policy) not in _VECTOR_POLICIES,
    ),
    EnvelopeRow(
        "estimator", "node",
        "an adaptive policy on a sketch estimator; the kernels fold E[W] on the exact tracker",
        lambda node, trace: isinstance(node.policy, AdaptivePolicy)
        and type(node.policy.estimator) is not ExactEWTracker,
    ),
    EnvelopeRow(
        "ttl-above-bound", "node",
        "a TTL above the staleness bound lets hits violate it; the TTL kernels count no violations",
        lambda node, trace: node.policy.ttl_mode is not None
        and node._ttl_value > node.staleness_bound,
    ),
    EnvelopeRow(
        "ttl-resolution", "node",
        "a TTL below the resolution of the trace's clock: fetched_at + ttl rounds to fetched_at",
        lambda node, trace: not _ttl_resolvable(node, trace),
    ),
    EnvelopeRow(
        "hot-key", "node",
        "hot-key detection switches a key's policy mid-run; the kernels run one policy per node",
        lambda node, trace: node.detector is not None or node.hot_policy is not None,
    ),
    EnvelopeRow(
        "l1-tier", "node",
        "an L1's LRU and admission depend on request order; the kernels see span endpoints only",
        lambda node, trace: node.l1 is not None,
    ),
    EnvelopeRow(
        "bounded-cache", "node",
        "a bounded cache evicts in request order; the kernels assume every fill stays",
        lambda node, trace: node.cache.capacity is not None,
    ),
    EnvelopeRow(
        "bounded-tracker", "node",
        "a bounded invalidation tracker forgets keys; the kernels assume exact tracking",
        lambda node, trace: node.tracker.capacity is not None,
    ),
    EnvelopeRow(
        "membership", "node",
        "a node unreachable or off the ring at the start; the kernels assume a healthy fleet",
        lambda node, trace: not (node.reachable and node.in_ring),
    ),
    EnvelopeRow(
        "channel", "node",
        "a lossy, delayed, degraded or cut channel drops messages or lands them mid-span; "
        "the kernels deliver at the flush",
        lambda node, trace: not node.channel.instant,
    ),
)


def envelope_exit(
    rows: Tuple[EnvelopeRow, ...],
    engine,
    nodes: Sequence[CacheNode],
    stop_at: Optional[float] = None,
) -> Optional[EnvelopeRow]:
    """The first row of ``rows`` this replay trips; ``None`` inside the envelope.

    A node row is asked of every node driven, a driver row of the engine, a
    fleet row of the fleet engine and its ``run()`` argument.
    """
    asked = {
        "node": [(node, engine.trace) for node in nodes],
        "driver": [(engine,)],
        "fleet": [(engine, stop_at)],
    }
    return next(
        (row for row in rows if any(row.predicate(*of) for of in asked[row.scope])), None
    )


class _ReplayContext:
    """Everything the kernels need, resolved once per run."""

    __slots__ = (
        "trace",
        "index",
        "datastore",
        "bound",
        "ttl",
        "serve_const",
        "miss_const",
        "default_value_size",
    )

    def __init__(
        self,
        trace: CompiledTrace,
        index: TraceIndex,
        datastore: DataStore,
        bound: float,
        ttl: float,
        serve_const: float,
        miss_const: float,
    ) -> None:
        self.trace = trace
        self.index = index
        self.datastore = datastore
        self.bound = bound
        self.ttl = ttl
        self.serve_const = serve_const
        self.miss_const = miss_const
        self.default_value_size = datastore.default_value_size

    @classmethod
    def for_node(
        cls, trace: CompiledTrace, index: TraceIndex, node: CacheNode
    ) -> "_ReplayContext":
        """The context of a replay whose caches are configured like ``node``
        (bound, TTL and cost constants are per-run: any node of a fleet will do)."""
        return cls(
            trace=trace,
            index=index,
            datastore=node.datastore,
            bound=node.staleness_bound,
            ttl=node._ttl_value,
            serve_const=node._serve_cost_const,
            miss_const=node._miss_cost_const,
        )


class _HostState:
    """One cache's mutable replay state (the single cache, or one cluster node).

    The kernels are written against this narrow view so the cluster engine can
    reuse them per node; for :class:`VectorSimulation` there is exactly one.
    """

    __slots__ = (
        "result",
        "cache",
        "entries",
        "buffer",
        "tracker",
        "estimator",
        "reacts",
        "discard_on_miss_fill",
    )

    def __init__(
        self,
        result,
        cache,
        buffer,
        tracker,
        estimator: Optional[ExactEWTracker],
        reacts: bool,
        discard_on_miss_fill: bool,
    ) -> None:
        self.result = result
        self.cache = cache
        self.entries = cache._entries
        self.buffer = buffer
        self.tracker = tracker
        self.estimator = estimator
        self.reacts = reacts
        self.discard_on_miss_fill = discard_on_miss_fill

    @classmethod
    def of(cls, node: CacheNode) -> "_HostState":
        """The kernels' view of ``node`` (any node inside the envelope)."""
        policy = node.policy
        return cls(
            result=node.result,
            cache=node.cache,
            buffer=node.buffer,
            tracker=node.tracker,
            estimator=policy.estimator if isinstance(policy, AdaptivePolicy) else None,
            reacts=node._reacts,
            discard_on_miss_fill=node.discard_buffer_on_miss_fill,
        )


#: The poll columns of a tally no polling kernel has written to (every
#: reactive span's): shared, never mutated.
_NO_POLLS = np.empty(0, dtype=np.int64)
_NO_POLLS.flags.writeable = False


class _SpanTally:
    """Deferred per-span effects for one host.

    Counter deltas are applied in bulk; order-sensitive effects (new cache
    entries, buffer entries, estimator folds, poll charges) are collected with
    their stream positions and replayed position-sorted, which reproduces the
    scalar engine's dict insertion orders and float accumulation order.
    """

    __slots__ = (
        "reads",
        "hits",
        "stale_misses",
        "cold_misses",
        "violations",
        "expirations",
        "writes",
        "buffered_writes",
        "new_fills",
        "buffer_entries",
        "estimator_ops",
        "poll_positions",
        "poll_counts",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.hits = 0
        self.stale_misses = 0
        self.cold_misses = 0
        self.violations = 0
        self.expirations = 0
        self.writes = 0
        self.buffered_writes = 0
        self.new_fills: List[Tuple[int, CacheEntry]] = []
        self.buffer_entries: List[Tuple[int, BufferedWrite]] = []
        self.estimator_ops: List[Tuple[int, str, int, int, int, int, int]] = []
        # TTL-polling charges, as two aligned columns: the stream position
        # of each read that settles polls, and how many it settles.
        self.poll_positions = self.poll_counts = _NO_POLLS


def _apply_span_writes(ctx: _ReplayContext, facts: SpanFacts) -> int:
    """Commit a span's writes to the datastore, byte-identical to the scalar loop.

    The cut's write batch comes in first-write order (the scalar engine's
    history insertion order); each history copies the key's span write times
    out of the index's shared list and ends at the key's last span value
    size.  Returns the number of writes committed.
    """
    histories = ctx.datastore._histories
    names = ctx.trace.key_names
    write_times = ctx.index.write_time_list
    for key_id, lo, hi, value_size in zip(*facts.writes):
        name = names[key_id]
        history = histories.get(name)
        if history is None:
            history = histories[name] = KeyHistory(key=name, value_size=ctx.default_value_size)
        history.write_times.extend(write_times[lo:hi])
        history.value_size = value_size
    ctx.datastore.total_writes += facts.total_writes
    return facts.total_writes


def _fold_estimator(
    estimator: ExactEWTracker,
    name: str,
    reads: int,
    writes: int,
    before_first: int,
    before_last: int,
    runs_closed: int,
) -> None:
    """Fold one key's span of interleaved observations into the E[W] counters.

    Closed form of replaying ``observe_read`` / ``observe_write`` in stream
    order: each read closes the run of writes since the previous read, the
    first run absorbing the carried ``writes_since_read``.  Of the span's
    ``writes``, ``before_first`` precede the first read and ``before_last``
    the last one; ``runs_closed`` later reads close a non-empty run.
    """
    counters = estimator._counters_for(name)
    if reads == 0:
        counters.writes_since_read += writes
        return
    carry = counters.writes_since_read
    counters.sample_sum += before_last + carry
    if estimator.count_zero_runs:
        counters.sample_count += reads
    else:
        counters.sample_count += runs_closed + (1 if before_first + carry > 0 else 0)
    counters.writes_since_read = writes - before_last


#: One host's share of a span, as columns: ``(keys, first, count, stride,
#: write_lo, write_hi)``.  Group ``g`` is key ``keys[g]``; its reads are
#: ``read_pos[first[g] + j * stride]`` for ``j < count[g]`` and its writes the
#: slice ``[write_lo[g], write_hi[g])`` of the write columns.  Every group has
#: at least one read or one write.
Groups = Tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]


def _write_runs(
    index: TraceIndex,
    first: np.ndarray,
    count: np.ndarray,
    stride: int,
    write_lo: np.ndarray,
    num_writes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each group's span writes fall among its span reads.

    For groups that have both: the number of writes before the first read,
    the number before the last read, and the number of reads after the first
    that have a write since the previous read.  A write's rank among the
    group's reads is arithmetic on ``write_read_rank``, so this touches the
    span's writes once and no read at all.
    """
    starts = np.cumsum(num_writes) - num_writes
    group = np.repeat(np.arange(num_writes.size), num_writes)
    flat = np.arange(group.size) + (write_lo - starts)[group]
    rank = index.write_read_rank[flat].astype(np.int64)
    rank = (rank - first[group] + (stride - 1)) // stride
    reads = count[group]
    np.clip(rank, 0, reads, out=rank)
    groups = num_writes.size
    before_first = np.bincount(group[rank == 0], minlength=groups)
    before_last = num_writes - np.bincount(group[rank == reads], minlength=groups)
    # Ranks ascend within a group, so each distinct rank strictly between the
    # ends is one later read closing a non-empty run.
    opens = np.ones(group.size, dtype=np.bool_)
    opens[1:] = (rank[1:] != rank[:-1]) | (group[1:] != group[:-1])
    opens &= (rank > 0) & (rank < reads)
    runs_closed = np.bincount(group[opens], minlength=groups)
    return before_first, before_last, runs_closed


#: Table bytes charged per group of a :class:`_SpanPrelude`, fold columns and
#: write runs included whether or not a replay has asked for them yet: eight
#: 8-byte array slots, eleven list slots and a few boxed integers (measured:
#: 150-220 bytes on the benchmark traces).
_PRELUDE_GROUP_BYTES = 256


class _SpanPrelude:
    """The policy-independent half of :func:`_kernel_reactive_span`.

    What one host's groups of one cut are under *any* write-reactive policy,
    bound and cache state — built once per cut and host, memoised on the
    cut's :class:`~repro.workload.compiled.SpanFacts`, shared by every
    replay.  Arrays and lists are read, never written.

    Attributes:
        groups: The host's :data:`Groups`.
        names: Key name of each group.
        num_writes / writing / total_writes: Span writes per group, the
            groups that have any, and their sum.
        reading / read_counts / total_reads: The groups with span reads and
            their read counts (lists), and the sum.
        last_read: Time of each reading group's last span read.

    The write runs and the estimator's fold rows are made by the first replay
    that needs them (a miss on a key written in the span, an adaptive policy):
    a span of a few requests per key mostly needs neither.
    """

    __slots__ = (
        "groups", "names", "num_writes", "writing", "total_writes", "reading",
        "read_counts", "total_reads", "last_read", "_write_runs", "_fold_columns",
    )

    def __init__(self, trace: CompiledTrace, index: TraceIndex, groups: Groups) -> None:
        keys, first, count, stride, write_lo, write_hi = groups
        self.groups = groups
        self.names = list(map(trace.key_names.__getitem__, keys.tolist()))
        self.num_writes = num_writes = write_hi - write_lo
        self.writing = writing = num_writes.nonzero()[0]
        self.total_writes = int(num_writes.sum())
        reading = count.nonzero()[0]
        read_first, read_count = first[reading], count[reading]
        self.reading = reading.tolist()
        self.read_counts = read_count.tolist()
        self.total_reads = int(read_count.sum())
        self.last_read = trace.times[index.read_pos[read_first + (read_count - 1) * stride]]
        self._write_runs: Optional[np.ndarray] = None
        self._fold_columns: Optional[Tuple[list, ...]] = None

    def write_runs(self, index: TraceIndex) -> np.ndarray:
        """``(before_first, before_last, runs_closed)``: :func:`_write_runs` of
        every group that reads and writes, zero elsewhere.  A miss fetches
        the version as of its position, and the estimator folds runs."""
        if self._write_runs is None:
            keys, first, count, stride, write_lo, _ = self.groups
            num_writes = self.num_writes
            runs = np.zeros((3, keys.size), dtype=np.int64)
            mixed = (count * num_writes).nonzero()[0]
            if mixed.size:
                runs[:, mixed] = _write_runs(
                    index, first[mixed], count[mixed], stride, write_lo[mixed], num_writes[mixed]
                )
            self._write_runs = runs
        return self._write_runs

    def fold_rows(self, index: TraceIndex) -> Iterator[Tuple[int, str, int, int, int, int, int]]:
        """The :func:`_fold_estimator` rows of the span, sorted by first
        observation: the order the scalar engine creates counter rows in."""
        if self._fold_columns is None:
            keys, first, count, _, write_lo, _ = self.groups
            reading, writing = count.nonzero()[0], self.writing
            # A group is first seen at its first read or write, whichever
            # comes first in the stream.  (The position columns may be
            # unsigned: the sentinel for "no read" goes into a signed array
            # they are then copied into.)
            first_seen = np.full(keys.size, index.key_ids.size, dtype=np.int64)
            first_seen[reading] = index.read_pos[first[reading]]
            first_seen[writing] = np.minimum(
                first_seen[writing], index.write_pos[write_lo[writing]]
            )
            order = np.argsort(first_seen, kind="stable")
            observed = (first_seen, count, self.num_writes, *self.write_runs(index))
            seen, *observed = (column[order].tolist() for column in observed)
            names = list(map(self.names.__getitem__, order.tolist()))
            self._fold_columns = (seen, names, *observed)
        return zip(*self._fold_columns)


def _span_prelude(ctx: _ReplayContext, facts: SpanFacts, key, groups: Groups) -> _SpanPrelude:
    """The prelude of ``groups`` — the share of the cut of the host ``key``
    names — from the span table."""
    return ctx.index.routed(
        facts,
        key,
        lambda: (_SpanPrelude(ctx.trace, ctx.index, groups), _PRELUDE_GROUP_BYTES * groups[0].size),
    )


def _kernel_reactive_span(
    ctx: _ReplayContext, host: _HostState, tally: _SpanTally, prelude: _SpanPrelude
) -> None:
    """One host's whole span under a write-reactive policy.

    Within a span no messages arrive and nothing expires, so a key's entry
    changes state at most once: the first read of an absent/invalid entry
    misses and re-fetches, after which every read is a hit; a key valid at
    span start serves only hits.  Everything the span does to a key therefore
    follows from *endpoints* — read count, first and last read, first and
    last surviving write — which the cut's :class:`_SpanPrelude` holds for
    all keys; what is left per replay is the part that depends on the cache:
    the object work (entry lookup and hit bump, entry fill, buffered write)
    per key, over plain Python columns.
    """
    keys, first, count, stride, write_lo, write_hi = prelude.groups
    index, trace = ctx.index, ctx.trace
    times = trace.times
    names = prelude.names

    missed: List[int] = []
    missed_entries: List[Optional[CacheEntry]] = []
    late: List[int] = []
    late_as_of: List[float] = []
    late_horizon: List[float] = []
    lookup = host.entries.get
    valid = EntryState.VALID
    for g, reads, horizon in zip(
        prelude.reading, prelude.read_counts, (prelude.last_read - ctx.bound).tolist()
    ):
        entry = lookup(names[g])
        if entry is not None and entry.state is valid:
            entry.hits += reads
            if horizon > entry.as_of:
                late.append(g)
                late_as_of.append(entry.as_of)
                late_horizon.append(horizon)
        else:
            missed.append(g)
            missed_entries.append(entry)
    tally.reads += prelude.total_reads
    tally.hits += prelude.total_reads - len(missed)
    if late:
        _count_violations(
            ctx, tally, prelude.groups, np.array(late), np.array(late_as_of), np.array(late_horizon)
        )

    if missed:
        miss = np.array(missed, dtype=np.int64)
        position = index.read_pos[first[miss]]
        # Exactly the writes preceding the read in stream order are visible:
        # the key's pre-span writes plus the span writes before the miss.
        before_miss = (
            prelude.write_runs(index)[0][miss] if prelude.num_writes[miss].any() else 0
        )
        visible = write_lo[miss] + before_miss
        version = visible - index.write_offsets[keys[miss]]
        value_size = np.full(miss.size, ctx.default_value_size, dtype=np.int64)
        written = version.nonzero()[0]
        value_size[written] = index.write_value_sizes[visible[written] - 1]
        mark_refetched = host.tracker.mark_refetched
        new_fills = tally.new_fills
        cold = 0
        for g, entry, miss_position, miss_time, key_size, miss_version, size, reads in zip(
            missed,
            missed_entries,
            position.tolist(),
            times[position].tolist(),
            trace.key_sizes[position].tolist(),
            version.tolist(),
            value_size.tolist(),
            count[miss].tolist(),
        ):
            name = names[g]
            if entry is None:
                entry = CacheEntry(
                    key=name,
                    version=miss_version,
                    as_of=miss_time,
                    fetched_at=miss_time,
                    key_size=key_size,
                    value_size=size,
                    last_poll_accounted=miss_time,
                )
                new_fills.append((miss_position, entry))
                cold += 1
            else:
                entry.refresh(version=miss_version, time=miss_time, value_size=size)
                entry.last_poll_accounted = miss_time
            entry.hits += reads - 1
            mark_refetched(name)
        tally.cold_misses += cold
        tally.stale_misses += len(missed) - cold

    writing = prelude.writing
    if host.reacts and writing.size:
        tally.buffered_writes += prelude.total_writes
        start = write_lo
        if missed and host.discard_on_miss_fill:
            # A miss fill drops what the key had buffered before it.
            start = write_lo.copy()
            start[miss] += before_miss
        start = start[writing]
        surviving = start < write_hi[writing]
        buffered, start = writing[surviving], start[surviving]
        last = write_hi[buffered] - 1
        first_write = index.write_pos[start]
        buffer_entries = tally.buffer_entries
        for g, position, first_time, last_time, writes, key_size, size in zip(
            buffered.tolist(),
            first_write.tolist(),
            index.write_times[start].tolist(),
            index.write_times[last].tolist(),
            (last - start + 1).tolist(),
            trace.key_sizes[first_write].tolist(),
            index.write_value_sizes[last].tolist(),
        ):
            buffer_entries.append(
                (
                    position,
                    BufferedWrite(
                        key=names[g],
                        first_write_time=first_time,
                        last_write_time=last_time,
                        write_count=writes,
                        key_size=key_size,
                        value_size=size,
                    ),
                )
            )

    if host.estimator is not None:
        tally.estimator_ops.extend(prelude.fold_rows(index))


def _count_violations(
    ctx: _ReplayContext,
    tally: _SpanTally,
    groups: Groups,
    late: np.ndarray,
    as_of: np.ndarray,
    horizon: np.ndarray,
) -> None:
    """Staleness violations among hits on entries older than the bound.

    ``late`` are the groups served from a valid entry whose last read's
    ``horizon`` ``t - T`` lies past the entry's ``as_of``.  A hit violates the
    bound when the key was written in ``(as_of, t - T]``; that needs the
    key's last write before the span to be newer than the entry (or, at a
    float-rounding edge, its first span write to reach back to the horizon),
    which with ideal channels it never is — only groups passing that check
    pay for the per-read count.
    """
    keys, first, count, stride, write_lo, _ = groups
    index = ctx.index
    write_times = index.write_times
    if write_times.size == 0:
        return
    lo = write_lo[late]
    key_ids = keys[late]
    # Clamped gathers: the bound checks mask what a clamp made up.
    suspect = (lo > index.write_offsets[key_ids]) & (
        write_times[np.maximum(lo, 1) - 1] > as_of
    )
    suspect |= (lo < index.write_offsets[key_ids + 1]) & (
        write_times[np.minimum(lo, write_times.size - 1)] <= horizon
    )
    if not suspect.any():
        return
    for g, key_id, entry_as_of in zip(
        late[suspect].tolist(), key_ids[suspect].tolist(), as_of[suspect].tolist()
    ):
        reads = index.read_pos[first[g] : first[g] + count[g] * stride : stride]
        horizons = ctx.trace.times[reads] - ctx.bound
        candidates = horizons > entry_as_of
        key_write_times, _, _ = index.writes_of(key_id)
        stale_writes = key_write_times.searchsorted(
            horizons[candidates], side="right"
        ) - key_write_times.searchsorted(entry_as_of, side="right")
        tally.violations += int(np.count_nonzero(stale_writes))


#: Read rows the TTL-polling kernel settles at a time.  It makes about a
#: dozen 8-byte temporaries per row, so a block holds them near 2 MiB however
#: many reads the trace — or one hot key — has; the block-size note in
#: docs/guides/performance.md has the peak RSS measured with and without it.
_TTL_BLOCK_ROWS = 16_384


#: Keys the TTL-expiry kernel steps together.  A batched step finds every
#: live key's next epoch with a few hundred numpy calls (~0.3 ms) however few
#: keys are live; a scalar ``searchsorted`` on one key costs ~2 µs, so below
#: about this many live keys the per-key walk is the cheaper way to finish —
#: and the only bearable one for a hot key with tens of thousands of epochs.
_TTL_EXPIRY_BATCH = 128


def _bisect_groups(value_at, lo, hi, needle, right: bool = False) -> np.ndarray:
    """Segmented bisection: one binary search per group, all groups at once.

    Group ``g`` owns an ascending run of values; ``value_at(groups, ranks)``
    gathers element ``ranks[i]`` of group ``groups[i]``.  Returns, per group,
    the first rank in ``[lo[g], hi[g])`` whose value is at or above
    ``needle[g]`` (above it when ``right``), or ``hi[g]`` when there is none:
    ``searchsorted`` for every group in ``O(log(longest run))`` numpy steps.
    """
    lo, hi = lo.copy(), hi.copy()
    pending = np.flatnonzero(lo < hi)
    while pending.size:
        low, high = lo[pending], hi[pending]
        middle = (low + high) >> 1
        value = value_at(pending, middle)
        below = value <= needle[pending] if right else value < needle[pending]
        low = np.where(below, middle + 1, low)
        high = np.where(below, high, middle)
        lo[pending], hi[pending] = low, high
        pending = pending[low < high]
    return lo


def _versions_before(
    ctx: _ReplayContext, keys: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Per key, how many of its writes precede stream position ``positions[g]``.

    Exactly those writes are visible to a backend read at that position, so
    this is the version the read returns.
    """
    index = ctx.index
    write_lo = index.write_offsets[keys]
    return _bisect_groups(
        lambda groups, rank: index.write_pos[write_lo[groups] + rank],
        np.zeros(keys.size, dtype=np.int64),
        index.write_offsets[keys + 1] - write_lo,
        positions,
    )


def _backend_reads(
    ctx: _ReplayContext, keys: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Version and value size a backend read of each key returns, the read
    of ``keys[g]`` sitting at stream position ``positions[g]``: the value
    size is the latest visible write's, or the backend default."""
    index = ctx.index
    version = _versions_before(ctx, keys, positions)
    value_size = np.full(keys.size, ctx.default_value_size, dtype=np.int64)
    written = version.nonzero()[0]
    value_size[written] = index.write_value_sizes[
        index.write_offsets[keys[written]] + version[written] - 1
    ]
    return version, value_size


def _fill_cold(
    ctx: _ReplayContext,
    tally: _SpanTally,
    keys: np.ndarray,
    position: np.ndarray,
    *state: np.ndarray,
) -> None:
    """Record each key's cold fill at stream ``position`` as the entry its
    whole trace leaves behind: ``state`` is the ``(version, value_size,
    as_of, fetched_at, last_poll_accounted, hits)`` columns of those entries.

    A TTL host starts the trace empty and never drops an entry, so every key
    it reads is filled cold exactly once, wherever its later fetches fall.
    """
    names = ctx.trace.key_names
    new_fills = tally.new_fills
    for key_id, cold, key_size, version, size, as_of, fetched_at, accounted, hits in zip(
        keys.tolist(),
        position.tolist(),
        ctx.trace.key_sizes[position].tolist(),
        *(column.tolist() for column in state),
    ):
        new_fills.append(
            (
                cold,
                CacheEntry(
                    key=names[key_id],
                    version=version,
                    as_of=as_of,
                    fetched_at=fetched_at,
                    key_size=key_size,
                    value_size=size,
                    last_poll_accounted=accounted,
                    hits=hits,
                ),
            )
        )
    tally.cold_misses += int(keys.size)


def _kernel_ttl_expiry(
    ctx: _ReplayContext, host: _HostState, tally: _SpanTally, groups: Groups
) -> None:
    """One host's whole trace under TTL-expiry (the policy never reacts).

    An entry's life is a sequence of epochs: a fill anchors a timer, the
    first read at or past ``fetched_at + ttl`` expires and re-fetches.  With
    ``ttl <= bound`` no hit can violate the staleness bound, so only the
    epoch boundaries matter, and every key's next one is bisected out of its
    read run at once: ``O(keys x epochs x log reads)``, no pass over the
    reads.  The search starts after the current fill, so it advances even
    where ``fetched_at + ttl`` rounds back to ``fetched_at``.  Keys leave the
    batch as their runs end; the last :data:`_TTL_EXPIRY_BATCH` of them —
    typically the hot keys, with the most epochs — finish one at a time.
    """
    keys, first, count, stride, _, _ = groups
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos, ttl = ctx.trace.times, ctx.index.read_pos, ctx.ttl
    cold_position = read_pos[first]
    fill = np.zeros(keys.size, dtype=np.int64)  # rank of the latest fetch in the run
    fetch_time = times[cold_position]
    refetches = np.zeros(keys.size, dtype=np.int64)
    live = np.arange(keys.size)
    while live.size >= _TTL_EXPIRY_BATCH:
        run = first[live]
        expired = _bisect_groups(
            lambda groups, rank: times[read_pos[run[groups] + rank * stride]],
            fill[live] + 1,
            count[live],
            fetch_time[live] + ttl,
        )
        refetched = expired < count[live]
        live, expired = live[refetched], expired[refetched]
        fill[live] = expired
        fetch_time[live] = times[read_pos[first[live] + expired * stride]]
        refetches[live] += 1
    # The keys still live are too few to share a step's fixed cost, and each
    # is a chain of epochs that has to be walked in order: one scalar
    # ``searchsorted`` per epoch on the key's own read times.
    for group in live.tolist():
        run_times = times[read_pos[first[group] : first[group] + count[group] * stride : stride]]
        rank, fetched, epochs = int(fill[group]), fetch_time[group], 0
        while True:
            expired = max(int(run_times.searchsorted(fetched + ttl, side="left")), rank + 1)
            if expired >= run_times.size:
                break
            rank, fetched, epochs = expired, run_times[expired], epochs + 1
        fill[group], fetch_time[group] = rank, fetched
        refetches[group] += epochs
    hits = count - 1 - refetches
    version, value_size = _backend_reads(ctx, keys, read_pos[first + fill * stride])
    _fill_cold(
        ctx, tally, keys, cold_position,
        version, value_size, fetch_time, fetch_time, fetch_time, hits,
    )
    expirations = int(refetches.sum())
    tally.reads += int(count.sum())
    tally.hits += int(hits.sum())
    tally.stale_misses += expirations
    tally.expirations += expirations


def _kernel_ttl_polling(
    ctx: _ReplayContext, host: _HostState, tally: _SpanTally, groups: Groups
) -> None:
    """One host's whole trace under TTL-polling (the policy never reacts).

    A key's cold fill anchors its poll timer at ``a``; every later read
    settles the polls since the last accounting point with the scalar
    engine's exact arithmetic (:func:`repro.core.ttl.account_entry_polls`).
    A read at ``t`` has seen ``k = int((t - a) / ttl)`` polls, and once it
    settles them the accounting point is ``a + k * ttl``, which the next read
    counts back as ``s = int(((a + k * ttl) - a) / ttl)`` — *not* always
    ``k``: float rounding can land it one lower, and the closed form
    reproduces that.  ``k`` never decreases along a key's reads and
    ``s <= k`` for a TTL the trace's clock resolves (:func:`_ttl_resolvable`),
    so a read that settles nothing leaves ``s`` where the previous read's
    ``k`` puts it, and read ``i`` charges ``k[i] - s[i - 1]`` polls whether or
    not read ``i - 1`` charged any.  That is a fixed number of float64 column
    operations per read row, taken :data:`_TTL_BLOCK_ROWS` rows at a time.
    """
    keys, first, count, stride, _, _ = groups
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos, ttl = ctx.trace.times, ctx.index.read_pos, ctx.ttl
    cold_position = read_pos[first]
    anchor = times[cold_position]
    # The host's reads as one table of rows, group after group: row ``r`` of
    # group ``g`` is the read ``read_pos[slot[g] + r * stride]``.
    ends = np.cumsum(count)
    starts = ends - count
    slot = first - starts * stride
    # Each key's last charging read: how many polls it had seen, and where it
    # sits in the stream.  A key that never charges stays at its fill.
    settled_polls = np.zeros(keys.size, dtype=np.int64)
    settled_position = cold_position.copy()
    positions: List[np.ndarray] = []
    charges: List[np.ndarray] = []
    total = int(ends[-1])
    carried = 0  # ``s`` of the row before the block
    for lo in range(0, total, _TTL_BLOCK_ROWS):
        hi = min(lo + _TTL_BLOCK_ROWS, total)
        # The groups with a row in the block, and how many each has there.
        head, tail = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
        members = slice(head, tail + 1)
        group = np.repeat(
            np.arange(head, tail + 1),
            np.minimum(ends[members], hi) - np.maximum(starts[members], lo),
        )
        position = read_pos[slot[group] + np.arange(lo, hi) * stride]
        base = anchor[group]
        seen = ((times[position] - base) / ttl).astype(np.int64)
        # ``account_entry_polls`` guards the division with ``accounted >
        # anchor``; the only other case here is equality, which divides to 0.
        counted = (((base + seen * ttl) - base) / ttl).astype(np.int64)
        charge = seen.copy()
        charge[1:] -= counted[:-1]
        charge[0] -= carried
        carried = counted[-1]
        # The fill read itself never settles (no entry existed yet).
        fills = starts[members]
        charge[fills[fills >= lo] - lo] = 0
        charging = charge.nonzero()[0]
        if charging.size:
            owner = group[charging]
            final = np.append(owner[1:] != owner[:-1], True)
            settled_polls[owner[final]] = seen[charging[final]]
            settled_position[owner[final]] = position[charging[final]]
            positions.append(position[charging])
            charges.append(charge[charging])
    if positions:
        tally.poll_positions = np.concatenate(positions)
        tally.poll_counts = np.concatenate(charges)
    # Only a key's *final* settled state is observable after the trace: polls
    # refresh the entry monotonically, so the scalar engine's per-read entry
    # updates collapse into the last one.
    last_poll = anchor + settled_polls * ttl
    version, value_size = _backend_reads(ctx, keys, cold_position)
    # version_at(last_poll) over the writes applied before the settling read:
    # both constraints are prefixes of the key's writes, so the refreshed
    # version is the shorter prefix (for a key that never charged, no longer
    # than the fill's).
    write_lo = ctx.index.write_offsets[keys]
    polled_version = _bisect_groups(
        lambda groups, rank: ctx.index.write_times[write_lo[groups] + rank],
        np.zeros(keys.size, dtype=np.int64),
        _versions_before(ctx, keys, settled_position),
        last_poll,
        right=True,
    )
    hits = count - 1
    _fill_cold(
        ctx, tally, keys, cold_position,
        np.maximum(version, polled_version), value_size,
        np.maximum(anchor, last_poll), anchor, last_poll, hits,
    )
    tally.reads += total
    tally.hits += int(hits.sum())


#: Fewest additions :func:`_fold_constant` takes in closed form.  Measured on
#: a 2-vCPU x86 container under CPython 3.11: the plain ``sum`` costs 0.2 µs
#: plus 3.6 ns an addend (3.7 µs for 1 000), the closed form 1.1 µs inside
#: one binade plus about 1.3 µs for each binade the sum climbs (7 µs for
#: 1 000 addends from 0, 16 µs for 3 000).  They break even near 300 addends
#: on a grown sum and near 5 000 on a sum that starts at 0; at 1 000 either
#: costs a few µs, and the short spans of a tight bound stay on the loop.
_FOLD_CLOSED_FORM_FROM = 1000

#: ``sum`` of floats is a plain left fold up to Python 3.11; from 3.12 on it
#: compensates (Neumaier), which the scalar engine's ``+=`` never does.
_SUM_IS_PLAIN = sys.version_info < (3, 12)


def _plain_fold(acc: float, c: float, n: int) -> float:
    """``acc += c``, ``n`` times, one addition at a time."""
    if _SUM_IS_PLAIN:
        return sum(repeat(c, n), acc)
    return reduce(add, repeat(c, n), acc)


def _fold_constant(acc: float, c: float, n: int) -> float:
    """``acc`` after ``n`` in-order additions of ``c``, bit for bit.

    While the running sum stays below the next power of two its ulp ``u``
    is fixed, so every addition rounds by the same step: ``c / u = q + f``
    ulps rounds to ``q`` ulps, or ``q + 1`` when ``f > 1/2`` — exact integer
    arithmetic on the sum's mantissa advances a whole binade at once, and
    the addition that crosses into the next binade is a float addition.
    A tie (``f == 1/2``) rounds to even, which is no constant step: it takes
    the plain loop, like a short fold, a negative sum, an addend that is not
    positive and anything not finite.
    """
    if n < _FOLD_CLOSED_FORM_FROM or not (0.0 <= acc < math.inf and 0.0 < c < math.inf):
        return _plain_fold(acc, c, n)
    while n and acc < math.inf:
        ulp = math.ulp(acc)
        mantissa = int(acc / ulp)
        # Ulps from the sum to the top of its binade; a subnormal sum's grid
        # runs on past that top (and 0's top is its own ulp), so it is only
        # a safe place to stop.
        room = (1 << mantissa.bit_length()) - mantissa
        ulps = c / ulp  # exact: ``ulp`` is a power of two
        if ulps >= room:
            acc += c
            n -= 1
            continue
        whole = int(ulps)
        fraction = ulps - whole
        if fraction == 0.5:
            return _plain_fold(acc, c, n)
        step = whole + (fraction > 0.5)
        if not step:
            return acc
        # The additions whose exact sum stays below the top: ``k * step <
        # room - whole``.
        taken = min(n, -(-(room - whole) // step))
        acc = (mantissa + taken * step) * ulp
        n -= taken
    return acc


def _flush_tally(ctx: _ReplayContext, host: _HostState, tally: _SpanTally) -> None:
    """Apply a span's deferred effects to the host, in scalar-identical order."""
    result = host.result
    stats = host.cache.stats
    result.reads += tally.reads
    result.writes += tally.writes
    result.hits += tally.hits
    result.stale_misses += tally.stale_misses
    result.stale_refetches += tally.stale_misses
    result.cold_misses += tally.cold_misses
    result.staleness_violations += tally.violations
    stats.lookups += tally.reads
    stats.hits += tally.hits
    stats.stale_misses += tally.stale_misses
    stats.cold_misses += tally.cold_misses
    stats.expirations += tally.expirations
    misses = tally.stale_misses + tally.cold_misses
    ctx.datastore.total_reads += misses
    # Constant-cost accumulations: the scalar engine's n in-order additions.
    result.useful_work = _fold_constant(result.useful_work, ctx.serve_const, tally.reads)
    result.freshness_cost = _fold_constant(
        result.freshness_cost, ctx.miss_const, tally.stale_misses
    )
    result.cold_miss_cost = _fold_constant(
        result.cold_miss_cost, ctx.miss_const, tally.cold_misses
    )
    if tally.new_fills:
        # Insert new entries in stream order of their cold fill: the scalar
        # engine's cache dict insertion order, which TTL-polling finalisation
        # (and result serialisation) observe.
        tally.new_fills.sort(key=lambda item: item[0])
        entries = host.entries
        for _, entry in tally.new_fills:
            entries[entry.key] = entry
        stats.insertions += len(tally.new_fills)
    if tally.buffer_entries:
        # Same story for the write buffer: drain order at the flush is the
        # order keys (re-)established their buffered entry.
        tally.buffer_entries.sort(key=lambda item: item[0])
        pending = host.buffer._pending
        for _, buffered in tally.buffer_entries:
            pending[buffered.key] = buffered
    if tally.buffered_writes:
        host.buffer.total_buffered += tally.buffered_writes
    if tally.estimator_ops:
        # Fold in first-observation order so new counter rows are created in
        # the scalar engine's dict order.
        tally.estimator_ops.sort(key=lambda item: item[0])
        estimator = host.estimator
        for _, *observed in tally.estimator_ops:
            _fold_estimator(estimator, *observed)
    if tally.poll_counts.size:
        # Poll charges are the one varying-order float sum: fold them in
        # global stream order onto the running accumulator.  ``cumsum`` adds
        # strictly left to right, so seeding its first addend gives the float
        # the scalar engine's one-by-one ``+=`` does (the per-entry state
        # those charges refresh was already settled by the kernel).
        order = np.argsort(tally.poll_positions, kind="stable")
        charge = tally.poll_counts[order] * ctx.miss_const
        charge[0] += result.freshness_cost
        result.freshness_cost = float(np.cumsum(charge, out=charge)[-1])
        result.polls += int(tally.poll_counts.sum())


def _walk_spans(engine, reacts: bool) -> Iterator[SpanFacts]:
    """The cuts of a replay of ``engine.trace``, each where its next flush falls.

    Takes every cut's facts from the trace's span table — a cursor builds the
    ones no earlier replay asked for — and between two cuts runs the driver's
    due work (which moves the live ``engine._next_flush``) exactly where the
    scalar loop would.  A non-reacting policy has no flush boundaries, so its
    whole trace is one span.
    """
    times = engine.trace.times
    total = len(times)
    index = engine.trace.index()
    cursor = SpanCursor(index)
    if not reacts:
        yield index.span(0, total, cursor)
        return
    start = 0
    while start < total:
        end = int(np.searchsorted(times, engine._next_flush, side="left"))
        if end > start:
            yield index.span(start, end, cursor)
            start = end
            if start >= total:
                break
        # The next request is at or past the flush boundary: run the due
        # background work exactly where the scalar loop would.
        engine._advance(float(times[start]))


class SpanReplay:
    """The columnar ``run()`` of both engines, mixed in front of a scalar driver.

    Inside the engine's envelope (``_envelope``) each cut commits its writes
    and runs one kernel per host, with the driver's due work at every
    boundary and its finalize at the end; outside it the driver's own
    ``run()`` replays.  The defaults are the single cache's (one host, the
    whole cut, unrouted); the fleet supplies ``_route_trace`` /
    ``_node_groups``.
    """

    _envelope: Tuple[EnvelopeRow, ...] = ENVELOPE
    #: The fleet shape a host's kernel prelude is memoised under (``None``:
    #: the single cache's, unrouted).
    _shape = None

    def __init__(self, trace: CompiledTrace, *args, **kwargs) -> None:
        if not isinstance(trace, CompiledTrace):
            raise ConfigurationError(
                f"{type(self).__name__} requires a CompiledTrace; use "
                "compile_workload(workload, duration) first"
            )
        self.trace = trace
        super().__init__(trace, *args, **kwargs)
        self.used_vector_path = False
        self._fallback_reason: Optional[str] = None

    @property
    def fallback_reason(self) -> Optional[str]:
        """Name of the envelope row that put ``run()`` on the scalar path;
        ``None`` when the vector path ran (and before ``run()``)."""
        return self._fallback_reason

    def vector_eligible(self) -> bool:
        """Whether no row of the envelope holds for this configuration (see
        "What runs where" in docs/guides/performance.md)."""
        return envelope_exit(self._envelope, self, self._node_list) is None

    def run(self, *args, **kwargs):
        """Replay the trace; vectorized inside the envelope, scalar otherwise."""
        row = envelope_exit(self._envelope, self, self._node_list, *args, **kwargs)
        if row is not None:
            self._fallback_reason = row.name
            return super().run(*args, **kwargs)
        self._spend()
        self.used_vector_path = True
        self._start("vector")
        self._run_spans()
        return self._finalize()

    def _run_spans(self) -> None:
        """Replay the trace span by span; the driver's due work runs at each
        boundary, exactly where the scalar loop would run it."""
        trace = self.trace
        if len(trace) == 0:
            return
        index = trace.index()
        if not index.time_ordered:
            # Same contract as the scalar loop's ordering check.
            raise WorkloadError("request stream is not sorted by time")
        self._route_trace()
        node = self._node_list[0]
        self._ctx = _ReplayContext.for_node(trace, index, node)
        self._hosts = [_HostState.of(host) for host in self._node_list]
        reacts = node._reacts
        replay = self._replay_reactive_span if reacts else self._replay_ttl_trace
        times, obs = trace.times, self.obs
        for facts in _walk_spans(self, reacts):
            if reacts and obs is not None:
                # Kernel stats fold into the window containing the span's
                # first request (span-granularity attribution).
                span_start = float(times[facts.cut[0]])
                if span_start >= obs.next_boundary:
                    obs.roll(span_start)
            replay(facts)
        self.clock.advance_to(float(times[-1]))

    def _route_trace(self) -> None:
        """Route the trace before the first span (the single cache: nothing to route)."""

    def _node_groups(self, facts: SpanFacts) -> List[Tuple[Optional[Groups], int]]:
        """``(groups, writes)`` per host of one cut: the single cache's
        groups are every key with all its reads, and it counts every write."""
        keys, read_lo, read_hi, write_lo, write_hi = facts.columns
        return [((keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi), facts.total_writes)]

    def _replay_span(self, facts: SpanFacts, kernel) -> None:
        """One cut on every host: ``kernel(host_index, host, tally, groups)``
        for each that has groups, after the datastore took the writes."""
        ctx = self._ctx
        _apply_span_writes(ctx, facts)
        for node_idx, (host, (groups, writes)) in enumerate(
            zip(self._hosts, self._node_groups(facts))
        ):
            tally = _SpanTally()
            tally.writes = writes
            if groups is not None:
                kernel(node_idx, host, tally, groups)
            _flush_tally(ctx, host, tally)

    def _replay_reactive_span(self, facts: SpanFacts) -> None:
        ctx, shape = self._ctx, self._shape
        self._replay_span(
            facts,
            lambda node_idx, host, tally, groups: _kernel_reactive_span(
                ctx, host, tally, _span_prelude(ctx, facts, (shape, node_idx), groups)
            ),
        )

    def _replay_ttl_trace(self, facts: SpanFacts) -> None:
        # The whole trace is one span (see _walk_spans): one call per host.
        ctx = self._ctx
        kernel = _kernel_ttl_expiry if self._node_list[0]._ttl_expiry else _kernel_ttl_polling
        self._replay_span(
            facts, lambda node_idx, host, tally, groups: kernel(ctx, host, tally, groups)
        )


class VectorSimulation(SpanReplay, Simulation):
    """Drop-in :class:`Simulation` that replays a compiled trace in spans.

    Accepts the same configuration as :class:`Simulation` but takes a
    :class:`~repro.workload.compiled.CompiledTrace` instead of a request
    iterable.  ``run()`` picks the vectorized path when the configuration is
    inside the vectorizable envelope (:data:`ENVELOPE`, see
    :meth:`~SpanReplay.vector_eligible`) and otherwise replays the trace's
    column chunks through the scalar loop — either way the results are
    byte-identical to the scalar engine.
    """
