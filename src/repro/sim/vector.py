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
flush boundaries with **one kernel call**.  A write-reactive replay is a
member of a lockstep unit (:class:`_Lockstep`; a unit of one when it runs
alone), which keeps every member's hosts' state — cache entries,
invalidation tracker, write buffer, E[W] counters — in one set of numpy
columns indexed by (stacked host, key id) (:class:`_HostColumns`) from the
first cut to the last boundary flush, each host under its own policy: the
write-reactive replays a sweep makes of one trace and bound, single cache
and fleets alike, take one kernel call and one flush per cut between them.
The kernel gathers every
key's endpoints with a fixed number of numpy operations over the span's key
columns and applies them to the host columns with gathers and scatters at
the groups' rows; the interval flush at each boundary
(:func:`_flush_columns`, through the driver's
:meth:`~repro.sim.driver.ReplayDriver._flush_nodes`) drains, decides and
applies on the same columns.  Neither builds or walks an object per key, so
a replay costs O(requests) of numpy plus a fixed charge per span and per
flush — not O(keys x spans) of Python, which is what made a tight staleness
bound (many short spans) the slow case.  The columns are loaded from the
hosts' objects when the span loop starts (a caller may hand in prepared
state).  After the nodes' end of run — the trailing flush at the horizon,
TTL-polling's settle — has run on them too, each host's objects are left to
a build that writes them back, each dict in the scalar engine's insertion
order, on the first read of any of them; the trace's writes likewise reach
the datastore as a deferred build of its histories, which runs on their
first read.  The one driver's finalize (:class:`~repro.sim.driver.ReplayDriver`)
then finds nothing to settle, and its
:class:`~repro.sim.node.CacheNode` s only record the run's end.  A TTL
replay is a unit of its own on the same columns: the TTL policies never react
to writes and have no flush boundaries, so its whole trace is one span and
one kernel call that scatters each key's final entry into its row —
TTL-polling charges each key's runs of reads of equal poll count, bisecting
where every poll a hot key spans starts, and TTL-expiry bisects every key's
next epoch at once — and the same deferred write-back builds the entry objects.  A fleet's
nodes share each call: a cut's groups are one table ordered by (host, key)
(a one-cut :class:`_GroupBlock`) whose rows index the host columns directly, and every kernel
does its numpy work once for all hosts.  The result is byte-for-byte
identical to the scalar engine: same counters, same float accumulation
order, same dict insertion orders, same :class:`DataStore` history (the
equivalence suite pins this for every policy/workload combination).

Why byte-identity is achievable at all:

* **No kernel reads the datastore.**  A span never outlives one staleness
  interval ``T``, so any in-span hit's staleness horizon ``t - T`` lies before
  the span start, and the freshness check counts the key's earlier writes in
  the index, and neither does a flush, a poll settle or the finalize.
  Every replay therefore commits the trace's writes once, after its walk,
  and defers their histories to the first caller that reads one.
* **Versions are positional.**  ``DataStore.read`` at a scalar read sees
  exactly the writes that precede the read in stream order, so the version a
  miss fetches equals the count of that key's writes with smaller stream
  position — computable from the compiled columns (and robust to timestamp
  ties); an update carries the count of the key's writes before the cut's
  end.
* **Uniform-cost folds are order-free.**  With a fixed cost preset the per-read
  serve cost and the per-miss cost are constants; accumulating ``n`` of them
  left-to-right gives the same float regardless of which keys they came from.
  Varying-order sums (TTL poll charges, a flush's message costs) fold in
  stream or drain order with a seeded ``cumsum``.
* **Per-key span groups are slices, not sorts.**  A stable key sort of the
  whole trace, restricted to a span's position range, *is* the stable key
  sort of that span, so the trace's memoised
  :class:`~repro.workload.compiled.TraceIndex` — built by the first replay,
  shared by every later one — hands each span its per-key read and write
  positions as bounds into two key-major columns.
* **A span is a fact of the trace.**  Where a replay cuts depends on its
  bound; what the cut holds — those bounds, the write batch the datastore
  commits, the hosts' groups and the policy-independent prelude of the
  reactive kernel — depends on the trace and the two cut positions only,
  so it lives in the index's span table, read, never written, by every
  replay.  The first replay of a bound builds its flush schedule's cuts a
  batch at a time (:meth:`~repro.workload.compiled.TraceIndex.cuts`, a
  :class:`~repro.workload.compiled.CutBatch`), and each fleet shape's
  groups (:class:`_GroupBlock`) and preludes (:class:`_PreludeBlock`) once
  per batch: a fixed number of numpy calls per batch, not per cut.  A cut
  is ``(batch, position)``, and its groups and prelude are one-cut blocks
  of views (:meth:`_GroupBlock.cut`, :meth:`_PreludeBlock.cut`).
* **A write's place among the reads is arithmetic.**  The index stores, per
  write, where in the key-major read column the key's next read sits, so how
  many of a span's writes precede a key's first read (the version a miss
  fetches, the buffered writes a miss fill discards) or fall between two of
  its reads (the runs the E[W] estimator folds) is computed for all keys of a
  span from the span's writes alone, never from its reads.
* **A unit's members never meet.**  Stacked hosts own disjoint rows, the
  flush decides each row under its own host's policy, and each member's
  tallies fold into its own results, so one kernel call or flush for all
  members — whatever each one's fleet shape — does what one per member
  did, provided each member still sees its own order of flush, obs roll,
  kernel and fold, which :class:`_Lockstep` keeps.

Both columnar engines are one class, :class:`SpanReplay`, mixed in front of
their scalar driver: it owns ``run()``, the span loop and the envelope
members, :class:`VectorSimulation` is its one-host, unrouted case, and the
fleet twin (:class:`~repro.cluster.vector.VectorClusterSimulation`) adds
routing: each batch's groups of every node, in one table.  When a
configuration falls outside the vectorizable envelope — a row of
:data:`ENVELOPE` holds for it — ``run()`` transparently falls back to the
scalar driver's request loop over the trace's column chunks — identical by
construction, just slower — and names the row in ``fallback_reason``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import partial, reduce
from itertools import islice, repeat
from operator import add
from typing import (
    Any, Callable, Generator, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore, KeyHistory
from repro.cache.entry import CacheEntry, EntryState
from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.policy import Action
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy, poll_counts, poll_instant
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.deferred import settled_class
from repro.errors import ConfigurationError
from repro.sim.node import CacheNode
from repro.sim.polling import PollingGroups, polling_charges
from repro.sim.results import SimulationResult
from repro.sim.simulation import Simulation
from repro.sketch.exact import ExactEWTracker, _KeyCounters
from repro.workload.base import order_error
from repro.workload.compiled import (
    _CUT_GRID, CompiledTrace, CutBatch, TraceIndex, bisect_groups,
)

#: The write-reacting policy classes the columnar flush decides for, in the
#: order of their codes in :attr:`_HostColumns.kinds` (the TTL classes of
#: :data:`_VECTOR_POLICIES` follow them).
_REACTIVE_KINDS = (
    AlwaysInvalidatePolicy,
    AlwaysUpdatePolicy,
    AdaptivePolicy,
    CacheStateAdaptivePolicy,
)
_UPDATE, _ADAPTIVE, _CACHE_STATE = 1, 2, 3

#: Policy classes with a vectorized kernel.  Exact types only: a subclass may
#: override hooks in ways the kernels would not reproduce.
_VECTOR_POLICIES = _REACTIVE_KINDS + (TTLExpiryPolicy, TTLPollingPolicy)


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
        "policy", "node",
        "no kernel for the policy class (exact types only: a subclass may override any hook)",
        lambda node, trace: type(node.policy) not in _VECTOR_POLICIES,
    ),
    EnvelopeRow(
        "estimator", "node",
        "an adaptive policy on a sketch estimator; the kernels fold E[W] on the exact tracker",
        lambda node, trace: isinstance(node.policy, AdaptivePolicy)
        and settled_class(node.policy.estimator) is not ExactEWTracker,
    ),
    EnvelopeRow(
        "ttl-above-bound", "node",
        "a TTL above the staleness bound lets hits violate it after a fetch or a poll; the TTL "
        "kernels count none there",
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
        "invalidate_const",
        "update_const",
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
        invalidate_const: Optional[float] = None,
        update_const: Optional[float] = None,
    ) -> None:
        self.trace = trace
        self.index = index
        self.datastore = datastore
        self.bound = bound
        self.ttl = ttl
        self.serve_const = serve_const
        self.miss_const = miss_const
        self.invalidate_const = invalidate_const
        self.update_const = update_const
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
            invalidate_const=node.costs.invalidate_cost(),
            update_const=node.costs.update_cost(),
        )


#: The charge columns of a tally no polling kernel has written to (every
#: reactive span's): shared, never mutated.
_NO_CHARGES = np.empty(0, dtype=np.int64)
_NO_CHARGES.flags.writeable = False


class _SpanTally:
    """One host's counter deltas of one span, folded into its result and
    cache stats in bulk by :func:`_flush_tally`, plus the TTL-polling
    freshness charges, which fold in stream order.

    A kernel that streams its charges streams every one of them: its stale
    misses are among them, one miss's worth each, and fold in stream order
    with its polls instead of as one constant.
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
        "polls",
        "charge_positions",
        "charge_counts",
    )

    def __init__(self, writes: int = 0) -> None:
        self.reads = 0
        self.hits = 0
        self.stale_misses = 0
        self.cold_misses = 0
        self.violations = 0
        self.expirations = 0
        self.writes = writes
        self.buffered_writes = 0
        self.polls = 0
        # TTL-polling charges, as two aligned columns: the stream position
        # of each charging read, and how many misses' worth it charges (the
        # polls it settles, or 1 for its stale miss).
        self.charge_positions = self.charge_counts = _NO_CHARGES


def _commit_trace_writes(ctx: _ReplayContext) -> int:
    """Commit every write of the trace to the datastore, byte-identical to
    the scalar loop: count them in ``total_writes`` now and hand the store
    the deferred build of their histories (:func:`_build_histories`), which
    runs on the first read of ``DataStore._histories``.

    A replay commits once, after its unit's end and before the driver's
    finalize: no kernel, flush or settle reads a history (miss,
    update and poll versions are positions in the index), and neither does
    the finalize of a columnar replay, so a caller that reads none — a
    sweep, a benchmark — never builds one.  Returns the number of writes
    committed.
    """
    ctx.datastore.total_writes += ctx.index.write_pos.size
    ctx.datastore.defer_histories(partial(_build_histories, ctx.trace.key_names, ctx.index))
    return ctx.index.write_pos.size


def _build_histories(names: List[str], index: TraceIndex, histories: dict) -> None:
    """Add every write of ``index``'s trace to ``histories``, as the scalar
    loop's ``DataStore.write`` calls would.

    A history is created per written key in first-write order (the scalar
    engine's insertion order), copies its key's write times out of the
    index's shared list (:meth:`~repro.workload.compiled.TraceIndex.listed_write_times`)
    and ends at the key's last value size; a key the dict already holds
    extends its history.
    """
    offsets = index.write_offsets
    written = np.diff(offsets).nonzero()[0]
    written = written[np.argsort(index.write_pos[offsets[written]], kind="stable")]
    ends = offsets[written + 1]
    write_times = index.listed_write_times()
    for key_id, lo, hi, value_size in zip(
        written.tolist(),
        offsets[written].tolist(),
        ends.tolist(),
        index.write_value_sizes[ends - 1].tolist(),
    ):
        name = names[key_id]
        history = histories.get(name)
        if history is None:
            histories[name] = KeyHistory(name, write_times[lo:hi], value_size)
        else:
            history.write_times.extend(write_times[lo:hi])
            history.value_size = value_size


def _segments(groups: List[int], bounds: List[int]) -> List[int]:
    """Per-host bounds into ``groups``, an ascending list of group indices:
    one bisection per host bound."""
    return [bisect_left(groups, bound) for bound in bounds]


def _lengths(segments: List[int]) -> List[int]:
    """Per host, the length of its segment."""
    return [hi - lo for lo, hi in zip(segments, segments[1:])]


def _segment_sums(values: List[int], segments: List[int]) -> List[int]:
    """Per host, the sum of its segment of ``values``."""
    rows = iter(values)
    return [sum(islice(rows, length)) for length in _lengths(segments)]


def _host_counts(groups: np.ndarray, bounds: List[int]) -> List[int]:
    """Per host, how many of ``groups`` (ascending group indices) are its."""
    if len(bounds) == 2:
        return [int(groups.size)]
    return _lengths(np.searchsorted(groups, bounds).tolist())


def _write_runs(
    index: TraceIndex,
    first: np.ndarray,
    count: np.ndarray,
    stride: int,
    write_lo: np.ndarray,
    num_writes: np.ndarray,
) -> np.ndarray:
    """Where each group's span writes fall among its span reads.

    For groups that have both, one row each: the number of writes before
    the first read, the number before the last read, and the number of reads
    after the first that have a write since the previous read.  A write's
    rank among the group's reads is arithmetic on ``write_read_rank``, so
    this touches the span's writes once and no read at all.  The groups go
    in blocks of at most :data:`~repro.workload.compiled._CUT_GRID` writes
    (a group with more is a block alone; no block splits a group), so the
    temporaries stay bounded however many cuts the groups cover.
    """
    runs = np.empty((3, num_writes.size), dtype=np.int64)
    ends = np.cumsum(num_writes)
    lo = 0
    while lo < num_writes.size:
        # The groups whose writes end within the grid of the block's first write.
        room = ends[lo] - num_writes[lo] + _CUT_GRID
        hi = max(lo + 1, int(np.searchsorted(ends, room, side="right")))
        block = slice(lo, hi)
        runs[:, block] = _block_write_runs(
            index, first[block], count[block], stride, write_lo[block], num_writes[block]
        )
        lo = hi
    return runs


def _block_write_runs(
    index: TraceIndex,
    first: np.ndarray,
    count: np.ndarray,
    stride: int,
    write_lo: np.ndarray,
    num_writes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_write_runs` of one block of groups, in one pass over their writes."""
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


#: A row's entry state in :class:`_HostColumns`: the key is not cached, or
#: cached in the :class:`EntryState` at that index of :data:`_ENTRY_STATES`.
_ABSENT, _VALID, _INVALIDATED = 0, 1, 2
_ENTRY_STATES = (None, EntryState.VALID, EntryState.INVALIDATED, EntryState.EXPIRED)

#: The order position of a row nothing has put in its dict yet.
_UNSEEN = np.iinfo(np.int64).max


class _HostColumns:
    """Every host's columnar replay state as columns, one row per (host, key id).

    Row ``k * len(hosts) + h`` is key ``k`` on host ``h``: a cut's groups
    index it directly (:attr:`_PreludeBlock.rows`), and host ``h``'s rows are
    the strided view ``column[h::len(hosts)]``, indexed by key id.  The key
    ids are the trace's key table, then any name a host held at load that
    the trace never mentions (``names``).  The columns stand for the four
    dicts the scalar engine keeps per cache:

    * the cache's entries — ``state`` (:data:`_ABSENT` or an entry state),
      ``version``, ``as_of``, ``fetched_at``, ``accounted``
      (``last_poll_accounted``), ``key_size``, ``value_size``, ``hits``;
    * the invalidation tracker — ``tracked`` and ``tracked_at``;
    * the write buffer — ``dirty``, ``first_write_time``,
      ``last_write_time``, ``write_count``, ``write_key_size``,
      ``write_value_size``;
    * the E[W] counters — ``sample_sum``, ``sample_count``,
      ``writes_since_read``.

    Each dict's insertion order is a position per row — ``filled`` (the
    first fill), ``tracked_seq`` (the invalidation), ``first_write`` (the
    first surviving write) and ``seen`` (the first observation) — and rows
    loaded from the hosts' objects take negative positions in their dict's
    order, ahead of everything the replay adds.  ``written`` is per key id:
    the writes committed up to the last cut, the version an update carries
    (the backend's ``latest_version``).  ``hosts`` are the
    :class:`~repro.sim.node.CacheNode` s the columns were loaded from — a
    lockstep unit's members' nodes, stacked — and ``tables`` each host's
    four dicts (the E[W] counters ``None`` without an estimator), which the
    write-back fills.  Each host keeps its own policy: ``kinds`` is each
    host's policy class as an index
    into :data:`_VECTOR_POLICIES` (a TTL replay never flushes, so the flush
    never decides for a TTL host), ``prior`` its estimator's E[W] before
    the first sample and ``zero_runs`` whether that estimator counts
    zero-length runs.
    ``folds`` says whether any host folds an E[W] estimator (the kernel then
    folds every row; only a host with an estimator writes its rows back),
    ``sequence`` numbers the trackers' next insertion.
    """

    __slots__ = (
        "hosts", "tables", "names", "kinds", "prior", "zero_runs", "folds", "sequence",
        "state", "version", "as_of", "fetched_at", "accounted",
        "key_size", "value_size", "hits", "filled",
        "tracked", "tracked_at", "tracked_seq",
        "dirty", "first_write", "first_write_time", "last_write_time",
        "write_count", "write_key_size", "write_value_size",
        "sample_sum", "sample_count", "writes_since_read", "seen",
        "written",
    )

    def __init__(self, hosts: Sequence[CacheNode], names: List[str]) -> None:
        """Load the hosts' objects: cache entries, tracker, buffer and E[W]
        counters, each in its dict's order."""
        estimators = [_estimator(host) for host in hosts]
        # Reading the dicts through their owners runs any build a replay
        # before this one left pending.
        held = [
            (
                host.cache._entries,
                host.tracker._invalidated,
                host.buffer._pending,
                None if estimator is None else estimator._counters,
            )
            for host, estimator in zip(hosts, estimators)
        ]
        ids: dict = {}
        if any(table for tables in held for table in tables):
            ids = {name: key for key, name in enumerate(names)}
            foreign = [
                name for tables in held for table in tables if table for name in table
                if name not in ids
            ]
            if foreign:
                names = names + list(dict.fromkeys(foreign))
                ids = {name: key for key, name in enumerate(names)}
        self.hosts = list(hosts)
        self.tables = held
        self.names = names
        self.kinds = np.array(
            [_VECTOR_POLICIES.index(type(host.policy)) for host in hosts], dtype=np.int8
        )
        self.prior = np.array(
            [math.nan if each is None else each.default_estimate for each in estimators]
        )
        self.zero_runs = np.array(
            [each is not None and each.count_zero_runs for each in estimators], dtype=np.bool_
        )
        self.folds = any(each is not None for each in estimators)
        self.sequence = 0
        size = len(hosts) * len(names)
        self.state = np.zeros(size, dtype=np.int8)
        self.tracked = np.zeros(size, dtype=np.bool_)
        self.dirty = np.zeros(size, dtype=np.bool_)
        for name in ("as_of", "fetched_at", "accounted", "tracked_at",
                     "first_write_time", "last_write_time"):
            setattr(self, name, np.zeros(size, dtype=np.float64))
        for name in ("version", "key_size", "value_size", "hits", "filled", "tracked_seq",
                     "first_write", "write_count", "write_key_size", "write_value_size",
                     "sample_sum", "sample_count", "writes_since_read"):
            setattr(self, name, np.zeros(size, dtype=np.int64))
        self.seen = np.full(size, _UNSEEN, dtype=np.int64)
        self.written = np.zeros(len(names), dtype=np.int64)
        stride = len(hosts)
        for host, (entries, invalidated, pending, counters) in enumerate(held):
            if entries:
                rows = self._rows(host, stride, ids, entries, self.filled)
                loaded = entries.values()
                self.state[rows] = [_ENTRY_STATES.index(entry.state) for entry in loaded]
                for column in ("version", "as_of", "fetched_at", "key_size", "value_size", "hits"):
                    getattr(self, column)[rows] = [getattr(entry, column) for entry in loaded]
                self.accounted[rows] = [entry.last_poll_accounted for entry in loaded]
            if invalidated:
                rows = self._rows(host, stride, ids, invalidated, self.tracked_seq)
                self.tracked[rows] = True
                self.tracked_at[rows] = list(invalidated.values())
            if pending:
                rows = self._rows(host, stride, ids, pending, self.first_write)
                loaded = pending.values()
                self.dirty[rows] = True
                for column in ("first_write_time", "last_write_time", "write_count"):
                    getattr(self, column)[rows] = [getattr(write, column) for write in loaded]
                self.write_key_size[rows] = [write.key_size for write in loaded]
                self.write_value_size[rows] = [write.value_size for write in loaded]
            if counters:
                rows = self._rows(host, stride, ids, counters, self.seen)
                loaded = counters.values()
                for column in ("sample_sum", "sample_count", "writes_since_read"):
                    getattr(self, column)[rows] = [getattr(row, column) for row in loaded]

    @staticmethod
    def _rows(host: int, stride: int, ids: dict, table: dict, order: np.ndarray) -> np.ndarray:
        """Host ``host``'s rows of ``table``'s keys, their dict order written
        into ``order``."""
        rows = np.array([ids[name] * stride + host for name in table], dtype=np.int64)
        order[rows] = np.arange(-rows.size, 0)
        return rows

    def write_back(self, host: Optional[int] = None) -> None:
        """Rebuild host ``host``'s objects — every host's when ``None`` — in
        the dicts they were loaded from, each in the scalar engine's
        insertion order.  The columns stay as they are."""
        names, stride = self.names, len(self.tables)
        for host in range(stride) if host is None else (host,):
            entries, invalidated, pending, counters = self.tables[host]
            mine = slice(host, None, stride)

            def rows_of(held: np.ndarray, order: np.ndarray):
                """The host's rows where ``held``, in ``order``, and their key names."""
                keys = np.flatnonzero(held[mine])
                keys = keys[np.argsort(order[mine][keys], kind="stable")]
                return keys * stride + host, list(map(names.__getitem__, keys.tolist()))

            rows, cached = rows_of(self.state != _ABSENT, self.filled)
            built = map(
                CacheEntry,
                cached,
                *_gather(rows, self.version, self.as_of, self.fetched_at, self.key_size,
                         self.value_size),
                map(_ENTRY_STATES.__getitem__, self.state[rows].tolist()),
                *_gather(rows, self.accounted, self.hits),
            )
            entries.clear()
            entries.update(zip(cached, built))
            rows, tracked = rows_of(self.tracked, self.tracked_seq)
            invalidated.clear()
            invalidated.update(zip(tracked, *_gather(rows, self.tracked_at)))
            rows, dirty = rows_of(self.dirty, self.first_write)
            writes = map(
                BufferedWrite,
                dirty,
                *_gather(rows, self.first_write_time, self.last_write_time, self.write_count,
                         self.write_key_size, self.write_value_size),
            )
            pending.clear()
            pending.update(zip(dirty, writes))
            if counters is not None:
                rows, observed = rows_of(self.seen != _UNSEEN, self.seen)
                folded = map(
                    _KeyCounters,
                    *_gather(rows, self.sample_sum, self.sample_count, self.writes_since_read),
                )
                counters.clear()
                counters.update(zip(observed, folded))

    def defer(self) -> None:
        """Leave each host's objects to a build on their first read: every
        state owner of host ``h`` — cache, tracker, buffer, E[W] tracker —
        gets the one pending :meth:`write_back` of ``h``
        (:meth:`Deferrable.defer <repro.deferred.Deferrable.defer>`).  The
        columns then let go of their hosts, so a node nothing reads dies
        by reference count, its pending build and the columns with it."""
        for host, node in enumerate(self.hosts):
            build = _HostBuild(self, host)
            for owner in (node.cache, node.tracker, node.buffer, _estimator(node)):
                if owner is not None:
                    owner.defer(build)
        self.hosts = []


class _HostBuild:
    """Host ``host``'s pending :meth:`_HostColumns.write_back`: the first of
    its owners to be read runs it, and the others find it done."""

    __slots__ = ("columns", "host")

    def __init__(self, columns: _HostColumns, host: int) -> None:
        self.columns: Optional[_HostColumns] = columns
        self.host = host

    def __call__(self) -> None:
        columns, self.columns = self.columns, None
        if columns is not None:
            columns.write_back(self.host)


def _estimator(node: CacheNode) -> Optional[ExactEWTracker]:
    """The E[W] estimator ``node``'s policy folds; ``None`` if it folds none."""
    policy = node.policy
    return policy.estimator if isinstance(policy, AdaptivePolicy) else None


def _gather(rows: np.ndarray, *columns: np.ndarray) -> List[list]:
    """``columns`` at ``rows``, as lists."""
    return [column[rows].tolist() for column in columns]


class _GroupBlock(NamedTuple):
    """Every host's share of each cut of a batch, as one table of columns
    ordered by (cut, host, key).

    Group ``g`` is key ``keys[g]`` on host ``host[g]`` (among ``hosts``);
    its reads are ``read_pos[first[g] + j * stride]`` for ``j < count[g]``
    and its writes the slice ``[write_lo[g], write_hi[g])`` of the write
    columns.  Every group has at least one read or one write.  Cut ``j``'s
    groups are rows ``[offsets[j], offsets[j + 1])``, keys ascending within
    a host; ``bounds[j]`` are its host bounds relative to its first group
    (a host may have none) and ``writes[j]`` the writes each host counts in
    it (``cuts x (hosts + 1)`` and ``cuts x hosts`` integer matrices).  A
    kernel takes one cut's block (:meth:`cut`).  Built once per batch and
    fleet shape (the single cache is the one-host shape), or stacked for a
    lockstep unit (:func:`_stack_groups`).
    """

    keys: np.ndarray
    first: np.ndarray
    count: np.ndarray
    stride: int
    write_lo: np.ndarray
    write_hi: np.ndarray
    host: np.ndarray
    hosts: int
    offsets: List[int]
    bounds: np.ndarray
    writes: np.ndarray

    def cut(self, position: int) -> "_GroupBlock":
        """Cut ``position``'s block: views of this one's rows and matrices."""
        lo, hi = self.offsets[position], self.offsets[position + 1]
        cut = slice(position, position + 1)
        return _GroupBlock(
            self.keys[lo:hi], self.first[lo:hi], self.count[lo:hi], self.stride,
            self.write_lo[lo:hi], self.write_hi[lo:hi], self.host[lo:hi], self.hosts,
            [0, hi - lo], self.bounds[cut], self.writes[cut],
        )


def _stack_groups(blocks: Sequence[_GroupBlock], lo: int, hi: int) -> _GroupBlock:
    """The members' group blocks of one batch, cuts ``lo`` to ``hi``, as one
    block of their stacked hosts: member ``m``'s host ``h`` is ``h`` plus
    the hosts of the members before it, and each cut's groups are every
    member's groups of the cut, member after member — still ordered by
    (cut, stacked host, key)."""
    cuts = hi - lo
    members = len(blocks)
    shift = np.cumsum([0] + [block.hosts for block in blocks])
    rows = [slice(block.offsets[lo], block.offsets[hi]) for block in blocks]
    order = np.argsort(
        np.concatenate([
            np.repeat(np.arange(cuts) * members + member, np.diff(block.offsets[lo : hi + 1]))
            for member, block in enumerate(blocks)
        ]),
        kind="stable",
    )

    def stacked(name: str) -> np.ndarray:
        return np.concatenate(
            [getattr(block, name)[mine] for block, mine in zip(blocks, rows)]
        )[order]

    counts = np.hstack([np.diff(block.bounds[lo:hi], axis=1) for block in blocks])
    bounds = np.zeros((cuts, counts.shape[1] + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=bounds[:, 1:])
    return _GroupBlock(
        stacked("keys"), stacked("first"), stacked("count"), blocks[0].stride,
        stacked("write_lo"), stacked("write_hi"),
        np.concatenate(
            [block.host[mine] + base for block, mine, base in zip(blocks, rows, shift)]
        )[order],
        int(shift[-1]),
        [0, *np.cumsum(bounds[:, -1]).tolist()],
        bounds,
        np.hstack([block.writes[lo:hi] for block in blocks]),
    )


#: Table bytes charged per group of a :class:`_PreludeBlock`, write runs and
#: first observations included: up to fourteen 8-byte slots a group.
_PRELUDE_GROUP_BYTES = 112

#: Most stacked groups a lockstep unit builds one prelude for: with their
#: group columns, about 200 bytes a group — under 2 MiB a window of cuts.
_STACKED_GROUPS = 1 << 12


class _PreludeBlock:
    """The policy-independent half of :func:`_kernel_reactive_span` for
    every cut of a :class:`_GroupBlock`: what its groups are under *any*
    write-reactive policy, bound and cache state, as flat columns computed
    once for the whole block; :meth:`cut` takes one cut's out, as views.
    Built once per batch and fleet shape — memoised in the span table and
    shared by every replay, read, never written — or once per window of a
    batch's cuts for a lockstep unit's stacked hosts.

    Attributes:
        block: The hosts' :class:`_GroupBlock`.
        rows: Each group's row of :class:`_HostColumns` (``key * hosts +
            host``).
        versions: Each group's key's writes up to its cut's end.
        num_writes / writing: Span writes per group and the groups that
            have any (ascending group indices).
        reading / read_rows / read_counts: The groups with span reads, their
            rows and read counts.
        first_read / last_read: Position of each reading group's first span
            read, and time of its last.
        host_reads / host_writes: Per cut, per host, its span reads and its
            span writes (lists of lists).
        write_runs: ``(before_first, before_last, runs_closed)``:
            :func:`_write_runs` of every group that reads and writes, zero
            elsewhere.  A miss fetches the version as of its position, and
            the estimator folds runs.
        first_seen: Each group's first observation: its first read or write,
            whichever comes first in the stream — where the scalar engine
            creates the host's counter row for the key.
        reading_at / writing_at: Per cut, where its groups start in
            ``reading`` and ``writing``, and the total (ints).
    """

    __slots__ = (
        "block", "rows", "versions", "num_writes", "writing", "reading", "read_rows",
        "read_counts", "first_read", "last_read", "host_reads", "host_writes",
        "write_runs", "first_seen", "reading_at", "writing_at",
    )

    def __init__(self, trace: CompiledTrace, index: TraceIndex, block: _GroupBlock) -> None:
        keys, first, count, stride, write_lo, write_hi, host, hosts, offsets, _, _ = block
        self.block = block
        self.rows = rows = keys * hosts + host
        self.versions = write_hi - index.write_offsets[keys]
        self.num_writes = num_writes = write_hi - write_lo
        self.writing = writing = num_writes.nonzero()[0]
        self.reading = reading = count.nonzero()[0]
        self.read_rows = rows[reading]
        self.read_counts = read_count = count[reading]
        read_first = first[reading]
        self.first_read = first_read = index.read_pos[read_first].astype(np.int64)
        self.last_read = trace.times[index.read_pos[read_first + (read_count - 1) * stride]]
        self.reading_at = np.searchsorted(reading, offsets).tolist()
        self.writing_at = np.searchsorted(writing, offsets).tolist()
        cuts = len(offsets) - 1
        cell = np.repeat(np.arange(cuts) * hosts, np.diff(offsets)) + host
        self.host_reads, self.host_writes = (
            np.bincount(cell, weights=column, minlength=cuts * hosts)
            .astype(np.int64).reshape(cuts, hosts).tolist()
            for column in (count, num_writes)
        )
        runs = np.zeros((3, keys.size), dtype=np.int64)
        mixed = (count * num_writes).nonzero()[0]
        if mixed.size:
            runs[:, mixed] = _write_runs(
                index, first[mixed], count[mixed], stride, write_lo[mixed], num_writes[mixed]
            )
        self.write_runs = runs
        # The position columns may be unsigned: the "no read" sentinel goes
        # into a signed array they are then copied into.
        seen = np.full(keys.size, _UNSEEN, dtype=np.int64)
        seen[reading] = first_read
        seen[writing] = np.minimum(seen[writing], index.write_pos[write_lo[writing]])
        self.first_seen = seen

    def cut(self, position: int) -> "_PreludeBlock":
        """Cut ``position``'s prelude: a one-cut block of views of this one's
        columns."""
        lo, hi = self.block.offsets[position], self.block.offsets[position + 1]
        read = slice(*self.reading_at[position : position + 2])
        write = slice(*self.writing_at[position : position + 2])
        cut = slice(position, position + 1)
        prelude = _PreludeBlock.__new__(_PreludeBlock)
        prelude.block = self.block.cut(position)
        prelude.rows = self.rows[lo:hi]
        prelude.versions = self.versions[lo:hi]
        prelude.num_writes = self.num_writes[lo:hi]
        prelude.writing = self.writing[write] - lo
        prelude.reading = self.reading[read] - lo
        prelude.read_rows = self.read_rows[read]
        prelude.read_counts = self.read_counts[read]
        prelude.first_read = self.first_read[read]
        prelude.last_read = self.last_read[read]
        prelude.host_reads = self.host_reads[cut]
        prelude.host_writes = self.host_writes[cut]
        prelude.write_runs = self.write_runs[:, lo:hi]
        prelude.first_seen = self.first_seen[lo:hi]
        prelude.reading_at = [0, read.stop - read.start]
        prelude.writing_at = [0, write.stop - write.start]
        return prelude


def _kernel_reactive_span(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    prelude: _PreludeBlock,
) -> None:
    """Every host's whole span under a write-reactive policy, in one call.

    Within a span no messages arrive and nothing expires, so a key's entry
    changes state at most once: the first read of an absent/invalid entry
    misses and re-fetches, after which every read is a hit; a key valid at
    span start serves only hits.  Everything the span does to a key therefore
    follows from *endpoints* — read count, first and last read, first and
    last surviving write — which the cut's one-cut :class:`_PreludeBlock`
    holds for all keys of all hosts; what is left per replay is the part
    that depends on the cache, and that is gathers and scatters on the
    hosts' :class:`_HostColumns` at the groups' rows: a fixed number of
    array calls for the whole fleet, no object and no per-key loop.  Each
    host's counter deltas go into ``tallies[h]``.
    """
    groups = prelude.block
    keys, write_lo, write_hi = groups.keys, groups.write_lo, groups.write_hi
    bounds = groups.bounds[0].tolist()
    index, trace = ctx.index, ctx.trace
    rows, state = prelude.rows, columns.state
    columns.written[keys] = prelude.versions

    # A valid entry serves every read of its group.
    reading, read_rows = prelude.reading, prelude.read_rows
    hit = state[read_rows] == _VALID
    served = read_rows[hit]
    columns.hits[served] += prelude.read_counts[hit]
    horizon = prelude.last_read[hit] - ctx.bound
    as_of = columns.as_of[served]
    late = (horizon > as_of).nonzero()[0]
    if late.size:
        _count_violations(
            ctx, tallies, groups, reading[hit][late], as_of[late], horizon[late]
        )

    # Anything else misses at the first read, re-fetches and serves the rest.
    miss = (~hit).nonzero()[0]
    missed = reading[miss]
    host_misses = _host_counts(missed, bounds)
    host_cold = [0] * len(tallies)
    before_miss = None
    if missed.size:
        miss_rows = read_rows[miss]
        position = prelude.first_read[miss]
        # Exactly the writes preceding the read in stream order are visible:
        # the key's pre-span writes plus the span writes before the miss.
        visible = write_lo[missed]
        if prelude.num_writes[missed].any():
            before_miss = prelude.write_runs[0][missed]
            visible = visible + before_miss
        version = visible - index.write_offsets[keys[missed]]
        value_size = np.full(miss.size, ctx.default_value_size, dtype=np.int64)
        written = version.nonzero()[0]
        value_size[written] = index.write_value_sizes[visible[written] - 1]
        cold = (state[miss_rows] == _ABSENT).nonzero()[0]
        host_cold = _host_counts(missed[cold], bounds)
        fills = miss_rows[cold]
        columns.filled[fills] = position[cold]
        columns.key_size[fills] = trace.key_sizes[position[cold]]
        columns.hits[fills] = 0
        columns.hits[miss_rows] += prelude.read_counts[miss] - 1
        state[miss_rows] = _VALID
        columns.version[miss_rows] = version
        columns.value_size[miss_rows] = value_size
        time = trace.times[position]
        columns.as_of[miss_rows] = time
        columns.fetched_at[miss_rows] = time
        columns.accounted[miss_rows] = time
        columns.tracked[miss_rows] = False
        # A miss fill drops what the key had buffered before it.
        columns.dirty[miss_rows] = False
    for tally, reads, misses, colds in zip(tallies, prelude.host_reads[0], host_misses, host_cold):
        tally.reads += reads
        tally.hits += reads - misses
        tally.cold_misses += colds
        tally.stale_misses += misses - colds

    # The writes after a key's miss (all of them, without one) are buffered.
    writing = prelude.writing
    if writing.size:
        start = write_lo[writing]
        if before_miss is not None:
            skipped = np.zeros(keys.size, dtype=np.int64)
            skipped[missed] = before_miss
            start = start + skipped[writing]
        end = write_hi[writing]
        surviving = start < end
        buffered = rows[writing[surviving]]
        start, last = start[surviving], end[surviving] - 1
        count = last - start + 1
        merged = columns.dirty[buffered]
        if merged.any():
            # Only a buffer handed in at load is dirty at a cut's start:
            # its entries grow, the others start.
            columns.write_count[buffered] = np.where(
                merged, columns.write_count[buffered] + count, count
            )
            fresh = ~merged
            buffered_fresh, start_fresh = buffered[fresh], start[fresh]
        else:
            columns.write_count[buffered] = count
            buffered_fresh, start_fresh = buffered, start
        first_position = index.write_pos[start_fresh]
        columns.dirty[buffered] = True
        columns.first_write[buffered_fresh] = first_position
        columns.first_write_time[buffered_fresh] = index.write_times[start_fresh]
        columns.write_key_size[buffered_fresh] = trace.key_sizes[first_position]
        columns.last_write_time[buffered] = index.write_times[last]
        columns.write_value_size[buffered] = index.write_value_sizes[last]
        for tally, writes in zip(tallies, prelude.host_writes[0]):
            tally.buffered_writes += writes

    # E[W]: the closed form of replaying observe_read / observe_write in
    # stream order — each read closes the run of writes since the previous
    # read, the first run absorbing the carried ``writes_since_read``.
    if columns.folds:
        before_first, before_last, runs_closed = prelude.write_runs
        count, writes = groups.count, prelude.num_writes
        observed = count > 0
        carry = columns.writes_since_read[rows]
        columns.sample_sum[rows] += np.where(observed, before_last + carry, 0)
        closed = np.where(observed, runs_closed + (before_first + carry > 0), 0)
        if columns.zero_runs.any():
            # Every read closes a run on a host that counts the empty ones.
            closed = np.where(columns.zero_runs[groups.host], count, closed)
        columns.sample_count[rows] += closed
        columns.writes_since_read[rows] = np.where(observed, writes - before_last, carry + writes)
        columns.seen[rows] = np.minimum(columns.seen[rows], prelude.first_seen)


def _flush_columns(ctx: _ReplayContext, columns: _HostColumns, time: float) -> None:
    """The interval flush at ``time`` of every host of ``columns``.

    :meth:`CacheNode.flush <repro.sim.node.CacheNode.flush>` on an instant
    channel, for all hosts at once, each under its own policy: each host
    drains its dirty keys in buffer order (first surviving write), takes
    its policy's action for each — ``adaptive+cs`` passes over keys it
    holds no valid entry of, and the adaptive hosts' choices are made by
    :func:`_adaptive_updates` — suppresses invalidates the tracker already
    holds, and applies the messages to its entries.  The message costs fold
    onto each host's running ``freshness_cost`` in drain order with the
    seeded ``cumsum`` of :func:`_flush_tally`.  No message, entry or
    buffered write is built.
    """
    dirty = columns.dirty.nonzero()[0]
    if not dirty.size:
        return
    hosts = columns.hosts
    stride = len(hosts)
    host_of = dirty % stride
    order = np.lexsort((columns.first_write[dirty], host_of))
    rows, host_of = dirty[order], host_of[order]
    columns.dirty[rows] = False
    bounds = np.searchsorted(host_of, np.arange(stride + 1)).tolist()
    state = columns.state[rows]
    kind = columns.kinds[host_of]
    update = kind == _UPDATE
    decided = (kind != _CACHE_STATE) | (state == _VALID)
    adaptive = (kind >= _ADAPTIVE) & decided
    chosen = adaptive.nonzero()[0]
    if chosen.size:
        update[chosen] = _adaptive_updates(columns, rows[chosen], host_of[chosen])
    invalidate = decided & ~update
    tracked = columns.tracked[rows]
    suppressed = invalidate & tracked
    invalidate &= ~tracked
    absent = state == _ABSENT
    wasted = update & absent
    dropped = invalidate & (state == _VALID)

    # Updates refresh every entry they find (invalid ones too) with the
    # latest version; invalidates drop the valid ones.
    columns.tracked[rows[update]] = False
    refreshed = rows[update & ~absent]
    if refreshed.size:
        keys = refreshed // stride
        version = columns.written[keys]
        value_size = np.full(refreshed.size, ctx.default_value_size, dtype=np.int64)
        written = version.nonzero()[0]
        index = ctx.index
        value_size[written] = index.write_value_sizes[
            index.write_offsets[keys[written]] + version[written] - 1
        ]
        columns.state[refreshed] = _VALID
        columns.version[refreshed] = version
        columns.value_size[refreshed] = value_size
        columns.as_of[refreshed] = time
        columns.fetched_at[refreshed] = time
        columns.accounted[refreshed] = time
    sent_invalidates = rows[invalidate]
    columns.tracked[sent_invalidates] = True
    columns.tracked_at[sent_invalidates] = time
    columns.tracked_seq[sent_invalidates] = np.arange(
        columns.sequence, columns.sequence + sent_invalidates.size
    )
    columns.sequence += sent_invalidates.size
    columns.state[rows[dropped]] = _INVALIDATED

    # Per host with dirty rows, each flag's count; the hosts' rows are
    # consecutive segments in drain order, and so are their messages.
    flags = [update, invalidate, suppressed, wasted, dropped, ~decided, adaptive, adaptive & update]
    draining = [(host, lo) for host, lo, hi in zip(hosts, bounds, bounds[1:]) if hi > lo]
    counts = np.add.reduceat(
        np.array(flags), [lo for _, lo in draining], axis=1, dtype=np.int64
    ).T.tolist()
    charge = np.where(update, ctx.update_const, ctx.invalidate_const)
    charges = iter(charge[update | invalidate].tolist())
    for (host, _), (
        updates, invalidates, suppressions, ignored, invalidations, nothing, choices, chose_update
    ) in zip(draining, counts):
        result, stats = host.result, host.cache.stats
        result.updates_sent += updates
        result.invalidates_sent += invalidates
        result.suppressed_invalidates += suppressions
        result.updates_wasted += ignored
        if nothing:
            result.decisions_nothing += nothing
        if choices:
            host.policy.decisions_update += chose_update
            host.policy.decisions_invalidate += choices - chose_update
        stats.updates_applied += updates - ignored
        stats.updates_ignored += ignored
        stats.invalidations += invalidations
        carried = updates + invalidates
        host.channel.sent += carried
        host.channel.delivered += carried
        if carried:
            # The scalar engine's one-by-one ``+=``, in drain order.
            result.freshness_cost = _left_fold(result.freshness_cost, islice(charges, carried))


def _adaptive_updates(columns: _HostColumns, rows: np.ndarray, host_of: np.ndarray) -> np.ndarray:
    """Whether each of ``rows`` — dirty rows the adaptive hosts ``host_of``
    decide, in drain order — gets an update rather than an invalidate.

    A row's E[W] is ``C1 / C2``, or its host's prior before the first
    sample.  Each host's policy builds its own rule (for its first key
    decided, as :meth:`AdaptivePolicy.decisions` does), and each distinct
    (rule, E[W]) pair across all hosts is asked of that rule once.
    """
    samples = columns.sample_count[rows]
    estimate = np.where(
        samples > 0,
        columns.sample_sum[rows] / np.maximum(samples, 1),
        columns.prior[host_of],
    )
    values, which = np.unique(estimate, return_inverse=True)
    # Rows come host by host: each host's first row is where the host changes.
    starts = np.ones(host_of.size, dtype=np.bool_)
    np.not_equal(host_of[1:], host_of[:-1], out=starts[1:])
    starts = starts.nonzero()[0]
    rules: dict = {}
    for host, row in zip(host_of[starts].tolist(), rows[starts].tolist()):
        rule = columns.hosts[host].policy._decision_rule_for(
            columns.names[row // len(columns.hosts)]
        )
        rules.setdefault(rule, []).append(host)
    pairs = range(values.size)
    if len(rules) > 1:
        rule_of = np.zeros(len(columns.hosts), dtype=np.int64)
        for number, hosts in enumerate(rules.values()):
            rule_of[hosts] = number
        pairs, which = np.unique(rule_of[host_of] * values.size + which, return_inverse=True)
        pairs = pairs.tolist()
    asked, values = list(rules), values.tolist()
    picks = [
        asked[pair // len(values)].from_ew(values[pair % len(values)]) is Action.UPDATE
        for pair in pairs
    ]
    return np.array(picks)[which]


def _count_violations(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
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
    pay for the per-read count, into their own host's tally.
    """
    keys, first, count, stride, write_lo = groups[:5]
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
    late = late[suspect]
    for g, host, key_id, entry_as_of in zip(
        late.tolist(),
        groups.host[late].tolist(),
        key_ids[suspect].tolist(),
        as_of[suspect].tolist(),
    ):
        reads = index.read_pos[first[g] : first[g] + count[g] * stride : stride]
        horizons = ctx.trace.times[reads] - ctx.bound
        candidates = horizons > entry_as_of
        key_write_times, _, _ = index.writes_of(key_id)
        stale_writes = key_write_times.searchsorted(
            horizons[candidates], side="right"
        ) - key_write_times.searchsorted(entry_as_of, side="right")
        tallies[host].violations += int(np.count_nonzero(stale_writes))


def _held_violations(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
    held: np.ndarray,
    served: np.ndarray,
    as_of: np.ndarray,
) -> None:
    """Staleness violations among the reads loaded entries serve as they
    were handed: the first ``served[i]`` reads of group ``held[i]``, against
    the entry's ``as_of[i]``."""
    some = served.nonzero()[0]
    held, served, as_of = held[some], served[some], as_of[some]
    last = ctx.index.read_pos[groups.first[held] + (served - 1) * groups.stride]
    horizon = ctx.trace.times[last] - ctx.bound
    late = (horizon > as_of).nonzero()[0]
    if late.size:
        count = np.zeros_like(groups.count)
        count[held] = served
        _count_violations(
            ctx, tallies, groups._replace(count=count), held[late], as_of[late], horizon[late]
        )


#: Keys the TTL-expiry kernel steps together.  A batched step finds every
#: live key's next epoch with a few hundred numpy calls (~0.3 ms) however few
#: keys are live; a scalar ``searchsorted`` on one key costs ~2 µs, so below
#: about this many live keys the per-key walk is the cheaper way to finish —
#: and the only bearable one for a hot key with tens of thousands of epochs.
_TTL_EXPIRY_BATCH = 128


def _versions_before(
    ctx: _ReplayContext, keys: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Per key, how many of its writes precede stream position ``positions[g]``.

    Exactly those writes are visible to a backend read at that position, so
    this is the version the read returns.
    """
    index = ctx.index
    write_lo = index.write_offsets[keys]
    return bisect_groups(
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


def _ttl_start(
    columns: _HostColumns, groups: _GroupBlock, reading: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each reading group's entry starts the trace: its row of
    ``columns``, whether that row holds a ``VALID`` entry (the first read
    may hit it) and whether it holds none (the first read is a cold miss).
    Any other row's first read is a stale miss that refetches."""
    rows = groups.keys[reading] * len(columns.hosts) + groups.host[reading]
    state = columns.state[rows]
    return rows, state == _VALID, state == _ABSENT


def _fetch_ttl_rows(
    ctx: _ReplayContext,
    columns: _HostColumns,
    rows: np.ndarray,
    keys: np.ndarray,
    positions: np.ndarray,
) -> None:
    """Refresh each of ``rows`` with a backend read of its key, ``keys``, by
    the read at stream position ``positions``: version and value size as
    that read saw them, fetched (and accounted) at its time."""
    columns.version[rows], columns.value_size[rows] = _backend_reads(ctx, keys, positions)
    when = ctx.trace.times[positions]
    for column in (columns.as_of, columns.fetched_at, columns.accounted):
        column[rows] = when


def _close_ttl_rows(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    segments: List[int],
    rows: np.ndarray,
    cold: np.ndarray,
    position: np.ndarray,
    count: np.ndarray,
    hits: np.ndarray,
    stale: np.ndarray,
) -> None:
    """What every reading row keeps across the trace, and each host's
    counts.  The row ends ``VALID`` (a TTL host never drops an entry) with
    ``hits`` more hits.  A ``cold`` row was filled at its first read, stream
    position ``position``: that is its ``filled`` order, the scalar engine's
    cache dict order, and its key size; a loaded row keeps both (a refetch
    refreshes an entry in place).  Each host's tally gains its rows' reads
    (``count``), hits, cold fills and ``stale`` misses."""
    columns.state[rows] = _VALID
    columns.hits[rows] += hits
    filled = position[cold]
    columns.filled[rows[cold]] = filled
    columns.key_size[rows[cold]] = ctx.trace.key_sizes[filled]
    sums = (_segment_sums(column.tolist(), segments) for column in (count, hits, cold, stale))
    for tally, reads, host_hits, fills, misses in zip(tallies, *sums):
        tally.reads += reads
        tally.hits += host_hits
        tally.cold_misses += fills
        tally.stale_misses += misses


def _kernel_ttl_expiry(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
) -> None:
    """Every host's whole trace under TTL-expiry (the policy never reacts),
    from the entries in ``columns`` to each key's final entry, scattered
    into its row.

    An entry's life is a sequence of epochs: a fetch anchors a timer, the
    first read at or past ``fetched_at + ttl`` expires and re-fetches.  A
    loaded ``VALID`` entry's epoch runs from its own ``fetched_at`` (its
    fetch ranks before the first read, which may already expire it); any
    other row's first read fetches, cold or stale.  With ``ttl <= bound`` no
    hit can violate the staleness bound (an entry's ``as_of`` is at or after
    its ``fetched_at``: a fetch sets both, and only a poll moves ``as_of``),
    so only the epoch boundaries matter, and every key's next one is
    bisected out of its read run at once, on every host: ``O(keys x epochs x
    log reads)``, no pass over the reads.  The search starts after the
    current fetch, so it advances even where ``fetched_at + ttl`` rounds
    back to ``fetched_at``.  Keys leave the batch as their runs end; the
    last :data:`_TTL_EXPIRY_BATCH` of them — typically the hot keys, with
    the most epochs — finish one at a time.
    """
    keys, first, count, stride = groups[:4]
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    segments = _segments(reading.tolist(), groups.bounds[0].tolist())
    rows, valid, cold = _ttl_start(columns, groups, reading)
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos, ttl = ctx.trace.times, ctx.index.read_pos, ctx.ttl
    first_position = read_pos[first]
    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.
    start = -valid.astype(np.int64)
    fill = start.copy()
    fetch_time = np.where(valid, columns.fetched_at[rows], times[first_position])
    refetches = np.zeros(keys.size, dtype=np.int64)
    live = np.arange(keys.size)
    while live.size >= _TTL_EXPIRY_BATCH:
        run = first[live]
        expired = bisect_groups(
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
    hits = count - 1 - start - refetches
    # A row the trace fetched holds the last fetch; a loaded entry that
    # never expired is as it was.
    fetched = (fill >= 0).nonzero()[0]
    _fetch_ttl_rows(
        ctx, columns, rows[fetched], keys[fetched],
        read_pos[first[fetched] + fill[fetched] * stride],
    )
    _close_ttl_rows(
        ctx, columns, tallies, segments, rows, cold, first_position, count, hits,
        refetches + ~(valid | cold),
    )
    for tally, expirations in zip(tallies, _segment_sums(refetches.tolist(), segments)):
        tally.expirations += expirations


def _kernel_ttl_polling(
    ctx: _ReplayContext,
    columns: _HostColumns,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
) -> None:
    """Every host's whole trace under TTL-polling (the policy never reacts),
    from the entries in ``columns`` to each key's final entry, scattered
    into its row.

    A key's poll timer is anchored at ``a``: a loaded ``VALID`` entry's
    ``fetched_at``, else the first read's time (a cold fill, or the stale
    miss that refetches a loaded entry, which first settles the polls owed
    on its old anchor).  Every read of an entry settles the polls since the
    last accounting point with the scalar engine's arithmetic, the pair
    :func:`~repro.core.ttl.poll_count` / :func:`~repro.core.ttl.poll_instant`
    (the array half here).  A read at ``t`` has seen ``k = poll_count(a, t)``
    polls, and once it settles them the accounting point is
    ``poll_instant(a, k)``, which the next read counts back as
    ``s = poll_count(a, poll_instant(a, k))`` — *not* always ``k``: float
    rounding can land it one lower, and the closed form reproduces that.
    ``k`` never decreases along a key's reads and ``s <= k`` for a TTL the
    trace's clock resolves (:func:`_ttl_resolvable`), so a read that settles
    nothing leaves ``s`` where the previous read's ``k`` puts it, and read
    ``i`` charges ``k[i] - s[i - 1]`` polls whether or not read ``i - 1``
    charged any.

    So a key's reads fall into runs of equal ``k``, and
    :func:`~repro.sim.polling.polling_charges` finds the charging reads of
    every group from its runs: ``O(polls x log reads + charges)`` for a key
    with many reads a poll, a pass over its reads for any other (plus the
    bisection's fixed rounds of numpy calls, whenever any key takes its
    polls).

    A loaded ``VALID`` entry counts back from ``paid = poll_count(a,
    accounted)`` until one of its reads charges: the reads with ``k <=
    paid`` are served by the entry as it was handed, and the first read past
    them charges ``k - paid``.  Its accounting point may sit off the poll
    grid, with ``as_of`` behind it — a warm rejoin or a partition's end moves
    the point over polls nobody performed — so those served reads are
    checked against the staleness bound.  Every later hit is on an entry a
    poll refreshed less than ``ttl <= bound`` ago and cannot violate it.
    """
    keys, first, count, stride = groups[:4]
    reading = count.nonzero()[0]
    if reading.size == 0:
        return
    segments = _segments(reading.tolist(), groups.bounds[0].tolist())
    rows, valid, cold = _ttl_start(columns, groups, reading)
    keys, first, count = keys[reading], first[reading], count[reading]
    times, read_pos, ttl = ctx.trace.times, ctx.index.read_pos, ctx.ttl
    first_position = read_pos[first]
    first_time = times[first_position]
    loaded_anchor = columns.fetched_at[rows]
    anchor = np.where(valid, loaded_anchor, first_time)
    # The polls a loaded entry has settled, and what each first read
    # charges: a loaded entry's polls since then, on its own anchor; nothing
    # at a cold fill.
    paid = poll_counts(loaded_anchor, columns.accounted[rows], ttl)
    owed = poll_counts(loaded_anchor, first_time, ttl) - paid
    owed[cold] = 0
    np.maximum(owed, 0, out=owed)
    # How many reads each loaded valid entry serves before one charges.
    served = np.zeros(keys.size, dtype=np.int64)
    held = valid.nonzero()[0]
    if held.size:
        served[held] = bisect_groups(
            lambda groups, rank: poll_counts(
                loaded_anchor[held[groups]],
                times[read_pos[first[held[groups]] + rank * stride]],
                ttl,
            ),
            np.zeros(held.size, dtype=np.int64),
            count[held],
            paid[held],
            right=True,
        )
        _held_violations(
            ctx, tallies, groups, reading[held], served[held], columns.as_of[rows[held]]
        )
    refetching = ~(valid | cold)
    tables, settled_polls, settled_position = polling_charges(
        PollingGroups(times, read_pos, ttl, stride, first, count, anchor, owed, served, paid),
        segments,
    )
    # Each host's freshness charges: its polls, then the stale miss of each
    # refetching first read, which lands after that read's polls (the
    # flush's sort by stream position is stable).
    missed = first_position[refetching]
    miss_split = np.searchsorted(refetching.nonzero()[0], segments).tolist()
    for host, tally in enumerate(tallies):
        lo, hi = miss_split[host], miss_split[host + 1]
        positions = [position[split[host] : split[host + 1]] for position, _, split in tables]
        counts = [charge[split[host] : split[host + 1]] for _, charge, split in tables]
        if hi > lo or any(piece.size for piece in positions):
            tally.charge_positions = np.concatenate(positions + [missed[lo:hi]])
            tally.charge_counts = np.concatenate(counts + [np.ones(hi - lo, dtype=np.int64)])
            tally.polls += int(tally.charge_counts.sum()) - (hi - lo)
    # A row the trace fetched was fetched at its first read.  Only a key's
    # *final* settled state is observable after the trace: polls refresh the
    # entry monotonically, so the scalar engine's per-read entry updates
    # collapse into the last one.
    fetched = (~valid).nonzero()[0]
    _fetch_ttl_rows(ctx, columns, rows[fetched], keys[fetched], first_position[fetched])
    _close_ttl_rows(
        ctx, columns, tallies, segments, rows, cold, first_position, count, count - 1 + valid,
        refetching,
    )
    charged = (settled_polls >= 0).nonzero()[0]
    keys = keys[charged]
    # version_at(last_poll) over the writes applied before the settling read:
    # both constraints are prefixes of the key's writes, so the refreshed
    # version is the shorter prefix.
    _refresh_polled(
        ctx, columns, rows[charged], keys, _versions_before(ctx, keys, settled_position[charged]),
        poll_instant(anchor[charged], settled_polls[charged], ttl),
    )


def _refresh_polled(
    ctx: _ReplayContext,
    columns: _HostColumns,
    rows: np.ndarray,
    keys: np.ndarray,
    writes: np.ndarray,
    last_poll: np.ndarray,
) -> None:
    """Each of ``rows`` (key ``keys``) as its last poll, at ``last_poll``,
    leaves it: accounted there, ``as_of`` at least that, and its version at
    least ``version_at(last_poll)`` over the key's first ``writes`` writes."""
    write_lo = ctx.index.write_offsets[keys]
    polled_version = bisect_groups(
        lambda groups, rank: ctx.index.write_times[write_lo[groups] + rank],
        np.zeros(keys.size, dtype=np.int64),
        writes,
        last_poll,
        right=True,
    )
    columns.version[rows] = np.maximum(columns.version[rows], polled_version)
    columns.as_of[rows] = np.maximum(columns.as_of[rows], last_poll)
    columns.accounted[rows] = last_poll


def _settle_polls(ctx: _ReplayContext, columns: _HostColumns, horizon: float) -> None:
    """TTL-polling's end of run on the columns: every host's
    :meth:`CacheNode.account_polls <repro.sim.node.CacheNode.account_polls>`
    at ``horizon`` for each cached entry, as the node's finalize makes it.

    An entry anchored at ``a = fetched_at`` owes the polls it has seen by
    the horizon less those counted back from its accounting point,
    ``poll_count(a, horizon) - poll_count(a, accounted)``
    (:func:`~repro.core.ttl.poll_counts`).  One that owes any ends
    accounted at its last poll, ``poll_instant(a, k)``, with ``as_of`` at
    least that and its version at least the key's writes up to it — from
    the index's write columns, which hold every write of the trace.  The
    charges fold onto each host's ``freshness_cost`` in the host's cache
    dict order (``filled``), as :func:`_flush_tally` folds a span's (:func:`_fold_charges`).
    """
    rows = (columns.state != _ABSENT).nonzero()[0]
    anchor = columns.fetched_at[rows]
    seen = poll_counts(anchor, horizon, ctx.ttl)
    polls = seen - poll_counts(anchor, columns.accounted[rows], ctx.ttl)
    charged = (polls > 0).nonzero()[0]
    rows, polls = rows[charged], polls[charged]
    offsets = ctx.index.write_offsets
    # A name the trace never mentions (a loaded entry's) reads as the key
    # past the last one, which has no write.
    keys = np.minimum(rows // len(columns.hosts), offsets.size - 1)
    _refresh_polled(
        ctx, columns, rows, keys, np.append(np.diff(offsets), 0)[keys],
        poll_instant(anchor[charged], seen[charged], ctx.ttl),
    )
    host_of = rows % len(columns.hosts)
    for host, node in enumerate(columns.hosts):
        mine = (host_of == host).nonzero()[0]
        if mine.size:
            result = node.result
            result.polls += int(polls[mine].sum())
            result.freshness_cost = _fold_charges(
                result.freshness_cost, columns.filled[rows[mine]], polls[mine], ctx.miss_const
            )


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


def _left_fold(acc: float, values: Iterable[float]) -> float:
    """``acc += value`` for each of ``values``, one addition at a time."""
    if _SUM_IS_PLAIN:
        return sum(values, acc)
    return reduce(add, values, acc)


def _plain_fold(acc: float, c: float, n: int) -> float:
    """``acc += c``, ``n`` times, one addition at a time."""
    return _left_fold(acc, repeat(c, n))


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


def _flush_tally(ctx: _ReplayContext, node: CacheNode, tally: _SpanTally) -> None:
    """Fold one span's counter deltas and poll charges into the node's result
    and cache stats, in scalar-identical float order.  Every cold miss is
    one insertion: the envelope's caches never evict."""
    result = node.result
    stats = node.cache.stats
    result.reads += tally.reads
    result.writes += tally.writes
    result.hits += tally.hits
    result.stale_misses += tally.stale_misses
    result.stale_refetches += tally.stale_misses
    result.cold_misses += tally.cold_misses
    result.staleness_violations += tally.violations
    result.polls += tally.polls
    stats.lookups += tally.reads
    stats.hits += tally.hits
    stats.stale_misses += tally.stale_misses
    stats.cold_misses += tally.cold_misses
    stats.expirations += tally.expirations
    misses = tally.stale_misses + tally.cold_misses
    ctx.datastore.total_reads += misses
    # Constant-cost accumulations: the scalar engine's n in-order additions.
    if tally.reads:
        result.useful_work = _fold_constant(result.useful_work, ctx.serve_const, tally.reads)
    streamed = tally.charge_counts.size
    if tally.stale_misses and not streamed:
        result.freshness_cost = _fold_constant(
            result.freshness_cost, ctx.miss_const, tally.stale_misses
        )
    if tally.cold_misses:
        result.cold_miss_cost = _fold_constant(
            result.cold_miss_cost, ctx.miss_const, tally.cold_misses
        )
    stats.insertions += tally.cold_misses
    if tally.buffered_writes:
        node.buffer.total_buffered += tally.buffered_writes
    if streamed:
        # Poll charges are the one varying-order float sum: fold every
        # charge in global stream order onto the running accumulator (the
        # per-entry state those charges refresh was already settled by the
        # kernel).
        result.freshness_cost = _fold_charges(
            result.freshness_cost, tally.charge_positions, tally.charge_counts, ctx.miss_const
        )


def _fold_charges(acc: float, positions: np.ndarray, counts: np.ndarray, miss: float) -> float:
    """``acc`` after ``acc += count * miss`` for each charge, in ascending
    ``positions`` (ties in their given order).  ``cumsum`` adds strictly
    left to right, so seeding its first addend gives the float the scalar
    engine's one-by-one ``+=`` does."""
    order = np.argsort(positions, kind="stable")
    charge = counts[order] * miss
    charge[0] += acc
    return float(np.cumsum(charge, out=charge)[-1])


def _walk_spans(engine) -> Iterator[Tuple[CutBatch, int]]:
    """The cuts of a replay of ``engine.trace``, each where its next flush
    falls, as ``(batch, position)``.

    Takes every cut from the trace's span table — a miss builds the
    cut with the next ones of the replay's flush schedule, in one batch —
    and between two cuts runs the due work of ``ReplayDriver._advance``
    (which moves the live ``engine._next_flush``) exactly where the scalar
    loop would.  Before each cut the obs window rolls to the cut's first
    request: the kernel's stats fold into the window containing it
    (span-granularity attribution).  A replay with no flush work (the TTL
    policies: its next flush is never) is one cut of the whole trace; it
    asks for no flush schedule, which at a tiny bound would hold an end per
    interval, and rolls no window, so its stats fold into the one open at
    the start.
    """
    times = engine.trace.times
    total = len(times)
    index = engine.trace.index()
    schedule = obs = None
    if engine._next_flush < math.inf:
        schedule = index.cut_ends(times, engine.staleness_bound)
        obs = engine.obs
    start = 0
    while start < total:
        end = int(np.searchsorted(times, engine._next_flush, side="left"))
        if end > start:
            if obs is not None and times[start] >= obs.next_boundary:
                obs.roll(float(times[start]))
            yield index.span(start, end, schedule)
            start = end
            if start >= total:
                break
        # The next request is at or past the flush boundary: run the due
        # background work exactly where the scalar loop would.
        engine._advance(float(times[start]))


class _Lockstep:
    """The write-reactive replays of one lockstep unit, as one replay of their
    stacked hosts.

    Replays of one trace under one flush schedule cut it in the same places,
    whatever their fleet shape, so a unit keeps every member's hosts in one
    :class:`_HostColumns` — member ``m``'s hosts follow those of the members
    before it — and takes one kernel call and one flush per cut for all of
    them.  Each member still steps its own cuts, and its own sequence is
    unchanged — the flushes due before a cut, its obs roll, the cut's
    kernel, its tally fold — because the members' states are disjoint and
    two rules keep the order: the unit's flush at a time runs when the
    first member reaches it (:meth:`flush`), and the unit's kernel for a cut
    when the last member has come to the cut, its obs window rolled
    (:meth:`cut`).  The unit stacks its members' groups once per window of
    a batch's cuts (:func:`_stack_groups`) and builds the window's stacked
    prelude then; each cut's kernel call takes views of it.  Members stack
    whatever their fleet shape, as long as their groups read with one
    stride.  Each member's tallies fold into its own results.  The last
    member to finish its walk leaves every member's objects to a build on
    their first read (:meth:`finish`).  A TTL replay is a unit of its own (:meth:`key`): its
    one cut is one call of its policy's TTL kernel on the same columns.
    """

    __slots__ = (
        "members", "columns", "flushed", "arrived", "finished", "batch", "first", "last",
        "prelude",
    )

    def __init__(self, members: List["SpanReplay"]) -> None:
        self.members = members
        self.columns = _HostColumns(
            [node for member in members for node in member._node_list],
            members[0].trace.key_names,
        )
        self.flushed = -math.inf
        self.arrived = self.finished = 0
        #: The stacked prelude of cuts ``first`` to ``last`` of ``batch``.
        self.batch: Optional[CutBatch] = None
        self.first = self.last = 0
        self.prelude: Optional[_PreludeBlock] = None
        for member in members:
            member._unit = self

    def flush(self, time: float) -> None:
        """Every member's interval flush at ``time``, once."""
        if time > self.flushed:
            self.flushed = time
            _flush_columns(self.members[0]._ctx, self.columns, time)

    def cut(self, member: "SpanReplay", batch: CutBatch, position: int) -> None:
        """``member`` has come to cut ``position`` of ``batch``: once every
        member has, one kernel call replays it for all of them — the span
        kernel on the cut's prelude, or a TTL kernel on the groups of a TTL
        replay's one cut."""
        self.arrived += 1
        if self.arrived < len(self.members):
            return
        self.arrived = 0
        node = member._node_list[0]
        if node._reacts:
            if batch is not self.batch or not self.first <= position < self.last:
                self._stack(batch, position)
            prelude = self.prelude.cut(position - self.first)
            tallies = [_SpanTally(count) for count in prelude.block.writes[0].tolist()]
            _kernel_reactive_span(member._ctx, self.columns, tallies, prelude)
        else:
            groups = member._group_block(batch).cut(position)
            tallies = [_SpanTally(count) for count in groups.writes[0].tolist()]
            kernel = _kernel_ttl_expiry if node._ttl_expiry else _kernel_ttl_polling
            kernel(member._ctx, self.columns, tallies, groups)
        folding = iter(tallies)
        for each in self.members:
            for node, tally in zip(each._node_list, folding):
                _flush_tally(each._ctx, node, tally)

    def _stack(self, batch: CutBatch, first: int) -> None:
        """The prelude of the cuts of ``batch`` from ``first`` on: a unit of
        one takes its shape's from the span table; a bigger unit stacks its
        members' groups of as many of those cuts as :data:`_STACKED_GROUPS`
        stacked groups hold (at least one cut) and builds their prelude
        once."""
        members = self.members
        self.batch = batch
        if len(members) == 1:
            self.prelude = members[0]._prelude_block(batch)
            self.first, self.last = 0, len(batch.cuts)
            return
        ctx = members[0]._ctx
        blocks = [each._group_block(batch) for each in members]
        stacked = np.cumsum(sum(np.diff(block.offsets[first:]) for block in blocks))
        last = first + max(1, int(np.searchsorted(stacked, _STACKED_GROUPS, side="right")))
        self.first, self.last = first, last
        self.prelude = _PreludeBlock(ctx.trace, ctx.index, _stack_groups(blocks, first, last))

    def finish(self, horizon: float) -> None:
        """A member has run its flushes up to ``horizon``; the last one to
        do so ends the run on the columns — the nodes' own end-of-run steps
        (:meth:`CacheNode.finalize <repro.sim.node.CacheNode.finalize>`)
        that act on state: a reactive unit's trailing flush at the horizon
        (a no-op when the last interval flush fell on it), or TTL-polling's
        settle (:func:`_settle_polls`) — and leaves every member's objects
        to a build on their first read (:meth:`_HostColumns.defer`): a
        caller that reads no node never builds one."""
        self.finished += 1
        if self.finished == len(self.members):
            member = self.members[0]
            node = member._node_list[0]
            if node._reacts:
                self.flush(horizon)
            elif node._poll_ttl is not None:
                _settle_polls(member._ctx, self.columns, horizon)
            self.columns.defer()
            self.batch = self.prelude = None

    @staticmethod
    def key(member: "SpanReplay") -> Tuple[Any, ...]:
        """What replays must share to be one unit: the trace's index, the
        flush schedule and horizon, the read stride of their groups and the
        cost constants.  A TTL replay's key is its engine: it stacks with
        no other."""
        if not member._node_list[0]._reacts:
            return member
        ctx = member._ctx
        return (
            id(ctx.index), ctx.bound, member.duration, member._stride, ctx.serve_const,
            ctx.miss_const, ctx.invalidate_const, ctx.update_const, ctx.default_value_size,
        )


def replay_in_lockstep(replays: Sequence[Generator[Any, None, Any]]) -> List[Any]:
    """Step ``replays`` (:meth:`SpanReplay.replay` generators) round-robin,
    one cut each in turn, until every one has returned; their results, in order.

    A columnar replay's first step offers its engine; the write-reactive
    engines offered that replay one trace under one flush schedule, with
    one read stride, are stacked into one unit (:class:`_Lockstep`), whose
    kernel call and flush per cut serve all of them, and a TTL engine is a
    unit of its own.  Replays that step together also find each cut in the
    trace's span table, built in a batch by the first lookup: the batch and
    each fleet shape's routing are built once for all of them.
    A replay that leaves the envelope replays scalar at its first step and
    joins no unit.  The members' states are disjoint, so the order of the
    steps changes no result.
    """
    results: List[Any] = [None] * len(replays)
    live = list(enumerate(replays))
    while live:
        stepping, live = live, []
        units: dict = {}
        for position, replay in stepping:
            try:
                offered = next(replay)
            except StopIteration as done:
                results[position] = done.value
            else:
                live.append((position, replay))
                if offered is not None:
                    units.setdefault(_Lockstep.key(offered), []).append(offered)
        for members in units.values():
            _Lockstep(members)
    return results


class SpanReplay:
    """The columnar ``run()`` of both engines, mixed in front of a scalar driver.

    Inside the engine's envelope (``_envelope``) each cut runs one kernel
    call for every host, with the driver's due work at every boundary and
    its finalize at the end; outside it the driver's own ``run()`` replays.
    Every columnar replay is a member of a lockstep unit (:class:`_Lockstep`,
    a unit of one when stepped alone or under a TTL policy), which keeps its
    hosts' state in :class:`_HostColumns` from the first cut to the nodes'
    end of run — the interval flush (:meth:`_flush_nodes`), the trailing
    flush at the horizon and TTL-polling's settle run on them too
    (:meth:`_Lockstep.finish`) — and then leaves the objects to a build on
    their first read; the replay then commits the trace's writes, their histories deferred
    (:func:`_commit_trace_writes`), and the driver's finalize only records
    the end on each node (:meth:`_settle_nodes`).  The defaults
    are the single cache's (one host, the whole cut, unrouted); the fleet
    supplies ``_route_trace`` / ``_route_batch``.
    """

    _envelope: Tuple[EnvelopeRow, ...] = ENVELOPE
    #: The fleet shape a cut's groups and kernel prelude are memoised under
    #: (``None``: the single cache's, unrouted).
    _shape = None
    #: How far apart a group's reads lie in the key's read column.
    _stride = 1

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
        #: The lockstep unit whose columns hold the hosts' state, while they do.
        self._unit: Optional[_Lockstep] = None

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
        """Replay the trace; vectorized inside the envelope, scalar otherwise.
        Takes what :meth:`replay` takes."""
        return replay_in_lockstep([self.replay(*args, **kwargs)])[0]

    def replay(self, *args, **kwargs) -> Generator[Any, None, Any]:
        """:meth:`run`, one cut at a time: a generator that yields after each
        cut and returns the result.  Its first step yields the engine,
        offering it to :func:`replay_in_lockstep`'s unit.
        The arguments are the scalar driver's ``run()``'s; outside the
        envelope that ``run()`` replays the whole trace at the first step."""
        row = envelope_exit(self._envelope, self, self._node_list, *args, **kwargs)
        if row is not None:
            self._fallback_reason = row.name
            return super().run(*args, **kwargs)
        self._spend()
        self.used_vector_path = True
        self._start("vector")
        yield from self._run_spans()
        return self._finalize()

    def _run_spans(self) -> Iterator[Any]:
        """Replay the trace span by span, yielding after each; the driver's
        due work runs at each boundary, exactly where the scalar loop would
        run it."""
        trace = self.trace
        if len(trace) == 0:
            return
        index = trace.index()
        if not index.time_ordered:
            # Same contract as the scalar loop's ordering check.
            raise order_error(trace.times)
        self._route_trace()
        self._ctx = _ReplayContext.for_node(trace, index, self._node_list[0])
        yield self
        if self._unit is None:
            _Lockstep([self])
        unit = self._unit
        for batch, position in _walk_spans(self):
            unit.cut(self, batch, position)
            yield
        self.clock.advance_to(float(trace.times[-1]))
        # The flushes up to the horizon (finalize's first step) and the
        # nodes' end of run still run on the columns; once every member has
        # run its flushes, the objects are left to a build on their first
        # read, and then the trace's writes are committed, their histories
        # deferred.
        horizon = max(self.duration, self.clock.now)
        self._advance(horizon)
        unit.finish(horizon)
        while unit.finished < len(unit.members):
            yield
        self._unit = None
        _commit_trace_writes(self._ctx)

    def _flush_nodes(self, time: float) -> None:
        """The interval boundary: on the unit's columns while they hold the
        hosts' state, the nodes' own flush otherwise."""
        if self._unit is None:
            super()._flush_nodes(time)
        else:
            self._unit.flush(time)

    def _settle_nodes(self, end_time: float) -> None:
        """The nodes' end of run.  After a columnar replay the unit has
        flushed and settled its hosts at the horizon on its columns
        (:meth:`_Lockstep.finish`), so each node only records the end."""
        if not self.used_vector_path:
            super()._settle_nodes(end_time)
            return
        for node in self._node_list:
            node.record_end(end_time)

    def _route_trace(self) -> None:
        """Route the trace before the first span (the single cache: nothing to route)."""

    def _group_block(self, batch: CutBatch) -> _GroupBlock:
        """The hosts' groups of every cut of ``batch``, from the span table
        (built for the whole batch on first use)."""
        return self._ctx.index.routed(batch, ("groups", self._shape), self._route_batch)

    def _route_batch(self, batch: CutBatch) -> Tuple[_GroupBlock, int]:
        """Group a batch's cuts by host, with the table bytes of the groups.
        The single cache's one host has every key of a cut with all its
        reads, and it counts every write."""
        keys, read_lo, read_hi, write_lo, write_hi = batch.columns
        sizes = np.diff(batch.offsets)
        block = _GroupBlock(
            keys, read_lo, read_hi - read_lo, 1, write_lo, write_hi,
            np.zeros(keys.size, dtype=np.int64), 1, batch.offsets,
            np.stack((np.zeros_like(sizes), sizes), axis=1), np.array(batch.writes)[:, None],
        )
        return block, 16 * keys.size

    def _prelude_block(self, batch: CutBatch) -> _PreludeBlock:
        """The kernel prelude of every cut of ``batch`` on this replay's
        hosts, from the span table."""
        ctx = self._ctx

        def build(batch: CutBatch) -> Tuple[_PreludeBlock, int]:
            block = self._group_block(batch)
            prelude = _PreludeBlock(ctx.trace, ctx.index, block)
            return prelude, _PRELUDE_GROUP_BYTES * block.keys.size

        return ctx.index.routed(batch, ("prelude", self._shape), build)


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

    def replay(self) -> Generator[Any, None, SimulationResult]:
        """:meth:`SpanReplay.replay`, and so ``run()``, take what
        :meth:`Simulation.run` takes: nothing (a kill point is the fleet's)."""
        return super().replay()
