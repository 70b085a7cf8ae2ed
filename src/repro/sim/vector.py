"""Vectorized (columnar) replay of a compiled trace.

The scalar :class:`~repro.sim.simulation.Simulation` pays Python-interpreter
overhead per request.  For the policies the paper sweeps most, almost nothing
*happens* per request: between two simulation events (interval flushes,
message deliveries) a key's entry changes state at most once, so the hit/miss
classification, the staleness check, and the cost accumulation over a whole
span of requests follow from each key's *endpoints* in the span — how many
reads, the first and the last one, the first and the last write.

:class:`VectorSimulation` exploits exactly that.  It consumes a
:class:`~repro.workload.compiled.CompiledTrace` and replays a *window* of
spans — every span between flush boundaries up to the next due work that is
not an interval flush — with **one kernel call**, each span's flush
included.  A write-reactive replay is a member of a lockstep unit
(:class:`_Lockstep`; a unit of one when it runs alone), which keeps every
member's hosts' state — cache entries, invalidation tracker, write buffer,
E[W] counters — in one set of numpy columns indexed by (stacked host, key
id) (:class:`_HostColumns`) from the first cut to the last boundary flush,
each host under its own policy: the write-reactive replays a sweep makes of
one trace and bound, single cache and fleets alike, take one kernel call
per window between them.  The kernel (:func:`_kernel_reactive_window`)
gathers every key's endpoints with a fixed number of numpy operations over
the window's key columns, steps the rows' cache state from cut to cut and
flush to flush with a few gathers and scatters per cut, and does everything
else — E[W] folds, decisions, counts, message costs — once per window.  It
builds or walks no object per key, so a replay costs O(requests) of numpy
plus a small fixed charge per span and a larger one per window — not
O(keys x spans) of Python, which is what made a tight staleness bound (many
short spans) the slow case.  The columns are loaded from the
hosts' objects when the span loop starts (a caller may hand in prepared
state).  After the nodes' end of run — the trailing flush at the horizon,
TTL-polling's settle — has run on them too, each host's objects are left to
a build that writes them back, each dict in the scalar engine's insertion
order, on the first read of any of them; the trace's writes likewise reach
the datastore as a deferred build of its histories, which runs on their
first read.  The one driver's finalize (:class:`~repro.sim.driver.ReplayDriver`)
then finds nothing to settle, and its
:class:`~repro.sim.node.CacheNode` s only record the run's end.  The TTL
policies never react to writes and have no flush boundaries, so a TTL
replay's whole trace is one span, whatever its bound: the TTL replays of one
trace and policy are one unit on the same columns, and one kernel call — each
group at its own host's TTL — scatters each key's final entry into its row —
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
  is ``(batch, position)``, and a window's groups and prelude are blocks
  of views of its cuts (:meth:`_GroupBlock.cuts`, :meth:`_PreludeBlock.cuts`).
* **A write's place among the reads is arithmetic.**  The index stores, per
  write, where in the key-major read column the key's next read sits, so how
  many of a span's writes precede a key's first read (the version a miss
  fetches, the buffered writes a miss fill discards) or fall between two of
  its reads (the runs the E[W] estimator folds) is computed for all keys of a
  span from the span's writes alone, never from its reads.
* **A unit's members never meet.**  Stacked hosts own disjoint rows, the
  flush decides each row under its own host's policy, and each member's
  tallies fold into its own results, so one kernel call for all members —
  whatever each one's fleet shape — does what one per member did, provided
  each member still sees its own order of obs roll, window and fold, which
  :class:`_Lockstep` keeps.
* **Between a window's cuts only the cache state feeds back.**  A window
  ends before any due work but an interval flush, so nothing outside the
  columns looks at them in between; within it, whether a row's entry is
  valid, whether the tracker holds it and its ``as_of`` are all a cut needs
  of the ones before, and the E[W] counters follow from the stream alone.

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
from repro.core.decision import DecisionRule
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
    """One host's counter deltas of one kernel call, folded into its result
    and cache stats in bulk by :func:`_flush_tally`, plus the freshness
    charges that fold in order: TTL-polling's, in stream order, and a
    reactive window's (``charges``), with its flushes' message counts
    (``messages``).

    A kernel that streams its charges streams every one of them: its stale
    misses are among them, one miss's worth each, and fold in order with
    its polls or messages instead of as one constant.
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
        "charges",
        "messages",
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
        # A reactive window's freshness addends of a host that sent a
        # message, in the scalar engine's order; its flushes' counts.
        self.charges: Optional[np.ndarray] = None
        self.messages: Optional[List[int]] = None


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
    order, ahead of everything the replay adds.  ``hosts`` are the
    :class:`~repro.sim.node.CacheNode` s the columns were loaded from — a
    lockstep unit's members' nodes, stacked — and ``tables`` each host's
    four dicts (the E[W] counters ``None`` without an estimator), which the
    write-back fills.  Each host keeps its own policy: ``kinds`` is each
    host's policy class as an index
    into :data:`_VECTOR_POLICIES` (a TTL replay never flushes, so the flush
    never decides for a TTL host), ``prior`` its estimator's E[W] before
    the first sample and ``zero_runs`` whether that estimator counts
    zero-length runs.
    ``folds`` says whether each host folds an E[W] estimator (the kernel
    folds its rows, and only its rows write back), ``sequence`` numbers the
    trackers' next insertion.  ``ttl`` and ``bound`` are each host's TTL
    (``inf`` without a TTL timer) and staleness bound: the members of a TTL
    unit each keep their own, and the TTL kernels read them per group.
    """

    __slots__ = (
        "hosts", "tables", "names", "kinds", "prior", "zero_runs", "folds", "sequence",
        "ttl", "bound",
        "state", "version", "as_of", "fetched_at", "accounted",
        "key_size", "value_size", "hits", "filled",
        "tracked", "tracked_at", "tracked_seq",
        "dirty", "first_write", "first_write_time", "last_write_time",
        "write_count", "write_key_size", "write_value_size",
        "sample_sum", "sample_count", "writes_since_read", "seen",
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
        self.folds = np.array([each is not None for each in estimators], dtype=np.bool_)
        self.ttl = np.array([host._ttl_value for host in hosts], dtype=np.float64)
        self.bound = np.array([host.staleness_bound for host in hosts], dtype=np.float64)
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
    kernel takes a block of the cuts it replays (:meth:`cuts`).  Built once per batch and
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

    def cuts(self, lo: int, hi: int) -> "_GroupBlock":
        """Cuts ``lo`` to ``hi``: views of this block's rows and matrices."""
        start, stop = self.offsets[lo], self.offsets[hi]
        return _GroupBlock(
            self.keys[start:stop], self.first[start:stop], self.count[start:stop], self.stride,
            self.write_lo[start:stop], self.write_hi[start:stop], self.host[start:stop],
            self.hosts, [at - start for at in self.offsets[lo : hi + 1]], self.bounds[lo:hi],
            self.writes[lo:hi],
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

#: Most stacked groups a lockstep unit builds one prelude for, and so the
#: most a window of its cuts holds: with their group columns and the window
#: kernel's temporaries, a few hundred bytes a group.  ``sweep-grid``'s
#: peak RSS grows with it (2-vCPU x86, CPython 3.11): 88.3–88.6 MiB at
#: 8 192 groups, 89.4 at 12 288, 90.3 at 16 384.
_STACKED_GROUPS = 1 << 13


class _PreludeBlock:
    """The policy-independent half of :func:`_kernel_reactive_window` for
    every cut of a :class:`_GroupBlock`: what its groups are under *any*
    write-reactive policy, bound and cache state, as flat columns computed
    once for the whole block; :meth:`cuts` takes a window of cuts out, as
    views.  Built once per batch and fleet shape — memoised in the span
    table and shared by every replay, read, never written — or once per
    stretch of a batch's cuts for a lockstep unit's stacked hosts.

    Attributes:
        block: The hosts' :class:`_GroupBlock`.
        rows: Each group's row of :class:`_HostColumns` (``key * hosts +
            host``).
        versions: Each group's key's writes up to its cut's end.
        num_writes: Span writes per group.
        reading / first_read / last_read: The groups with span reads
            (ascending group indices), the position of each one's first
            span read and the time of its last.
        host_reads / host_writes: Per cut, per host, its span reads and its
            span writes (``cuts x hosts`` integer matrices).
        write_runs: ``(before_first, before_last, runs_closed)``:
            :func:`_write_runs` of every group that reads and writes, zero
            elsewhere.  A miss fetches the version as of its position, and
            the estimator folds runs.
        first_seen: Each group's first observation: its first read or write,
            whichever comes first in the stream — where the scalar engine
            creates the host's counter row for the key.
        reading_at: Per cut, where its groups start in ``reading``, and the
            total (ints).
    """

    __slots__ = (
        "block", "rows", "versions", "num_writes", "reading", "first_read", "last_read",
        "host_reads", "host_writes", "write_runs", "first_seen", "reading_at",
    )

    def __init__(self, trace: CompiledTrace, index: TraceIndex, block: _GroupBlock) -> None:
        keys, first, count, stride, write_lo, write_hi, host, hosts, offsets, _, _ = block
        self.block = block
        self.rows = keys * hosts + host
        self.versions = write_hi - index.write_offsets[keys]
        self.num_writes = num_writes = write_hi - write_lo
        self.reading = reading = count.nonzero()[0]
        read_first, read_count = first[reading], count[reading]
        self.first_read = first_read = index.read_pos[read_first].astype(np.int64)
        self.last_read = trace.times[index.read_pos[read_first + (read_count - 1) * stride]]
        self.reading_at = np.searchsorted(reading, offsets).tolist()
        cuts = len(offsets) - 1
        cell = np.repeat(np.arange(cuts) * hosts, np.diff(offsets)) + host
        self.host_reads, self.host_writes = (
            np.bincount(cell, weights=column, minlength=cuts * hosts)
            .astype(np.int64).reshape(cuts, hosts)
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
        writing = num_writes.nonzero()[0]
        seen[writing] = np.minimum(seen[writing], index.write_pos[write_lo[writing]])
        self.first_seen = seen

    def cuts(self, lo: int, hi: int) -> "_PreludeBlock":
        """Cuts ``lo`` to ``hi``: a block of views of this one's columns."""
        group = slice(self.block.offsets[lo], self.block.offsets[hi])
        read = slice(self.reading_at[lo], self.reading_at[hi])
        prelude = _PreludeBlock.__new__(_PreludeBlock)
        prelude.block = self.block.cuts(lo, hi)
        prelude.rows = self.rows[group]
        prelude.versions = self.versions[group]
        prelude.num_writes = self.num_writes[group]
        prelude.reading = self.reading[read] - group.start
        prelude.first_read = self.first_read[read]
        prelude.last_read = self.last_read[read]
        prelude.host_reads = self.host_reads[lo:hi]
        prelude.host_writes = self.host_writes[lo:hi]
        prelude.write_runs = self.write_runs[:, group]
        prelude.first_seen = self.first_seen[group]
        prelude.reading_at = [at - read.start for at in self.reading_at[lo : hi + 1]]
        return prelude


def _kernel_reactive_window(
    ctx: _ReplayContext,
    columns: _HostColumns,
    prelude: _PreludeBlock,
    flushes: Sequence[float],
) -> List[_SpanTally]:
    """A window of cuts of every host under its write-reactive policy, in
    one call: cut ``j`` of ``prelude``, then the interval flush at
    ``flushes[j]``, for each ``j``.  Returns each host's tally of the
    window, its flushes' counts and charges in it.

    Within a cut no messages arrive and nothing expires, so a key's entry
    changes state at most once: the first read of an absent/invalid entry
    misses and re-fetches, after which every read is a hit; a key valid at
    the cut's start serves only hits.  What a cut does to a key therefore
    follows from *endpoints* — read count, first and last read, the writes
    before the first read — which the :class:`_PreludeBlock` holds for all
    keys of all hosts.  From cut to cut only a row's cache state feeds
    back — whether its entry is valid (a hit or a miss), whether the
    tracker holds it (a suppressed invalidate), its ``as_of`` (a late hit's
    violations) — and the flush after each cut changes it again: each host
    drains the rows its cut left dirty and takes its policy's action for
    each (:meth:`CacheNode.flush <repro.sim.node.CacheNode.flush>` on an
    instant channel).  :func:`_step_cuts` carries that state from cut to
    cut with a fixed number of column operations per cut and records what
    each group found.  Everything else is done once for the window, from
    those records: the E[W] folds and the adaptive hosts' choices, which no
    cache state feeds (:func:`_fold_estimators`, :func:`_adaptive_updates`),
    the counts, fills, versions and violations, the trackers' sequence
    numbers, and each host's freshness charges — its message costs in drain
    order (first surviving write first) after each cut's stale misses, for
    one seeded ``cumsum``.  No entry, message or buffered write is built.

    A buffer handed in at load drains at the replay's first flush: its rows
    the first cut does not hold join it ahead of its groups as groups
    without requests, and a first-cut group keeps its loaded writes unless
    it misses.  A window of one empty cut is a flush alone.
    """
    hosts = len(columns.kinds)
    groups = prelude.block
    loaded = columns.dirty.nonzero()[0]
    extra = loaded
    if loaded.size:
        extra = loaded[~np.isin(loaded, prelude.rows[: groups.offsets[1]])]
    ahead = extra.size
    rows, host, count, writes, runs, first_seen = _records(prelude, extra, hosts)
    offsets = [0, *(ahead + at for at in groups.offsets[1:])]
    edges = np.asarray(offsets)
    reads = count > 0
    reading = prelude.reading + ahead if ahead else prelude.reading
    fetch_time = np.zeros(rows.size, dtype=np.float64)
    fetch_time[reading] = ctx.trace.times[prelude.first_read]
    kinds = columns.kinds[host]
    held = np.zeros(rows.size, dtype=np.bool_)
    if loaded.size:
        held[: offsets[1]] = columns.dirty[rows[: offsets[1]]]
        columns.dirty[loaded] = False
    prefers = kinds == _UPDATE
    if columns.folds.any():
        # The rows of the hosts that fold an estimator (all of them, or a
        # gather of theirs), and the adaptive ones a flush may decide.
        mine = slice(None) if columns.folds.all() else columns.folds[host].nonzero()[0]
        chosen = (kinds[mine] >= _ADAPTIVE) & ((writes[mine] > 0) | held[mine])
        estimate = _fold_estimators(
            columns, rows[mine], host[mine], count[mine], writes[mine], runs[:, mine],
            first_seen[mine], chosen,
        )
        picked = np.arange(rows.size)[mine][chosen]
        if picked.size:
            prefers[picked] = _adaptive_updates(columns, rows[picked], host[picked], estimate)
    state_in, as_of_in, tracked, dirty = _step_cuts(
        columns, rows, offsets, flushes, reads, writes > runs[0], writes > 0, prefers,
        kinds == _CACHE_STATE, fetch_time, held if loaded.size else None,
    )

    # The reads: hits, misses and cold fills, and the late hits' violations.
    miss = reads & (state_in != _VALID)
    cold = miss & (state_in == _ABSENT)
    tallies = [_SpanTally(count) for count in groups.writes.sum(axis=0).tolist()]
    horizon = prelude.last_read - ctx.bound
    late = ((state_in[reading] == _VALID) & (horizon > as_of_in[reading])).nonzero()[0]
    if late.size:
        _count_violations(
            ctx, tallies, groups, prelude.reading[late], as_of_in[reading[late]], horizon[late],
            ctx.bound,
        )
    fills = rows[cold]
    filled = prelude.first_read[cold[reading]]
    columns.filled[fills] = filled
    columns.key_size[fills] = ctx.trace.key_sizes[filled]
    columns.hits[fills] = 0
    np.add.at(columns.hits, rows[reading], count[reading] - miss[reading])

    # The flushes: what each drained row's host did with it.
    drained = dirty.nonzero()[0]
    drain_host = host[drained]
    valid = reads[drained] | (state_in[drained] == _VALID)
    absent = ~reads[drained] & (state_in[drained] == _ABSENT)
    decided = valid | (kinds[drained] != _CACHE_STATE)
    update = decided & prefers[drained]
    invalidate = decided & ~prefers[drained]
    suppressed = invalidate & tracked[drained]
    invalidate &= ~tracked[drained]
    adaptive = decided & (kinds[drained] >= _ADAPTIVE)
    flags = [
        update, invalidate, suppressed, update & absent, invalidate & valid, ~decided,
        adaptive, adaptive & update,
    ]
    counts = np.array(
        [np.bincount(drain_host, weights=flag, minlength=hosts) for flag in flags]
    ).astype(np.int64).T.tolist()
    for tally, messages in zip(tallies, counts):
        tally.messages = messages
    # Drain order: flush by flush, host by host, each host's rows by first
    # surviving write — a loaded buffer's in its own order, ahead of the trace's.
    own = held[drained] & ~miss[drained]
    first_write = np.empty(drained.size, dtype=np.int64)
    first_write[own] = columns.first_write[rows[drained[own]]]
    traced = drained[~own] - ahead
    skipped = np.where(miss[drained[~own]], prelude.write_runs[0][traced], 0)
    first_write[~own] = ctx.index.write_pos[groups.write_lo[traced] + skipped]
    drain_cut = np.searchsorted(edges, drained, side="right") - 1
    order = np.lexsort((first_write, drain_host, drain_cut))

    # The invalidates sent number the trackers' rows in drain order; a row
    # keeps its last.
    sent = order[invalidate[order]]
    if sent.size:
        sent_rows = rows[drained[sent]]
        base = columns.sequence
        np.maximum.at(columns.tracked_seq, sent_rows, base + np.arange(sent.size))
        sent_at = np.asarray(flushes)[drain_cut[sent]]
        columns.tracked_at[sent_rows] = sent_at[columns.tracked_seq[sent_rows] - base]
        columns.sequence += sent.size

    # A row's version, value size and fetch times are its last fetch's: a
    # miss's, as of its read, or an update's, as of its cut's end.
    refreshed = np.zeros(rows.size, dtype=np.bool_)
    refreshed[drained[update & ~absent]] = True
    fetched = (miss | refreshed).nonzero()[0]
    if fetched.size:
        fetched_rows, last = np.unique(
            rows[fetched[::-1]].astype(np.min_scalar_type(columns.state.size)), return_index=True
        )
        last = fetched[::-1][last]
        version = np.zeros(last.size, dtype=np.int64)
        keys = rows[last] // hosts
        traced = last >= ahead
        group = last[traced] - ahead
        version[traced] = np.where(
            refreshed[last[traced]],
            prelude.versions[group],
            groups.write_lo[group] + prelude.write_runs[0][group]
            - ctx.index.write_offsets[keys[traced]],
        )
        held_rows = (~traced).nonzero()[0]
        if held_rows.size:
            # A loaded row's update carries its key's writes up to the first
            # cut's end, as every group of the key in that cut counts them.
            first = slice(0, groups.offsets[1])
            carried = dict(zip(groups.keys[first].tolist(), prelude.versions[first].tolist()))
            version[held_rows] = [carried.get(key, 0) for key in keys[held_rows].tolist()]
        value_size = np.full(last.size, ctx.default_value_size, dtype=np.int64)
        written = version.nonzero()[0]
        value_size[written] = ctx.index.write_value_sizes[
            ctx.index.write_offsets[keys[written]] + version[written] - 1
        ]
        columns.version[fetched_rows] = version
        columns.value_size[fetched_rows] = value_size
        columns.fetched_at[fetched_rows] = columns.accounted[fetched_rows] = (
            columns.as_of[fetched_rows]
        )

    # Each host's reads, then its freshness charges: every cut's stale
    # misses, then its flush's messages in drain order.
    misses = np.bincount(host[miss], minlength=hosts).tolist()
    colds = np.bincount(host[cold], minlength=hosts).tolist()
    for tally, host_reads, host_writes, host_misses, host_colds in zip(
        tallies, prelude.host_reads.sum(axis=0).tolist(),
        prelude.host_writes.sum(axis=0).tolist(), misses, colds,
    ):
        tally.reads = host_reads
        tally.hits = host_reads - host_misses
        tally.cold_misses = host_colds
        tally.stale_misses = host_misses - host_colds
        tally.buffered_writes = host_writes
    charged = order[(update | invalidate)[order]]
    if charged.size:
        stale = (miss & ~cold).nonzero()[0]
        _charge_hosts(
            ctx, tallies, host[stale], np.searchsorted(edges, stale, side="right") - 1,
            len(flushes), drain_host[charged], drain_cut[charged], update[charged],
        )
    return tallies


def _records(prelude: _PreludeBlock, extra: np.ndarray, hosts: int) -> Tuple[np.ndarray, ...]:
    """A window's groups — rows, hosts, read counts, writes, write runs and
    first observations — with the rows of ``extra`` ahead of them, as groups
    without requests."""
    groups = prelude.block
    records = (
        prelude.rows, groups.host, groups.count, prelude.num_writes, prelude.write_runs,
        prelude.first_seen,
    )
    if not extra.size:
        return records
    none = np.zeros(extra.size, dtype=np.int64)
    ahead = (extra, extra % hosts, none, none, np.zeros((3, extra.size), dtype=np.int64),
             np.full(extra.size, _UNSEEN, dtype=np.int64))
    return tuple(np.concatenate(pair, axis=-1) for pair in zip(ahead, records))


def _step_cuts(
    columns: _HostColumns,
    rows: np.ndarray,
    offsets: List[int],
    flushes: Sequence[float],
    reads: np.ndarray,
    kept: np.ndarray,
    written: np.ndarray,
    prefers: np.ndarray,
    cache_state: np.ndarray,
    fetched: np.ndarray,
    held: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Carry the columns' ``state``, ``tracked`` and ``as_of`` through each
    cut of a window (groups ``offsets[j]`` to ``offsets[j + 1]``) and the
    flush after it, at ``flushes[j]``.

    Each group reads (``reads``), misses if its row's entry is not valid,
    which fetches at ``fetched`` and drops the writes before the read, and
    leaves its row dirty if writes survive: ``kept`` after a miss,
    ``written`` otherwise, or a loaded buffer (``held``, first cut only)
    without a miss.  The flush then decides each dirty row — an update if
    ``prefers``, an invalidate otherwise, nothing on a ``cache_state`` host
    without a valid entry.  Returns, per group, the state and ``as_of`` its
    row starts the cut with, whether the tracker holds the row at the
    flush, and whether the flush drains it.
    """
    state, tracked, as_of = columns.state, columns.tracked, columns.as_of
    state_in = np.empty(rows.size, dtype=np.int8)
    as_of_in = np.empty(rows.size, dtype=np.float64)
    tracked_in = np.empty(rows.size, dtype=np.bool_)
    dirty = np.empty(rows.size, dtype=np.bool_)
    for lo, hi, flush in zip(offsets, offsets[1:], flushes):
        mine = rows[lo:hi]
        read = reads[lo:hi]
        start, since = state[mine], as_of[mine]
        valid = start == _VALID
        miss = read & ~valid
        drains = np.where(miss, kept[lo:hi], written[lo:hi])
        if held is not None and lo == 0:
            drains |= held[lo:hi] & ~miss
        holds = tracked[mine] & ~miss
        valid |= read
        prefer = prefers[lo:hi]
        decided = drains & (valid | ~cache_state[lo:hi])
        update = decided & prefer
        send = decided & ~prefer & ~holds
        refresh = update & (read | (start != _ABSENT))
        state[mine] = np.where(send & valid, _INVALIDATED, np.where(refresh | read, _VALID, start))
        tracked[mine] = (holds | send) & ~update
        as_of[mine] = np.where(refresh, flush, np.where(miss, fetched[lo:hi], since))
        state_in[lo:hi] = start
        as_of_in[lo:hi] = since
        tracked_in[lo:hi] = holds
        dirty[lo:hi] = drains
    return state_in, as_of_in, tracked_in, dirty


def _fold_estimators(
    columns: _HostColumns,
    rows: np.ndarray,
    host: np.ndarray,
    count: np.ndarray,
    writes: np.ndarray,
    runs: np.ndarray,
    first_seen: np.ndarray,
    asked: np.ndarray,
) -> np.ndarray:
    """Fold a window's groups into the E[W] columns; the E[W] of each
    ``asked`` group's row after it — ``C1 / C2``, or its host's prior
    before the first sample — in group order.

    The closed form of replaying observe_read / observe_write in stream
    order: each read closes the run of writes since the previous read, the
    first run absorbing the carried ``writes_since_read``.  No cache state
    feeds it, so a row's groups fold in one pass, cut after cut: sorted by
    row, a group's carry is the writes since its row's last read — counted
    from the row's first group, less the loaded carry, or from the group
    after its last read — and the sums are prefix sums.
    """
    by_row = np.argsort(rows.astype(np.min_scalar_type(columns.state.size)), kind="stable")
    row = rows[by_row]
    size = row.size
    starts = np.ones(size, dtype=np.bool_)
    np.not_equal(row[1:], row[:-1], out=starts[1:])
    reads, added = count[by_row], writes[by_row]
    before_first, before_last, runs_closed = runs[:, by_row]
    observed = reads > 0
    spent = np.cumsum(added)
    spent -= added
    anchor = np.where(starts, spent - columns.writes_since_read[row], 0)
    resumed = np.zeros(size, dtype=np.bool_)
    resumed[1:] = observed[:-1] & ~starts[1:]
    anchor[1:] = np.where(resumed[1:], spent[:-1] + before_last[:-1], anchor[1:])
    places = np.arange(size)
    carry = spent - anchor[np.maximum.accumulate(np.where(starts | resumed, places, 0))]
    sums = np.where(observed, before_last + carry, 0)
    closed = np.where(observed, runs_closed + (before_first + carry > 0), 0)
    if columns.zero_runs.any():
        # Every read closes a run on a host that counts the empty ones.
        closed = np.where(columns.zero_runs[host[by_row]], reads, closed)
    first = np.maximum.accumulate(np.where(starts, places, 0))
    last = np.append(starts[1:], True).nonzero()[0]
    rows_of = row[last]
    since_read = np.where(observed, added - before_last, carry + added)
    columns.writes_since_read[rows_of] = since_read[last]
    firsts = row[starts]
    columns.seen[firsts] = np.minimum(columns.seen[firsts], first_seen[by_row][starts])

    def totals(column: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Each group's ``column`` after it: its row's loaded value plus the
        prefix of the row's deltas; each row's last written back."""
        total = np.cumsum(delta)
        total -= (total - delta)[first]
        total += column[row]
        column[rows_of] = total[last]
        return total

    sums, closed = totals(columns.sample_sum, sums), totals(columns.sample_count, closed)
    wanted = asked[by_row].nonzero()[0]
    estimate = np.where(
        closed[wanted] > 0,
        sums[wanted] / np.maximum(closed[wanted], 1),
        columns.prior[host[by_row[wanted]]],
    )
    return estimate[np.argsort(by_row[wanted], kind="stable")]


def _adaptive_updates(
    columns: _HostColumns, rows: np.ndarray, host_of: np.ndarray, estimate: np.ndarray
) -> np.ndarray:
    """Whether each of ``rows`` — rows of the adaptive hosts ``host_of``,
    whose E[W] is ``estimate`` — gets an update rather than an invalidate.

    Each host's policy builds its own rule (for the first of its keys, as
    :meth:`AdaptivePolicy.decisions` does), and each distinct (rule, E[W])
    pair across all hosts is asked of that rule once (:func:`_ew_updates`).
    """
    values, which = np.unique(estimate, return_inverse=True)
    by_host = np.argsort(host_of, kind="stable")
    starts = np.ones(by_host.size, dtype=np.bool_)
    np.not_equal(host_of[by_host[1:]], host_of[by_host[:-1]], out=starts[1:])
    starts = by_host[starts]
    rules: dict = {}
    for host, row in zip(host_of[starts].tolist(), rows[starts].tolist()):
        rule = columns.hosts[host].policy._decision_rule_for(
            columns.names[row // len(columns.hosts)]
        )
        rules.setdefault(rule, []).append(host)
    if len(rules) == 1:
        return _ew_updates(next(iter(rules)), values)[which]
    rule_of = np.zeros(len(columns.hosts), dtype=np.int64)
    for number, hosts in enumerate(rules.values()):
        rule_of[hosts] = number
    pairs, which = np.unique(rule_of[host_of] * values.size + which, return_inverse=True)
    picks = np.empty(pairs.size, dtype=np.bool_)
    for number, rule in enumerate(rules):
        mine = pairs // values.size == number
        picks[mine] = _ew_updates(rule, values[pairs[mine] % values.size])
    return picks[which]


def _ew_updates(rule: DecisionRule, values: np.ndarray) -> np.ndarray:
    """Whether ``rule`` picks an update for each of ``values``, ascending
    E[W] estimates.  A flat rule — exactly a :class:`DecisionRule`, with no
    staleness SLO — is :func:`~repro.core.decision.ew_decision`'s own float
    comparison, ``E[W] * c_u < c_i + c_m``, over the whole column (a
    negative estimate raises its error); any other rule is asked value by
    value."""
    if type(rule) is DecisionRule and rule.staleness_slo is None:
        negative = values < 0
        if negative.any():
            rule.from_ew(float(values[negative][0]))
        # ``inf * 0`` is NaN, which picks no update, as in Python, unwarned.
        with np.errstate(invalid="ignore"):
            return values * rule.update_cost < rule.invalidate_cost + rule.miss_cost
    return np.array(
        [rule.from_ew(value) is Action.UPDATE for value in values.tolist()], dtype=np.bool_
    )


def _charge_hosts(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    stale_host: np.ndarray,
    stale_cut: np.ndarray,
    cuts: int,
    charge_host: np.ndarray,
    charge_cut: np.ndarray,
    update: np.ndarray,
) -> None:
    """Hand each host that sent a message in a window its freshness
    charges, in the order the scalar engine adds them: each cut's stale
    misses (one per group at ``stale_host`` / ``stale_cut``), then the
    messages of the flush after it, in the order given (drain order); the
    other hosts fold their stale misses as one constant."""
    hosts = len(tallies)
    charging = np.bincount(charge_host, minlength=hosts) > 0
    mine = charging[stale_host]
    cells = np.bincount(stale_host[mine] * cuts + stale_cut[mine], minlength=hosts * cuts)
    keys = np.concatenate([
        np.repeat(np.arange(hosts * cuts) * 2, cells), (charge_host * cuts + charge_cut) * 2 + 1
    ])
    addends = np.concatenate([
        np.full(int(cells.sum()), ctx.miss_const),
        np.where(update, ctx.update_const, ctx.invalidate_const),
    ])
    order = np.argsort(keys, kind="stable")
    ends = np.searchsorted(keys[order], np.arange(hosts + 1) * (cuts * 2)).tolist()
    addends = addends[order]
    for host_id in charging.nonzero()[0].tolist():
        tallies[host_id].charges = addends[ends[host_id] : ends[host_id + 1]]


def _count_violations(
    ctx: _ReplayContext,
    tallies: Sequence[_SpanTally],
    groups: _GroupBlock,
    late: np.ndarray,
    as_of: np.ndarray,
    horizon: np.ndarray,
    bound,
) -> None:
    """Staleness violations among hits on entries older than the bound.

    ``late`` are the groups served from a valid entry whose last read's
    ``horizon`` ``t - T`` lies past the entry's ``as_of``, ``T`` their
    host's ``bound`` (one for all, or one per group).  A hit violates the
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
    bounds = np.broadcast_to(bound, late.shape)[suspect]
    late = late[suspect]
    for g, host, key_id, entry_as_of, group_bound in zip(
        late.tolist(),
        groups.host[late].tolist(),
        key_ids[suspect].tolist(),
        as_of[suspect].tolist(),
        bounds.tolist(),
    ):
        reads = index.read_pos[first[g] : first[g] + count[g] * stride : stride]
        horizons = ctx.trace.times[reads] - group_bound
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
    bound: np.ndarray,
) -> None:
    """Staleness violations among the reads loaded entries serve as they
    were handed: the first ``served[i]`` reads of group ``held[i]``, against
    the entry's ``as_of[i]`` and its host's staleness ``bound[i]``."""
    some = served.nonzero()[0]
    held, served, as_of, bound = held[some], served[some], as_of[some], bound[some]
    last = ctx.index.read_pos[groups.first[held] + (served - 1) * groups.stride]
    horizon = ctx.trace.times[last] - bound
    late = (horizon > as_of).nonzero()[0]
    if late.size:
        count = np.zeros_like(groups.count)
        count[held] = served
        _count_violations(
            ctx, tallies, groups._replace(count=count), held[late], as_of[late], horizon[late],
            bound[late],
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
    times, read_pos = ctx.trace.times, ctx.index.read_pos
    ttl = columns.ttl[groups.host[reading]]
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
            fetch_time[live] + ttl[live],
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
        rank, fetched, epochs, life = int(fill[group]), fetch_time[group], 0, ttl[group]
        while True:
            expired = max(int(run_times.searchsorted(fetched + life, side="left")), rank + 1)
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
    times, read_pos = ctx.trace.times, ctx.index.read_pos
    ttl = columns.ttl[groups.host[reading]]
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
                ttl[held[groups]],
            ),
            np.zeros(held.size, dtype=np.int64),
            count[held],
            paid[held],
            right=True,
        )
        _held_violations(
            ctx, tallies, groups, reading[held], served[held], columns.as_of[rows[held]],
            columns.bound[groups.host[reading[held]]],
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
        poll_instant(anchor[charged], settled_polls[charged], ttl[charged]),
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


def _settle_polls(
    ctx: _ReplayContext, columns: _HostColumns, horizon: float, hosts: slice
) -> None:
    """TTL-polling's end of run on the columns: each of ``hosts``' (one
    member's stacked hosts, replayed under ``ctx``)
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
    stride = len(columns.hosts)
    lo, hi, _ = hosts.indices(stride)
    rows = (columns.state != _ABSENT).nonzero()[0]
    host_of = rows % stride
    rows = rows[(host_of >= lo) & (host_of < hi)]
    anchor = columns.fetched_at[rows]
    seen = poll_counts(anchor, horizon, ctx.ttl)
    polls = seen - poll_counts(anchor, columns.accounted[rows], ctx.ttl)
    charged = (polls > 0).nonzero()[0]
    rows, polls = rows[charged], polls[charged]
    offsets = ctx.index.write_offsets
    # A name the trace never mentions (a loaded entry's) reads as the key
    # past the last one, which has no write.
    keys = np.minimum(rows // stride, offsets.size - 1)
    _refresh_polled(
        ctx, columns, rows, keys, np.append(np.diff(offsets), 0)[keys],
        poll_instant(anchor[charged], seen[charged], ctx.ttl),
    )
    host_of = rows % stride
    for host in range(lo, hi):
        node = columns.hosts[host]
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
    """Fold one kernel call's counter deltas, charges and flush counts into
    the node's result, cache stats and channel, in scalar-identical float
    order.  Every cold miss is one insertion: the envelope's caches never
    evict."""
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
    if tally.stale_misses and not streamed and tally.charges is None:
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
    elif tally.charges is not None:
        result.freshness_cost = _seeded_sum(result.freshness_cost, tally.charges)
    if tally.messages is not None:
        # A reactive window's flushes: the messages sent (each delivered),
        # suppressed and wasted, the entries they refreshed or dropped, and
        # the policy's decisions.
        updates, invalidates, suppressions, ignored, dropped, nothing, choices, chose_update = (
            tally.messages
        )
        result.updates_sent += updates
        result.invalidates_sent += invalidates
        result.suppressed_invalidates += suppressions
        result.updates_wasted += ignored
        if nothing:
            result.decisions_nothing += nothing
        if choices:
            node.policy.decisions_update += chose_update
            node.policy.decisions_invalidate += choices - chose_update
        stats.updates_applied += updates - ignored
        stats.updates_ignored += ignored
        stats.invalidations += dropped
        node.channel.sent += updates + invalidates
        node.channel.delivered += updates + invalidates


def _fold_charges(acc: float, positions: np.ndarray, counts: np.ndarray, miss: float) -> float:
    """``acc`` after ``acc += count * miss`` for each charge, in ascending
    ``positions`` (ties in their given order)."""
    order = np.argsort(positions, kind="stable")
    return _seeded_sum(acc, counts[order] * miss)


def _seeded_sum(acc: float, addends: np.ndarray) -> float:
    """``acc`` after ``acc += addend`` for each of ``addends`` in order.
    ``cumsum`` adds strictly left to right, so seeding its first addend
    gives the float the scalar engine's one-by-one ``+=`` does.  Takes
    ``addends`` over."""
    addends[0] += acc
    return float(np.cumsum(addends, out=addends)[-1])


def _walk_spans(engine, unit: "_Lockstep") -> Iterator[None]:
    """Walk ``engine``'s replay of its trace through ``unit``, a window of
    cuts at a time, yielding after each.

    Each cut ends where its next flush falls; the walk takes the cut it is
    at from the trace's span table — a miss builds the cut with the next
    ones of the replay's flush schedule, in one batch — and hands it to the
    unit (:meth:`_Lockstep.window`), which replays from it every cut before
    the next due work that is not an interval flush: the first request at
    or past ``until``, where the obs window rolls.  After the window the
    walk runs the due work of ``ReplayDriver._advance`` (which moves the
    live ``engine._next_flush``) exactly where the scalar loop would; the
    window has run its flushes, so they find nothing to do.  Before each
    window the obs window rolls to its first request: the kernel's stats
    fold into the window containing it (span-granularity attribution).  A
    replay with no flush work (the TTL policies: its next flush is never)
    is one cut of the whole trace; it asks for no flush schedule, which at
    a tiny bound would hold an end per interval, and rolls no window, so
    its stats fold into the one open at the start.
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
            until = math.inf
            if obs is not None:
                if times[start] >= obs.next_boundary:
                    obs.roll(float(times[start]))
                until = obs.next_boundary
            unit.window(engine, *index.span(start, end, schedule), until)
            yield
            start = unit.reach
            if start >= total:
                break
        # The next request is at or past the flush boundary: run the due
        # background work exactly where the scalar loop would.
        engine._advance(float(times[start]))


class _Lockstep:
    """The replays of one lockstep unit, as one replay of their stacked
    hosts.

    Replays of one trace under one flush schedule cut it in the same places,
    whatever their fleet shape, so a unit keeps every member's hosts in one
    :class:`_HostColumns` — member ``m``'s hosts follow those of the members
    before it — and replays a window of cuts, each with the interval flush
    after it, in one kernel call for all of them
    (:func:`_kernel_reactive_window`).  Each member still walks its own
    windows, and its own sequence is unchanged — its obs roll, the window's
    cuts and flushes, its tally fold, the due work after it — because the
    members' states are disjoint and the window runs when the last member
    has come to it (:meth:`window`): it ends before the first cut any
    member has other work due at.  A flush outside any window runs when
    the first member reaches it (:meth:`flush`).  The unit stacks its
    members' groups once per stretch of a batch's cuts
    (:func:`_stack_groups`) and builds the stretch's stacked prelude then;
    each window's kernel call takes views of it.  Members stack whatever
    their fleet shape, as long as their groups read with one stride.  Each
    member's tallies fold into its own results.  The last member to finish
    its walk leaves every member's objects to a build on their first read
    (:meth:`finish`).  TTL replays have no flush schedule: each one's walk
    is one cut, the whole trace, whatever its bound, so the TTL replays of
    one trace and policy stack too (:meth:`key`), and the cut is one call of
    the policy's TTL kernel for all of them on their stacked groups, each
    group at its own host's TTL (:attr:`_HostColumns.ttl`).  Each member's
    tallies fold into its own results, and TTL-polling's settle runs on
    each member's hosts at its horizon, on its context (:meth:`finish`).
    One cut cannot be cut into windows, so a TTL unit over the stacking
    budget splits by members (:meth:`parts`).
    """

    __slots__ = (
        "members", "columns", "flushed", "arrived", "finished", "until", "reach", "batch",
        "first", "last", "prelude",
    )

    def __init__(self, members: List["SpanReplay"]) -> None:
        self.members = members
        self.columns = _HostColumns(
            [node for member in members for node in member._node_list],
            members[0].trace.key_names,
        )
        self.flushed = -math.inf
        self.arrived = self.finished = 0
        #: The earliest time a member arriving at the next window has other
        #: work due; where the last window ended, in stream positions.
        self.until = math.inf
        self.reach = 0
        #: The stacked prelude of cuts ``first`` to ``last`` of ``batch``.
        self.batch: Optional[CutBatch] = None
        self.first = self.last = 0
        self.prelude: Optional[_PreludeBlock] = None
        for member in members:
            member._unit = self

    def flush(self, time: float) -> None:
        """Every member's interval flush at ``time``, once.  A window runs
        the flush after each of its cuts, so the flushes between windows
        drain only a buffer handed in at load — a flush alone, as the
        window kernel's window of one empty cut."""
        if time > self.flushed:
            self.flushed = time
            if self.columns.dirty.any():
                ctx = self.members[0]._ctx
                hosts, none = len(self.columns.kinds), np.zeros(0, dtype=np.int64)
                empty = _GroupBlock(
                    none, none, none, 1, none, none, none, hosts, [0, 0],
                    np.zeros((1, hosts + 1), dtype=np.int64), np.zeros((1, hosts), dtype=np.int64),
                )
                prelude = _PreludeBlock(ctx.trace, ctx.index, empty)
                self._fold(_kernel_reactive_window(ctx, self.columns, prelude, [time]))

    def window(
        self, member: "SpanReplay", batch: CutBatch, position: int, until: float
    ) -> None:
        """``member`` has come to cut ``position`` of ``batch``, with no work
        but interval flushes due before its first request at or past
        ``until``: once every member has, one kernel call replays a window
        of cuts from it for all of them — the reactive window kernel with
        each cut's flush, or a TTL kernel on the groups of a TTL replay's
        one cut — and ``reach`` says where the window ended."""
        self.arrived += 1
        self.until = min(self.until, until)
        if self.arrived < len(self.members):
            return
        until, self.arrived, self.until = self.until, 0, math.inf
        ctx = member._ctx
        node = member._node_list[0]
        if not node._reacts:
            groups = _stack_groups(
                [each._group_block(batch) for each in self.members], position, position + 1
            )
            tallies = [_SpanTally(count) for count in groups.writes[0].tolist()]
            kernel = _kernel_ttl_expiry if node._ttl_expiry else _kernel_ttl_polling
            kernel(ctx, self.columns, tallies, groups)
            self._fold(tallies)
            self.reach = batch.cuts[position][1]
            return
        if batch is not self.batch or not self.first <= position < self.last:
            self._stack(batch, position)
        flushes = self._flushes(member, batch.cuts[position : self.last], until)
        lo = position - self.first
        prelude = self.prelude.cuts(lo, lo + len(flushes))
        self._fold(_kernel_reactive_window(ctx, self.columns, prelude, flushes))
        self.flushed = flushes[-1]
        self.reach = batch.cuts[position + len(flushes) - 1][1]

    @staticmethod
    def _flushes(member: "SpanReplay", cuts: List[Tuple[int, int]], until: float) -> List[float]:
        """The flush after each cut of a window from the first of ``cuts``,
        where ``member`` is: its next flush, then the next of each later
        cut, as ``ReplayDriver._advance`` steps them, for as long as each
        cut is the one the member's walk takes next — a batch built for
        another schedule holds other cuts — and starts before ``until``.
        The trace's last cut flushes at the horizon when its next flush
        falls past it."""
        times = member.trace.times
        total, bound = times.size, member.staleness_bound
        flush = member._next_flush
        flushes = [flush]
        for start, end in cuts[1:]:
            if times[start] >= until:
                break
            while flush <= times[start]:
                flush += bound
            if not times[end - 1] < flush <= (times[end] if end < total else math.inf):
                break
            flushes.append(flush)
        if cuts[len(flushes) - 1][1] == total:
            flushes[-1] = min(flushes[-1], max(member.duration, float(times[-1])))
        return flushes

    def _fold(self, tallies: List[_SpanTally]) -> None:
        """Each member's hosts' tallies into their results, on its own context."""
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
        # The stretch before lets go first: two are never held at once.
        self.batch, self.prelude = batch, None
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

    def finish(self, member: "SpanReplay", horizon: float) -> None:
        """``member`` has run its flushes up to ``horizon``: the nodes' own
        end-of-run steps (:meth:`CacheNode.finalize
        <repro.sim.node.CacheNode.finalize>`) that act on state run on the
        columns.  TTL-polling's settle (:func:`_settle_polls`) runs on the
        member's own hosts, at its horizon and on its context; the last
        member to finish runs a reactive unit's trailing flush at the
        horizon (the last window's, unless a handed-in buffer is still
        held) and leaves every member's objects to a build on their first
        read (:meth:`_HostColumns.defer`): a caller that reads no node
        never builds one."""
        node = member._node_list[0]
        if node._poll_ttl is not None:
            first = sum(len(each._node_list) for each in self.members[: self.members.index(member)])
            hosts = slice(first, first + len(member._node_list))
            _settle_polls(member._ctx, self.columns, horizon, hosts)
        self.finished += 1
        if self.finished == len(self.members):
            if node._reacts:
                self.flush(horizon)
            self.columns.defer()
            self.batch = self.prelude = None

    @staticmethod
    def key(member: "SpanReplay") -> Tuple[Any, ...]:
        """What replays must share to be one unit: the trace's index, the
        flush schedule and horizon, the read stride of their groups and the
        cost constants.  Reactive replays share a flush schedule by their
        bound; a TTL replay has none — its one cut is the whole trace — so
        TTL replays of any bound share their policy's kernel instead."""
        ctx = member._ctx
        node = member._node_list[0]
        schedule = ctx.bound if node._reacts else type(node.policy)
        return (
            id(ctx.index), schedule, member.duration, member._stride, ctx.serve_const,
            ctx.miss_const, ctx.invalidate_const, ctx.update_const, ctx.default_value_size,
        )

    @staticmethod
    def parts(members: List["SpanReplay"]) -> List[List["SpanReplay"]]:
        """The units ``members`` of one key form.  A reactive unit bounds
        what it holds by its windows of cuts; a TTL unit has one cut, so it
        splits by members instead: each part stacks at most
        :data:`_STACKED_GROUPS` rows of the key table times its hosts (and
        at least one member)."""
        if members[0]._node_list[0]._reacts:
            return [members]
        keys = len(members[0].trace.key_names)
        parts: List[List["SpanReplay"]] = [[]]
        hosts = 0
        for member in members:
            size = len(member._node_list)
            if parts[-1] and (hosts + size) * keys > _STACKED_GROUPS:
                parts.append([])
                hosts = 0
            parts[-1].append(member)
            hosts += size
        return parts


def replay_in_lockstep(replays: Sequence[Generator[Any, None, Any]]) -> List[Any]:
    """Step ``replays`` (:meth:`SpanReplay.replay` generators) round-robin,
    one window of cuts each in turn, until every one has returned; their
    results, in order.

    A columnar replay's first step offers its engine; the write-reactive
    engines offered that replay one trace under one flush schedule, with
    one read stride, are stacked into one unit (:class:`_Lockstep`), whose
    kernel call per window serves all of them, and so are the TTL engines
    of one trace, policy and read stride, at any bound, whose one kernel
    call replays the whole trace for all of them (split by members past
    the stacking budget: :meth:`_Lockstep.parts`).  Replays that step
    together also find each cut in the
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
            for part in _Lockstep.parts(members):
                _Lockstep(part)
    return results


class SpanReplay:
    """The columnar ``run()`` of both engines, mixed in front of a scalar driver.

    Inside the engine's envelope (``_envelope``) each window of cuts runs
    one kernel call for every host, with the driver's due work after it and
    its finalize at the end; outside it the driver's own ``run()`` replays.
    Every columnar replay is a member of a lockstep unit (:class:`_Lockstep`,
    a unit of one when stepped alone), which keeps its
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
        """:meth:`run`, one window of cuts at a time: a generator that yields
        after each window and returns the result.  Its first step yields the engine,
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
        """Replay the trace a window of spans at a time, yielding after each;
        the driver's due work runs after each window, exactly where the
        scalar loop would run it."""
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
        yield from _walk_spans(self, unit)
        self.clock.advance_to(float(trace.times[-1]))
        # The flushes up to the horizon (finalize's first step) and the
        # nodes' end of run still run on the columns; once every member has
        # run its flushes, the objects are left to a build on their first
        # read, and then the trace's writes are committed, their histories
        # deferred.
        horizon = max(self.duration, self.clock.now)
        self._advance(horizon)
        unit.finish(self, horizon)
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
