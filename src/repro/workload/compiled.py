"""Columnar trace compilation: request streams as parallel numpy arrays.

A :class:`CompiledTrace` is a whole stream laid out as parallel arrays
(timestamps, key ids, op flags, sizes) plus a key-id -> key-name table.  The
vectorized engine (``repro.sim.vector``) replays it in spans, and what a span
is — its per-key slices, its write batch, each host's share — is a fact of
the trace: the :class:`TraceIndex` keeps a bounded table of
:class:`SpanFacts`, computed once per cut and shared by every replay.  The
scalar drivers take the trace :data:`~repro.workload.base.STREAM_CHUNK_SIZE`
rows at a time through :meth:`CompiledTrace.chunks`, without building a
request object.

The native generators' primitive is their chunk generator
(``iter_columns``), and a compiled Poisson or Twitter trace is nothing but
its chunks concatenated — the draw loop is not repeated here — so
``compile_workload(w, d).iter_requests()`` yields a stream byte-identical to
``w.iter_requests(d)`` by construction.  Workloads without a chunk generator
fall back to batching their object stream, which is slower to compile but
just as identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.base import (
    STREAM_CHUNK_SIZE,
    Chunk,
    ChunkStream,
    Columns,
    OpType,
    Request,
    Workload,
    constant_column,
    validate_duration,
)
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.twitter import TwitterWorkload


def _check_key_ids(key_ids: np.ndarray, num_keys: int) -> None:
    """Refuse key ids outside ``[0, num_keys)``: one pass over the column.

    Raises:
        WorkloadError: If any id is negative or not below ``num_keys``.
    """
    if key_ids.size and not 0 <= int(key_ids.min()) <= int(key_ids.max()) < num_keys:
        raise WorkloadError(
            f"compiled trace has key ids outside its {num_keys}-name key table"
        )


class TraceIndex:
    """Per-key layout of one compiled trace: built once, replayed many times.

    Everything here is a pure function of the trace columns — no policy, no
    staleness bound, no cache state — so every replay of the same trace
    (each policy of a comparison, each cell of a sweep) shares one index
    instead of re-sorting its spans.

    One stable argsort of the key ids lays the stream positions out
    key-major; within a key they stay ascending.  A stable key sort
    restricted to any position range ``[start, end)`` is therefore a
    contiguous *slice* of each key's run, which is what :meth:`span` hands
    the span kernels: bounds into the columns, never sorted copies.

    The index holds arrays only — never the trace — so it cannot keep its
    owner alive, and it lives exactly as long as the trace object does.

    Attributes:
        time_ordered: Whether the arrival times are ascending (the engines'
            ordering check, computed once).
        read_pos: Stream positions of the reads, key-major.
        read_offsets: ``read_pos[read_offsets[k]:read_offsets[k + 1]]`` are
            key ``k``'s reads (``int64``, length ``num_keys + 1``).
        write_pos: Stream positions of the writes, key-major.
        write_offsets: Per-key bounds into the three write columns.
        write_times: Commit time of each write, aligned with ``write_pos``.
        write_value_sizes: Value size of each write, aligned with
            ``write_pos``.
        write_read_rank: For each write, aligned with ``write_pos``, the
            index into ``read_pos`` of the same key's first later read (the
            key's read bound when none follows): ``read_pos[i]`` precedes
            the write in the stream exactly when ``i`` is below it, so a
            write's rank among any run of the key's reads is arithmetic.
        plans: Memo for trace-wide artefacts that depend on configuration
            but not on replay state (the fleet routing plan), keyed by that
            configuration: one entry per fleet shape.
        write_time_list: ``write_times`` as Python floats, made with the
            first cut and charged to the table: every replay's histories
            copy slices of this one list instead of boxing the floats anew.
        table: The span table — :meth:`span`'s memo of :class:`SpanFacts`,
            keyed by cut ``(start, end)``, oldest first.
        table_bytes: Bytes the table holds; never above ``table_cap``, the
            bytes of the four trace columns the index is derived from.
    """

    __slots__ = (
        "key_ids",
        "is_read",
        "time_ordered",
        "read_pos",
        "read_offsets",
        "write_pos",
        "write_offsets",
        "write_times",
        "write_value_sizes",
        "write_read_rank",
        "plans",
        "write_time_list",
        "table",
        "table_bytes",
        "table_cap",
        "__weakref__",
    )

    def __init__(
        self,
        times: np.ndarray,
        key_ids: np.ndarray,
        is_read: np.ndarray,
        value_sizes: np.ndarray,
        num_keys: int,
    ) -> None:
        _check_key_ids(key_ids, num_keys)
        self.key_ids = key_ids
        self.is_read = is_read
        # ``>=`` so that a NaN time, which compares false, counts as disorder.
        self.time_ordered = bool((times[1:] >= times[:-1]).all())
        # Narrow ids sort by radix (16-bit and below) instead of by merging.
        order = np.argsort(key_ids.astype(np.min_scalar_type(num_keys)), kind="stable")
        if key_ids.size <= np.iinfo(np.uint32).max:
            order = order.astype(np.uint32)
        reads_first = is_read[order]
        self.read_pos = order[reads_first]
        # Key-major slot of each write: slot minus write index counts the
        # reads laid out before it.
        write_slots = np.flatnonzero(~reads_first)
        self.write_pos = order[write_slots]
        self.write_read_rank = (write_slots - np.arange(write_slots.size)).astype(
            order.dtype
        )
        self.read_offsets = _offsets(key_ids[is_read], num_keys)
        self.write_offsets = _offsets(key_ids[~is_read], num_keys)
        self.write_times = times[self.write_pos]
        self.write_value_sizes = value_sizes[self.write_pos]
        self.plans: Dict[Hashable, Any] = {}
        self.write_time_list: Optional[List[float]] = None
        self.table: Dict[Tuple[int, int], SpanFacts] = {}
        self.table_bytes = 0
        self.table_cap = sum(c.nbytes for c in (times, key_ids, is_read, value_sizes))

    @property
    def nbytes(self) -> int:
        """Bytes the index adds on top of the trace columns, span table included."""
        return self.table_bytes + sum(
            column.nbytes
            for column in (
                self.read_pos,
                self.read_offsets,
                self.write_pos,
                self.write_offsets,
                self.write_times,
                self.write_value_sizes,
                self.write_read_rank,
            )
        )

    def writes_of(self, key_id: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(times, positions, value_sizes)`` of the key's writes.

        In stream order.  Every positional/temporal version query the span
        kernels make (miss versions, staleness windows, poll refreshes) is a
        ``searchsorted`` against these slices.
        """
        start, end = self.write_offsets[key_id], self.write_offsets[key_id + 1]
        return (
            self.write_times[start:end],
            self.write_pos[start:end],
            self.write_value_sizes[start:end],
        )

    def span(self, start: int, end: int, cursor: Optional["SpanCursor"] = None) -> "SpanFacts":
        """The facts of the cut ``[start, end)``, built once per cut.

        A cut that is not in the table is built by ``cursor`` (a fresh one
        when the caller walks none), which first catches up to ``start``.
        The key is the cut itself, so whichever cuts a replay asks for — a
        wrong guess of another replay's boundaries, an evicted entry — it
        gets that cut's facts: the table saves time and never changes a row.
        """
        facts = self.table.get((start, end))
        if facts is None:
            if self.write_time_list is None:
                self.write_time_list = self.write_times.tolist()
                self.table_bytes += _WRITE_BYTES * self.write_times.size
            cursor = cursor or SpanCursor(self)
            cursor.seek(start)
            facts = self.table[start, end] = SpanFacts(self, (start, end), cursor.advance(end))
            self._charge(facts.nbytes)
        return facts

    def routed(self, facts: "SpanFacts", key: Hashable, build: Callable[[], Tuple[Any, int]]):
        """``facts.routed[key]``, built on first use by ``build() -> (value,
        nbytes)``: what a cut is under one configuration (a fleet shape's
        per-node groups, a host's kernel prelude) but still under no policy,
        bound or cache state."""
        value = facts.routed.get(key)
        if value is None:
            value, nbytes = build()
            facts.routed[key] = value
            facts.nbytes += nbytes
            if self.table.get(facts.cut) is facts:
                self._charge(nbytes)
        return value

    def _charge(self, nbytes: int) -> None:
        """Account ``nbytes`` more in the table; the oldest cuts make room."""
        self.table_bytes += nbytes
        while self.table_bytes > self.table_cap and self.table:
            self.table_bytes -= self.table.pop(next(iter(self.table))).nbytes


def _offsets(key_ids: np.ndarray, num_keys: int) -> np.ndarray:
    offsets = np.zeros(num_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_ids, minlength=num_keys), out=offsets[1:])
    return offsets


#: One span of a :class:`SpanCursor` walk: ``(keys, read_lo, read_hi, write_lo,
#: write_hi)`` — the ids of the keys that occur in the span, ascending, and for
#: each the bounds of its span reads in ``read_pos`` and of its span writes in
#: the write columns.
Span = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


#: Table bytes charged per write of the trace (a float and its slot in
#: ``write_time_list``) and per written key of a cut (four boxed integers and
#: their list slots).
_WRITE_BYTES, _WRITTEN_KEY_BYTES = 32, 144


class SpanFacts:
    """What one cut ``[start, end)`` of a trace is, whoever replays it.

    A pure function of the trace and the two cut positions, so every policy,
    and sweep cell that replays the cut shares one object — read-only:
    the columns are frozen, and replays copy out of the lists, never alias
    them into their own state.  Holds no reference to the trace.

    Attributes:
        cut: ``(start, end)``.
        columns: The cut's :data:`Span` columns.
        writes: The cut's write batch as four aligned lists, one entry per
            written key in first-write order (the order the scalar loop
            creates histories in): ``(key_ids, write_lo, write_hi,
            last_value_sizes)``; the key's span write times are
            ``index.write_time_list[write_lo:write_hi]``.
        total_writes: Number of writes in the cut.
        routed: Memo filled through :meth:`TraceIndex.routed`.
        nbytes: Table bytes charged for this cut.
    """

    __slots__ = ("cut", "columns", "writes", "total_writes", "routed", "nbytes")

    def __init__(self, index: TraceIndex, cut: Tuple[int, int], columns: Span) -> None:
        for column in columns:
            column.flags.writeable = False
        self.cut = cut
        self.columns = columns
        keys, _, _, write_lo, write_hi = columns
        written = write_hi > write_lo
        # First-write order, not key-id order.
        written = written.nonzero()[0][
            np.argsort(index.write_pos[write_lo[written]], kind="stable")
        ]
        self.writes = (
            keys[written].tolist(),
            write_lo[written].tolist(),
            write_hi[written].tolist(),
            index.write_value_sizes[write_hi[written] - 1].tolist(),
        )
        self.total_writes = int((write_hi - write_lo).sum())
        self.routed: Dict[Hashable, Any] = {}
        self.nbytes = (
            sum(column.nbytes for column in columns) + _WRITTEN_KEY_BYTES * written.size
        )


class SpanCursor:
    """The builder of cuts that are not in the span table yet.

    Holds the per-key read/write cursors into the key-major columns.  Spans
    are consecutive position ranges, so advancing to ``end`` moves each
    active key's cursor by its request count in the span (one ``bincount``),
    and the key's span requests are the slice between the old and the new
    cursor.  A replay served from the table leaves its cursor behind;
    :meth:`seek` catches up in one step when a cut has to be built after all.
    """

    __slots__ = ("_index", "_position", "_reads", "_writes")

    def __init__(self, index: TraceIndex) -> None:
        self._index = index
        self._position = 0
        self._reads = index.read_offsets[:-1].copy()
        self._writes = index.write_offsets[:-1].copy()

    def seek(self, start: int) -> None:
        """Move to stream position ``start`` (restarting when it lies behind)."""
        if start < self._position:
            self.__init__(self._index)
        if start > self._position:
            self.advance(start)

    def advance(self, end: int) -> Span:
        """Consume stream positions up to ``end`` and return them as a span."""
        index = self._index
        if self._position == 0 and end == index.key_ids.size:
            # The whole trace: the index's own offsets, no pass over requests.
            read_counts = np.diff(index.read_offsets)
            write_counts = np.diff(index.write_offsets)
        else:
            keys = index.key_ids[self._position : end]
            is_read = index.is_read[self._position : end]
            num_keys = self._reads.size
            read_counts = np.bincount(keys[is_read], minlength=num_keys)
            write_counts = np.bincount(keys[~is_read], minlength=num_keys)
        self._position = end
        active = np.flatnonzero(read_counts + write_counts)
        read_lo = self._reads[active]
        read_hi = read_lo + read_counts[active]
        write_lo = self._writes[active]
        write_hi = write_lo + write_counts[active]
        self._reads[active] = read_hi
        self._writes[active] = write_hi
        return active, read_lo, read_hi, write_lo, write_hi


#: What each column of a :class:`CompiledTrace` holds: ``(field, numpy kind,
#: wording)``, in the order they are checked.
_COLUMN_KINDS = (
    ("times", np.floating, "float"),
    ("key_ids", np.integer, "integer"),
    ("is_read", np.bool_, "bool"),
    ("key_sizes", np.integer, "integer"),
    ("value_sizes", np.integer, "integer"),
)


@dataclass(slots=True)
class CompiledTrace:
    """A request stream as parallel columnar arrays.

    Compile once and reuse the object when comparing policies: the first
    vectorized replay builds the trace's :class:`TraceIndex` (see
    :meth:`index`) and every later replay of the same object shares it, the
    span cuts it made included.

    Attributes:
        times: Arrival times, ascending (``float64``).
        key_ids: Per-request index into :attr:`key_names` (``int64``).
        is_read: ``True`` where the request is a read (``bool``).
        key_sizes: Per-request key size in bytes (``int64``).
        value_sizes: Per-request value size in bytes (``int64``).
        key_names: Key-id -> key-name table.  Ids are dense but the table may
            contain names that never occur in the trace (e.g. cold ranks of a
            Zipf population).
    """

    times: np.ndarray
    key_ids: np.ndarray
    is_read: np.ndarray
    key_sizes: np.ndarray
    value_sizes: np.ndarray
    key_names: List[str]
    _index: Optional[TraceIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Check the five columns' shapes and dtypes (O(1): no pass over the
        rows, so a :func:`~repro.workload.base.constant_column` view passes).

        Raises:
            WorkloadError: Naming the first column that is not a 1-D array of
                its kind, or whose length differs from ``times``.
        """
        rows = None
        for name, kind, wording in _COLUMN_KINDS:
            column = getattr(self, name)
            if not (
                isinstance(column, np.ndarray)
                and column.ndim == 1
                and np.issubdtype(column.dtype, kind)
            ):
                got = (
                    f"{column.dtype} of shape {column.shape}"
                    if isinstance(column, np.ndarray)
                    else type(column).__name__
                )
                raise WorkloadError(
                    f"compiled trace column {name} must be a 1-D {wording} array, got {got}"
                )
            if rows is None:
                rows = column.size
            elif column.size != rows:
                raise WorkloadError(
                    f"compiled trace column {name} has {column.size} rows, times has {rows}"
                )

    def __len__(self) -> int:
        return int(self.times.size)

    def __reduce__(self):
        # The memoised index is derived state: never pickled or copied.
        return (
            CompiledTrace,
            (
                self.times,
                self.key_ids,
                self.is_read,
                self.key_sizes,
                self.value_sizes,
                self.key_names,
            ),
        )

    def index(self) -> TraceIndex:
        """The trace's :class:`TraceIndex`, built on first use and memoised.

        Building it freezes the five columns (``writeable=False``): the
        index is derived from them, so a later in-place edit would leave it
        stale.  Scalar replays (including the vector engines' scalar
        fallback) never call this.

        Raises:
            WorkloadError: If a key id falls outside :attr:`key_names`.
        """
        if self._index is None:
            self._index = TraceIndex(
                self.times, self.key_ids, self.is_read, self.value_sizes, len(self.key_names)
            )
            for column in (
                self.times, self.key_ids, self.is_read, self.key_sizes, self.value_sizes
            ):
                column.flags.writeable = False
        return self._index

    @property
    def num_requests(self) -> int:
        """Number of requests in the trace."""
        return int(self.times.size)

    def _slices(self) -> Iterator[Columns]:
        columns = (self.times, self.key_ids, self.is_read, self.key_sizes, self.value_sizes)
        for start in range(0, len(self), STREAM_CHUNK_SIZE):
            yield tuple(column[start : start + STREAM_CHUNK_SIZE] for column in columns)

    def iter_requests(self) -> ChunkStream:
        """Decompile back into the scalar :class:`Request` stream.

        The yielded stream is byte-identical to the generator stream the
        trace was compiled from: same floats, same interned key strings,
        same op objects.

        Raises:
            WorkloadError: If a key id falls outside :attr:`key_names` (the
                check :meth:`index` makes, so both engines refuse alike).
        """
        _check_key_ids(self.key_ids, len(self.key_names))
        return ChunkStream(self._slices(), self.key_names)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.iter_requests())

    def chunks(self) -> Iterator[Chunk]:
        """The trace as :data:`~repro.workload.base.Chunk` lists, column
        slices converted once per chunk (what the scalar drivers replay)."""
        return self.iter_requests().chunks()


def _compile_native(
    workload: PoissonZipfWorkload | TwitterWorkload, duration: float
) -> CompiledTrace:
    """Concatenate the chunks of a native generator's ``iter_columns``."""
    columns = zip(*workload.iter_columns(duration))
    return CompiledTrace(*map(_concatenate, columns), key_names=list(workload.key_names()))


def _concatenate(parts: Tuple[np.ndarray, ...]) -> np.ndarray:
    """One column from its chunks; a column that every chunk hands out as one
    :func:`~repro.workload.base.constant_column` stays one, storing its value
    once (its ``nbytes`` still counts every row)."""
    if all(part.strides == (0,) and part.dtype == np.int64 for part in parts):
        values = {int(part[0]) for part in parts if part.size}
        if len(values) == 1:
            return constant_column(values.pop(), sum(part.size for part in parts))
    return np.concatenate(parts)


def _compile_mix(workload: PoissonMixWorkload, duration: float) -> CompiledTrace:
    """Native compiler for the two-component mixture.

    Compiles both Poisson halves natively, offsets the write-heavy key ids
    past the read-heavy table, and interleaves by time with a *stable* sort —
    which reproduces :func:`heapq.merge` tie-breaking exactly (the read-heavy
    stream is listed first, so it wins timestamp ties).
    """
    read_heavy, write_heavy = workload.components
    first = _compile_native(read_heavy, duration)
    second = _compile_native(write_heavy, duration)
    offset = len(first.key_names)
    times = np.concatenate([first.times, second.times])
    order = np.argsort(times, kind="stable")
    return CompiledTrace(
        times=times[order],
        key_ids=np.concatenate([first.key_ids, second.key_ids + offset])[order],
        is_read=np.concatenate([first.is_read, second.is_read])[order],
        key_sizes=np.concatenate([first.key_sizes, second.key_sizes])[order],
        value_sizes=np.concatenate([first.value_sizes, second.value_sizes])[order],
        key_names=first.key_names + second.key_names,
    )


def _compile_generic(workload: Workload, duration: float) -> CompiledTrace:
    """Fallback compiler: batch the scalar object stream into columns.

    Identical by construction (it consumes ``iter_requests`` itself); used
    for trace-backed and third-party workloads that have no native columnar
    path.  Key names are interned in first-appearance order.
    """
    key_ids: dict[str, int] = {}
    names: List[str] = []
    times: List[float] = []
    ids: List[int] = []
    is_read: List[bool] = []
    key_sizes: List[int] = []
    value_sizes: List[int] = []
    for request in workload.iter_requests(duration):
        key_id = key_ids.get(request.key)
        if key_id is None:
            key_id = key_ids[request.key] = len(names)
            names.append(request.key)
        times.append(request.time)
        ids.append(key_id)
        is_read.append(request.op is OpType.READ)
        key_sizes.append(request.key_size)
        value_sizes.append(request.value_size)
    return CompiledTrace(
        times=np.asarray(times, dtype=np.float64),
        key_ids=np.asarray(ids, dtype=np.int64),
        is_read=np.asarray(is_read, dtype=np.bool_),
        key_sizes=np.asarray(key_sizes, dtype=np.int64),
        value_sizes=np.asarray(value_sizes, dtype=np.int64),
        key_names=names,
    )


def compile_workload(workload: Workload, duration: float) -> CompiledTrace:
    """Compile a workload's request stream into columnar arrays.

    Concatenates the generator's own chunks when the workload type has a
    chunk generator (the synthetic Poisson, mixture, and Twitter generators),
    otherwise batches the scalar stream.  Either way the result decompiles to
    a stream byte-identical to ``workload.iter_requests(duration)``.

    Raises:
        WorkloadError: If ``duration`` is not positive and finite.
    """
    duration = validate_duration(duration)
    # Exact-type dispatch: a subclass may override ``iter_requests`` in ways
    # its inherited chunk generator would not reproduce, so only the known
    # generator classes take the fast path.
    workload_type = type(workload)
    if workload_type in (PoissonZipfWorkload, TwitterWorkload):
        return _compile_native(workload, duration)
    if workload_type is PoissonMixWorkload:
        return _compile_mix(workload, duration)
    return _compile_generic(workload, duration)
