"""Core request and workload abstractions.

A workload is a finite, time-ordered stream of requests.  The simulator
(:mod:`repro.sim`) replays the stream against a cache-aside cache and a
backend data store, so every generator in this package must produce requests
sorted by ``time``.

The primitive is the **column chunk**: a run of consecutive requests as five
parallel columns (times, keys, is_read, key_sizes, value_sizes).  The native
generators draw their randomness :data:`STREAM_CHUNK_SIZE` requests at a time
and hand the drawn arrays on as :data:`Columns`; a :class:`ChunkStream` turns
them into Python lists, :data:`CHUNK_ROWS` rows at a time, and serves those
either as lazy :class:`Request` objects (what :meth:`Workload.iter_requests`
promises every caller) or, to a replay driver, as the :data:`Chunk` lists
themselves — no object per request.  :func:`iter_chunks` is the drivers' one
entry point: it takes the chunks of a column source and batches any other
request iterable (lists, CSV traces, merged or third-party generators) into
the same shape.  Either way only one drawn chunk is buffered, so a trace of
tens of millions of requests replays in constant memory.

:meth:`Workload.generate` is a thin materializing wrapper kept for callers
that genuinely need the whole stream at once (e.g. the clairvoyant optimal
policy, or persisting a trace to disk).
"""

from __future__ import annotations

import heapq
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter, le
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

#: Number of requests generators draw per vectorised batch while streaming.
#: Large enough to amortise numpy call overhead, small enough that a pipeline
#: of several generators stays well under a megabyte of buffered requests.
STREAM_CHUNK_SIZE = 16384

#: Rows per chunk handed to a replay driver.  Much smaller than a drawn chunk
#: on purpose: only this many boxed floats and ints exist at a time (peak RSS
#: stays flat), and the object adapter, which reads every request of a batch
#: once per column, still finds the batch in cache on the later passes
#: (measured ~8 % of a list replay against STREAM_CHUNK_SIZE-row batches).
#: The per-chunk overhead is a few nanoseconds a row.
CHUNK_ROWS = 1024

#: One chunk as a generator draws it: ``(times, key_ids, is_read, key_sizes,
#: value_sizes)`` arrays of equal length, keys as indices into a name table.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Where a native generator's draw loop writes a chunk: ``take(rows)`` hands
#: writable views of ``rows`` rows, one per column the generator draws (its
#: ``_DRAWN`` dtypes), and the loop yields the leading views it kept.  A
#: stream passes :func:`fresh_chunks`; ``compile_workload`` passes slices of
#: whole-trace columns at its cursor, so a compiled trace is drawn in place.
Take = Callable[[int], Tuple[np.ndarray, ...]]


def fresh_chunks(dtypes: Sequence[type]) -> Take:
    """A :data:`Take` that allocates every chunk anew: what a stream hands on,
    one chunk at a time."""
    return lambda rows: tuple(np.empty(rows, dtype) for dtype in dtypes)


#: One chunk as a driver replays it: the same five columns as Python lists of
#: up to :data:`CHUNK_ROWS` rows, keys resolved to their names.
Chunk = Tuple[List[float], List[str], List[bool], List[int], List[int]]


class OpType(Enum):
    """Type of a single request issued by the application."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(slots=True, unsafe_hash=True)
class Request:
    """A single application request.

    Requests are treated as immutable by convention: generators build them
    once and nothing downstream mutates them (scenarios that rewrite a
    request use :func:`dataclasses.replace` to build a new one).  The class
    is deliberately *not* ``frozen=True`` — the generated frozen ``__init__``
    assigns every field through ``object.__setattr__`` and is ~3.5x slower,
    which is pure overhead on the replay hot path where millions of requests
    are constructed per run.

    Attributes:
        time: Arrival time in seconds from the start of the workload.
        key: Object key being read or written.
        op: Whether the request is a read or a write.
        key_size: Size of the key in bytes (used by the cost model when the
            network or serialisation is the bottleneck).
        value_size: Size of the value in bytes.
    """

    time: float
    key: str
    op: OpType
    key_size: int = 16
    value_size: int = 128

    @property
    def is_read(self) -> bool:
        """Return ``True`` when the request is a read."""
        return self.op is OpType.READ


class Workload(ABC):
    """A reproducible generator of request streams.

    Concrete workloads are configured at construction time (rates, key
    population, read ratio, seed) and produce a request stream on demand via
    :meth:`iter_requests` (lazy, the primitive) or :meth:`generate`
    (materialized convenience).  Generators must be deterministic for a fixed
    seed: two calls to :meth:`iter_requests` with the same duration must yield
    identical streams, which means per-call RNG state — never RNG state shared
    across calls.
    """

    #: Human-readable name used in experiment reports.
    name: str = "workload"

    @abstractmethod
    def iter_requests(self, duration: float) -> Iterator[Request]:
        """Lazily yield the requests arriving within ``[0, duration)`` seconds.

        Args:
            duration: Length of the generated trace in seconds.

        Yields:
            Requests sorted by arrival time.

        Raises:
            WorkloadError: If ``duration`` is not positive and finite.
        """

    def generate(self, duration: float) -> List[Request]:
        """Materialize the full request stream (thin wrapper over the iterator).

        Prefer feeding :meth:`iter_requests` straight into the simulator; use
        this only when the whole stream is genuinely needed at once.
        """
        return list(self.iter_requests(duration))


def validate_duration(duration: float) -> float:
    """Validate a workload duration, returning it unchanged.

    Raises:
        WorkloadError: If the duration is not a positive, finite number.
    """
    if not (duration > 0):
        raise WorkloadError(f"workload duration must be positive, got {duration!r}")
    if not math.isfinite(duration):
        raise WorkloadError(f"workload duration must be finite, got {duration!r}")
    return float(duration)


def merge_streams(streams: Sequence[Iterable[Request]]) -> Iterator[Request]:
    """Lazily merge several time-ordered request streams into one.

    Each input must already be sorted by time; the merge is performed with
    :func:`heapq.merge`, so only one buffered request per input stream is held
    at any moment.  The merge is stable: requests with identical timestamps
    keep the order of their source streams.

    Args:
        streams: Request iterables, each already sorted by time.

    Returns:
        A lazy iterator over the merged, time-ordered stream.
    """
    return heapq.merge(*streams, key=attrgetter("time"))


def constant_column(value: int, count: int) -> np.ndarray:
    """``count`` times ``value`` as an int64 column that stores it once.

    A read-only broadcast view: a generator whose sizes never vary hands it
    out per chunk for free, and compiling the chunks joins the views into
    one longer view of the same value, so no column is ever allocated (its
    ``nbytes`` still counts every row).
    """
    return np.broadcast_to(np.int64(value), (count,))


#: What a stream's first time is checked against: every finite float is at
#: or above it, and ``-inf`` is not.
_EARLIEST = -sys.float_info.max


def _not_sorted(index: int, time: float, previous: float) -> WorkloadError:
    if math.isinf(time):
        # A replay cannot reach the end of a stream at infinity: its flush
        # schedule would step towards it for ever.
        return WorkloadError(f"request stream has an infinite time at index {index}: {time}")
    return WorkloadError(
        f"request stream is not sorted by time at index {index}: {time} < {previous}"
    )


def order_error(
    times: np.ndarray, previous: float = _EARLIEST, emitted: int = 0
) -> WorkloadError:
    """The error of the first row of ``times`` (drawn after a row at
    ``previous``, ``emitted`` rows into the stream) that is below its
    predecessor, NaN or infinite: ``times`` must hold one."""
    before = np.concatenate(([previous], times[:-1]))
    offset = int(np.flatnonzero(~((times >= before) & (times < math.inf)))[0])
    return _not_sorted(emitted + offset, float(times[offset]), float(before[offset]))


def in_order(times: np.ndarray, previous: float = _EARLIEST) -> bool:
    """Whether ``times``, drawn after a row at ``previous``, is ascending and
    finite.  A NaN compares false with everything, and in an ascending
    array only the ends can be infinite."""
    return bool(
        times[0] >= previous and times[-1] < math.inf and (times[1:] >= times[:-1]).all()
    )


def ensure_sorted(requests: Iterable[Request]) -> Iterator[Request]:
    """Yield ``requests`` unchanged, raising on the first ordering violation.

    Wrap a lazily produced stream to validate time-ordering as it is
    consumed, without materializing.  A NaN time compares false with
    everything, so the test is ``not previous <= time < inf``: NaN is
    refused instead of silently resetting the order, and so is an infinite
    time (the first time is checked against the least finite float).

    Raises:
        WorkloadError: As soon as a request arrives out of order.
    """
    previous = _EARLIEST
    for index, request in enumerate(requests):
        time = request.time
        if not previous <= time < math.inf:
            raise _not_sorted(index, time, previous)
        previous = time
        yield request


def check_sorted(requests: Iterable[Request]) -> None:
    """Raise :class:`WorkloadError` if ``requests`` is not time-ordered."""
    for _ in ensure_sorted(requests):
        pass


class ChunkStream:
    """The request stream of a column source: objects or chunks, one cursor.

    Iterating yields lazy :class:`Request` objects, which is all an ordinary
    caller of :meth:`Workload.iter_requests` sees.  A replay driver calls
    :meth:`chunks` instead and gets whatever has not been read yet as
    :data:`Chunk` lists.  Both views advance the same cursor, so a stream
    that was partly consumed with ``next()`` hands a driver exactly its
    remainder.  Time-ordering is checked on each chunk's array as it is
    drawn, for both views.

    Args:
        columns: The :data:`Columns` of the stream, in order.
        names: Key-id -> key-name table the ``key_ids`` columns index.
    """

    __slots__ = ("_chunks", "_rows", "_objects")

    def __init__(self, columns: Iterable[Columns], names: Sequence[str]) -> None:
        self._chunks = self._listed(columns, names)
        #: The unread rows of the chunk being served as objects.
        self._rows: Iterator[tuple] = iter(())
        self._objects: Iterator[Request] | None = None

    @staticmethod
    def _listed(columns: Iterable[Columns], names: Sequence[str]) -> Iterator[Chunk]:
        # One C-level conversion per column and chunk instead of boxed numpy
        # scalar conversions per request (the object table turns the name
        # lookup into one too); the time order is checked on the whole drawn
        # array first.
        table = np.array(names, dtype=object)
        previous = _EARLIEST
        emitted = 0
        for times, key_ids, is_read, key_sizes, value_sizes in columns:
            if not times.size:
                continue
            if not in_order(times, previous):
                raise order_error(times, previous, emitted)
            previous = times[-1]
            emitted += times.size
            for start in range(0, times.size, CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                yield (
                    times[rows].tolist(),
                    table[key_ids[rows]].tolist(),
                    is_read[rows].tolist(),
                    key_sizes[rows].tolist(),
                    value_sizes[rows].tolist(),
                )

    def __iter__(self) -> Iterator[Request]:
        # The generator itself, not ``self``: ``for`` and ``list()`` then
        # resume it directly instead of going through ``__next__``.
        if self._objects is None:
            self._objects = self._generate()
        return self._objects

    def __next__(self) -> Request:
        return next(self.__iter__())

    def _generate(self) -> Iterator[Request]:
        read_op, write_op, request = OpType.READ, OpType.WRITE, Request
        for chunk in self._chunks:
            self._rows = rows = zip(*chunk)
            for time, key, is_read, key_size, value_size in rows:
                yield request(time, key, read_op if is_read else write_op, key_size, value_size)

    def chunks(self) -> Iterator[Chunk]:
        """Yield everything not read yet, a chunk at a time."""
        while True:
            # What is left of a chunk that was being read as objects goes
            # first; looked up each turn, so the two views can alternate.
            rest = list(self._rows)
            if rest:
                yield tuple(map(list, zip(*rest)))
                continue
            chunk = next(self._chunks, None)
            if chunk is None:
                return
            yield chunk


def _batched(requests: Iterable[Request]) -> Iterator[Chunk]:
    """Batch a stream of request objects into chunks (the drivers' adapter)."""
    iterator = iter(requests)
    write_op = OpType.WRITE
    previous = _EARLIEST
    emitted = 0
    while True:
        batch = list(islice(iterator, CHUNK_ROWS))
        if not batch:
            return
        times = [request.time for request in batch]
        # ``le`` over adjacent pairs runs in C; only a batch that fails it is
        # walked in Python, to name the offending index.  In an ascending
        # batch only the ends can be infinite.
        if not (
            times[0] >= previous
            and times[-1] < math.inf
            and all(map(le, times, islice(times, 1, None)))
        ):
            for offset, time in enumerate(times):
                if not previous <= time < math.inf:
                    raise _not_sorted(emitted + offset, time, previous)
                previous = time
        previous = times[-1]
        emitted += len(batch)
        yield (
            times,
            [request.key for request in batch],
            [request.op is not write_op for request in batch],
            [request.key_size for request in batch],
            [request.value_size for request in batch],
        )


def iter_chunks(source: Iterable[Request]) -> Iterator[Chunk]:
    """The replay drivers' feed: ``source`` as time-ordered :data:`Chunk` lists.

    A column source (a :class:`ChunkStream`, a
    :class:`~repro.workload.compiled.CompiledTrace`) hands out its own
    chunks; any other iterable of :class:`Request` objects is batched,
    :data:`CHUNK_ROWS` at a time.  No chunk is empty.

    Raises:
        WorkloadError: While iterating, at the first request that is out of
            time order (or whose time is NaN).
    """
    chunks = getattr(source, "chunks", None)
    return chunks() if chunks is not None else _batched(source)
