"""Versioned backend key-value store.

The data store records every write with its commit time and assigns each key a
monotonically increasing version number.  That history is what allows the
simulator to answer the central freshness question of the paper: *does the
version a cache entry holds reflect every write committed at least T seconds
before the read?* (the bounded-staleness definition from §1/§2.2).

The history is kept whole, so every freshness query is exact.  An optional
**journal hook** (:mod:`repro.store`) mirrors every committed write into an
append-only write-ahead log so the store can be rebuilt byte-for-byte after a
crash.

The columnar engine commits a whole trace's writes at once, and most of its
callers read no history afterwards: it hands the store a deferred build
(:meth:`DataStore.defer_histories`) that makes the histories on their first
read.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.wal import Journal


@dataclass(slots=True)
class KeyHistory:
    """Write history of a single key.

    ``write_times[i]`` is the commit time of version ``i + 1``; version 0 is
    the state before any write (every key logically exists with an initial
    value, matching a cache-aside deployment where reads can always be served
    by the backend).
    """

    key: str
    write_times: List[float] = field(default_factory=list)
    value_size: int = 128
    # What :meth:`write_times_json` rendered last, and how many writes that was.
    _times_json: str = field(default="[]", init=False, repr=False, compare=False)
    _times_rendered: int = field(default=0, init=False, repr=False, compare=False)

    def write_times_json(self) -> str:
        """``json.dumps(self.write_times)``, rendering only the writes since the last call.

        A history only grows (:meth:`DataStore.write` appends, the columnar
        engine extends), so the text of the writes already rendered stays
        right and each snapshot extends it by the new ones.  A history that
        shrank is rendered again whole.
        """
        times = self.write_times
        count = len(times)
        rendered = self._times_rendered
        if count != rendered:
            if 0 < rendered < count:
                tail = json.dumps(times[rendered:])
                self._times_json = f"{self._times_json[:-1]}, {tail[1:]}"
            else:
                self._times_json = json.dumps(times)
            self._times_rendered = count
        return self._times_json

    @property
    def latest_version(self) -> int:
        """The current (highest) version number."""
        return len(self.write_times)

    def version_at(self, time: float) -> int:
        """Return the version visible at ``time`` (writes at exactly ``time`` included)."""
        return bisect_right(self.write_times, time)

    def writes_between(self, start: float, end: float) -> int:
        """Count writes committed in the half-open interval ``(start, end]``."""
        if end < start:
            return 0
        return bisect_right(self.write_times, end) - bisect_right(self.write_times, start)


class DataStore:
    """The backend store holding the authoritative copy of every object.

    The per-key histories live in ``_histories``, a dict in first-write
    order.  A store built here holds that dict from the start, and every
    read of it is a plain attribute read.  A columnar replay instead adds
    its trace's writes to :attr:`total_writes` at once and leaves the
    histories to a deferred build (:meth:`defer_histories`): the first read
    of ``_histories`` runs it, so a replay whose caller reads no history
    never makes one.  Copying or pickling a store runs a pending build
    first, so no two stores share one.

    Args:
        default_value_size: Value size assumed for keys that have never been
            written (reads can still populate the cache with them).
    """

    def __init__(self, default_value_size: int = 128) -> None:
        self.default_value_size = int(default_value_size)
        # An instance attribute: it shadows the deferred build below.
        self._histories: Dict[str, KeyHistory] = {}
        self.total_writes = 0
        self.total_reads = 0
        #: Optional write-ahead-log hook (see :mod:`repro.store`); ``None``
        #: keeps the store purely in-memory.
        self.journal: Optional["Journal"] = None

    def attach_journal(self, journal: "Journal") -> None:
        """Start mirroring writes and read counts into ``journal``."""
        self.journal = journal

    # ------------------------------------------------------------------ #
    # Deferred histories
    # ------------------------------------------------------------------ #
    def defer_histories(self, build: Callable[[Dict[str, KeyHistory]], None]) -> None:
        """Leave the histories to ``build``, which adds to them, in place,
        on their first read.

        ``build`` must add what the writes already counted in
        :attr:`total_writes` left out of the histories.  A build still
        pending runs first, so builds run in the order they were handed in.
        """
        histories = self._histories
        del self._histories
        self._pending_build = (histories, build)

    @cached_property
    def _histories(self) -> Dict[str, KeyHistory]:
        """The histories of a store with a pending build: it runs once, on
        the first read, and its dict then shadows this property."""
        histories, build = self.__dict__.pop("_pending_build")
        build(histories)
        return histories

    def __getstate__(self) -> Dict[str, Any]:
        """What :mod:`copy` and :mod:`pickle` take: the attributes, after a
        pending build has run."""
        self._histories  # the read runs a pending build
        return self.__dict__

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def write(self, key: str, time: float, value_size: Optional[int] = None) -> int:
        """Commit a write to ``key`` at ``time`` and return the new version."""
        history = self._histories.get(key)
        if history is None:
            history = KeyHistory(key=key, value_size=self.default_value_size)
            self._histories[key] = history
        times = history.write_times
        if times and time < times[-1]:
            # The store is driven by a time-ordered simulator; tolerate exact
            # ties but never allow the history to become unsorted.
            time = times[-1]
        time = float(time)
        times.append(time)
        if value_size is not None:
            history.value_size = int(value_size)
        self.total_writes += 1
        if self.journal is not None:
            self.journal.log_write(key, time, history.value_size)
        return len(times)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def read(self, key: str, time: float) -> tuple[int, int]:
        """Read ``key`` at ``time``.

        Returns:
            ``(version, value_size)`` of the freshest committed state.
        """
        self.total_reads += 1
        if self.journal is not None:
            self.journal.note_read()
        history = self._histories.get(key)
        if history is None:
            return 0, self.default_value_size
        return history.version_at(time), history.value_size

    # ------------------------------------------------------------------ #
    # Freshness queries
    # ------------------------------------------------------------------ #
    def latest_version(self, key: str) -> int:
        """Return the current version of ``key`` (0 if never written)."""
        history = self._histories.get(key)
        return history.latest_version if history is not None else 0

    def version_at(self, key: str, time: float) -> int:
        """Return the version of ``key`` visible at ``time``."""
        history = self._histories.get(key)
        return history.version_at(time) if history is not None else 0

    def writes_between(self, key: str, start: float, end: float) -> int:
        """Count writes to ``key`` committed in ``(start, end]``."""
        history = self._histories.get(key)
        return history.writes_between(start, end) if history is not None else 0

    def is_fresh(self, key: str, cached_as_of: float, read_time: float, bound: float) -> bool:
        """Check bounded staleness for a cached copy of ``key``.

        A cached object that reflects the backend as of ``cached_as_of``
        satisfies a staleness bound of ``bound`` at ``read_time`` iff no write
        was committed in ``(cached_as_of, read_time - bound]`` — i.e. the copy
        reflects the backend state at some point within the last ``bound``
        seconds.
        """
        horizon = read_time - bound
        if horizon <= cached_as_of:
            return True
        return self.writes_between(key, cached_as_of, horizon) == 0

    def value_size(self, key: str) -> int:
        """Return the value size of ``key`` in bytes."""
        history = self._histories.get(key)
        return history.value_size if history is not None else self.default_value_size

    def known_keys(self) -> List[str]:
        """Return every key that has ever been written."""
        return list(self._histories)

    def history(self, key: str) -> Optional[KeyHistory]:
        """Return the write history of ``key`` (``None`` if never written)."""
        return self._histories.get(key)
