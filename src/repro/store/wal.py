"""The append-only write-ahead log and the datastore journal built on it.

:class:`WriteAheadLog` is the durability primitive, and it works a group
commit at a time.  ``append`` (and ``append_write``, the journal's call for
a backend write) assigns the LSN, stages a snapshot of the record's values
and counts it; the flush that ends the group (every
``flush_every`` appends, and at ``Journal.sync``, ``compact`` and ``close``)
renders, checksums and frames the whole batch in one pass, charges every
record and then the commit to the
:class:`~repro.core.cost_model.CostModel`, and hands the file one ``write``.
So persistence shows up in the same cost units as freshness messages — the
overhead a deployment would actually pay for crash safety — and
``stats.appends`` and ``last_lsn`` move at the append while
``stats.bytes_written``, ``stats.flushes`` and ``stats.persistence_cost`` move
at the commit, which is also when a record becomes visible to ``replay``.

:class:`Journal` is the thin adapter the simulators attach to a
:class:`~repro.backend.datastore.DataStore`: it logs every backend write as
its own record, aggregates read counts into delta records (reads mutate only
a counter, so logging each one individually would dominate the log), and
records every freshness message sent, giving ``store inspect`` a full audit
trail of the backend's externally visible behaviour.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from math import isfinite
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.core.cost_model import CostModel
from repro.errors import StoreError
from repro.store.format import (
    KIND_MESSAGE,
    KIND_READS,
    KIND_WRITE,
    MAGIC,
    Staged,
    WalScan,
    encode_record,
    frame_batch,
    scan_wal,
    stage_record,
)


def fsync_directory(path: str | Path) -> None:
    """``os.fsync`` a directory, making a rename or a new file in it durable."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


@dataclass(slots=True)
class WalStats:
    """Counters describing one WAL's lifetime activity.

    ``bytes_written`` counts committed record bytes (a monotone total that
    compaction does not roll back), so it doubles as the log-growth metric.
    It, ``flushes`` and ``persistence_cost`` advance at each group commit;
    ``appends`` advances with every append.
    """

    appends: int = 0
    flushes: int = 0
    bytes_written: int = 0
    compactions: int = 0
    records_dropped: int = 0
    persistence_cost: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flatten for snapshots and result rows."""
        return asdict(self)

    def load(self, data: Dict[str, Any]) -> None:
        """Restore the counters from a snapshot (crash-resume path)."""
        names = self.as_dict()
        for name, value in data.items():
            if name not in names:
                raise StoreError(f"WalStats has no counter {name!r}")
            setattr(self, name, value)


class WriteAheadLog:
    """Append-only, checksummed record log with staged group commit.

    Args:
        path: Log file location.  An existing file is opened for append and
            scanned once so LSNs continue where the previous process stopped.
        flush_every: Records per group commit; ``1`` makes every append
            durable immediately.
        costs: Cost model charged per record and per flush, both at the
            flush (``None`` skips cost accounting).
        fsync: Whether to actually ``os.fsync`` on flush and compaction.
            Defaults off — the simulator models durability cost through the
            cost model, and the OS-level sync only matters when the host
            itself may lose power.
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 64,
        costs: Optional[CostModel] = None,
        fsync: bool = False,
    ) -> None:
        if flush_every < 1:
            raise StoreError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self.costs = costs
        self.fsync = fsync
        self.stats = WalStats()
        self._staged: List[Staged] = []
        self._last_lsn = 0
        self._records_in_file = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            scan = WalScan()
            for _ in scan_wal(self.path, scan):
                pass
            self._last_lsn = scan.last_lsn
            self._records_in_file = scan.records
            if scan.torn_bytes:
                # Truncate the torn tail so new appends form a valid log.
                # ``bytes_read`` is the absolute offset just past the last
                # record whose checksum verified (0 when none did).
                with self.path.open("r+b") as handle:
                    handle.truncate(scan.bytes_read if scan.records else len(MAGIC))
        else:
            self.path.write_bytes(MAGIC)
        self._handle = self.path.open("ab")

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record."""
        return self._last_lsn

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, kind: str, fields: Dict[str, Any]) -> int:
        """Stage one record and return its LSN (durable after the next flush).

        ``fields`` is snapshotted: changing it once ``append`` has returned
        does not change the record.
        """
        if self._handle.closed:
            raise StoreError(f"{self.path}: append to a closed write-ahead log")
        self._last_lsn = lsn = self._last_lsn + 1
        staged = self._staged
        staged.append(stage_record(lsn, kind, fields))
        self.stats.appends += 1
        if len(staged) >= self.flush_every:
            self.flush()
        return lsn

    def append_write(self, key: str, time: float, value_size: int) -> int:
        """Stage one backend write and return its LSN.

        The record is the one ``append(KIND_WRITE, {"key": key, "t": time,
        "vs": value_size})`` stages, but the journal's one call per write
        builds the template's tuple directly, with no dict for
        :func:`stage_record` to unpack.  The checks are the same: a ``str``
        key, a finite ``float`` time and an ``int`` size, not ``bool``, not a
        numpy scalar.  Other values go through :func:`stage_record`.
        """
        if self._handle.closed:
            raise StoreError(f"{self.path}: append to a closed write-ahead log")
        self._last_lsn = lsn = self._last_lsn + 1
        staged = self._staged
        if (
            type(key) is str
            and type(time) is float
            and type(value_size) is int
            and isfinite(time)
        ):
            staged.append((KIND_WRITE, lsn, key, time, value_size))
        else:
            staged.append(stage_record(lsn, KIND_WRITE, {"key": key, "t": time, "vs": value_size}))
        self.stats.appends += 1
        if len(staged) >= self.flush_every:
            self.flush()
        return lsn

    def flush(self) -> None:
        """Group-commit the staged records (no-op when nothing is pending)."""
        if self._handle.closed:
            raise StoreError(f"{self.path}: flush of a closed write-ahead log")
        if not self._staged:
            return
        records = frame_batch(self._staged)
        data = b"".join(records)
        self._handle.write(data)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._staged.clear()
        stats = self.stats
        stats.flushes += 1
        stats.bytes_written += len(data)
        self._records_in_file += len(records)
        costs = self.costs
        if costs is not None:
            # One addition per record, then the commit: the same float sum an
            # append-by-append charge arrives at, to the last bit.  Without a
            # breakdown every record costs the same constant.
            cost = stats.persistence_cost
            if costs.breakdown is None:
                append_cost = costs.wal_append_cost()
                for _ in records:
                    cost += append_cost
            else:
                sized_cost = costs.wal_append_cost
                for record in records:
                    cost += sized_cost(len(record))
            stats.persistence_cost = cost + costs.wal_flush_cost()

    # ------------------------------------------------------------------ #
    # Reading and compaction
    # ------------------------------------------------------------------ #
    def replay(self, after_lsn: int = 0, scan: Optional[WalScan] = None) -> Iterator[Dict[str, Any]]:
        """Yield durable records with ``lsn > after_lsn`` in log order.

        Only flushed records are visible — replay reads the file, not the
        staged batch, matching what a crashed process would recover.
        """
        for record in scan_wal(self.path, scan):
            if int(record.get("lsn", 0)) > after_lsn:
                yield record

    def compact(self, keep_after_lsn: int) -> int:
        """Drop records with ``lsn <= keep_after_lsn`` (the snapshot watermark).

        The log is rewritten to a sibling file and atomically swapped in, so
        a crash mid-compaction leaves either the old or the new log intact.
        With ``fsync`` on, the compacted log is synced (and, when swapped in,
        its directory too).

        Returns:
            The number of records dropped.
        """
        self.flush()
        self._handle.close()
        if keep_after_lsn >= self._last_lsn:
            # The common checkpoint case drops the whole log: truncate to the
            # header instead of decoding and re-encoding every record.
            dropped = self._records_in_file
            with self.path.open("wb") as log:
                log.write(MAGIC)
                if self.fsync:
                    log.flush()
                    os.fsync(log.fileno())
            self._records_in_file = 0
        else:
            tmp_path = self.path.with_suffix(self.path.suffix + ".compact")
            kept = 0
            with tmp_path.open("wb") as tmp:
                tmp.write(MAGIC)
                for record in scan_wal(self.path):
                    if int(record.get("lsn", 0)) <= keep_after_lsn:
                        continue
                    tmp.write(encode_record(record))
                    kept += 1
                if self.fsync:
                    tmp.flush()
                    os.fsync(tmp.fileno())
            os.replace(tmp_path, self.path)
            if self.fsync:
                fsync_directory(self.path.parent)
            dropped = self._records_in_file - kept
            self._records_in_file = kept
        self._handle = self.path.open("ab")
        self.stats.compactions += 1
        self.stats.records_dropped += dropped
        return dropped

    def close(self) -> None:
        """Flush any staged records and close the file handle (idempotent)."""
        if self._handle.closed:
            return
        self.flush()
        self._handle.close()


class Journal:
    """Datastore-side hook feeding backend activity into a WAL.

    The journal is attached via
    :meth:`~repro.backend.datastore.DataStore.attach_journal`; from then on
    every committed write becomes a WAL record.  Reads are aggregated: the
    journal keeps a pending read count and emits a single delta record just
    before the next write record (or at :meth:`sync`), keeping the recovered
    ``total_reads`` counter exact at every durable point.
    """

    def __init__(self, wal: WriteAheadLog) -> None:
        self.wal = wal
        self._reads_pending = 0
        self.writes_logged = 0
        self.reads_logged = 0
        self.messages_logged = 0

    # ------------------------------------------------------------------ #
    # Hooks called by the datastore and the simulators
    # ------------------------------------------------------------------ #
    def log_write(self, key: str, time: float, value_size: int) -> None:
        """Record one committed backend write."""
        if self._reads_pending:
            self._drain_reads()
        self.wal.append_write(key, time, value_size)
        self.writes_logged += 1

    def note_read(self) -> None:
        """Count one backend read (aggregated into the next delta record)."""
        self._reads_pending += 1

    def log_message(self, kind: str, key: str, time: float, version: int) -> None:
        """Record one freshness message (invalidate/update) sent by the backend."""
        if self._reads_pending:
            self._drain_reads()
        self.wal.append(KIND_MESSAGE, {"mk": kind, "key": key, "t": time, "v": version})
        self.messages_logged += 1

    def _drain_reads(self) -> None:
        self.wal.append(KIND_READS, {"n": self._reads_pending})
        self.reads_logged += self._reads_pending
        self._reads_pending = 0

    def sync(self) -> None:
        """Make everything logged so far durable (checkpoint barrier)."""
        if self._reads_pending:
            self._drain_reads()
        self.wal.flush()

    # ------------------------------------------------------------------ #
    # Snapshot round-trip
    # ------------------------------------------------------------------ #
    def state(self) -> Dict[str, Any]:
        """Counters persisted in snapshots so a resumed run keeps counting."""
        return {
            "writes_logged": self.writes_logged,
            "reads_logged": self.reads_logged,
            "messages_logged": self.messages_logged,
            "wal": self.wal.stats.as_dict(),
        }

    def load_state(self, data: Dict[str, Any]) -> None:
        """Restore the counters from a snapshot (crash-resume path)."""
        self.writes_logged = int(data["writes_logged"])
        self.reads_logged = int(data["reads_logged"])
        self.messages_logged = int(data["messages_logged"])
        self.wal.stats.load(data["wal"])
