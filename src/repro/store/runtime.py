"""The persistence runtime a simulator embeds when a store is configured.

:class:`StoreRuntime` bundles the WAL, the datastore journal, and the
snapshot manager behind the two calls the replay driver
(:class:`~repro.sim.driver.ReplayDriver`) needs: a snapshot schedule
(``next_snapshot`` / ``checkpoint``) interleaved with the interval flushes,
and a ``stats()`` dict merged into result rows.
"""

from __future__ import annotations

import logging
import math
import time as time_module
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.backend.datastore import DataStore
from repro.core.cost_model import CostModel
from repro.store.snapshot import SnapshotManager, StoreConfig, serialize_datastore
from repro.store.wal import Journal, WriteAheadLog

_LOG = logging.getLogger(__name__)


class StoreRuntime:
    """Owns one run's WAL, journal, and snapshot schedule.

    Args:
        config: Store layout and cadence.
        costs: Cost model charged for WAL appends and flushes.
    """

    def __init__(self, config: StoreConfig, costs: Optional[CostModel] = None) -> None:
        self.config = config
        Path(config.root).mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(
            config.wal_path,
            flush_every=config.flush_every,
            costs=costs,
            fsync=config.fsync,
        )
        self.journal = Journal(self.wal)
        self.manager = SnapshotManager(config)
        self._interval = config.snapshot_interval
        self.next_snapshot = self._interval if self._interval is not None else math.inf
        self._last_checkpoint_time: Optional[float] = None
        self._last_checkpoint_lsn = -1
        self._obs = None

    def attach(self, datastore: DataStore) -> None:
        """Start journaling the datastore's writes and reads."""
        datastore.attach_journal(self.journal)

    def attach_obs(self, recorder: Any) -> None:
        """Fold WAL-sync and snapshot wall timings into an obs recorder.

        Timings are wall-clock (like the bench numbers) and deliberately
        excluded from ``stats()`` — they feed histograms and events only, so
        deterministic result rows stay deterministic.
        """
        self._obs = recorder

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(
        self,
        time: float,
        datastore: DataStore,
        nodes: Optional[Dict[str, Any]] = None,
        extra_fn: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        """Sync the WAL and write one snapshot of the current state.

        Idempotent per durable point: a second checkpoint at the same
        simulated time *and* WAL position is skipped, so an interval
        snapshot followed by a crash checkpoint at the same boundary stays
        byte-identical to an uninterrupted run.  If anything was journaled
        since the same-instant snapshot (e.g. a final flush's messages), a
        fresh snapshot is taken — otherwise those records would sit past the
        watermark and make the store unresumable.
        """
        obs = self._obs
        sync_started = time_module.perf_counter() if obs is not None else 0.0
        self.journal.sync()
        if obs is not None:
            obs.observe_store("wal_sync_seconds", time_module.perf_counter() - sync_started)
        if self._last_checkpoint_time == time and self.wal.last_lsn == self._last_checkpoint_lsn:
            if self._interval is not None and self.next_snapshot <= time:
                self.next_snapshot += self._interval  # pragma: no cover - defensive
            return
        extra = dict(extra_fn()) if extra_fn is not None else {}
        if self.next_snapshot <= time and self._interval is not None:
            self.next_snapshot += self._interval
        extra["next_snapshot"] = (
            self.next_snapshot if math.isfinite(self.next_snapshot) else None
        )
        snap_started = time_module.perf_counter() if obs is not None else 0.0
        self.manager.take(
            time=time,
            wal_lsn=self.wal.last_lsn,
            datastore=serialize_datastore(datastore),
            nodes=nodes or {},
            extra=extra,
            journal=self.journal.state(),
        )
        self._last_checkpoint_time = time
        self._last_checkpoint_lsn = self.wal.last_lsn
        _LOG.debug("checkpoint at t=%s (seq=%d, wal_lsn=%d)",
                   time, self.manager.last_seq, self.wal.last_lsn)
        if self.config.compact:
            self.wal.compact(self.wal.last_lsn)
        if obs is not None:
            seconds = time_module.perf_counter() - snap_started
            obs.observe_store("snapshot_seconds", seconds)
            obs.event(time, "snapshot", seq=self.manager.last_seq, wal_lsn=self.wal.last_lsn)

    # ------------------------------------------------------------------ #
    # Resume support
    # ------------------------------------------------------------------ #
    def restore(
        self,
        journal_state: Dict[str, Any],
        next_snapshot: Optional[float],
        wal_lsn: int,
    ) -> None:
        """Continue counting where the crashed process stopped.

        ``wal_lsn`` re-seeds the LSN counter: compaction may have emptied the
        log file, so the scan-on-open cannot always recover the high-water
        mark on its own.
        """
        self.journal.load_state(journal_state)
        self.next_snapshot = next_snapshot if next_snapshot is not None else math.inf
        self.wal._last_lsn = max(self.wal._last_lsn, int(wal_lsn))

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def persistence_cost(self) -> float:
        """Accumulated WAL append + flush cost in cost-model units."""
        return self.wal.stats.persistence_cost

    def stats(self) -> Dict[str, Any]:
        """Deterministic store counters for result rows (no paths, no wall time)."""
        # Compaction counters are deliberately absent: compaction runs *after*
        # its snapshot is written (the snapshot is the watermark), so its
        # counters are the one piece of activity a crash-resumed run cannot
        # replay identically.  They remain visible on ``wal.stats`` directly.
        wal = self.wal.stats
        return {
            "wal_appends": wal.appends,
            "wal_flushes": wal.flushes,
            "wal_bytes_written": wal.bytes_written,
            "persistence_cost": wal.persistence_cost,
            "writes_logged": self.journal.writes_logged,
            "reads_logged": self.journal.reads_logged,
            "messages_logged": self.journal.messages_logged,
            "snapshots": self.manager.last_seq,
        }

    def close(self) -> None:
        """Flush and release the WAL file handle."""
        self.wal.close()
