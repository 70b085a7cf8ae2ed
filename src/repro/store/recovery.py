"""Crash recovery: snapshot restore plus WAL tail replay.

Recovery follows the classic two-step: load the newest snapshot (full
versioned histories as of its watermark), then replay every durable WAL
record with a higher LSN — write records re-commit, read-delta records
restore the read counter, message records are counted for the audit trail.
The result is a :class:`~repro.backend.datastore.DataStore` byte-identical to
the pre-crash store at its last durable point.

Warm node rejoin uses the same machinery from a different angle: the
rejoining node restores its cache from the last snapshot taken while it was
alive, then uses the recovered write history to keep only the entries no
write has touched since — the keys that would have received an invalidate had
the node been up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.backend.datastore import DataStore
from repro.cache.entry import CacheEntry, EntryState
from repro.errors import StoreError
from repro.store.format import KIND_MESSAGE, KIND_READS, KIND_WRITE, WalScan, scan_wal
from repro.store.migrate import malformed
from repro.store.snapshot import (
    Snapshot,
    StoreConfig,
    entry_from_dict,
    latest_snapshot,
    list_snapshots,
    load_snapshot,
    restore_datastore,
)


@dataclass(slots=True)
class RecoveryReport:
    """What a recovery pass found and rebuilt."""

    snapshot_seq: int = 0
    snapshot_time: float = 0.0
    snapshot_lsn: int = 0
    wal_records: int = 0
    writes_replayed: int = 0
    reads_replayed: int = 0
    messages_replayed: int = 0
    torn_bytes: int = 0
    recovered_keys: int = 0
    recovered_versions: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Flatten for CLI output and logs."""
        return {
            "snapshot_seq": self.snapshot_seq,
            "snapshot_time": self.snapshot_time,
            "snapshot_lsn": self.snapshot_lsn,
            "wal_records": self.wal_records,
            "writes_replayed": self.writes_replayed,
            "reads_replayed": self.reads_replayed,
            "messages_replayed": self.messages_replayed,
            "torn_bytes": self.torn_bytes,
            "recovered_keys": self.recovered_keys,
            "recovered_versions": self.recovered_versions,
        }


def replay_wal(
    datastore: DataStore, wal_path: str | Path, after_lsn: int = 0
) -> RecoveryReport:
    """Apply the durable WAL tail after ``after_lsn`` to ``datastore``."""
    report = RecoveryReport(snapshot_lsn=after_lsn)
    # Replay must not re-journal: suspend any attached journal for the pass.
    journal = datastore.journal
    datastore.journal = None
    scan = WalScan()
    try:
        for record in scan_wal(wal_path, scan):
            if int(record.get("lsn", 0)) <= after_lsn:
                continue
            report.wal_records += 1
            kind = record.get("k")
            if kind == KIND_WRITE:
                datastore.write(record["key"], record["t"], record["vs"])
                report.writes_replayed += 1
            elif kind == KIND_READS:
                datastore.total_reads += int(record["n"])
                report.reads_replayed += int(record["n"])
            elif kind == KIND_MESSAGE:
                report.messages_replayed += 1
    finally:
        datastore.journal = journal
    report.torn_bytes = scan.torn_bytes
    return report


def restore_checkpoint(
    datastore: DataStore, root: str | Path, snapshot: Optional[Snapshot]
) -> RecoveryReport:
    """Restore ``snapshot``'s datastore in place, then replay the WAL after it.

    The one recovery pass behind :func:`recover_datastore` and a cluster's
    ``restore_from_store``.  Without a snapshot the whole log is replayed
    into ``datastore`` as it is.
    """
    after_lsn = 0
    if snapshot is not None:
        with malformed(snapshot.path, "datastore"):
            restore_datastore(datastore, snapshot.datastore)
        after_lsn = snapshot.wal_lsn
    report = replay_wal(datastore, StoreConfig(root=str(root)).wal_path, after_lsn)
    if snapshot is not None:
        report.snapshot_seq = snapshot.seq
        report.snapshot_time = snapshot.time
    report.recovered_keys = len(datastore.known_keys())
    report.recovered_versions = datastore.total_writes
    return report


def recover_datastore(root: str | Path) -> Tuple[DataStore, RecoveryReport]:
    """Rebuild a datastore from the snapshots and WAL under ``root``.

    Returns:
        The recovered store and a report.  An empty store directory recovers
        to an empty datastore (zero snapshots, zero records) rather than
        erroring: that is what a crash before the first flush leaves behind.
    """
    datastore = DataStore()
    report = restore_checkpoint(datastore, root, latest_snapshot(root))
    return datastore, report


def load_checkpoint(root: str | Path) -> Snapshot:
    """Load the newest snapshot, erroring when there is none (resume path)."""
    snapshot = latest_snapshot(Path(root))
    if snapshot is None:
        raise StoreError(f"no snapshot under {root}; nothing to resume from")
    return snapshot


# --------------------------------------------------------------------- #
# Warm node rejoin
# --------------------------------------------------------------------- #
def latest_node_snapshot(
    root: str | Path, node_id: str
) -> Optional[Tuple[Snapshot, Dict[str, Any]]]:
    """Find the newest snapshot that still contains ``node_id``'s full state.

    Snapshots hold full state only for nodes that were alive when they were
    taken (failed/departed nodes appear as counter stubs), so for a failed
    node this is the last checkpoint its local disk completed before the
    crash.
    """
    for path in reversed(list_snapshots(root)):
        snapshot = load_snapshot(path)
        node_data = snapshot.nodes.get(node_id)
        if node_data is not None and not node_data.get("partial"):
            return snapshot, node_data
    return None


@dataclass(slots=True)
class WarmState:
    """Cache contents a rejoining node restores from durable state."""

    snapshot_seq: int = 0
    snapshot_time: float = 0.0
    #: Entries restored valid (no write has touched the key since).
    entries: List[CacheEntry] = field(default_factory=list)
    #: Keys written since the snapshot: restored as invalidated placeholders.
    invalidated: int = 0
    #: L1 entries recovered from the snapshot (empty for single-tier nodes),
    #: validated against the write history exactly like the L2 entries.
    l1_entries: List[CacheEntry] = field(default_factory=list)
    l1_invalidated: int = 0
    #: Keys among ``l1_entries`` that were write-back dirty at the snapshot:
    #: the L2 never saw them, so they stay dirty after the restore.
    l1_dirty: List[str] = field(default_factory=list)

    @property
    def restored(self) -> int:
        """Total entries put back into the cache (both tiers)."""
        return len(self.entries) + len(self.l1_entries)


def warm_state(
    root: str | Path,
    node_id: str,
    rejoin_time: float,
    replayed: Optional[DataStore] = None,
) -> Optional[WarmState]:
    """Rebuild a node's cache contents for a warm rejoin at ``rejoin_time``.

    The node's entries come from its last completed snapshot; the backend's
    recovered write history (snapshot + WAL tail) decides validity.  Entries
    whose key was written after the entry's ``as_of`` are restored in the
    invalidated state: the node missed those invalidates while it was down,
    so serving them would be exactly the stale-serve spike warm rejoin exists
    to avoid.  Returns ``None`` when no snapshot ever captured the node.

    Pass ``replayed`` (a store already rebuilt by :func:`recover_datastore`)
    when restoring several nodes at the same instant — a whole-fleet restart
    shares one recovery pass instead of re-reading the store per node.
    """
    found = latest_node_snapshot(root, node_id)
    if found is None:
        return None
    snapshot, node_data = found
    if replayed is None:
        replayed, _ = recover_datastore(root)
    state = WarmState(snapshot_seq=snapshot.seq, snapshot_time=snapshot.time)

    def validate(entry_data: Dict[str, Any]) -> Tuple[CacheEntry, bool]:
        entry = entry_from_dict(entry_data)
        if replayed.writes_between(entry.key, entry.as_of, rejoin_time) > 0:
            entry.state = EntryState.INVALIDATED
            return entry, True
        entry.state = EntryState.VALID
        return entry, False

    with malformed(snapshot.path, f"node {node_id!r}"):
        l1_data = node_data.get("l1", {})
        for field_name, listed in (
            ("entries", node_data["entries"]), ("l1 entries", l1_data.get("entries", []))
        ):
            if not isinstance(listed, list):
                raise StoreError(f"{field_name} is {type(listed).__name__}, not a list")
        for entry_data in node_data["entries"]:
            entry, stale = validate(entry_data)
            state.invalidated += stale
            state.entries.append(entry)
        for entry_data in l1_data.get("entries", []):
            entry, stale = validate(entry_data)
            state.l1_invalidated += stale
            state.l1_entries.append(entry)
        restored_keys = {entry.key for entry in state.l1_entries}
        state.l1_dirty = [key for key in l1_data.get("dirty", []) if key in restored_keys]
    return state
