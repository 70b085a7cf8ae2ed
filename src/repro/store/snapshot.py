"""Snapshot engine: MVCC-style full-state checkpoints of a running simulation.

A snapshot serializes the shared :class:`~repro.backend.datastore.DataStore`
(every key's full versioned write history) plus, for a cluster, each reachable
node's volatile state — cache entries, write buffer, invalidation tracker,
in-flight deliveries, result counters, and channel state.  Together with the
WAL tail after the snapshot's LSN watermark this is enough to rebuild the
backend byte-for-byte and to resume an interrupted run with identical
counters.

Snapshots are plain JSON files named ``snapshot-<seq>.json`` under the store
root, written atomically (tmp + rename).  Old snapshots are kept: warm node
rejoin restores a node from the *last snapshot taken while that node was
still alive*, which is generally older than the latest one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore, KeyHistory
from repro.backend.messages import InvalidateMessage, UpdateMessage
from repro.cache.entry import CacheEntry, EntryState
from repro.errors import StoreError
from repro.sim.events import PendingDelivery
from repro.sketch.exact import ExactEWTracker

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Configuration of the durable persistence layer.

    Args:
        root: Directory holding the WAL and the snapshots.
        snapshot_interval: Simulated seconds between snapshots (``None`` takes
            only the final checkpoint at the end of the run).
        flush_every: WAL records per group commit.
        compact: Whether each snapshot truncates the WAL at its watermark.
        fsync: Whether WAL flushes call ``os.fsync``.
    """

    root: str
    snapshot_interval: Optional[float] = None
    flush_every: int = 64
    compact: bool = True
    fsync: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_interval is not None and self.snapshot_interval <= 0:
            raise StoreError(
                f"snapshot_interval must be positive, got {self.snapshot_interval}"
            )

    @property
    def wal_path(self) -> Path:
        """Location of the write-ahead log inside the store root."""
        return Path(self.root) / "wal.log"


@dataclass(slots=True)
class Snapshot:
    """One full-state checkpoint (in-memory form of a snapshot file)."""

    seq: int
    time: float
    wal_lsn: int
    datastore: Dict[str, Any]
    nodes: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    journal: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten for the JSON file."""
        return {
            "kind": "repro-snapshot",
            "seq": self.seq,
            "time": self.time,
            "wal_lsn": self.wal_lsn,
            "datastore": self.datastore,
            "nodes": self.nodes,
            "extra": self.extra,
            "journal": self.journal,
        }


# --------------------------------------------------------------------- #
# Datastore serialization
# --------------------------------------------------------------------- #
def serialize_datastore(datastore: DataStore) -> Dict[str, Any]:
    """Flatten a datastore — full versioned histories included."""
    return {
        "default_value_size": datastore.default_value_size,
        "retention": datastore.retention,
        "total_writes": datastore.total_writes,
        "total_reads": datastore.total_reads,
        "pruned_writes": datastore.pruned_writes,
        "histories": {
            key: {
                "pruned": history.pruned,
                "value_size": history.value_size,
                "write_times": list(history.write_times),
            }
            for key, history in datastore._histories.items()
        },
    }


def restore_datastore(datastore: DataStore, data: Dict[str, Any]) -> None:
    """Rebuild a datastore's state in place from :func:`serialize_datastore`."""
    datastore.default_value_size = int(data["default_value_size"])
    retention = data.get("retention")
    datastore.retention = float(retention) if retention is not None else None
    datastore.total_writes = int(data["total_writes"])
    datastore.total_reads = int(data["total_reads"])
    datastore.pruned_writes = int(data.get("pruned_writes", 0))
    datastore._histories.clear()
    for key, state in data["histories"].items():
        datastore._histories[key] = KeyHistory(
            key=key,
            write_times=[float(t) for t in state["write_times"]],
            value_size=int(state["value_size"]),
            pruned=int(state.get("pruned", 0)),
        )


def canonical_datastore_bytes(datastore: DataStore) -> bytes:
    """Canonical byte encoding of a datastore's full state.

    Two datastores are byte-identical — same versions, write times, and
    counters — iff their canonical encodings are equal; the crash-recovery
    tests pin exactly this.
    """
    return json.dumps(serialize_datastore(datastore), sort_keys=True).encode("utf-8")


# --------------------------------------------------------------------- #
# Node serialization (duck-typed: works on any CacheNode-shaped object)
# --------------------------------------------------------------------- #
_ENTRY_FIELDS = (
    "key",
    "version",
    "as_of",
    "fetched_at",
    "key_size",
    "value_size",
    "last_poll_accounted",
    "hits",
)


def serialize_entry(entry: CacheEntry) -> Dict[str, Any]:
    """Flatten one cache entry."""
    data = {name: getattr(entry, name) for name in _ENTRY_FIELDS}
    data["state"] = entry.state.value
    return data


def entry_from_dict(data: Dict[str, Any]) -> CacheEntry:
    """Rebuild a cache entry from :func:`serialize_entry`."""
    fields = {name: data[name] for name in _ENTRY_FIELDS}
    return CacheEntry(state=EntryState(data["state"]), **fields)


def _serialize_result(result: Any) -> Dict[str, Any]:
    """Flatten a (Node)Result dataclass's raw counters."""
    state: Dict[str, Any] = {}
    for spec in dataclasses.fields(result):
        value = getattr(result, spec.name)
        if isinstance(value, (int, float, str)):
            state[spec.name] = value
        elif isinstance(value, dict):
            state[spec.name] = dict(value)
    return state


def _restore_result(result: Any, data: Dict[str, Any]) -> None:
    for name, value in data.items():
        if hasattr(result, name):
            setattr(result, name, value)


def _serialize_channel(channel: Any) -> Dict[str, Any]:
    """Flatten a channel, including its RNG state when it actually draws."""
    state: Dict[str, Any] = {
        "loss_probability": channel.loss_probability,
        "delay": channel.delay,
        "jitter": channel.jitter,
        "outage": channel.outage,
        "sent": channel.sent,
        "dropped": channel.dropped,
        "delivered": channel.delivered,
    }
    if not channel.is_ideal:
        state["rng"] = channel._rng.bit_generator.state
    return state


def _restore_channel(channel: Any, data: Dict[str, Any]) -> None:
    channel.loss_probability = float(data["loss_probability"])
    channel.delay = float(data["delay"])
    channel.jitter = float(data["jitter"])
    channel.outage = bool(data["outage"])
    channel.sent = int(data["sent"])
    channel.dropped = int(data["dropped"])
    channel.delivered = int(data["delivered"])
    if "rng" in data:
        channel._rng.bit_generator.state = data["rng"]


_MESSAGE_CLASSES = {"invalidate": InvalidateMessage, "update": UpdateMessage}


def serialize_node_stub(node: Any) -> Dict[str, Any]:
    """Flatten a failed/departed node: counters and flags, no volatile state.

    A node that is unreachable or off the ring has no durable claim to its
    in-memory state (its local disk stopped at its last completed snapshot),
    but its result counters and control-plane flags belong to the run and
    must survive a crash-resume.
    """
    return {
        "node_id": node.node_id,
        "partial": True,
        "reachable": node.reachable,
        "in_ring": node.in_ring,
        "result": _serialize_result(node.result),
        "cache_stats": _serialize_result(node.cache.stats),
        "channel": _serialize_channel(node.channel),
    }


def serialize_l1(l1: Any) -> Dict[str, Any]:
    """Flatten a node's L1 tier: entries, dirty set, stats, admission state.

    The admission sketch rides along so a crash-resume replays admission
    decisions exactly — unlike hot-key detectors, whose state is not
    checkpointed and which therefore refuse to resume.  Entries are written
    in LRU recency order (victim first): the L1 is always capacity-bounded,
    so restoring them in that order reproduces the eviction state — and
    hence every post-resume eviction decision — exactly.
    """
    entries = {entry.key: entry for entry in l1.cache.entries()}
    recency = l1.cache.eviction.recency_order()
    ordered = (
        [entries[key] for key in recency if key in entries]
        if recency is not None
        else list(entries.values())
    )
    return {
        "entries": [serialize_entry(entry) for entry in ordered],
        "dirty": sorted(l1.dirty),
        "outage": l1.outage,
        "stats": _serialize_result(l1.cache.stats),
        "admission": l1.admission.state(),
    }


def restore_l1(l1: Any, data: Dict[str, Any], time: float) -> None:
    """Rebuild a node's L1 tier in place from :func:`serialize_l1`."""
    l1.cache.clear()
    for entry_data in data["entries"]:
        l1.cache.restore_entry(entry_from_dict(entry_data), time)
    l1.dirty = set(data["dirty"])
    l1.outage = bool(data.get("outage", False))
    _restore_result(l1.cache.stats, data["stats"])
    l1.admission.load_state(data["admission"])


def serialize_node(node: Any) -> Dict[str, Any]:
    """Flatten one cache node's volatile state for a snapshot."""
    data = {
        "node_id": node.node_id,
        "reachable": node.reachable,
        "in_ring": node.in_ring,
        "entries": [serialize_entry(entry) for entry in node.cache.entries()],
        "cache_stats": _serialize_result(node.cache.stats),
        "buffer": [
            {
                "key": item.key,
                "first": item.first_write_time,
                "last": item.last_write_time,
                "count": item.write_count,
                "key_size": item.key_size,
                "value_size": item.value_size,
            }
            for item in node.buffer.peek()
        ],
        "buffer_total": node.buffer.total_buffered,
        "tracker": {
            "keys": [[key, time] for key, time in node.tracker._invalidated.items()],
            "forgotten": node.tracker.forgotten,
        },
        "pending": [
            {
                "kind": pending.message.kind.value,
                "key": pending.message.key,
                "sent_at": pending.message.sent_at,
                "key_size": pending.message.key_size,
                "value_size": pending.message.value_size,
                "version": pending.message.version,
                "deliver_at": pending.deliver_at,
            }
            for pending in node._pending
        ],
        "result": _serialize_result(node.result),
        "channel": _serialize_channel(node.channel),
    }
    if getattr(node, "l1", None) is not None:
        data["l1"] = serialize_l1(node.l1)
    # Two optional fields, each written only where the state exists: the
    # eviction order of a bounded cache whose policy is an ordered key list
    # (it differs from the entries' order as soon as a hit moves a key), and
    # the exact E[W] counters the adaptive policy decides on.
    recency = node.cache.recency
    order = recency.recency_order() if recency is not None else None
    if order is not None:
        data["eviction_order"] = order
    estimator = getattr(node.policy, "estimator", None)
    if isinstance(estimator, ExactEWTracker):
        data["estimator"] = estimator.state()
    return data


def restore_node(node: Any, data: Dict[str, Any], time: float) -> None:
    """Rebuild a node's volatile state in place (crash-resume path).

    Cache entries are re-inserted in their serialized order — the cache's
    own, so every later walk over the entries (poll settling, the next
    snapshot) goes as it would have — and then a bounded cache's eviction
    order is rebuilt from ``eviction_order``, victim first.  An adaptive
    policy's exact E[W] tracker gets its counters back from ``estimator``.
    Resume is therefore exact for unbounded caches, LRU and FIFO eviction,
    and every policy on the exact tracker; what stays approximate (LFU and
    Clock recency, sketch estimators) is listed in the recovery guide.  A
    snapshot written before these fields existed restores as it always did.

    A stub record (``partial``, from :func:`serialize_node_stub`) restores
    only counters and flags: the node's volatile state died with the crash,
    exactly as it had already died with the node's own failure.
    """
    node.reachable = bool(data["reachable"])
    node.in_ring = bool(data["in_ring"])
    if data.get("partial"):
        _restore_result(node.result, data["result"])
        _restore_result(node.cache.stats, data["cache_stats"])
        _restore_channel(node.channel, data["channel"])
        return
    node.cache.clear()
    for entry_data in data["entries"]:
        node.cache.restore_entry(entry_from_dict(entry_data), time)
    if "eviction_order" in data and node.cache.recency is not None:
        node.cache.reorder(data["eviction_order"])
    if "estimator" in data:
        node.policy.estimator.load_state(data["estimator"])
    _restore_result(node.cache.stats, data["cache_stats"])
    node.buffer.drain()
    for item in data["buffer"]:
        node.buffer._pending[item["key"]] = BufferedWrite(
            key=item["key"],
            first_write_time=item["first"],
            last_write_time=item["last"],
            write_count=item["count"],
            key_size=item["key_size"],
            value_size=item["value_size"],
        )
    node.buffer.total_buffered = int(data["buffer_total"])
    node.tracker.clear()
    for key, marked_at in data["tracker"]["keys"]:
        node.tracker._invalidated[key] = marked_at
    node.tracker.forgotten = int(data["tracker"]["forgotten"])
    node._pending.clear()
    for item in data["pending"]:
        message_cls = _MESSAGE_CLASSES[item["kind"]]
        message = message_cls(
            key=item["key"],
            sent_at=item["sent_at"],
            key_size=item["key_size"],
            value_size=item["value_size"],
            version=item["version"],
        )
        node._pending.append(PendingDelivery(message=message, deliver_at=item["deliver_at"]))
    if node._pending and node._pending_registry is not None:
        node._pending_registry.add(node.node_id)
    if getattr(node, "l1", None) is not None and "l1" in data:
        restore_l1(node.l1, data["l1"], time)
    _restore_result(node.result, data["result"])
    _restore_channel(node.channel, data["channel"])


# --------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------- #
def snapshot_path(root: str | Path, seq: int) -> Path:
    """File path of snapshot ``seq`` under ``root``."""
    return Path(root) / f"snapshot-{seq:08d}.json"


def list_snapshots(root: str | Path) -> List[Path]:
    """Snapshot files under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(path for path in root.iterdir() if _SNAPSHOT_RE.match(path.name))


def load_snapshot(path: str | Path) -> Snapshot:
    """Load one snapshot file.

    Raises:
        StoreError: If the file is not a repro snapshot.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read snapshot {path}: {exc}") from exc
    if data.get("kind") != "repro-snapshot":
        raise StoreError(f"{path} is not a repro snapshot")
    return Snapshot(
        seq=int(data["seq"]),
        time=float(data["time"]),
        wal_lsn=int(data["wal_lsn"]),
        datastore=data["datastore"],
        nodes=data.get("nodes", {}),
        extra=data.get("extra", {}),
        journal=data.get("journal", {}),
    )


def latest_snapshot(root: str | Path) -> Optional[Snapshot]:
    """Load the newest snapshot under ``root`` (``None`` when there is none)."""
    paths = list_snapshots(root)
    return load_snapshot(paths[-1]) if paths else None


class SnapshotManager:
    """Numbers, writes, and lists snapshots under one store root."""

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        Path(config.root).mkdir(parents=True, exist_ok=True)
        existing = list_snapshots(config.root)
        self._seq = (
            int(_SNAPSHOT_RE.match(existing[-1].name).group(1)) if existing else 0
        )
        self.snapshots_taken = 0

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent snapshot."""
        return self._seq

    def take(
        self,
        time: float,
        wal_lsn: int,
        datastore: Dict[str, Any],
        nodes: Dict[str, Any],
        extra: Dict[str, Any],
        journal: Dict[str, Any],
    ) -> Path:
        """Write the next snapshot atomically and return its path."""
        self._seq += 1
        snapshot = Snapshot(
            seq=self._seq,
            time=time,
            wal_lsn=wal_lsn,
            datastore=datastore,
            nodes=nodes,
            extra=extra,
            journal=journal,
        )
        path = snapshot_path(self.config.root, self._seq)
        tmp_path = path.with_suffix(".tmp")
        tmp_path.write_text(json.dumps(snapshot.as_dict(), sort_keys=True))
        os.replace(tmp_path, path)
        self.snapshots_taken += 1
        return path
