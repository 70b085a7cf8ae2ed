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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.backend.buffer import BufferedWrite
from repro.backend.datastore import DataStore, KeyHistory
from repro.backend.messages import InvalidateMessage, UpdateMessage
from repro.cache.entry import CacheEntry, EntryState
from repro.errors import StoreError
from repro.sim.events import PendingDelivery
from repro.sketch.exact import ExactEWTracker
from repro.store.migrate import SNAPSHOT_FORMAT, file_format, malformed, upgrade
from repro.store.wal import fsync_directory

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
        fsync: Whether the store calls ``os.fsync``: at every WAL flush, on
            each snapshot file and its directory before the log is compacted,
            and on the compacted log.
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
    """One full-state checkpoint (in-memory form of a snapshot file).

    It is always held, and written, at the current format.  ``path`` and
    ``format`` say where it was read from and in which format that file is
    (``None`` and the current format for one built in memory); neither takes
    part in equality.
    """

    seq: int
    time: float
    wal_lsn: int
    datastore: Dict[str, Any]
    nodes: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    journal: Dict[str, Any] = field(default_factory=dict)
    path: Optional[Path] = field(default=None, compare=False)
    format: int = field(default=SNAPSHOT_FORMAT, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten for the JSON file."""
        return {
            "kind": "repro-snapshot",
            "format": SNAPSHOT_FORMAT,
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
        "total_writes": datastore.total_writes,
        "total_reads": datastore.total_reads,
        "histories": {
            key: {
                "value_size": history.value_size,
                "write_times": list(history.write_times),
            }
            for key, history in datastore._histories.items()
        },
    }


def _json_int(value: Any) -> str:
    return f"{value}" if type(value) is int else json.dumps(value)


def datastore_json(datastore: DataStore) -> str:
    """``json.dumps(serialize_datastore(datastore), sort_keys=True)``, written faster.

    The same text, with every history's write times taken from
    :meth:`~repro.backend.datastore.KeyHistory.write_times_json`: over a run
    each write is rendered into JSON once, by the first snapshot that holds
    it, not again by every later one.
    """
    quote = encode_basestring_ascii
    histories = ", ".join(
        f'{quote(key)}: {{"value_size": {_json_int(history.value_size)}, '
        f'"write_times": {history.write_times_json()}}}'
        for key, history in sorted(datastore._histories.items())
    )
    return (
        f'{{"default_value_size": {_json_int(datastore.default_value_size)}, '
        f'"histories": {{{histories}}}, '
        f'"total_reads": {_json_int(datastore.total_reads)}, '
        f'"total_writes": {_json_int(datastore.total_writes)}}}'
    )


def restore_datastore(datastore: DataStore, data: Dict[str, Any]) -> None:
    """Rebuild a datastore's state in place from :func:`serialize_datastore`."""
    datastore.default_value_size = int(data["default_value_size"])
    datastore.total_writes = int(data["total_writes"])
    datastore.total_reads = int(data["total_reads"])
    datastore._histories.clear()
    for key, state in data["histories"].items():
        datastore._histories[key] = KeyHistory(
            key=key,
            write_times=[float(t) for t in state["write_times"]],
            value_size=int(state["value_size"]),
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
    names = {spec.name for spec in dataclasses.fields(result)}
    for name, value in data.items():
        if name not in names:
            raise StoreError(f"{type(result).__name__} has no counter {name!r}")
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
    peek = l1.cache.peek
    return {
        "entries": [serialize_entry(peek(key)) for key in l1.cache.recency],
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
    l1.outage = bool(data["outage"])
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
    # LRU order of a bounded cache (it differs from the entries' order as
    # soon as a hit moves a key), and the exact E[W] counters the adaptive
    # policy decides on.
    if node.cache.recency is not None:
        data["eviction_order"] = list(node.cache.recency)
    estimator = getattr(node.policy, "estimator", None)
    if isinstance(estimator, ExactEWTracker):
        data["estimator"] = estimator.state()
    return data


def restore_node(node: Any, data: Dict[str, Any], time: float) -> None:
    """Rebuild a node's volatile state in place (crash-resume path).

    Cache entries are re-inserted in their serialized order — the cache's
    own, so every later walk over the entries (poll settling, the next
    snapshot) goes as it would have — and then a bounded cache's LRU order
    is rebuilt from ``eviction_order``, victim first.  An adaptive policy's
    exact E[W] tracker gets its counters back from ``estimator``.  Resume is
    therefore exact for unbounded and bounded caches and every policy on the
    exact tracker; what stays approximate (sketch estimators) is listed in
    the recovery guide.

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
    """Load one snapshot file, upgraded to the current format.

    Raises:
        StoreError: Naming the file, if it is not a repro snapshot, has a
            format this build does not read, or lacks a top-level field.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise StoreError(
            f"{path} is not a repro snapshot: expected a JSON object, "
            f"got a {type(data).__name__}"
        )
    if data.get("kind") != "repro-snapshot":
        raise StoreError(f"{path} is not a repro snapshot")
    current = upgrade(data, path)
    with malformed(path, "snapshot"):
        snapshot = Snapshot(
            seq=int(current["seq"]),
            time=float(current["time"]),
            wal_lsn=int(current["wal_lsn"]),
            datastore=current["datastore"],
            nodes=current["nodes"],
            extra=current["extra"],
            journal=current["journal"],
            path=path,
            format=file_format(data),
        )
        for part in ("datastore", "nodes", "extra", "journal"):
            if not isinstance(getattr(snapshot, part), dict):
                raise TypeError(f"{part} is not a JSON object")
    return snapshot


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
        datastore: DataStore,
        nodes: Dict[str, Any],
        extra: Dict[str, Any],
        journal: Dict[str, Any],
    ) -> Path:
        """Write the next snapshot of ``datastore`` atomically and return its path.

        The file is ``json.dumps(snapshot.as_dict(), sort_keys=True)`` byte
        for byte.  ``"datastore"`` sorts first among the snapshot's keys, so
        the file opens with :func:`datastore_json`'s text and goes on with
        the rest.  With ``fsync`` configured, the file is synced before it
        is renamed into place and its directory after, so the snapshot is
        durable before the caller compacts the log it replaces.
        """
        self._seq += 1
        rest = Snapshot(
            seq=self._seq,
            time=time,
            wal_lsn=wal_lsn,
            datastore={},
            nodes=nodes,
            extra=extra,
            journal=journal,
        ).as_dict()
        del rest["datastore"]
        text = f'{{"datastore": {datastore_json(datastore)}, {json.dumps(rest, sort_keys=True)[1:]}'
        path = snapshot_path(self.config.root, self._seq)
        tmp_path = path.with_suffix(".tmp")
        with tmp_path.open("w") as handle:
            handle.write(text)
            if self.config.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        if self.config.fsync:
            fsync_directory(path.parent)
        self.snapshots_taken += 1
        return path
