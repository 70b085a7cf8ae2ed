"""Snapshot files: the incremental datastore text, crash-resume and fsync order.

A snapshot renders each write time into JSON once over a run
(:meth:`KeyHistory.write_times_json`); the file must still be
``json.dumps(snapshot.as_dict(), sort_keys=True)`` byte for byte.
"""

import contextlib
import io
import json
import math
import os
import random

import pytest

from repro.__main__ import main
from repro.backend.datastore import DataStore, KeyHistory
from repro.cluster import ClusterSimulation
from repro.store import StoreConfig, WriteAheadLog
from repro.store.snapshot import (
    Snapshot,
    SnapshotManager,
    datastore_json,
    load_snapshot,
    restore_datastore,
    serialize_datastore,
)
from repro.workload.poisson import PoissonZipfWorkload

#: Keys the JSON string escaper has work to do on, in no sorted order.
KEYS = [
    "plain",
    'quo"te',
    "back\\slash",
    "café",
    "中文",
    "emoji-\U0001f600",
    "ctl\n\t\x00",
    "",
    "Zebra",
    "apple",
]


def canonical(datastore: DataStore) -> str:
    return json.dumps(serialize_datastore(datastore), sort_keys=True)


@pytest.mark.parametrize("seed", range(12))
def test_datastore_text_equals_the_canonical_dump(seed) -> None:
    """Seeded random stores, several snapshots each: keys first written after
    an earlier snapshot, value sizes changing between snapshots, and a
    restore in the middle that keeps every key and write count but moves
    every time, so text cached under a key's name would be stale."""
    rng = random.Random(seed)
    datastore = DataStore(default_value_size=rng.choice([64, 128]))
    time, snapshots, restored = 0.0, 0, False
    for step in range(rng.randrange(200, 600)):
        draw = rng.random()
        if draw < 0.75:
            time += rng.random() * rng.choice([1e-3, 0.1, 10.0])
            reachable = 1 + step * len(KEYS) // 300
            key = rng.choice(KEYS[:reachable])
            datastore.write(key, time, rng.choice([None, None, rng.randrange(1, 4096)]))
        elif draw < 0.88:
            datastore.read(rng.choice(KEYS), time)
        elif draw < 0.98 or restored:
            assert datastore_json(datastore) == canonical(datastore)
            snapshots += 1
        else:
            state = json.loads(canonical(datastore))
            for history in state["histories"].values():
                history["write_times"] = [t + 0.5 for t in history["write_times"]]
                history["value_size"] += 1
            time += 1.0
            restore_datastore(datastore, state)
            assert datastore_json(datastore) == canonical(datastore)
            restored = True
    assert datastore_json(datastore) == canonical(datastore)
    assert snapshots >= 3


def test_datastore_text_of_non_finite_times_and_an_empty_store() -> None:
    datastore = DataStore()
    assert datastore_json(datastore) == canonical(datastore)
    datastore.write("n", math.nan)
    datastore.write("z", -0.0)
    assert datastore_json(datastore) == canonical(datastore)
    datastore.write("n", 1.0)
    datastore.write("z", math.inf)
    datastore.write("z", 5.0)  # clamped to the last write, inf
    assert datastore_json(datastore) == canonical(datastore)


def test_a_history_renders_only_new_writes_and_again_whole_if_it_shrank() -> None:
    history = KeyHistory("k")
    assert history.write_times_json() == "[]"
    history.write_times.extend([0.1, 0.2])
    assert history.write_times_json() == json.dumps([0.1, 0.2])
    history.write_times.append(0.30000000000000004)
    assert history.write_times_json() == json.dumps(history.write_times)
    history.write_times.pop()
    history.write_times.pop()
    assert history.write_times_json() == "[0.1]"
    history.write_times.clear()
    assert history.write_times_json() == "[]"


def test_a_snapshot_file_is_the_sorted_dump_of_the_snapshot(tmp_path) -> None:
    datastore = DataStore()
    for index, key in enumerate(KEYS):
        datastore.write(key, index * 0.25, 100 + index)
    manager = SnapshotManager(StoreConfig(str(tmp_path)))
    nodes = {"node-1": {"node_id": "node-1", "entries": [{"key": "café", "as_of": 0.5}]}}
    extra = {"next_snapshot": None, "z": [1, 2], "a": {"y": 1, "b": 2}}
    journal = {"writes_logged": 10, "wal": {"appends": 10}}
    for seq in (1, 2):
        path = manager.take(1.5 * seq, 7 * seq, datastore, nodes, extra, journal)
        expected = Snapshot(
            seq=seq, time=1.5 * seq, wal_lsn=7 * seq,
            datastore=serialize_datastore(datastore),
            nodes=nodes, extra=extra, journal=journal,
        )
        assert path.read_text() == json.dumps(expected.as_dict(), sort_keys=True)
        assert load_snapshot(path) == expected
        datastore.write("late-key", 9.0 + seq, 5)
    assert not list(tmp_path.glob("*.tmp"))


def _flat(data, prefix=""):
    fields = {}
    for name, value in data.items():
        if isinstance(value, dict):
            fields.update(_flat(value, f"{prefix}{name}."))
        else:
            fields[prefix + name] = value
    return fields


def test_a_resumed_fleet_writes_the_uninterrupted_runs_snapshots(tmp_path) -> None:
    """Snapshots 6-8 of a 4-node store killed at t=5 and resumed equal the
    uninterrupted run's in every field but the compaction counters, which
    ``StoreRuntime.stats()`` already documents a resume cannot replay."""
    whole, killed = str(tmp_path / "whole"), str(tmp_path / "killed")
    run = ["--nodes", "4", "--duration", "8", "--snapshot-interval", "1",
           "--param", "num_keys=200"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["store", "snapshot", "--dir", whole, *run]) == 0
        assert main(["store", "snapshot", "--dir", killed, *run, "--kill-at", "5"]) == 0
        assert main(["store", "recover", "--dir", killed, "--resume"]) == 0
    for seq in range(1, 9):
        name = f"snapshot-{seq:08d}.json"
        expected = _flat(json.loads((tmp_path / "whole" / name).read_text()))
        resumed = _flat(json.loads((tmp_path / "killed" / name).read_text()))
        differ = {field for field in expected.keys() | resumed.keys()
                  if expected.get(field) != resumed.get(field)}
        after_kill = {"journal.wal.compactions", "journal.wal.records_dropped"}
        assert differ == (after_kill if seq > 5 else set()), seq


def _record_fsyncs(monkeypatch):
    """Record each ``os.fsync`` (by inode) and each compaction, in order."""
    events = []
    real_fsync, real_compact = os.fsync, WriteAheadLog.compact

    def fsync(descriptor):
        events.append(("fsync", os.fstat(descriptor).st_ino))
        real_fsync(descriptor)

    def compact(self, keep_after_lsn):
        events.append(("compact", None))
        return real_compact(self, keep_after_lsn)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(WriteAheadLog, "compact", compact)
    return events


def _fleet(root, fsync):
    workload = PoissonZipfWorkload(num_keys=40, rate_per_key=5.0, seed=3)
    return ClusterSimulation(
        workload=workload.iter_requests(4.0),
        policy="invalidate",
        num_nodes=2,
        staleness_bound=0.5,
        duration=4.0,
        seed=3,
        store=StoreConfig(str(root), snapshot_interval=1.0, fsync=fsync),
    )


def test_fsync_makes_each_snapshot_durable_before_its_log_is_compacted(
    tmp_path, monkeypatch
) -> None:
    events = _record_fsyncs(monkeypatch)
    _fleet(tmp_path, fsync=True).run()
    names = {os.stat(path).st_ino: path.name for path in tmp_path.iterdir()}
    names[os.stat(tmp_path).st_ino] = "<dir>"
    labels = [names[inode] if kind == "fsync" else kind for kind, inode in events]
    compactions = [index for index, label in enumerate(labels) if label == "compact"]
    assert len(compactions) == 4
    for seq, index in enumerate(compactions, start=1):
        # The snapshot file, then the rename in its directory, are synced
        # before compaction empties the log, and the emptied log after it.
        assert labels[index - 2 : index + 2] == [
            f"snapshot-{seq:08d}.json", "<dir>", "compact", "wal.log"
        ]


def test_without_fsync_nothing_is_synced(tmp_path, monkeypatch) -> None:
    events = _record_fsyncs(monkeypatch)
    _fleet(tmp_path, fsync=False).run()
    assert [kind for kind, _ in events] == ["compact"] * 4


def test_a_partial_compaction_syncs_the_rewritten_log_and_its_directory(
    tmp_path, monkeypatch
) -> None:
    wal = WriteAheadLog(tmp_path / "wal.log", flush_every=2, fsync=True)
    for index in range(5):
        wal.append("r", {"n": index})
    events = _record_fsyncs(monkeypatch)
    assert wal.compact(3) == 3
    wal.close()
    assert [record["lsn"] for record in wal.replay()] == [4, 5]
    log, directory = os.stat(wal.path).st_ino, os.stat(tmp_path).st_ino
    # The flush inside compact syncs the old log; then the rewritten one
    # (renamed over it) and the directory holding the rename.
    assert [inode for kind, inode in events if kind == "fsync"][-2:] == [log, directory]
