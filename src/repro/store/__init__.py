"""Durable persistence for the simulated backend: WAL, snapshots, recovery.

The package follows the classic database recovery architecture (ZODB's
append-only transaction log was the direct inspiration):

* :mod:`repro.store.format` — length-prefixed, CRC-checksummed record framing
  with torn-tail tolerance,
* :mod:`repro.store.wal` — the append-only :class:`WriteAheadLog` with
  batched group commit charged to the cost model, and the :class:`Journal`
  that hooks a :class:`~repro.backend.datastore.DataStore`,
* :mod:`repro.store.snapshot` — full-state checkpoints (datastore histories
  plus per-node cache/buffer/tracker state) and WAL compaction at the
  snapshot watermark,
* :mod:`repro.store.migrate` — the format numbers of snapshots and
  ``RUN.json``, and the one table of steps that upgrades an older file,
* :mod:`repro.store.recovery` — snapshot restore + WAL tail replay, and the
  warm-rejoin state a returning cache node restores, and
* :mod:`repro.store.runtime` — the :class:`StoreRuntime` a simulator embeds
  when constructed with a :class:`StoreConfig`.

Typical use::

    from repro import ClusterSimulation, StoreConfig, recover_datastore

    cluster = ClusterSimulation(..., store=StoreConfig("run-store",
                                                       snapshot_interval=2.0))
    partial = cluster.run(stop_at=6.0)          # "kill" the run mid-way

    datastore, report = recover_datastore("run-store")   # byte-identical
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.store.format": ("WalScan", "encode_record", "scan_wal"),
    "repro.store.recovery": (
        "RecoveryReport", "WarmState", "load_checkpoint", "recover_datastore", "replay_wal",
        "warm_state",
    ),
    "repro.store.runtime": ("StoreRuntime",),
    "repro.store.snapshot": (
        "Snapshot", "SnapshotManager", "StoreConfig", "canonical_datastore_bytes",
        "latest_snapshot", "list_snapshots", "load_snapshot", "serialize_datastore",
    ),
    "repro.store.wal": ("Journal", "WalStats", "WriteAheadLog"),
})
