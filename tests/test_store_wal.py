"""WAL framing, group commit, torn tails, compaction, and cost accounting.

The second half pins the staged, batch-at-a-time writer and reader against
the per-record ones they replaced, which live on here as test-only references:
same bytes, same counters, same records, for friendly and hostile input.
"""

import json
import os
import random
import struct
import zlib
from pathlib import Path

import numpy
import pytest

from repro.core.cost_model import CostBreakdown, CostModel
from repro.errors import StoreError
from repro.store import WalScan, WriteAheadLog, scan_wal
from repro.store import format as wal_format
from repro.store.format import (
    KIND_MESSAGE,
    KIND_READS,
    KIND_WRITE,
    MAGIC,
    encode_record,
    stage_record,
)
from repro.store.wal import Journal

GOLDEN_LOG = Path(__file__).parent / "data" / "wal-golden.log"


def make_wal(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "wal.log", **kwargs)


def test_append_assigns_monotone_lsns_and_replay_round_trips(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=4)
    lsns = [wal.append(KIND_WRITE, {"key": f"k{i}", "t": float(i), "vs": 128}) for i in range(10)]
    wal.flush()
    assert lsns == list(range(1, 11))
    records = list(wal.replay())
    assert [r["lsn"] for r in records] == lsns
    assert records[3] == {"lsn": 4, "k": KIND_WRITE, "key": "k3", "t": 3.0, "vs": 128}
    # Replay after a watermark skips the prefix.
    assert [r["lsn"] for r in wal.replay(after_lsn=7)] == [8, 9, 10]
    wal.close()


def test_group_commit_batches_appends_into_flushes(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=8)
    for i in range(20):
        wal.append(KIND_WRITE, {"key": "k", "t": float(i), "vs": 1})
    # 20 appends = 2 full batches; 4 records still staged and not yet durable.
    assert wal.stats.flushes == 2
    assert sum(1 for _ in wal.replay()) == 16
    wal.close()  # close flushes the tail
    assert wal.stats.flushes == 3
    assert sum(1 for _ in scan_wal(wal.path)) == 20


def test_wal_costs_charge_appends_and_flushes(tmp_path) -> None:
    costs = CostModel(wal_append=0.25, wal_flush=2.0)
    wal = make_wal(tmp_path, flush_every=5, costs=costs)
    for i in range(10):
        wal.append(KIND_WRITE, {"key": "k", "t": float(i), "vs": 1})
    assert wal.stats.persistence_cost == pytest.approx(10 * 0.25 + 2 * 2.0)
    wal.close()


def test_torn_tail_stops_replay_at_last_complete_record(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=1)
    for i in range(5):
        wal.append(KIND_WRITE, {"key": f"k{i}", "t": float(i), "vs": 1})
    wal.close()
    # A crash mid-append leaves half a record on disk.
    with wal.path.open("ab") as handle:
        handle.write(encode_record({"lsn": 6, "k": KIND_WRITE})[:7])
    scan = WalScan()
    assert [r["lsn"] for r in scan_wal(wal.path, scan)] == [1, 2, 3, 4, 5]
    assert scan.torn_bytes > 0


def test_corrupt_checksum_truncates_replay(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=1)
    for i in range(4):
        wal.append(KIND_WRITE, {"key": f"k{i}", "t": float(i), "vs": 1})
    wal.close()
    data = bytearray(wal.path.read_bytes())
    data[-3] ^= 0xFF  # flip a byte inside the last record's payload
    wal.path.write_bytes(bytes(data))
    scan = WalScan()
    assert [r["lsn"] for r in scan_wal(wal.path, scan)] == [1, 2, 3]
    assert scan.torn_bytes > 0


def test_reopening_truncates_the_torn_tail_and_continues_lsns(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=1)
    wal.append(KIND_WRITE, {"key": "a", "t": 0.0, "vs": 1})
    wal.append(KIND_WRITE, {"key": "b", "t": 1.0, "vs": 1})
    wal.close()
    with wal.path.open("ab") as handle:
        handle.write(b"\x99" * 5)
    reopened = make_wal(tmp_path, flush_every=1)
    assert reopened.last_lsn == 2
    reopened.append(KIND_WRITE, {"key": "c", "t": 2.0, "vs": 1})
    reopened.close()
    assert [r["lsn"] for r in scan_wal(reopened.path)] == [1, 2, 3]


def test_bad_magic_is_rejected(tmp_path) -> None:
    path = tmp_path / "not-a-wal.log"
    path.write_bytes(b"definitely not" + MAGIC)
    with pytest.raises(StoreError):
        list(scan_wal(path))


def test_compaction_drops_records_below_the_watermark(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=1)
    for i in range(10):
        wal.append(KIND_WRITE, {"key": f"k{i}", "t": float(i), "vs": 1})
    dropped = wal.compact(keep_after_lsn=6)
    assert dropped == 6
    assert [r["lsn"] for r in wal.replay()] == [7, 8, 9, 10]
    # Appends after compaction keep the LSN sequence.
    assert wal.append(KIND_WRITE, {"key": "k", "t": 10.0, "vs": 1}) == 11
    wal.close()
    assert wal.stats.compactions == 1
    assert wal.stats.records_dropped == 6


def test_journal_aggregates_reads_into_delta_records(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=1)
    journal = Journal(wal)
    journal.note_read()
    journal.note_read()
    journal.log_write("k", 1.0, 128)  # flushes the pending read delta first
    journal.note_read()
    journal.sync()
    records = list(wal.replay())
    assert [r["k"] for r in records] == [KIND_READS, KIND_WRITE, KIND_READS]
    assert records[0]["n"] == 2
    assert records[2]["n"] == 1
    assert journal.reads_logged == 3
    assert journal.writes_logged == 1
    wal.close()


def test_journal_sync_is_a_noop_when_nothing_is_pending(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=64)
    journal = Journal(wal)
    journal.log_write("k", 1.0, 128)
    journal.sync()
    flushes = wal.stats.flushes
    journal.sync()  # nothing new: no extra flush, no empty read record
    assert wal.stats.flushes == flushes
    assert wal.stats.appends == 1
    wal.close()


def test_flush_every_must_be_positive(tmp_path) -> None:
    with pytest.raises(StoreError):
        make_wal(tmp_path, flush_every=0)


# --------------------------------------------------------------------- #
# The per-record writer and reader the staged ones replaced (references)
# --------------------------------------------------------------------- #
class PerRecordWal(WriteAheadLog):
    """The old write path: encode, frame and charge every record at append."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._batch = []
        self._batch_bytes = 0

    def append(self, kind, fields):
        self._last_lsn += 1
        payload = dict(fields)
        payload["lsn"] = self._last_lsn
        payload["k"] = kind
        record = encode_record(payload)
        self._batch.append(record)
        self._batch_bytes += len(record)
        self.stats.appends += 1
        if self.costs is not None:
            self.stats.persistence_cost += self.costs.wal_append_cost(len(record))
        if len(self._batch) >= self.flush_every:
            self.flush()
        return self._last_lsn

    def append_write(self, key, time, value_size):
        return self.append(KIND_WRITE, {"key": key, "t": time, "vs": value_size})

    def flush(self):
        if not self._batch:
            return
        self._handle.write(b"".join(self._batch))
        self._handle.flush()
        self.stats.flushes += 1
        self.stats.bytes_written += self._batch_bytes
        self._records_in_file += len(self._batch)
        if self.costs is not None:
            self.stats.persistence_cost += self.costs.wal_flush_cost()
        self._batch.clear()
        self._batch_bytes = 0


def per_record_scan(path, scan):
    """The old read path: one ``json.loads`` per verified record."""
    frame = struct.Struct("<II")
    data = Path(path).read_bytes()
    assert data.startswith(MAGIC)
    records = []
    offset, total = len(MAGIC), len(data)
    while offset < total:
        end = offset + frame.size
        if end <= total:
            length, crc = frame.unpack_from(data, offset)
            end += length
        if end > total or zlib.crc32(data[offset + frame.size : end]) != crc:
            scan.torn_bytes = total - offset
            break
        record = json.loads(data[offset + frame.size : end])
        scan.records += 1
        scan.bytes_read = end
        scan.last_lsn = max(scan.last_lsn, int(record.get("lsn", 0)))
        records.append(record)
        offset = end
    return records


def journal_mix(seed, count):
    """A seeded mix of the three kinds, shaped as the journal emits them."""
    rng = random.Random(seed)
    for _ in range(count):
        draw = rng.random()
        key = f"key-{rng.randrange(50):04d}"
        if draw < 0.6:
            yield KIND_WRITE, {"key": key, "t": rng.random() * 100, "vs": rng.randrange(1, 4096)}
        elif draw < 0.75:
            yield KIND_READS, {"n": rng.randrange(1, 500)}
        else:
            yield KIND_MESSAGE, {
                "mk": rng.choice(["invalidate", "update"]),
                "key": key,
                "t": rng.random() * 100,
                "v": rng.randrange(1, 10_000),
            }


def golden_records():
    """What ``tests/data/wal-golden.log`` holds (written at ``flush_every=8``)."""
    records = list(journal_mix(15, 40))
    records[5] = (KIND_WRITE, {"key": 'quo"te\\back\nline-\u00e9', "t": 12.5, "vs": 64})
    return records


SIZED_COSTS = CostModel(breakdown=CostBreakdown(serialize_per_byte=0.003, append_op=0.07))

#: Values no template formats: each must go through the canonical encoder.
FALLBACK_FIELDS = [
    (KIND_WRITE, {"key": "k", "t": 3, "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": True, "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": numpy.float64(0.1), "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": float("nan"), "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": float("inf"), "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": float("-inf"), "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": 1.0, "vs": True}),
    (KIND_WRITE, {"key": "k", "t": 1.0, "vs": 2.5}),
    (KIND_WRITE, {"key": 7, "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": None, "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": 1.0, "vs": 1, "extra": [1, {"b": 2, "a": 1}]}),
    (KIND_WRITE, {"key": "k", "t": 1.0}),
    (KIND_WRITE, {"key": "k", "t": 1.0, "size": 1}),
    (KIND_WRITE, {"key": "k", "t": 1.0, "vs": 1, "lsn": 999, "k": "x"}),
    (KIND_READS, {"n": True}),
    (KIND_READS, {"n": 2.0}),
    (KIND_READS, {}),
    (KIND_READS, {"m": 1}),
    (KIND_MESSAGE, {"mk": "update", "key": "k", "t": 1, "v": 1}),
    (KIND_MESSAGE, {"mk": None, "key": "k", "t": 1.0, "v": 1}),
    (KIND_MESSAGE, {"mk": "update", "key": "k", "t": 1.0, "v": False}),
    (KIND_MESSAGE, {"mk": "update", "key": "k", "t": 1.0}),
    ("custom", {"key": "k", "t": 1.0, "vs": 1}),
    ("custom", {}),
]

#: Values the templates do format, where formatting is easy to get wrong.
TEMPLATE_FIELDS = [
    (KIND_WRITE, {"key": 'say "hi"', "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "back\\slash/and/slash", "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "ctl\x00\x01\t\n\r\x1f\x7f", "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "caf\u00e9-\u4e2d-\U0001f600", "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "lone-\ud800-surrogate-\udfff", "t": 1.0, "vs": 1}),
    (KIND_WRITE, {"key": "", "t": -0.0, "vs": 0}),
    (KIND_WRITE, {"key": "k", "t": 1e-7, "vs": -5}),
    (KIND_WRITE, {"key": "k", "t": 1e16, "vs": 2**70}),
    (KIND_WRITE, {"key": "k", "t": 0.1 + 0.2, "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": 5e-324, "vs": 1}),
    (KIND_WRITE, {"key": "k", "t": 1.7976931348623157e308, "vs": 1}),
    (KIND_WRITE, {"vs": 1, "t": 2.0, "key": "unsorted-insertion-order"}),
    (KIND_READS, {"n": 0}),
    (KIND_READS, {"n": -3}),
    (KIND_MESSAGE, {"mk": 'inv"alid\\ate\n', "key": "\u00e9\ud83d", "t": -1e-7, "v": 2**64}),
]


def write_both(tmp_path, records, flush_every, costs=None):
    """Drive the staged writer and the reference in lock step; compare as they go."""
    staged = WriteAheadLog(tmp_path / "staged.log", flush_every=flush_every, costs=costs)
    reference = PerRecordWal(tmp_path / "reference.log", flush_every=flush_every, costs=costs)
    for kind, fields in records:
        assert staged.append(kind, fields) == reference.append(kind, fields)
        assert staged.last_lsn == reference.last_lsn
        assert staged.stats.appends == reference.stats.appends
        # Same flush boundaries: the files grow at the same appends.
        assert staged.stats.flushes == reference.stats.flushes
        assert os.path.getsize(staged.path) == os.path.getsize(reference.path)
    staged.close()
    reference.close()
    assert staged.path.read_bytes() == reference.path.read_bytes()
    assert staged.stats.as_dict() == reference.stats.as_dict()
    return staged


@pytest.mark.parametrize("flush_every", [1, 3, 64])
@pytest.mark.parametrize("costs", [None, CostModel(wal_append=0.05, wal_flush=0.5), SIZED_COSTS],
                         ids=["no-costs", "flat", "sized"])
def test_staged_writer_matches_the_per_record_writer(tmp_path, flush_every, costs) -> None:
    staged = write_both(tmp_path, journal_mix(7, 500), flush_every, costs)
    assert staged.stats.appends == 500
    assert staged.stats.flushes == -(-500 // flush_every)
    if costs is not None:
        assert staged.stats.persistence_cost > 0


def test_sized_costs_really_depend_on_the_record_size() -> None:
    assert SIZED_COSTS.wal_append_cost(40) != SIZED_COSTS.wal_append_cost(80)


def test_journal_writes_the_same_log_through_either_writer(tmp_path) -> None:
    logs = []
    for cls in (WriteAheadLog, PerRecordWal):
        wal = cls(tmp_path / f"{cls.__name__}.log", flush_every=5, costs=SIZED_COSTS)
        journal = Journal(wal)
        rng = random.Random(3)
        for index in range(200):
            for _ in range(rng.randrange(3)):
                journal.note_read()
            journal.log_write(f"k{rng.randrange(9)}", index * 0.25, rng.randrange(1, 999))
            if index % 3 == 0:
                journal.log_message("invalidate", f"k{index % 9}", index * 0.25, index)
            if index % 40 == 0:
                journal.sync()
        journal.sync()
        wal.close()
        logs.append((wal.path.read_bytes(), journal.state()))
    assert logs[0] == logs[1]


def drive_journal(tmp_path, cls, writes):
    """Log ``writes`` between two plain ones through a journal on a ``cls`` log:
    the log's bytes, the journal's state and the exception types raised."""
    wal = cls(tmp_path / f"{cls.__name__}.log", flush_every=2, costs=SIZED_COSTS)
    journal = Journal(wal)
    journal.note_read()
    journal.log_write("before", 0.25, 7)
    raised = []
    for key, time, size in writes:
        journal.note_read()
        try:
            journal.log_write(key, time, size)
        except TypeError as exc:
            raised.append(type(exc))
    journal.log_write("after", 2.0, 9)
    journal.sync()
    wal.close()
    return wal.path.read_bytes(), journal.state(), raised


#: Writes a journal may be handed whose values the write template must not
#: format (or, for the key, must escape): each must log what the per-record
#: writer logged, and the numpy size must fail the same way.
UNUSUAL_WRITES = {
    "numpy-float-time": ("k", numpy.float64(0.1), 3),
    "nan-time": ("k", float("nan"), 3),
    "inf-time": ("k", float("inf"), 3),
    "bool-size": ("k", 1.0, True),
    "numpy-int-size": ("k", 1.0, numpy.int64(3)),
    "non-ascii-key": ('caf\u00e9-\u4e2d-"q"-\U0001f600', 1.0, 3),
}


@pytest.mark.parametrize("write", UNUSUAL_WRITES.values(), ids=UNUSUAL_WRITES.keys())
def test_journal_logs_unusual_write_values_like_the_per_record_writer(tmp_path, write) -> None:
    staged = drive_journal(tmp_path, WriteAheadLog, [write])
    assert staged == drive_journal(tmp_path, PerRecordWal, [write])
    assert staged[2] == ([TypeError] if write is UNUSUAL_WRITES["numpy-int-size"] else [])


@pytest.mark.parametrize(
    "fields",
    [fields for kind, fields in TEMPLATE_FIELDS + FALLBACK_FIELDS
     if kind == KIND_WRITE and sorted(fields) == ["key", "t", "vs"]],
)
def test_append_write_stages_what_append_stages(tmp_path, fields) -> None:
    """``append_write`` repeats :func:`stage_record`'s checks for a write:
    whatever it is handed, the log is the one ``append`` writes."""
    logs = []
    for name, append in [
        ("append", lambda wal: wal.append(KIND_WRITE, fields)),
        ("append_write", lambda wal: wal.append_write(fields["key"], fields["t"], fields["vs"])),
    ]:
        wal = make_wal(tmp_path / name, flush_every=2, costs=SIZED_COSTS)
        lsns = [append(wal) for _ in range(3)]
        wal.close()
        logs.append((lsns, wal.path.read_bytes(), wal.stats.as_dict()))
    assert logs[0] == logs[1]


@pytest.mark.parametrize("kind,fields", FALLBACK_FIELDS)
def test_values_no_template_formats_take_the_canonical_encoder(tmp_path, kind, fields) -> None:
    assert type(stage_record(1, kind, fields)) is bytes
    write_both(tmp_path, [(kind, fields)] * 3, flush_every=2, costs=SIZED_COSTS)


@pytest.mark.parametrize("kind,fields", TEMPLATE_FIELDS)
def test_templates_format_hostile_values_like_the_canonical_encoder(tmp_path, kind, fields) -> None:
    assert type(stage_record(1, kind, fields)) is tuple
    staged = write_both(tmp_path, [(kind, fields)] * 3, flush_every=2, costs=SIZED_COSTS)
    (first, *_rest) = scan_wal(staged.path)
    assert first == {**fields, "lsn": 1, "k": kind}


@pytest.mark.parametrize("fields", [
    {"key": "k", "t": 1.0, "vs": numpy.int64(3)},
    {"key": "k", "t": 1.0, "vs": 1, "blob": b"bytes"},
    {"key": "k", "t": 1.0, "vs": 1, 3: "mixed", "keys": 1},
])
def test_unencodable_fields_fail_at_append_like_before(tmp_path, fields) -> None:
    outcomes = []
    for cls in (WriteAheadLog, PerRecordWal):
        wal = cls(tmp_path / f"{cls.__name__}.log", flush_every=4)
        wal.append(KIND_READS, {"n": 1})
        with pytest.raises(TypeError):
            wal.append(KIND_WRITE, fields)
        # The failed append left no record behind; the log carries on.
        lsn = wal.append(KIND_READS, {"n": 2})
        wal.close()
        outcomes.append((lsn, wal.stats.as_dict(), wal.path.read_bytes()))
    assert outcomes[0] == outcomes[1]


def test_mutating_fields_after_append_does_not_change_the_record(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=64)
    templated = {"key": "before", "t": 1.0, "vs": 1}
    nested = {"key": "before", "t": 1.0, "vs": 1, "tags": ["a"], "meta": {"x": 1}}
    wal.append(KIND_WRITE, templated)
    wal.append(KIND_WRITE, nested)
    templated["key"] = "after"
    templated["extra"] = True
    nested["tags"].append("b")
    nested["meta"]["x"] = 2
    del nested["vs"]
    wal.close()
    assert list(scan_wal(wal.path)) == [
        {"lsn": 1, "k": KIND_WRITE, "key": "before", "t": 1.0, "vs": 1},
        {"lsn": 2, "k": KIND_WRITE, "key": "before", "t": 1.0, "vs": 1,
         "tags": ["a"], "meta": {"x": 1}},
    ]


def test_staged_records_are_counted_at_append_and_charged_at_the_commit(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=4, costs=CostModel(wal_append=0.25, wal_flush=2.0))
    for i in range(3):
        wal.append(KIND_WRITE, {"key": "k", "t": float(i), "vs": 1})
    assert (wal.stats.appends, wal.last_lsn) == (3, 3)
    assert (wal.stats.flushes, wal.stats.bytes_written, wal.stats.persistence_cost) == (0, 0, 0.0)
    assert list(wal.replay()) == []
    wal.append(KIND_WRITE, {"key": "k", "t": 3.0, "vs": 1})
    assert wal.stats.flushes == 1
    assert wal.stats.bytes_written == os.path.getsize(wal.path) - len(MAGIC)
    assert wal.stats.persistence_cost == 4 * 0.25 + 2.0
    assert len(list(wal.replay())) == 4
    wal.close()


# --------------------------------------------------------------------- #
# Closed logs
# --------------------------------------------------------------------- #
def test_a_closed_log_refuses_appends_and_flushes_at_once(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=64)
    wal.append(KIND_WRITE, {"key": "k", "t": 0.0, "vs": 1})
    wal.close()
    size = os.path.getsize(wal.path)
    with pytest.raises(StoreError, match="closed"):
        wal.append(KIND_WRITE, {"key": "k", "t": 1.0, "vs": 1})  # the first one, not the 64th
    with pytest.raises(StoreError, match="closed"):
        wal.flush()
    with pytest.raises(StoreError, match="closed"):
        Journal(wal).sync()
    assert (wal.stats.appends, wal.last_lsn) == (1, 1)
    assert os.path.getsize(wal.path) == size


def test_close_is_idempotent(tmp_path) -> None:
    wal = make_wal(tmp_path, flush_every=64)
    wal.append(KIND_WRITE, {"key": "k", "t": 0.0, "vs": 1})
    wal.close()
    stats = wal.stats.as_dict()
    wal.close()
    assert wal.stats.as_dict() == stats
    assert [r["lsn"] for r in scan_wal(wal.path)] == [1]


# --------------------------------------------------------------------- #
# Reader: chunked decode against the per-record reference
# --------------------------------------------------------------------- #
def scan_both(path):
    scan, reference_scan = WalScan(), WalScan()
    records = list(scan_wal(path, scan))
    assert records == per_record_scan(path, reference_scan)
    assert scan == reference_scan
    return records, scan


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_chunked_decode_matches_per_record_decode(tmp_path, monkeypatch, chunk) -> None:
    monkeypatch.setattr(wal_format, "_DECODE_CHUNK", chunk)
    wal = make_wal(tmp_path, flush_every=9)
    mix = list(journal_mix(21, 300)) + FALLBACK_FIELDS + TEMPLATE_FIELDS
    for kind, fields in mix:
        wal.append(kind, fields)
    wal.close()
    records, scan = scan_both(wal.path)
    assert scan.records == len(mix) == len(records)
    assert scan.bytes_read == os.path.getsize(wal.path)
    assert (scan.torn_bytes, scan.last_lsn) == (0, len(mix))


@pytest.mark.parametrize("chunk", [2, 1024])
def test_torn_tails_cut_at_every_byte_of_the_last_two_records(tmp_path, monkeypatch, chunk) -> None:
    monkeypatch.setattr(wal_format, "_DECODE_CHUNK", chunk)
    wal = make_wal(tmp_path, flush_every=1)
    for kind, fields in journal_mix(5, 6):
        wal.append(kind, fields)
    wal.close()
    data = wal.path.read_bytes()
    ends = [len(MAGIC)]
    for _ in range(6):
        (length, _crc) = struct.unpack_from("<II", data, ends[-1])
        ends.append(ends[-1] + 8 + length)
    assert ends[-1] == len(data)
    torn = tmp_path / "torn.log"
    for cut in range(ends[4], len(data) + 1):
        torn.write_bytes(data[:cut])
        records, scan = scan_both(torn)
        whole = sum(1 for end in ends[1:] if end <= cut)
        assert [r["lsn"] for r in records] == list(range(1, whole + 1))
        assert (scan.bytes_read, scan.torn_bytes) == (ends[whole], cut - ends[whole])
    # A flipped payload byte (checksum failure) cuts the log the same way.
    for position in (ends[4] + 8, ends[5] + 8, len(data) - 1):
        flipped = bytearray(data)
        flipped[position] ^= 0x55
        torn.write_bytes(bytes(flipped))
        scan_both(torn)


def checksummed(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


@pytest.mark.parametrize("payload", [
    b"definitely not json",
    b"[1,2]",
    b"17",
    b'"text"',
    b"null",
    b"",
    b'{"lsn":1},{"lsn":2}',
    b'{"lsn":"abc","k":"w"}',
    b'{"lsn":null}',
    b"\xff\xfe\x00",
], ids=repr)
@pytest.mark.parametrize("chunk", [2, 1024])
def test_a_checksummed_but_undecodable_record_is_a_store_error(
    tmp_path, monkeypatch, payload, chunk
) -> None:
    monkeypatch.setattr(wal_format, "_DECODE_CHUNK", chunk)
    good = [encode_record({"lsn": lsn, "k": KIND_READS, "n": lsn}) for lsn in (1, 2, 3)]
    after = encode_record({"lsn": 4, "k": KIND_READS, "n": 4})
    path = tmp_path / "wal.log"
    path.write_bytes(MAGIC + b"".join(good) + checksummed(payload) + after)
    bad_offset = len(MAGIC) + sum(map(len, good))
    scan = WalScan()
    seen = []
    with pytest.raises(StoreError, match=f"byte offset {bad_offset} .*after LSN 3"):
        for record in scan_wal(path, scan):
            seen.append(record["lsn"])
    # The good prefix was delivered and accounted before the error.
    assert seen == [1, 2, 3]
    assert (scan.records, scan.bytes_read, scan.last_lsn) == (3, bad_offset, 3)
    # Opening such a log for append fails the same typed way.
    with pytest.raises(StoreError, match="byte offset"):
        WriteAheadLog(path)


# --------------------------------------------------------------------- #
# The on-disk format is a compatibility surface
# --------------------------------------------------------------------- #
def test_golden_log_is_reproduced_byte_for_byte_and_read_back(tmp_path) -> None:
    """``wal-golden.log`` was written by the per-record writer of PR 14.

    A store directory outlives the code that wrote it (``store recover`` of
    an old run), so a template drifting from the canonical encoding must fail
    here, loudly, not in someone's recovery.
    """
    wal = make_wal(tmp_path, flush_every=8)
    for kind, fields in golden_records():
        wal.append(kind, fields)
    wal.close()
    assert wal.path.read_bytes() == GOLDEN_LOG.read_bytes()
    records, scan = scan_both(GOLDEN_LOG)
    assert records == [
        {**fields, "lsn": lsn, "k": kind}
        for lsn, (kind, fields) in enumerate(golden_records(), start=1)
    ]
    assert {record["k"] for record in records} == {KIND_WRITE, KIND_READS, KIND_MESSAGE}
    assert (scan.records, scan.torn_bytes) == (40, 0)
