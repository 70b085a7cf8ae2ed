"""On-disk record format of the write-ahead log.

The WAL is a magic header followed by a sequence of length-prefixed,
CRC-checksummed records, in the spirit of ZODB's append-only transaction log:

.. code-block:: text

    +----------+----------------+----------------+---------------------+
    | MAGIC    | length (u32le) | crc32 (u32le)  | payload (JSON) ...  |
    +----------+----------------+----------------+---------------------+

Each payload is a compact, canonically-sorted JSON object carrying at least a
log sequence number (``"lsn"``) and a record kind (``"k"``).  The LSN lives in
the payload — not in the framing — so that log compaction can rewrite the file
while keeping snapshot watermarks meaningful.

Both directions work a batch at a time.  The writer *stages* a record at
append (:func:`stage_record` snapshots its values) and *frames* the whole
group commit in one pass (:func:`frame_batch`): the three journal kinds are
rendered from per-kind templates, anything else by the one canonical JSON
encoder, and both produce the same bytes :func:`encode_record` would — the
format has one definition, the templates are a faster way to write it.  The
reader (:func:`scan_wal`) verifies every frame and checksum record by record
and then decodes the verified payloads a chunk at a time.

Reading tolerates a *torn tail*: a crash mid-append leaves a truncated or
corrupt final record, and replay stops cleanly at the last record whose
checksum verifies — everything before it is durable, everything after it never
was.  A bad magic header means the file is not a WAL at all, and a record
whose checksum verifies but whose payload is not a JSON object means a writer
other than this module produced it: both raise
:class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import StoreError

#: File magic identifying a repro WAL (includes a format version).
MAGIC = b"RPROWAL1\n"

#: Per-record framing: payload length and CRC-32 of the payload bytes.
_FRAME = struct.Struct("<II")

#: Record kinds appearing in the log.
KIND_WRITE = "w"
KIND_READS = "r"
KIND_MESSAGE = "m"

#: The canonical payload encoding: compact separators, keys sorted, ASCII
#: only.  Every payload on disk is what this encoder produces for its dict.
_CANONICAL = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Verified payloads decoded by one ``json.loads`` call in :func:`scan_wal`.
_DECODE_CHUNK = 1024

#: A staged record: the values of a templated kind, or a payload encoded at
#: append because its fields or value types fit no template.
Staged = Union[Tuple[Any, ...], bytes]


def _canonical_bytes(payload: Dict[str, Any]) -> bytes:
    return _CANONICAL.encode(payload).encode("utf-8")


def encode_record(payload: Dict[str, Any]) -> bytes:
    """Frame one payload as a length-prefixed, checksummed record."""
    data = _canonical_bytes(payload)
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


def stage_record(lsn: int, kind: str, fields: Mapping[str, Any]) -> Staged:
    """Snapshot one record at append time, for :func:`frame_batch` to render.

    A record of a journal kind whose fields are exactly that kind's, each of
    the exact type its template formats (``str`` keys, finite ``float`` times,
    ``int`` counts — not ``bool``, not a numpy scalar), is kept as a tuple of
    those immutable values.  Every other record is encoded here and now by the
    canonical encoder, so whatever the caller does to ``fields`` or to the
    values in it afterwards, the log holds what was appended.
    """
    try:
        if kind == KIND_WRITE:
            if len(fields) == 3:
                key, time, size = fields["key"], fields["t"], fields["vs"]
                if (
                    type(key) is str
                    and type(time) is float
                    and type(size) is int
                    and isfinite(time)
                ):
                    return (KIND_WRITE, lsn, key, time, size)
        elif kind == KIND_READS:
            if len(fields) == 1:
                count = fields["n"]
                if type(count) is int:
                    return (KIND_READS, lsn, count)
        elif kind == KIND_MESSAGE:
            if len(fields) == 4:
                message, key, time, version = (
                    fields["mk"], fields["key"], fields["t"], fields["v"]
                )
                if (
                    type(message) is str
                    and type(key) is str
                    and type(time) is float
                    and type(version) is int
                    and isfinite(time)
                ):
                    return (KIND_MESSAGE, lsn, key, message, time, version)
    except KeyError:
        pass  # Not that kind's fields: the canonical encoder takes it.
    payload = dict(fields)
    payload["lsn"] = lsn
    payload["k"] = kind
    return _canonical_bytes(payload)


def frame_batch(staged: Iterable[Staged]) -> List[bytes]:
    """Render and frame a group commit's staged records, in order.

    The templates spell out what the canonical encoder emits for the three
    journal kinds — keys in sorted order, strings through the JSON string
    escaper, floats through ``float.__repr__`` — without building a dict or
    sorting it per record.  ``tests/test_store_wal.py`` pins the output
    against :func:`encode_record` byte for byte.
    """
    pack = _FRAME.pack
    crc32 = zlib.crc32
    quote = encode_basestring_ascii
    records: List[bytes] = []
    for entry in staged:
        if type(entry) is bytes:
            data = entry
        else:
            kind = entry[0]
            if kind == KIND_WRITE:
                _, lsn, key, time, size = entry
                text = f'{{"k":"w","key":{quote(key)},"lsn":{lsn},"t":{time!r},"vs":{size}}}'
            elif kind == KIND_READS:
                _, lsn, count = entry
                text = f'{{"k":"r","lsn":{lsn},"n":{count}}}'
            else:
                _, lsn, key, message, time, version = entry
                text = (
                    f'{{"k":"m","key":{quote(key)},"lsn":{lsn},"mk":{quote(message)},'
                    f'"t":{time!r},"v":{version}}}'
                )
            data = text.encode("ascii")
        records.append(pack(len(data), crc32(data)) + data)
    return records


@dataclass(slots=True)
class WalScan:
    """Outcome of scanning a WAL file (filled in by :func:`scan_wal`).

    The counters advance a decoded chunk at a time, ahead of the records the
    generator has handed out so far; they are final once it is exhausted.
    """

    records: int = 0
    bytes_read: int = 0
    #: Bytes of a truncated or checksum-failing tail that were ignored.
    torn_bytes: int = 0
    #: Highest LSN seen among the complete records.
    last_lsn: int = 0


def scan_wal(path: str | Path, scan: Optional[WalScan] = None) -> Iterator[Dict[str, Any]]:
    """Yield every complete record payload in ``path``, in log order.

    A missing file yields nothing (an empty log is a valid log).  A torn tail
    stops iteration silently; pass a :class:`WalScan` to observe how many
    bytes were dropped.

    Raises:
        StoreError: If the file exists but does not start with the WAL magic,
            or if a record's checksum verifies but its payload is not a JSON
            object with an integer LSN (raised after the records before it
            have been yielded).
    """
    path = Path(path)
    if scan is None:
        scan = WalScan()
    if not path.exists():
        return
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        raise StoreError(f"{path} is not a write-ahead log (bad magic)")
    unpack = _FRAME.unpack_from
    header = _FRAME.size
    crc32 = zlib.crc32
    offset = len(MAGIC)
    total = len(data)
    torn = False
    while offset < total and not torn:
        chunk_offset = offset
        payloads: List[bytes] = []
        while offset < total and len(payloads) < _DECODE_CHUNK:
            start = offset + header
            if start > total:
                torn = True
                break
            length, crc = unpack(data, offset)
            end = start + length
            if end > total:
                torn = True
                break
            payload = data[start:end]
            if crc32(payload) != crc:
                # A checksum failure makes every later record suspect too:
                # stop replay here, exactly as a real WAL reader would.
                torn = True
                break
            payloads.append(payload)
            offset = end
        if payloads:
            yield from _decode_chunk(path, payloads, chunk_offset, offset, scan)
    if torn:
        scan.torn_bytes = total - offset


def _decode_chunk(
    path: Path, payloads: Sequence[bytes], offset: int, end: int, scan: WalScan
) -> Iterable[Dict[str, Any]]:
    """Decode the verified payloads framed in ``[offset, end)`` with one parse.

    The payloads are joined into one JSON array.  Should that not parse into
    one object per payload, each with an integer LSN, the chunk is decoded
    again record by record to find the culprit.  Either way the records are
    accounted in ``scan``.
    """
    try:
        records = json.loads(b"[" + b",".join(payloads) + b"]")
        if len(records) != len(payloads):
            raise ValueError("payloads do not parse one to one")
        last_lsn = max([int(record.get("lsn", 0)) for record in records])
    except (ValueError, TypeError, AttributeError):
        return _decode_each(path, payloads, offset, scan)
    scan.records += len(records)
    scan.bytes_read = end
    scan.last_lsn = max(scan.last_lsn, last_lsn)
    return records


def _decode_each(
    path: Path, payloads: Sequence[bytes], offset: int, scan: WalScan
) -> Iterator[Dict[str, Any]]:
    """Yield a chunk's good prefix, then raise for its first undecodable record."""
    for payload in payloads:
        try:
            record = json.loads(payload)
            lsn = int(record.get("lsn", 0))
        except (ValueError, TypeError, AttributeError) as exc:
            raise StoreError(
                f"{path}: the record at byte offset {offset} (the one after LSN "
                f"{scan.last_lsn}) passes its checksum but is not a JSON object "
                f"with an integer LSN: {exc}"
            ) from exc
        offset += _FRAME.size + len(payload)
        scan.records += 1
        scan.bytes_read = offset
        scan.last_lsn = max(scan.last_lsn, lsn)
        yield record
