"""Reading and writing request traces as CSV files.

The simulator consumes request streams, and experiments often want to persist
a generated workload (so that every policy is evaluated on the exact same
trace) or to load externally collected traces.  The format is a simple CSV
with header ``time,key,op,key_size,value_size``.

Both directions stream: :func:`write_trace` accepts any iterable and writes
row by row, and :func:`iter_trace` yields requests as the file is read, so a
multi-gigabyte trace replays in constant memory.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

from repro.errors import WorkloadError
from repro.workload.base import OpType, Request, Workload, check_sorted

_HEADER = ["time", "key", "op", "key_size", "value_size"]


def write_trace(requests: Iterable[Request], path: str | Path) -> int:
    """Write a request stream to ``path`` in CSV format.

    Args:
        requests: Requests to persist (any iterable; written in order).
        path: Destination file path.

    Returns:
        The number of requests written.
    """
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for request in requests:
            writer.writerow(
                [
                    # repr round-trips the float exactly; a fixed number of
                    # decimals would replay to different arrival times.
                    repr(float(request.time)),
                    request.key,
                    request.op.value,
                    request.key_size,
                    request.value_size,
                ]
            )
            count += 1
    return count


def iter_trace(path: str | Path) -> Iterator[Request]:
    """Lazily yield the requests stored in a CSV trace file.

    Rows are parsed and validated (including time-ordering) as they are
    consumed, so the full trace is never materialized.

    Raises:
        WorkloadError: If the file is missing, has an unexpected header,
            contains malformed rows (a non-finite or negative time and a
            negative size included), or is not sorted by time.
    """
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"trace file does not exist: {path}")
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise WorkloadError(f"trace file is empty: {path}") from exc
        if header != _HEADER:
            raise WorkloadError(
                f"unexpected trace header in {path}: {header!r} (expected {_HEADER!r})"
            )
        previous = float("-inf")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_HEADER):
                raise WorkloadError(
                    f"malformed row at {path}:{line_number}: expected "
                    f"{len(_HEADER)} fields, got {len(row)}"
                )
            try:
                request = Request(
                    time=float(row[0]),
                    key=row[1],
                    op=OpType(row[2]),
                    key_size=int(row[3]),
                    value_size=int(row[4]),
                )
            except (ValueError, KeyError) as exc:
                raise WorkloadError(
                    f"malformed row at {path}:{line_number}: {row!r}"
                ) from exc
            if not (
                math.isfinite(request.time)
                and request.time >= 0.0
                and request.key_size >= 0
                and request.value_size >= 0
            ):
                raise WorkloadError(
                    f"malformed row at {path}:{line_number}: time must be finite "
                    f"and non-negative, sizes non-negative, got {row!r}"
                )
            if request.time < previous:
                raise WorkloadError(
                    f"trace is not sorted by time at {path}:{line_number}: "
                    f"{request.time} < {previous}"
                )
            previous = request.time
            yield request


class TraceWorkload(Workload):
    """A workload backed by a pre-recorded trace.

    The trace can be given either as an in-memory request list or as a path to
    a CSV trace file.  Path-backed traces stream straight from disk on every
    iteration; in-memory traces are validated once at construction.
    """

    name = "trace"

    def __init__(
        self,
        requests: Sequence[Request] | None = None,
        path: str | Path | None = None,
        name: str | None = None,
    ) -> None:
        if (requests is None) == (path is None):
            raise WorkloadError("provide exactly one of 'requests' or 'path'")
        self._path: Path | None = None
        self._requests: List[Request] | None = None
        self._count: int | None = None
        if path is not None:
            self._path = Path(path)
            if not self._path.exists():
                raise WorkloadError(f"trace file does not exist: {self._path}")
        else:
            self._requests = list(requests or [])
            check_sorted(self._requests)
        if name is not None:
            self.name = name

    def __len__(self) -> int:
        if self._requests is not None:
            return len(self._requests)
        # Path-backed traces stream; counting takes one pass over the file,
        # cached so repeated len() calls do not re-parse a huge trace.
        if self._count is None:
            self._count = sum(1 for _ in iter_trace(self._path))
        return self._count

    def iter_requests(self, duration: float | None = None) -> Iterator[Request]:
        """Lazily yield the trace, truncated to ``duration`` seconds if given."""
        if self._requests is not None:
            source: Iterable[Request] = iter(self._requests)
        else:
            source = iter_trace(self._path)
        for request in source:
            if duration is not None and request.time >= duration:
                # The stream is time-ordered, so nothing later can qualify.
                break
            yield request

    def generate(self, duration: float | None = None) -> List[Request]:
        """Return the trace, truncated to ``duration`` seconds if given."""
        return list(self.iter_requests(duration))
