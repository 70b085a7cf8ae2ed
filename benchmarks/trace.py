"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/`` is instrumented.  They
stay in memory while the run measures and are written out once at the end.
Only ``layers.py`` imports this module, so an untraced run never loads it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple


class Tracer:
    """Records nested spans: name, start, end, parent span and repetition id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: Repetition the next spans belong to; probes outside a repetition
        #: record under -1.
        self.rep = -1

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first: int = 0) -> Dict[Tuple[int, str], float]:
        """Self time per ``(rep, name)`` over the spans from id ``first`` on:
        a span's duration minus the part of it its direct children cover,
        summed over the spans of that name."""
        spans = self.spans[first:]
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[Tuple[int, str], float] = defaultdict(float)
        for span in spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[(span["rep"], span["name"])] += own
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
