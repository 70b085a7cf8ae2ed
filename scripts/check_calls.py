#!/usr/bin/env python3
"""Gate the exact work counts of ``python -m repro perf`` against ``PERF_CALLS.json``.

Usage::

    python scripts/check_calls.py
    python scripts/check_calls.py --update

A fresh ``repro perf`` run at the committed scale is compared, count by
count, with ``PERF_CALLS.json``: the profiled calls per request of the
single cache, the fleet and the stateful fleet (one per policy), the state
objects the reactive cuts and the TTL cut build, the datastore histories
and the node state objects a columnar ``run()`` builds (single cache and
fleet, one per policy),
a sweep's cut lookups, cut builds, table hits, kernel calls and flushes, and
the census's requests per envelope row (and on the kernels).  They are
counts, not clocks, so a run on the interpreter they were recorded with
(CPython 3.11; 3.12's cProfile counts on ``sys.monitoring``) gives them
exactly, and any count that moves — up or down — is a change to say
something about.  Each one that differs is printed.

``--update`` rewrites the file from a fresh run: do it deliberately, when a
change moves a count on purpose, and commit the result.

Exit status: 0 when every count equals the committed one, 1 when one
differs, 2 on a missing or malformed file or another interpreter.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

try:
    from repro.perf import run_perf
except ImportError:  # bare checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.perf import run_perf

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ROOT / "PERF_CALLS.json"
KIND = "repro-perf-calls"

#: The interpreter the counts are exact on, and the scale they are run at.
PYTHON = (3, 11)
SCALE = 0.05

#: The gated fields of each ``repro perf`` row.
FIELDS: Dict[str, tuple] = {
    "replay-single": ("calls_per_request",),
    "replay-cluster": ("calls_per_request",),
    "replay-stateful": ("calls_per_request",),
    "span-kernel-tight": (
        "batches", "kernel_calls", "fleet_kernel_calls",
        "span_objects", "fleet_span_objects", "histories_built", "fleet_histories_built",
        "objects_built", "fleet_objects_built",
    ),
    "ttl-kernels": ("ttl_objects", "sweep_kernel_calls"),
    "trace-index": (
        "sweep_cut_lookups", "sweep_cut_builds", "sweep_table_hits",
        "sweep_kernel_calls", "sweep_flush_calls",
    ),
    "census": ("requests",),
}


def fresh_counts() -> Dict[str, float]:
    """The gated counts of a fresh run, flat: ``row.field`` or, for a
    per-policy (per-row) field, ``row.field.policy`` (``row.field.row``)."""
    counts: Dict[str, float] = {}
    for row in run_perf(names=list(FIELDS), scale=SCALE)["results"]:
        for field in FIELDS[row["name"]]:
            value = row[field]
            name = f"{row['name']}.{field}"
            if isinstance(value, dict):
                counts.update((f"{name}.{policy}", each) for policy, each in value.items())
            else:
                counts[name] = value
    return counts


def differences(committed: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """One line per count that is not exactly the committed one, in the
    committed order, then the counts the file does not hold."""
    lines = []
    for name, value in committed.items():
        if name not in fresh:
            lines.append(f"{name}: {value!r} committed, not counted")
        elif fresh[name] != value:
            lines.append(f"{name}: {value!r} committed, {fresh[name]!r} counted")
    lines.extend(
        f"{name}: not committed, {value!r} counted"
        for name, value in fresh.items()
        if name not in committed
    )
    return lines


def load() -> Dict[str, Any]:
    """The committed counts.

    Raises:
        ValueError: If the file is not a counts record of this scale.
    """
    record = json.loads(COUNTS.read_text(encoding="utf-8"))
    if not (
        isinstance(record, dict)
        and record.get("kind") == KIND
        and record.get("scale") == SCALE
        and isinstance(record.get("counts"), dict)
    ):
        raise ValueError(f"{COUNTS.name} is not a {KIND} record at scale {SCALE}")
    return record["counts"]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the file from a fresh run")
    args = parser.parse_args(argv)
    if sys.version_info[:2] != PYTHON:
        print(f"the counts are exact on CPython {'.'.join(map(str, PYTHON))}, "
              f"not {sys.version.split()[0]}")
        return 2
    fresh = fresh_counts()
    if args.update:
        record = dict(kind=KIND, python=".".join(map(str, PYTHON)), scale=SCALE, counts=fresh)
        COUNTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(fresh)} counts to {COUNTS.name}")
        return 0
    try:
        committed = load()
    except (OSError, ValueError) as error:
        print(error)
        return 2
    lines = differences(committed, fresh)
    for line in lines:
        print(line)
    print(f"{len(committed)} counts committed, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
