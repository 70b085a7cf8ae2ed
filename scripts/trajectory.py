#!/usr/bin/env python3
"""The benchmark trajectory: every PR's parent-vs-change figures, one file.

``BENCH_TRAJECTORY.jsonl`` at the repository root holds one JSON object a
line, one line per (PR, workload, metric)::

    {"pr": 42, "workload": "steady-vector", "metric": "replay_req_per_s",
     "commit": null, "seed": 0, "parent_median": 3.9e7, "parent_iqr": 5.1e5,
     "change_median": 4.4e7, "change_iqr": 6.0e5, "won": 10, "pairs": 10,
     "box": "x86_64, 2 CPUs, Python 3.11.7", "source": "benchmarks/run.py"}

``commit`` is ``null``: a line written with its change cannot name the
commit it lands in.  ``box`` is the machine ``append`` ran on, ``won``
counts the pairs in which the change was better in the metric's direction
(``BENCHMARK.json``), and
``source`` says where the figures come from: ``benchmarks/run.py`` for lines
made by ``append``, ``CHANGES.md`` for lines copied from its prose.  A field
the source does not give is ``null``.

Usage::

    python scripts/trajectory.py append --pr N --parent A.json... --change B.json...
    python scripts/trajectory.py show
    python scripts/trajectory.py check

``append`` reads ``benchmarks/run.py`` result files: the ``results.json`` of
a full run, or the record a ``--workload W`` run prints last (then give
``--workload W``).  The i-th parent file and the i-th change file are one
pair; a metric that reads 0 in every run (a layer the workload does not
have) gets no line.  ``check`` exits 1 on a malformed line, a missing or unknown field or
a duplicate (PR, workload, metric).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.jsonl"

#: Every line's fields, in the order a line is written.
FIELDS = (
    "pr", "workload", "metric", "commit", "seed",
    "parent_median", "parent_iqr", "change_median", "change_iqr",
    "won", "pairs", "box", "source",
)
_NUMBERS = ("parent_median", "parent_iqr", "change_median", "change_iqr")
_COUNTS = ("seed", "won", "pairs")
_TEXTS = ("commit", "box")


def _contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _directions(contract: Dict[str, Any]) -> Dict[str, str]:
    """Each metric of the contract, end to end and per layer: which way is better."""
    return {
        metric["name"]: metric["better"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }


def read_lines(path: Path = TRAJECTORY) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def problems(lines: Iterable[str], contract: Dict[str, Any]) -> List[str]:
    """What is wrong with the trajectory's lines, one message each."""
    workloads = {workload["name"] for workload in contract["workloads"]}
    metrics = _directions(contract)
    found: List[str] = []
    seen = set()
    for number, text in enumerate(lines, 1):
        if not text.strip():
            continue
        try:
            line = json.loads(text)
        except json.JSONDecodeError as error:
            found.append(f"line {number}: not JSON ({error.msg})")
            continue
        if not isinstance(line, dict):
            found.append(f"line {number}: not a JSON object")
            continue
        missing = [field for field in FIELDS if field not in line]
        unknown = sorted(set(line) - set(FIELDS))
        if missing or unknown:
            found.append(f"line {number}: missing {missing}, unknown {unknown}")
            continue
        wrong = []
        if not (isinstance(line["pr"], int) and line["pr"] >= 0):
            wrong.append("pr")
        if line["workload"] not in workloads:
            wrong.append("workload")
        if line["metric"] not in metrics:
            wrong.append("metric")
        for field in _NUMBERS:
            value = line[field]
            if value is not None and not (
                isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)
            ):
                wrong.append(field)
        for field in _COUNTS:
            value = line[field]
            if value is not None and not (isinstance(value, int) and value >= 0):
                wrong.append(field)
        for field in _TEXTS:
            if line[field] is not None and not isinstance(line[field], str):
                wrong.append(field)
        if not (isinstance(line["source"], str) and line["source"]):
            wrong.append("source")
        if not wrong and None not in (line["won"], line["pairs"]) and line["won"] > line["pairs"]:
            wrong.append("won")
        if wrong:
            found.append(f"line {number}: bad {', '.join(wrong)}")
            continue
        key = (line["pr"], line["workload"], line["metric"])
        if key in seen:
            found.append(f"line {number}: duplicate PR {key[0]} {key[1]} {key[2]}")
        seen.add(key)
    return found


def _quartiles(values: List[float]) -> Tuple[float, Optional[float]]:
    """Median and inter-quartile range (``None`` for a single value)."""
    if len(values) < 2:
        return values[0], None
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), high - low


def _metrics(path: str, workload: Optional[str]) -> Dict[str, Dict[str, float]]:
    """A result file's metric values, by workload."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "workloads" in document:
        return {
            name: {
                metric: values["value"]
                for section in ("end_to_end", "per_layer")
                for metric, values in entry.get(section, {}).items()
            }
            for name, entry in document["workloads"].items()
        }
    if workload is None:
        raise SystemExit(f"{path}: a one-workload record; name its workload with --workload")
    return {workload: {metric: values["value"] for metric, values in document["metrics"].items()}}


def pair_lines(
    pr: int,
    parents: List[str],
    changes: List[str],
    workload: Optional[str] = None,
    seed: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """The trajectory lines of one PR's alternating parent/change runs."""
    if not parents or len(parents) != len(changes):
        raise SystemExit("give as many --parent files as --change files, at least one")
    directions = _directions(_contract())
    parent_runs = [_metrics(path, workload) for path in parents]
    change_runs = [_metrics(path, workload) for path in changes]
    lines = []
    for name in parent_runs[0]:
        for metric in parent_runs[0][name]:
            if metric not in directions:
                continue
            before = [run[name][metric] for run in parent_runs]
            after = [run[name][metric] for run in change_runs]
            if not any(before + after):
                continue  # a layer this workload does not have
            sign = 1 if directions[metric] == "higher" else -1
            parent_median, parent_iqr = _quartiles(before)
            change_median, change_iqr = _quartiles(after)
            lines.append(dict(
                pr=pr, workload=name, metric=metric, commit=None, seed=seed,
                parent_median=parent_median, parent_iqr=parent_iqr,
                change_median=change_median, change_iqr=change_iqr,
                won=sum(sign * (new - old) > 0 for old, new in zip(before, after)),
                pairs=len(before),
                box=f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}",
                source="benchmarks/run.py",
            ))
    return lines


def write_lines(lines: List[Dict[str, Any]], path: Path = TRAJECTORY) -> None:
    """Append ``lines`` in field order; refuse any (PR, workload, metric) the
    file already holds."""
    held = {(line["pr"], line["workload"], line["metric"]) for line in read_lines(path)}
    clash = [line for line in lines if (line["pr"], line["workload"], line["metric"]) in held]
    if clash:
        raise SystemExit(f"{path.name} already holds PR {clash[0]['pr']} "
                         f"{clash[0]['workload']} {clash[0]['metric']}")
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps({field: line[field] for field in FIELDS}) + "\n")


def _figure(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return f"{value / 1e6:.2f}M" if abs(value) >= 1e6 else f"{value:.4g}"


def show() -> None:
    """Each workload's series, one metric after another, PR by PR."""
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for line in read_lines():
        series.setdefault((line["workload"], line["metric"]), []).append(line)
    for (name, measure), lines in sorted(series.items()):
        print(f"{name} {measure}")
        for line in sorted(lines, key=lambda line: line["pr"]):
            before, after = line["parent_median"], line["change_median"]
            change = f"{100 * (after / before - 1):+.1f} %" if before and after else "?"
            won = "" if line["pairs"] is None else (
                f", {'?' if line['won'] is None else line['won']}/{line['pairs']}"
            )
            print(f"  PR {line['pr']:>3}: {_figure(before):>9} -> {_figure(after):<9} "
                  f"({change}{won})  [{line['source']}]")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    append = commands.add_parser("append", help="add one PR's parent/change pairs")
    append.add_argument("--pr", type=int, required=True)
    append.add_argument("--parent", nargs="+", required=True, metavar="A.json")
    append.add_argument("--change", nargs="+", required=True, metavar="B.json")
    append.add_argument("--workload", help="the workload of one-workload records")
    append.add_argument("--seed", type=int, help="the seed the runs used")
    commands.add_parser("show", help="print each workload's series")
    commands.add_parser("check", help="exit 1 on a malformed, incomplete or duplicate line")
    args = parser.parse_args(argv)
    if args.command == "append":
        write_lines(pair_lines(args.pr, args.parent, args.change, args.workload, args.seed))
        return 0
    if args.command == "show":
        show()
        return 0
    if not TRAJECTORY.exists():
        print(f"{TRAJECTORY.name} is missing", file=sys.stderr)
        return 1
    found = problems(TRAJECTORY.read_text(encoding="utf-8").splitlines(), _contract())
    for problem in found:
        print(f"{TRAJECTORY.name}: {problem}", file=sys.stderr)
    if not found:
        print(f"{TRAJECTORY.name}: {len(read_lines())} lines, no problem")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
