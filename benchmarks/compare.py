"""Compare two result sets of ``run.py`` against the bounds of ``BENCHMARK.json``.

``python3 benchmarks/compare.py A.json B.json`` prints, per workload and
end-to-end metric, both medians, the ratio B / A (base: A) and a verdict:

* ``ok``: B's median is no worse than A's by more than the metric's bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: it is worse by more than the bound, but the min-max ranges
  of the two sets overlap by more than the bound, so the runs cannot tell.

Simulated statistics and counts repeat exactly for one seed; the ones that
differ are listed as ``changed``, which is information and not a verdict (the
row digests are what gates correctness).  Exits 1 on any ``regressed`` and on
any rise in the share of failed replays.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: Units of per-layer metrics that are simulated or counted, not timed.
EXACT_UNITS = ("count", "bytes", "sim.ratio")


def verdict(metric: Dict[str, Any], a: Dict[str, float], b: Dict[str, float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by <= metric["bound"]:
        return "ok"
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    return "unresolved" if overlap / a["value"] > metric["bound"] else "regressed"


def failed_share(entry: Dict[str, Any]) -> float:
    return entry["failed"] / entry["attempted"]


def compare(contract: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> int:
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        print("warning: the two sets were run with different --seed or --smoke")
    status = 0
    exact = [m["name"] for m in contract["per_layer"] if m["unit"] in EXACT_UNITS]
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} {'B/A':>7s}  verdict")
    for workload in contract["workloads"]:
        name = workload["name"]
        before, after = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            old = before["end_to_end"][metric["name"]]
            new = after["end_to_end"][metric["name"]]
            result = verdict(metric, old, new)
            status |= result == "regressed"
            print(
                f"{name:16s} {metric['name']:18s} {old['value']:12.6g} {new['value']:12.6g} "
                f"{new['value'] / old['value']:7.3f}  {result} "
                f"({metric['better']} is better, bound {metric['bound']:.0%} of A)"
            )
        old_share, new_share = failed_share(before), failed_share(after)
        rose = new_share > old_share
        status |= rose
        print(
            f"{name:16s} {'failed_share':18s} {old_share:12.6g} {new_share:12.6g} "
            f"{'':7s}  {'regressed' if rose else 'ok'} (base: replays attempted)"
        )
        changed: List[str] = [
            metric for metric in exact
            if before["per_layer"][metric]["value"] != after["per_layer"][metric]["value"]
        ]
        print(
            f"{name:16s} {len(exact) - len(changed)} of {len(exact)} simulated statistics "
            f"and counts equal" + "".join(f"\n  changed: {metric}" for metric in changed)
        )
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    documents = []
    for path in [root / "BENCHMARK.json", *argv]:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
