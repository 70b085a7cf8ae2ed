#!/usr/bin/env python3
"""Regenerate the canonical obs run and gate it against ``OBS_BASELINE.json``.

Usage::

    python scripts/check_obs.py --baseline OBS_BASELINE.json
    python scripts/check_obs.py --baseline OBS_BASELINE.json --update

The canonical run is a fixed single-cache cell (poisson / invalidate /
bound 1.0 / duration 20 / obs window 2.0) replayed with telemetry on.
Unlike the throughput gate of ``benchmarks/compare.py``, nothing here is
machine-dependent: the recorder samples *simulated* time only, so the
payload is bit-for-bit reproducible on any machine and the gate is exact
JSON equality.  On drift, the window-aligned regression report from
``repro.obs.analyze.diff_payloads`` is printed to show *where* the
telemetry moved (which windows, which fields, which direction) before the
raw mismatch fails the check.

``--update`` rewrites the baseline from a fresh run — do this deliberately
when a PR intentionally changes replay behaviour or the payload schema, and
commit the result.

Exit status: 0 when the fresh payload matches the baseline exactly, 1 on
drift, 2 on a malformed or missing baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict

try:
    from repro.experiments.spec import RunCell, stable_cell_seed
except ImportError:  # bare checkout without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.spec import RunCell, stable_cell_seed

from repro.experiments.runner import run_cell
from repro.obs.analyze import diff_payloads

BASELINE_KIND = "repro-obs-baseline"

#: The canonical cell.  Changing any coordinate is a baseline schema change:
#: bump it together with an ``--update``.
CANONICAL = dict(
    policy="invalidate",
    workload="poisson",
    staleness_bound=1.0,
    duration=20.0,
    obs_window=2.0,
    base_seed=0,
)


def canonical_payload() -> Dict[str, Any]:
    """Replay the canonical cell and return its obs payload."""
    cell = RunCell(
        experiment="obs-baseline",
        cell_id=0,
        policy=CANONICAL["policy"],
        workload=CANONICAL["workload"],
        workload_params=(),
        staleness_bound=CANONICAL["staleness_bound"],
        cache_capacity=None,
        channel=None,
        duration=CANONICAL["duration"],
        seed=stable_cell_seed(
            CANONICAL["base_seed"], CANONICAL["workload"], {}, CANONICAL["duration"]
        ),
        obs_window=CANONICAL["obs_window"],
    )
    return run_cell(cell)["obs"]


def canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=Path("OBS_BASELINE.json"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from a fresh canonical run")
    args = parser.parse_args(argv)

    fresh = canonical_payload()

    if args.update:
        record = {
            "kind": BASELINE_KIND,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": CANONICAL,
            "payload": fresh,
        }
        args.baseline.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"updated {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"error: baseline {args.baseline} not found (run with --update "
              "to create it)", file=sys.stderr)
        return 2
    try:
        record = json.loads(args.baseline.read_text())
    except (OSError, ValueError) as exc:
        print(f"error reading baseline: {exc}", file=sys.stderr)
        return 2
    if record.get("kind") != BASELINE_KIND:
        print(f"error: {args.baseline} is not a {BASELINE_KIND} record",
              file=sys.stderr)
        return 2
    if record.get("config") != CANONICAL:
        print(
            f"error: {args.baseline} records the canonical cell as "
            f"{record.get('config')}, but this checker runs {CANONICAL}; "
            "refresh the baseline with --update",
            file=sys.stderr,
        )
        return 2

    baseline_payload = record.get("payload", {})
    if canonical_json(baseline_payload) == canonical_json(fresh):
        totals = fresh.get("meta", {}).get("totals", {})
        print(
            f"obs baseline check: payload identical "
            f"({len(fresh.get('windows', {}).get('rows', []))} windows, "
            f"reads={totals.get('reads', 0)})"
        )
        return 0

    print(f"FAILED: canonical obs payload drifted from {args.baseline}",
          file=sys.stderr)
    try:
        report = diff_payloads(baseline_payload, fresh)
    except ValueError as exc:
        print(f"  (window series not alignable: {exc})", file=sys.stderr)
        return 1
    print(
        f"  {report['regression_count']} regressions, "
        f"{report['improvement_count']} improvements across "
        f"{report['windows_compared']} windows",
        file=sys.stderr,
    )
    for entry in report["regressions"][:10]:
        print(
            f"  {entry['field']} worsened by {entry['severity']:g} in "
            f"t=[{entry['start']:g}, {entry['end']:g})",
            file=sys.stderr,
        )
    for field, delta in sorted(report["totals"].items()):
        print(
            f"  totals[{field}]: {delta['base']:g} -> {delta['other']:g}",
            file=sys.stderr,
        )
    print(
        "  if the change is intentional, refresh with: "
        "python scripts/check_obs.py --update",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
