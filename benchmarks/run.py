"""Run the replay benchmark defined by ``BENCHMARK.json``.

``python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Without ``--workload`` it runs all six workloads both ways, prints every
metric and writes ``<out>/results.json`` for ``compare.py``.

Each measurement happens in fresh child processes of this script, so peak
RSS and set-up time belong to one workload.  An untraced run starts three
children one after the other: each sets up (interpreter start, imports,
workload construction, one warm-up repetition) and then repeats the
identical work for a third of ``--seconds``.  Timings are medians over all
their repetitions; ``setup_s`` is the median of the three set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Set-ups (child processes) per untraced run.
SETUPS = 3
#: Timed repetitions every child makes even when its time share is spent.
MIN_REPS = 2


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------------- #
# Child: one set-up, then timed repetitions of one workload
# --------------------------------------------------------------------------- #
def child_untraced(
    workload, calibrator, seconds: float, spawned_at: float, verify: bool
) -> Dict[str, Any]:
    workload.prepare()
    warm = workload.rep()
    setup_s = (time.monotonic() - spawned_at) / calibrator.factor()
    walls: List[float] = []
    cpus: List[float] = []
    failed = 0
    rss_mib = 0.0
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        workload.prepare()
        calibrator.reset()
        cpu_start, start = cpu_seconds(), time.perf_counter()
        rep = workload.rep()
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        slowdown = calibrator.factor()
        walls.append(wall / slowdown)
        cpus.append(cpu / slowdown)
        failed += rep.mismatches(warm)
        if len(walls) == MIN_REPS:
            # Memory creeps up with every repetition, so the peak is read
            # after a fixed amount of work, not after however many fitted.
            rss_mib = peak_rss_mib()
    return {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "requests": warm.requests,
        "rss_mib": rss_mib,
        "digests": warm.digests,
        "attempted": len(warm.digests) * (1 + len(walls)),
        "failed": failed,
        "problems": workload.verify(rep) if verify else [],
    }


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import calibrate

    calibrator = calibrate.Calibrator()
    calibrator.start()
    import workloads

    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.out, prefix="scratch-")
    try:
        divisor = workloads.SMOKE_DIVISOR if args.smoke else 1
        workload = workloads.WORKLOADS[args.workload](args.seed, divisor, scratch)
        if args.trace:
            import layers

            names = [metric["name"] for metric in load_contract()["per_layer"]]
            result = layers.child_traced(
                workload, calibrator, names, args.seconds, args.out, args.verify
            )
        else:
            result = child_untraced(
                workload, calibrator, args.seconds, args.spawned_at, args.verify
            )
    finally:
        calibrator.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# Parent: spawn the children, fold their numbers, check the rows
# --------------------------------------------------------------------------- #
def spawn(args: argparse.Namespace, name: str, seconds: float, verify: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--out", args.out,
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        command.append("--smoke")
    if verify:
        command.append("--verify")
    # A fixed hash seed takes dict-layout luck out of the timings; the rows
    # do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(samples: List[float], unit: str) -> Dict[str, Any]:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def run_workload(
    args: argparse.Namespace, contract: Dict[str, Any], name: str, expected: Optional[Dict]
) -> Dict[str, Any]:
    """Measure one workload; returns the result with per-metric summaries."""
    if args.trace:
        children = [spawn(args, name, args.seconds, verify=True)]
        metrics = {
            metric["name"]: {"value": children[0]["per_layer"][metric["name"]], "unit": metric["unit"]}
            for metric in contract["per_layer"]
        }
    else:
        setups = 1 if args.smoke else SETUPS
        children = [
            spawn(args, name, args.seconds / setups, verify=index == 0)
            for index in range(setups)
        ]
        requests = children[0]["requests"]
        samples = {
            "replay_req_per_s": [requests / wall for child in children for wall in child["walls"]],
            "cpu_s_per_mreq": [cpu / requests * 1e6 for child in children for cpu in child["cpus"]],
            "peak_rss_mib": [child["rss_mib"] for child in children],
            "setup_s": [child["setup_s"] for child in children],
        }
        metrics = {
            metric["name"]: summary(samples[metric["name"]], metric["unit"])
            for metric in contract["end_to_end"]
        }
    digests = children[0]["digests"]
    problems = [problem for child in children for problem in child["problems"]]
    failed = sum(child["failed"] for child in children)
    if any(child["digests"] != digests for child in children):
        problems.append("rows differ between set-ups")
    if expected is not None:
        wrong = sum(1 for label, value in expected.items() if digests.get(label) != value)
        if wrong or len(digests) != len(expected):
            problems.append(f"{wrong} rows differ from expected_digests.json")
            failed += max(wrong, 1)
    return {
        "correct": failed == 0 and not problems,
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "metrics": metrics,
        "digests": digests,
        "problems": problems,
    }


def contract_line(result: Dict[str, Any]) -> str:
    """The one-line JSON object the driver reads."""
    metrics = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for name, metric in result["metrics"].items()
    }
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}
    )


def show(name: str, result: Dict[str, Any]) -> None:
    for metric, entry in result["metrics"].items():
        spread = (
            f"  (median of n={entry['n']}, min {entry['min']:.6g}, max {entry['max']:.6g})"
            if "n" in entry else ""
        )
        print(f"{name:16s} {metric:34s} {entry['value']:>14.6g} {entry['unit']}{spread}")
    share = result["failed"] / result["attempted"]
    print(f"{name:16s} {'failed_share':34s} {share:>14.6g} of {result['attempted']} replays")
    for problem in result["problems"]:
        print(f"{name}: INCORRECT: {problem}", file=sys.stderr)


def load_expected(args: argparse.Namespace, name: str) -> Optional[Dict[str, str]]:
    """Committed digests exist for seed 0 only; other seeds check engines and reps."""
    if args.seed != 0:
        return None
    with open(args.expected, encoding="utf-8") as handle:
        return json.load(handle)["smoke" if args.smoke else "full"][name]


def write_expected(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    args.seed, args.trace, args.seconds = 0, 0, 0.0
    document: Dict[str, Any] = {}
    for scale in ("full", "smoke"):
        args.smoke = scale == "smoke"
        document[scale] = {}
        for workload in contract["workloads"]:
            result = run_workload(args, contract, workload["name"], None)
            if not result["correct"]:
                show(workload["name"], result)
                return 1
            document[scale][workload["name"]] = result["digests"]
    with open(args.expected, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all six, untraced then traced")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, help="how long one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="request counts / 20, one set-up, two repetitions")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for traces, results.json and scratch files")
    parser.add_argument("--expected", default=str(HERE / "expected_digests.json"),
                        help="row digests the seed-0 rows must equal")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate --expected from this checkout and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.write_expected:
        return write_expected(args, contract)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.smoke:
        args.seconds = 0.0

    if args.workload is not None:
        result = run_workload(args, contract, args.workload, load_expected(args, args.workload))
        show(args.workload, result)
        print(contract_line(result))
        return 0 if result["correct"] else 1

    document: Dict[str, Any] = {
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds, "workloads": {}
    }
    correct = True
    for name in names:
        entry: Dict[str, Any] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args.trace = trace
            result = run_workload(args, contract, name, load_expected(args, name))
            show(name, result)
            correct = correct and result["correct"]
            entry[section] = result["metrics"]
            if trace == 0:
                entry.update({key: result[key] for key in ("correct", "attempted", "failed")})
        document["workloads"][name] = entry
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
