"""Checks of the benchmark itself, at ``--smoke`` scale.

Run with ``python -m pytest benchmarks -q``; the tier-1 ``testpaths`` do not
include this directory.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ADDITIVE = ("steady-vector", "steady-scalar", "fleet-parallel")


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    start = time.monotonic()
    done = run_benchmark("--smoke", "--out", str(out))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout
    return out, json.loads((out / "results.json").read_text()), elapsed


def test_contract_names_and_limits():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert len(CONTRACT["end_to_end"]) <= 16 and len(CONTRACT["per_layer"]) <= 128
    assert all(len(workload["why"]) <= 200 for workload in CONTRACT["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])


def test_smoke_finishes_in_time(smoke):
    assert smoke[2] < 30.0


def test_smoke_emits_every_metric_and_no_other(smoke):
    results = smoke[1]["workloads"]
    assert list(results) == [workload["name"] for workload in CONTRACT["workloads"]]
    for entry in results.values():
        for section in ("end_to_end", "per_layer"):
            assert list(entry[section]) == [metric["name"] for metric in CONTRACT[section]]
            for metric in CONTRACT[section]:
                assert entry[section][metric["name"]]["unit"] == metric["unit"]
        assert all(metric["value"] > 0 for metric in entry["end_to_end"].values())


def test_smoke_has_no_failed_replay(smoke):
    for entry in smoke[1]["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1


def test_layers_sum_to_the_traced_wall(smoke):
    for name in ADDITIVE:
        share = smoke[1]["workloads"][name]["per_layer"]["layers_sum_share"]["value"]
        assert 0.9 <= share <= 1.1


def test_trace_spans_nest(smoke):
    for workload in CONTRACT["workloads"]:
        lines = (smoke[0] / f"trace-{workload['name']}.jsonl").read_text().splitlines()
        spans = {span["id"]: span for span in map(json.loads, lines)}
        assert any(span["name"] == "rep" for span in spans.values())
        for span in spans.values():
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["rep"] == span["rep"]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            elif span["rep"] >= 0:
                assert span["name"] == "rep"


def test_wrong_expected_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected_digests.json").read_text())
    expected["smoke"]["steady-vector"]["update"] = "0" * 64
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(expected))
    done = run_benchmark(
        "--workload", "steady-vector", "--smoke",
        "--out", str(tmp_path / "out"), "--expected", str(wrong),
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
