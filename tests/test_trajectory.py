"""``scripts/trajectory.py``: the committed trajectory is well formed, and
``check`` refuses what it promises to refuse."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "scripts" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

CONTRACT = trajectory._contract()


def line(**fields):
    base = dict(
        pr=1, workload="steady-vector", metric="replay_req_per_s", commit=None, seed=0,
        parent_median=1e6, parent_iqr=None, change_median=2e6, change_iqr=None,
        won=3, pairs=3, box=None, source="benchmarks/run.py",
    )
    base.update(fields)
    return json.dumps(base)


def test_the_committed_trajectory_is_well_formed() -> None:
    text = trajectory.TRAJECTORY.read_text(encoding="utf-8").splitlines()
    assert trajectory.problems(text, CONTRACT) == []
    prs = {entry["pr"] for entry in trajectory.read_lines()}
    assert set(range(12, 42)) - prs <= {21, 31, 33}  # PRs whose prose gives no pair


@pytest.mark.parametrize(
    "lines, found",
    [
        ([line()], ""),
        (["{not json"], "not JSON"),
        (["[1, 2]"], "not a JSON object"),
        ([json.dumps({"pr": 1})], "missing"),
        ([line()[:-1] + ', "extra": 1}'], "unknown ['extra']"),
        ([line(workload="nowhere")], "bad workload"),
        ([line(metric="speed")], "bad metric"),
        ([line(parent_median="fast")], "bad parent_median"),
        ([line(won=4, pairs=3)], "bad won"),
        ([line(source="")], "bad source"),
        ([line(), line(parent_median=2.0)], "duplicate PR 1 steady-vector replay_req_per_s"),
    ],
)
def test_check_names_each_problem(lines, found) -> None:
    problems = trajectory.problems(lines, CONTRACT)
    if not found:
        assert problems == []
    else:
        assert len(problems) == 1 and found in problems[0], problems


def test_append_reads_result_files_and_refuses_a_second_copy(tmp_path) -> None:
    def record(requests):
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "replay_req_per_s": {"value": requests, "unit": "req/s"},
            "peak_rss_mib": {"value": 90.0, "unit": "MiB"},
        }}

    paths = {}
    for side, values in (("parent", (10.0, 12.0, 11.0)), ("change", (13.0, 11.5, 14.0))):
        paths[side] = []
        for index, value in enumerate(values):
            path = tmp_path / f"{side}-{index}.json"
            path.write_text(json.dumps(record(value)))
            paths[side].append(str(path))
    lines = trajectory.pair_lines(
        7, paths["parent"], paths["change"], workload="steady-vector", seed=0
    )
    speed = next(entry for entry in lines if entry["metric"] == "replay_req_per_s")
    assert (speed["parent_median"], speed["change_median"]) == (11.0, 13.0)
    assert (speed["won"], speed["pairs"]) == (2, 3)
    assert speed["parent_iqr"] == pytest.approx(1.0)
    rss = next(entry for entry in lines if entry["metric"] == "peak_rss_mib")
    assert (rss["won"], rss["pairs"]) == (0, 3)  # equal is not better
    target = tmp_path / "trajectory.jsonl"
    trajectory.write_lines(lines, target)
    assert trajectory.problems(target.read_text().splitlines(), CONTRACT) == []
    with pytest.raises(SystemExit, match="already holds PR 7"):
        trajectory.write_lines(lines, target)
