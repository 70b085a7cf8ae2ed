"""Tests for the post-hoc analysis layer: diff, anomalies, SLOs, reports.

The pinned acceptance scenario: a node-failure cluster run diffed against
its no-scenario twin must flag the stale-serve regression inside the outage
windows, annotated with the scenario's fail/detect/recover lifecycle — and
a run diffed against itself must report nothing at all.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.scenarios import SCENARIO_FACTORIES
from repro.errors import ConfigurationError
from repro.experiments.runner import run_cell, run_experiment
from repro.experiments.spec import ExperimentSpec, RunCell, stable_cell_seed
from repro.obs.analyze import (
    ANOMALY_FIELDS,
    dense_rows,
    detect_anomalies,
    diff_payloads,
    lifecycle_events,
    nearest_event,
    phase_at,
)
from repro.obs.recorder import ObsConfig
from repro.obs.report import render_report
from repro.obs.slo import (
    canonical_rules,
    evaluate_slo,
    load_rules,
    validate_rules,
)
from repro.workload.poisson import PoissonZipfWorkload


def _cluster_payload(scenario: bool = True, duration: float = 60.0) -> dict:
    """The node-failure fixture from test_obs.py: 3 nodes, fail at t=24."""
    workload = PoissonZipfWorkload(num_keys=200, rate_per_key=5.0, seed=3)
    simulation = ClusterSimulation(
        workload=workload.iter_requests(duration),
        policy="invalidate",
        num_nodes=3,
        staleness_bound=1.0,
        scenario=SCENARIO_FACTORIES["node-failure"]() if scenario else None,
        duration=duration,
        workload_name=workload.name,
        seed=3,
        obs=ObsConfig(window=2.0),
    )
    return simulation.run().as_dict()["obs"]


@pytest.fixture(scope="module")
def failure_payload() -> dict:
    return _cluster_payload(scenario=True)


@pytest.fixture(scope="module")
def steady_payload() -> dict:
    return _cluster_payload(scenario=False)


def _single_cell(slo_rules=None, obs_window=2.0) -> RunCell:
    return RunCell(
        experiment="analyze-test",
        cell_id=0,
        policy="invalidate",
        workload="poisson",
        workload_params=(),
        staleness_bound=1.0,
        cache_capacity=None,
        channel=None,
        duration=20.0,
        seed=stable_cell_seed(0, "poisson", {}, 20.0),
        obs_window=obs_window,
        slo_rules=slo_rules,
    )


# --------------------------------------------------------------------- #
# Run diff
# --------------------------------------------------------------------- #

class TestDiff:
    def test_self_diff_reports_nothing(self, failure_payload) -> None:
        report = diff_payloads(failure_payload, failure_payload)
        assert report["kind"] == "repro-obs-diff"
        assert report["regression_count"] == 0
        assert report["improvement_count"] == 0
        assert report["regressions"] == []
        assert report["totals"] == {}

    def test_failure_run_vs_steady_flags_outage_stale_serves(
        self, failure_payload, steady_payload
    ) -> None:
        report = diff_payloads(steady_payload, failure_payload)
        assert report["regression_count"] > 0
        stale = [
            entry
            for entry in report["regressions"]
            if entry["field"] == "staleness_violations"
        ]
        # NodeFailureScenario: fail at t=24, detect at t=28 — the stale
        # serves land in the outage windows and nowhere else.
        assert stale, "stale-serve regression must be flagged"
        for entry in stale:
            assert 24.0 <= entry["start"] < 28.0
            assert entry["severity"] > 0
            assert entry["phase"] == "fail"
            assert entry["event"]["kind"] == "scenario"
            assert entry["event"]["label"] in ("fail", "detect", "recover")
            # Node attribution: the failed primary serves the stale reads.
            assert entry["node"] == "node-000"
            assert entry["node_delta"] > 0

    def test_regressions_are_ranked_by_score(self, failure_payload, steady_payload) -> None:
        report = diff_payloads(steady_payload, failure_payload)
        scores = [entry["score"] for entry in report["regressions"]]
        assert scores == sorted(scores, reverse=True)

    def test_totals_delta_is_oriented(self, failure_payload, steady_payload) -> None:
        report = diff_payloads(steady_payload, failure_payload)
        assert report["totals"]["staleness_violations"]["delta"] > 0

    def test_min_relative_filters_noise(self, failure_payload, steady_payload) -> None:
        full = diff_payloads(steady_payload, failure_payload)
        filtered = diff_payloads(
            steady_payload, failure_payload, min_relative=10.0
        )
        assert filtered["regression_count"] < full["regression_count"]

    def test_rejects_foreign_payloads(self, failure_payload) -> None:
        with pytest.raises(ValueError, match="not a repro-obs payload"):
            diff_payloads({"kind": "nope"}, failure_payload)
        with pytest.raises(ValueError, match="not a repro-obs payload"):
            diff_payloads(failure_payload, {"kind": "nope"})

    def test_rejects_mismatched_window_widths(self, failure_payload) -> None:
        other = _cluster_payload(scenario=False, duration=10.0)
        other = json.loads(json.dumps(other))
        other["windows"]["window"] = 5.0
        with pytest.raises(ValueError, match="different window widths"):
            diff_payloads(failure_payload, other)


class TestDenseRows:
    def test_fills_missing_windows_with_zeros(self, failure_payload) -> None:
        payload = json.loads(json.dumps(failure_payload))
        rows = payload["windows"]["rows"]
        removed = rows.pop(3)
        dense = dense_rows(payload)
        indices = [row["index"] for row in dense]
        assert indices == list(range(min(indices), max(indices) + 1))
        filler = dense[indices.index(removed["index"])]
        assert filler["reads"] == 0 and filler["hit_rate"] == 0.0
        assert filler["start"] == removed["start"]

    def test_empty_payload_yields_no_rows(self) -> None:
        assert dense_rows({"windows": {"window": 1.0, "rows": []}}) == []


class TestLifecycleAnnotation:
    def test_phase_tracks_scenario_labels(self, failure_payload) -> None:
        events = lifecycle_events(failure_payload)
        assert phase_at(events, 0.0) == "steady"
        assert phase_at(events, 25.0) == "fail"
        assert phase_at(events, 59.0) == "recover"

    def test_nearest_event_prefers_closest(self, failure_payload) -> None:
        events = lifecycle_events(failure_payload)
        near_fail = nearest_event(events, 24.1)
        assert near_fail["kind"] == "scenario" and near_fail["label"] == "fail"
        assert nearest_event([], 10.0) is None


# --------------------------------------------------------------------- #
# Anomaly detection
# --------------------------------------------------------------------- #

class TestAnomalies:
    def test_flags_stale_serve_spike_in_outage(self, failure_payload) -> None:
        anomalies = detect_anomalies(failure_payload)
        spikes = [
            record
            for record in anomalies
            if record["type"] == "spike" and record["field"] == "staleness_violations"
        ]
        assert spikes, "the outage stale-serve spike must be flagged"
        for record in spikes:
            assert 24.0 <= record["start"] < 28.0
            assert record["phase"] == "fail"
            assert record["event"]["kind"] in ("scenario", "rebalance")

    def test_annotated_with_nearest_scenario_event(self, failure_payload) -> None:
        anomalies = detect_anomalies(failure_payload)
        assert anomalies
        top = anomalies[0]
        assert top["event"] is not None
        assert {"kind", "label", "time", "node"} <= set(top["event"])

    def test_steady_run_has_no_outage_spikes(self, steady_payload) -> None:
        anomalies = detect_anomalies(steady_payload)
        assert not any(
            record["field"] in ("staleness_violations", "messages_dropped", "failed_fetches")
            for record in anomalies
        )

    def test_change_point_catches_warmup_regime(self, steady_payload) -> None:
        changes = [
            record
            for record in detect_anomalies(steady_payload)
            if record["type"] == "change-point" and record["field"] == "cold_misses"
        ]
        # Cold misses collapse once the cache warms: a change point early on.
        assert changes and changes[0]["index"] <= 2

    def test_deterministic(self, failure_payload) -> None:
        first = detect_anomalies(failure_payload)
        second = detect_anomalies(json.loads(json.dumps(failure_payload)))
        assert first == second

    def test_field_filter_and_threshold(self, failure_payload) -> None:
        only = detect_anomalies(failure_payload, fields=("staleness_violations",))
        assert only and all(r["field"] == "staleness_violations" for r in only)
        strict = detect_anomalies(failure_payload, threshold=1000.0)
        assert strict == []

    def test_rejects_bad_parameters(self, failure_payload) -> None:
        with pytest.raises(ValueError, match="trailing"):
            detect_anomalies(failure_payload, trailing=0)
        with pytest.raises(ValueError, match="threshold"):
            detect_anomalies(failure_payload, threshold=0.0)

    def test_anomaly_fields_catalog_is_directional(self) -> None:
        assert "staleness_violations" in ANOMALY_FIELDS
        assert "hit_rate" in ANOMALY_FIELDS
        assert "reads" not in ANOMALY_FIELDS  # neutral traffic volume


# --------------------------------------------------------------------- #
# SLO rules engine
# --------------------------------------------------------------------- #

def _passing_rules() -> list:
    return [
        {"type": "hit_ratio_floor", "min": 0.1, "scope": "total"},
        {"type": "staleness_rate_ceiling", "max": 1.0},
        {"type": "counter_ceiling", "field": "messages_dropped", "max": 1e9},
        {
            "type": "histogram_quantile_ceiling",
            "metric": "wal_sync_seconds",
            "quantile": 0.99,
            "max": 1.0,
            "allow_missing": True,
        },
        {"type": "max_anomalies", "max": 10000},
    ]


class TestSloEngine:
    def test_all_rule_types_pass_on_generous_thresholds(self, failure_payload) -> None:
        verdict = evaluate_slo(failure_payload, _passing_rules())
        assert verdict["kind"] == "repro-obs-slo"
        assert verdict["passed"] is True
        assert verdict["violations"] == []
        assert len(verdict["verdicts"]) == 5
        assert all(row["ok"] for row in verdict["verdicts"])

    def test_violations_fail_with_observed_values(self, failure_payload) -> None:
        verdict = evaluate_slo(
            failure_payload,
            [
                {"name": "impossible-hits", "type": "hit_ratio_floor", "min": 1.0},
                {"name": "zero-stale", "type": "staleness_rate_ceiling", "max": 0.0},
                {"name": "no-anomalies", "type": "max_anomalies", "max": 0},
            ],
        )
        assert verdict["passed"] is False
        assert verdict["violations"] == ["impossible-hits", "zero-stale", "no-anomalies"]
        stale = verdict["verdicts"][1]
        assert stale["observed"] > 0 and "ceiling" in stale["detail"]

    def test_missing_histogram_is_a_violation_unless_allowed(self, failure_payload) -> None:
        rule = {
            "type": "histogram_quantile_ceiling",
            "metric": "wal_sync_seconds",
            "quantile": 0.99,
            "max": 1.0,
        }
        assert evaluate_slo(failure_payload, [rule])["passed"] is False
        assert (
            evaluate_slo(failure_payload, [dict(rule, allow_missing=True)])["passed"]
            is True
        )

    def test_window_scope_hit_ratio_reports_worst_window(self, failure_payload) -> None:
        verdict = evaluate_slo(
            failure_payload,
            [{"type": "hit_ratio_floor", "min": 0.99, "scope": "window", "warmup": 2}],
        )
        (row,) = verdict["verdicts"]
        assert row["ok"] is False
        assert "worst window" in row["detail"]

    def test_precomputed_anomalies_are_reused(self, failure_payload) -> None:
        anomalies = detect_anomalies(failure_payload)
        verdict = evaluate_slo(
            failure_payload,
            [{"type": "max_anomalies", "max": 0}],
            anomalies=anomalies,
        )
        (row,) = verdict["verdicts"]
        assert row["observed"] == len(anomalies)

    def test_validation_rejects_bad_rules(self) -> None:
        with pytest.raises(ValueError, match="unknown type"):
            validate_rules([{"type": "nope"}])
        with pytest.raises(ValueError, match="must be a number"):
            validate_rules([{"type": "hit_ratio_floor", "min": "high"}])
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            validate_rules([{"type": "hit_ratio_floor", "min": 2.0}])
        with pytest.raises(ValueError, match="duplicate"):
            validate_rules(
                [
                    {"name": "x", "type": "staleness_rate_ceiling", "max": 1.0},
                    {"name": "x", "type": "staleness_rate_ceiling", "max": 2.0},
                ]
            )
        with pytest.raises(ValueError, match="scope"):
            validate_rules([{"type": "hit_ratio_floor", "min": 0.5, "scope": "fleet"}])

    def test_default_names_are_descriptive(self) -> None:
        rules = validate_rules(
            [{"type": "counter_ceiling", "field": "messages_dropped", "max": 0}]
        )
        assert rules[0]["name"] == "counter_ceiling:messages_dropped"

    def test_load_rules_accepts_list_and_wrapper(self, tmp_path) -> None:
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([{"type": "staleness_rate_ceiling", "max": 1.0}]))
        assert len(load_rules(str(bare))) == 1
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(
            json.dumps(
                {
                    "kind": "repro-obs-slo-rules",
                    "rules": [{"type": "staleness_rate_ceiling", "max": 1.0}],
                }
            )
        )
        assert len(load_rules(str(wrapped))) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "other", "rules": []}))
        with pytest.raises(ValueError, match="expected kind"):
            load_rules(str(bad))

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("not json at all\n", "not valid JSON (Expecting value"),
            ('[{"type": "staleness_rate_ceiling", "ma', "not valid JSON (Unterminated string"),
            ('[["staleness_rate_ceiling", 1.0]]\n', "SLO rule #0 must be an object"),
            ('{"kind": "repro-obs-slo-rules", "rules": {"max": 1.0}}\n', "expected a list"),
        ],
        ids=["not-json", "truncated", "list-for-rule", "object-for-list"],
    )
    def test_load_rules_names_the_file_it_cannot_read(self, tmp_path, text, reason) -> None:
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(ValueError) as refusal:
            load_rules(str(path))
        assert str(refusal.value).startswith(f"{path}: ")
        assert reason in str(refusal.value)

    def test_canonical_rules_is_stable(self) -> None:
        rules = [{"max": 1.0, "type": "staleness_rate_ceiling"}]
        reordered = [{"type": "staleness_rate_ceiling", "max": 1.0}]
        assert canonical_rules(rules) == canonical_rules(reordered)

    def test_committed_rules_file_is_valid(self) -> None:
        path = Path(__file__).resolve().parent.parent / "OBS_RULES.json"
        rules = load_rules(str(path))
        assert len(rules) >= 5
        assert {rule["type"] for rule in rules} >= {
            "hit_ratio_floor",
            "staleness_rate_ceiling",
            "counter_ceiling",
            "histogram_quantile_ceiling",
            "max_anomalies",
        }


# --------------------------------------------------------------------- #
# Experiment integration: slo_rules on the spec, byte-identity
# --------------------------------------------------------------------- #

class TestExperimentSlo:
    def test_run_cell_attaches_verdict(self) -> None:
        rules = canonical_rules([{"type": "hit_ratio_floor", "min": 0.1}])
        row = run_cell(_single_cell(slo_rules=rules))
        assert row["slo"]["kind"] == "repro-obs-slo"
        assert row["slo"]["passed"] is True

    def test_slo_leaves_results_and_obs_payload_byte_identical(self) -> None:
        rules = canonical_rules(_passing_rules())
        with_slo = run_cell(_single_cell(slo_rules=rules))
        without = run_cell(_single_cell(slo_rules=None))
        verdict = with_slo.pop("slo")
        assert verdict["passed"] is True
        assert json.dumps(with_slo, sort_keys=True) == json.dumps(
            without, sort_keys=True
        )

    def test_spec_requires_obs_window(self) -> None:
        with pytest.raises(ConfigurationError, match="obs_window"):
            ExperimentSpec(
                name="slo-misuse",
                policies=["invalidate"],
                workloads=["poisson"],
                staleness_bounds=[1.0],
                slo_rules=[{"type": "hit_ratio_floor", "min": 0.5}],
            )

    def test_spec_validates_rules_eagerly(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown type"):
            ExperimentSpec(
                name="slo-bad",
                policies=["invalidate"],
                workloads=["poisson"],
                staleness_bounds=[1.0],
                obs_window=1.0,
                slo_rules=[{"type": "nope"}],
            )

    def test_sweep_verdicts_identical_serial_vs_parallel(self) -> None:
        spec = ExperimentSpec(
            name="slo-sweep",
            policies=["invalidate", "update"],
            workloads=["poisson"],
            staleness_bounds=[0.5, 1.0],
            duration=5.0,
            obs_window=1.0,
            slo_rules=[
                {"type": "hit_ratio_floor", "min": 0.1},
                {"type": "max_anomalies", "max": 1000},
            ],
        )
        serial = run_experiment(spec, processes=1)
        parallel = run_experiment(spec, processes=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
        assert all("slo" in row and row["slo"]["verdicts"] for row in serial)


# --------------------------------------------------------------------- #
# HTML report
# --------------------------------------------------------------------- #

class TestReport:
    def test_report_is_self_contained_html(self, failure_payload, steady_payload) -> None:
        anomalies = detect_anomalies(failure_payload)
        slo = evaluate_slo(failure_payload, _passing_rules(), anomalies=anomalies)
        diff = diff_payloads(steady_payload, failure_payload)
        html_text = render_report(
            failure_payload, anomalies=anomalies, slo=slo, diff=diff, title="t<&>t"
        )
        assert html_text.startswith("<!DOCTYPE html>")
        assert "t&lt;&amp;&gt;t" in html_text  # titles are escaped
        assert "<svg" in html_text and "polyline" in html_text
        assert "node-000" in html_text  # per-node sparkline rows
        assert "staleness_violations" in html_text
        assert "SLO verdicts" in html_text and "PASS" in html_text
        assert "Diff vs baseline" in html_text
        assert "http" not in html_text.split("</style>")[0]  # no external assets

    def test_report_renders_without_optional_sections(self, steady_payload) -> None:
        html_text = render_report(steady_payload)
        assert "<svg" in html_text
        assert "SLO verdicts" not in html_text
        assert "Diff vs baseline" not in html_text

    def test_report_is_deterministic(self, failure_payload) -> None:
        assert render_report(failure_payload) == render_report(failure_payload)


# --------------------------------------------------------------------- #
# CLI: obs diff / check / report
# --------------------------------------------------------------------- #

def _record_run(tmp_path, name: str) -> str:
    from repro.__main__ import main

    obs_dir = tmp_path / name
    assert main([
        "-q", "run", "--policy", "invalidate", "--duration", "20",
        "--obs-window", "2", "--obs-dir", str(obs_dir),
        "--output", str(tmp_path / f"{name}.json"),
    ]) == 0
    return str(obs_dir)


class TestCliAnalyze:
    def test_diff_self_is_clean_and_gateable(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = _record_run(tmp_path, "run-a")
        out = tmp_path / "diff.json"
        assert main([
            "obs", "diff", "--dir", obs_dir, "--against", obs_dir,
            "--json", str(out), "--fail-on-regression",
        ]) == 0
        assert "0 regressions" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["kind"] == "repro-obs-diff"
        assert report["regression_count"] == 0

    def test_diff_requires_a_reference(self, tmp_path) -> None:
        from repro.__main__ import main

        obs_dir = _record_run(tmp_path, "run-b")
        with pytest.raises(SystemExit, match="reference"):
            main(["obs", "diff", "--dir", obs_dir])

    def test_diff_against_committed_baseline_record(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = _record_run(tmp_path, "run-c")
        baseline = Path(__file__).resolve().parent.parent / "OBS_BASELINE.json"
        assert main([
            "obs", "diff", "--dir", obs_dir, "--baseline", str(baseline),
            "--fail-on-regression",
        ]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_check_pass_and_violation_exit_codes(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = _record_run(tmp_path, "run-d")
        passing = tmp_path / "pass.json"
        passing.write_text(json.dumps([{"type": "hit_ratio_floor", "min": 0.1}]))
        assert main(["obs", "check", "--dir", obs_dir, "--rules", str(passing)]) == 0
        assert "slo: PASS" in capsys.readouterr().out

        failing = tmp_path / "fail.json"
        failing.write_text(json.dumps([
            {"name": "impossible", "type": "hit_ratio_floor", "min": 1.0},
        ]))
        out = tmp_path / "verdict.json"
        assert main([
            "obs", "check", "--dir", obs_dir, "--rules", str(failing),
            "--json", str(out),
        ]) == 2
        assert "slo: FAIL" in capsys.readouterr().out
        verdict = json.loads(out.read_text())
        assert verdict["violations"] == ["impossible"]

    def test_check_with_committed_rules_passes(self, tmp_path, capsys) -> None:
        # The committed OBS_RULES.json is calibrated against the CI smoke
        # run's configuration (window 5), so record exactly that here.
        from repro.__main__ import main

        obs_dir = tmp_path / "run-e"
        assert main([
            "-q", "run", "--policy", "invalidate", "--duration", "20",
            "--obs-window", "5", "--obs-dir", str(obs_dir),
            "--output", str(tmp_path / "run-e.json"),
        ]) == 0
        rules = Path(__file__).resolve().parent.parent / "OBS_RULES.json"
        assert main(["obs", "check", "--dir", str(obs_dir), "--rules", str(rules)]) == 0
        assert "slo: PASS" in capsys.readouterr().out

    def test_report_writes_html(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        obs_dir = _record_run(tmp_path, "run-f")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"type": "hit_ratio_floor", "min": 0.1}]))
        out = tmp_path / "report.html"
        assert main([
            "obs", "report", "--dir", obs_dir, "--against", obs_dir,
            "--rules", str(rules), "--output", str(out), "--title", "ci smoke",
        ]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text and "ci smoke" in text

    def test_sweep_slo_rules_flag(self, tmp_path, capsys) -> None:
        from repro.__main__ import main

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"type": "hit_ratio_floor", "min": 0.1}]))
        out = tmp_path / "rows.json"
        assert main([
            "-q", "sweep", "--policies", "invalidate", "--workloads", "poisson",
            "--bounds", "1.0", "--duration", "5", "--processes", "1",
            "--obs-window", "1", "--slo-rules", str(rules), "--json", str(out),
        ]) == 0
        rows = json.loads(out.read_text())["results"]
        assert all(row["slo"]["passed"] for row in rows)

    def test_sweep_slo_rules_requires_obs_window(self, tmp_path) -> None:
        from repro.__main__ import main

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"type": "hit_ratio_floor", "min": 0.1}]))
        with pytest.raises(SystemExit, match="obs-window"):
            main([
                "-q", "sweep", "--policies", "invalidate", "--workloads", "poisson",
                "--bounds", "1.0", "--duration", "5",
                "--slo-rules", str(rules),
            ])


# --------------------------------------------------------------------- #
# scripts/check_obs.py baseline gate
# --------------------------------------------------------------------- #

def _load_check_obs():
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_obs.py"
    spec = importlib.util.spec_from_file_location("check_obs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckObsScript:
    def test_update_then_check_round_trips(self, tmp_path) -> None:
        check_obs = _load_check_obs()
        baseline = tmp_path / "OBS_BASELINE.json"
        assert check_obs.main(["--baseline", str(baseline), "--update"]) == 0
        assert check_obs.main(["--baseline", str(baseline)]) == 0

    def test_missing_baseline_is_a_config_error(self, tmp_path) -> None:
        check_obs = _load_check_obs()
        assert check_obs.main(["--baseline", str(tmp_path / "nope.json")]) == 2

    def test_drifted_baseline_fails_with_diff(self, tmp_path, capsys) -> None:
        check_obs = _load_check_obs()
        baseline = tmp_path / "OBS_BASELINE.json"
        assert check_obs.main(["--baseline", str(baseline), "--update"]) == 0
        record = json.loads(baseline.read_text())
        record["payload"]["meta"]["totals"]["hits"] -= 5
        baseline.write_text(json.dumps(record))
        assert check_obs.main(["--baseline", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "drifted" in captured.err

    def test_committed_baseline_matches_fresh_run(self) -> None:
        check_obs = _load_check_obs()
        baseline = Path(__file__).resolve().parent.parent / "OBS_BASELINE.json"
        assert check_obs.main(["--baseline", str(baseline)]) == 0
