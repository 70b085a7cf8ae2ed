"""Round-trip tests for ``repro.experiments.export`` (CSV/JSON stability), and
the literal inventory of the result rows' key order it exports."""

import csv
import json
from dataclasses import dataclass, fields

from repro.cluster.results import ClusterResult, NodeResult
from repro.experiments.export import write_results_csv, write_results_json
from repro.sim.results import SimulationResult

ROWS = [
    {
        "policy": "invalidate",
        "staleness_bound": 0.1,
        "hit_ratio": 1 / 3,
        "cache_capacity": None,
        "workload_params": {"num_keys": 100, "rate_per_key": 10.0},
        "nodes": [{"node_id": "node-000", "hits": 7}],
    },
    {
        "policy": "update",
        "staleness_bound": 10.0,
        "hit_ratio": 0.875,
        "cache_capacity": 512,
        "workload_params": {},
        "nodes": [],
        # A column appearing only in a later row.
        "scenario": "node-failure",
    },
]


def read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_csv_column_order_is_first_appearance_across_all_rows(tmp_path) -> None:
    path = write_results_csv(ROWS, tmp_path / "rows.csv")
    header, *body = read_csv(path)
    assert header == [
        "policy",
        "staleness_bound",
        "hit_ratio",
        "cache_capacity",
        "workload_params",
        "nodes",
        "scenario",
    ]
    assert len(body) == 2
    # The first row simply has an empty cell for the late-appearing column.
    assert body[0][header.index("scenario")] == ""


def test_csv_cells_round_trip_floats_exactly(tmp_path) -> None:
    path = write_results_csv(ROWS, tmp_path / "rows.csv")
    header, first, second = read_csv(path)
    ratio = header.index("hit_ratio")
    assert float(first[ratio]) == 1 / 3
    assert float(second[ratio]) == 0.875
    assert float(first[header.index("staleness_bound")]) == 0.1


def test_csv_nested_values_are_json_cells_and_none_is_empty(tmp_path) -> None:
    path = write_results_csv(ROWS, tmp_path / "rows.csv")
    header, first, _second = read_csv(path)
    params = json.loads(first[header.index("workload_params")])
    assert params == {"num_keys": 100, "rate_per_key": 10.0}
    nodes = json.loads(first[header.index("nodes")])
    assert nodes == [{"node_id": "node-000", "hits": 7}]
    assert first[header.index("cache_capacity")] == ""


def test_csv_with_no_rows_writes_an_empty_header(tmp_path) -> None:
    path = write_results_csv([], tmp_path / "empty.csv")
    assert read_csv(path) == [[]]


def test_json_document_round_trips_rows_and_metadata(tmp_path) -> None:
    path = write_results_json(ROWS, tmp_path / "rows.json", metadata={"spec": "test"})
    document = json.loads(path.read_text())
    assert document["metadata"] == {"spec": "test"}
    assert document["results"] == json.loads(json.dumps(ROWS))
    # Floats survive exactly through the JSON round trip.
    assert document["results"][0]["hit_ratio"] == 1 / 3


def test_json_with_no_rows_and_no_metadata(tmp_path) -> None:
    path = write_results_json([], tmp_path / "empty.json")
    document = json.loads(path.read_text())
    assert document == {"metadata": {}, "results": []}
    assert path.read_text().endswith("\n")


# --------------------------------------------------------------------- #
# Row inventory: CSV column order and the benchmark's row digests follow the
# key order of the three ``as_dict``s, so it is written out here, literally.
# --------------------------------------------------------------------- #

SIMULATION_KEYS = [
    "policy", "workload", "staleness_bound", "duration", "reads", "writes", "hits",
    "stale_misses", "cold_misses", "freshness_cost", "staleness_cost", "useful_work",
    "normalized_freshness_cost", "normalized_staleness_cost", "miss_ratio", "hit_ratio",
    "invalidates_sent", "updates_sent", "updates_wasted", "suppressed_invalidates",
    "decisions_nothing", "polls", "stale_refetches", "messages_dropped", "staleness_violations",
    "persistence_cost", "wal_appends", "wal_flushes", "snapshots_taken", "backend_fetches",
    "coalesced_reads", "stale_serves", "early_refreshes", "read_latency_p50",
    "read_latency_p99", "read_latency_p999", "read_latency_mean",
]
NODE_ONLY_KEYS = [
    "node_id", "failed_fetches", "hot_decisions", "hot_keys_flagged", "hot_pressure",
    "departures", "joins", "crashes", "warm_restored", "warm_invalidated", "l1_hits",
    "l1_insertions", "l1_promotions", "l1_evictions", "l1_writebacks", "l1_demotions",
    "l1_admission_rejects", "l1_served_degraded", "l1_cold_restarts", "tier_cost", "l1_stats",
]
FLEET_ONLY_KEYS = [
    "num_nodes", "replication", "read_policy", "scenario", "l1_capacity", "tier_mode",
    "failed_fetches", "rebalances", "hot_decisions", "hot_keys_flagged", "hot_pressure",
    "scale_ups", "scale_downs", "elasticity_lag", "elasticity_cost", "elasticity_staleness",
    "crashes", "warm_restored", "warm_invalidated", "l1_hits", "l1_insertions", "l1_promotions",
    "l1_evictions", "l1_writebacks", "l1_demotions", "l1_admission_rejects",
    "l1_served_degraded", "l1_cold_restarts", "tier_cost", "load_imbalance", "nodes",
]
NODE_ROW_KEYS = [
    "node_id", "reads", "writes", "hits", "stale_misses", "cold_misses", "staleness_violations",
    "failed_fetches", "messages_dropped", "invalidates_sent", "updates_sent", "hot_decisions",
    "freshness_cost", "l1_hits", "l1_served_degraded", "tier_cost",
]
#: Summed into the fleet totals, shard by shard.
ACCUMULATED = [
    "reads", "writes", "hits", "stale_misses", "cold_misses", "freshness_cost", "cold_miss_cost",
    "useful_work", "invalidates_sent", "updates_sent", "updates_wasted",
    "suppressed_invalidates", "decisions_nothing", "polls", "stale_refetches",
    "messages_dropped", "staleness_violations", "persistence_cost", "wal_appends",
    "wal_flushes", "snapshots_taken", "backend_fetches", "coalesced_reads", "stale_serves",
    "early_refreshes", "latency_count", "latency_sum",
]


def test_result_rows_keep_their_literal_key_order() -> None:
    assert list(SimulationResult().as_dict()) == SIMULATION_KEYS
    assert list(NodeResult().as_dict()) == SIMULATION_KEYS + NODE_ONLY_KEYS
    fleet = ClusterResult(nodes=[NodeResult(node_id="node-000")])
    fleet.finalize()
    assert list(fleet.as_dict()) == SIMULATION_KEYS + FLEET_ONLY_KEYS
    assert [list(row) for row in fleet.node_rows()] == [NODE_ROW_KEYS]
    fleet.interrupted, fleet.store, fleet.obs = True, {"wal_appends": 0}, {"windows": {}}
    assert list(fleet.as_dict()) == SIMULATION_KEYS + FLEET_ONLY_KEYS + [
        "interrupted", "store", "obs"
    ]
    assert list(SimulationResult.ACCUMULATED_FIELDS) == ACCUMULATED


#: Dataclass fields that reach a row under another name, nested, or not at all.
RENAMED = {"policy_name": "policy", "workload_name": "workload"}
NESTED = {
    "nodes", "totals", "l1_stats", "store", "obs", "interrupted", "latency_buckets", "cache_stats",
}
#: Read through a derived column only (staleness cost, latency percentiles).
NOT_A_COLUMN = {"cold_miss_cost", "latency_count", "latency_sum"}


def test_every_result_field_is_a_column_nested_or_a_listed_exclusion() -> None:
    """The row columns are derived from the fields' defaults: a new field whose
    default is not a plain number or string (a factory, ``None``, a bool)
    would silently drop out of the row and the fleet sums.  It has to pick."""
    fleet = ClusterResult(nodes=[NodeResult()])
    fleet.finalize()
    for result in (SimulationResult(), NodeResult(), fleet):
        row = result.as_dict()
        unplaced = {
            column.name
            for column in fields(result)
            if RENAMED.get(column.name, column.name) not in row and column.name not in NESTED
        }
        assert unplaced == (NOT_A_COLUMN if result is not fleet else set()), type(result).__name__


def test_finalize_sums_every_node_counter_and_leaves_the_rest() -> None:
    """Distinct primes per counter and node: a sum taken from the wrong field,
    or a fleet-only field folded away, cannot cancel out."""
    summed = [key for key in FLEET_ONLY_KEYS if key in NODE_ONLY_KEYS]
    assert len(summed) == 17
    nodes = [
        NodeResult(**{name: 2 + index + 100 * node for index, name in enumerate(summed)})
        for node in (1, 2, 3)
    ]
    fleet = ClusterResult(nodes=nodes, rebalances=7, scale_ups=5, elasticity_lag=1.5)
    fleet.failed_fetches = fleet.l1_hits = 10**6  # what an earlier finalize left
    fleet.finalize()
    row = fleet.as_dict()
    for index, name in enumerate(summed):
        assert row[name] == 3 * (2 + index) + 600, name
        assert type(row[name]) is type(getattr(NodeResult(), name)), name
    assert (row["rebalances"], row["scale_ups"], row["elasticity_lag"]) == (7, 5, 1.5)


@dataclass(slots=True)
class ProbedNode(NodeResult):
    probes: int = 0
    probe_kind: str = "ping"


@dataclass(slots=True)
class ProbedFleet(ClusterResult):
    probes: int = 0
    probe_kind: str = "ping"


def test_a_counter_declared_on_both_results_reaches_the_fleet_row_with_no_third_edit() -> None:
    fleet = ProbedFleet(nodes=[ProbedNode(probes=3, l1_hits=1), ProbedNode(probes=4, l1_hits=2)])
    fleet.finalize()
    row = fleet.as_dict()
    assert (row["probes"], row["l1_hits"]) == (7, 3)
    assert row["probe_kind"] == "ping", "a shared label is a column, not a sum"
    assert list(row) == (
        SIMULATION_KEYS + FLEET_ONLY_KEYS[:-2] + ["probes", "probe_kind", "load_imbalance", "nodes"]
    )
    # Scalars first on both; the nested breakdowns stay last.
    assert list(fleet.nodes[0].as_dict()) == (
        SIMULATION_KEYS + NODE_ONLY_KEYS[:-1] + ["probes", "probe_kind", "l1_stats"]
    )
    fleet.finalize()
    assert fleet.as_dict()["probes"] == 7, "finalize sums from zero each time"
