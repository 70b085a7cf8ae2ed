"""Windowed time-series storage.

The sampler stores, per time window, the *per-node* counter deltas observed
in that window — never pre-summed fleet totals.  Fleet-level values are
derived at export time by summing nodes in sorted ``node_id`` order, so the
exported series does not depend on the order the nodes were sampled in.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

__all__ = ["WindowSampler"]


class WindowSampler:
    """Sparse per-window, per-node counter-delta store."""

    __slots__ = ("window", "_data")

    def __init__(self, window: float) -> None:
        if not window > 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        # window index -> node_id -> {field: delta}; zero deltas are skipped.
        self._data: Dict[int, Dict[str, Dict[str, float]]] = {}

    def add(self, index: int, node_id: str, deltas: Mapping[str, float]) -> None:
        """Accumulate one node's counter deltas into a window (zeros skipped)."""
        compact = {field: value for field, value in deltas.items() if value}
        if not compact:
            return
        nodes = self._data.get(index)
        if nodes is None:
            nodes = self._data[index] = {}
        cell = nodes.get(node_id)
        if cell is None:
            nodes[node_id] = dict(compact)
            return
        for field, value in compact.items():
            cell[field] = cell.get(field, 0) + value

    def __len__(self) -> int:
        return len(self._data)

    def as_dict(self) -> Dict[str, Any]:
        rows = []
        for index in sorted(self._data):
            nodes = self._data[index]
            rows.append(
                {
                    "index": index,
                    "start": index * self.window,
                    "end": (index + 1) * self.window,
                    "nodes": {node_id: dict(nodes[node_id]) for node_id in sorted(nodes)},
                }
            )
        return {"window": self.window, "rows": rows}


def window_rows(payload: Mapping[str, Any], fields: tuple) -> List[Dict[str, Any]]:
    """Derive fleet-level rows (sorted-node summation) from a windows payload.

    Each output row carries the fleet sum of every field in ``fields``, the
    derived ratios (``hit_rate``, ``miss_cost``, ``l1_share``), and a
    ``node_load`` map of per-node request counts.
    """
    rows: List[Dict[str, Any]] = []
    for raw in payload.get("rows", []):
        nodes = raw.get("nodes", {})
        totals: Dict[str, float] = {field: 0 for field in fields}
        node_load: Dict[str, float] = {}
        for node_id in sorted(nodes):
            deltas = nodes[node_id]
            for field in fields:
                value = deltas.get(field)
                if value:
                    totals[field] += value
            node_load[node_id] = deltas.get("reads", 0) + deltas.get("writes", 0)
        reads = totals.get("reads", 0)
        hits = totals.get("hits", 0)
        row: Dict[str, Any] = {
            "index": raw["index"],
            "start": raw["start"],
            "end": raw["end"],
        }
        row.update(totals)
        row["hit_rate"] = hits / reads if reads else 0.0
        row["miss_cost"] = totals.get("freshness_cost", 0) + totals.get("cold_miss_cost", 0)
        row["l1_share"] = totals.get("l1_hits", 0) / hits if hits else 0.0
        row["node_load"] = node_load
        rows.append(row)
    return rows
