"""Declarative SLO rules evaluated post-run against recorder payloads.

Rules live in a JSON file (or inline list) and are checked against a single
OBS payload after the run finishes — never during it, so enabling SLO
evaluation cannot perturb results.  Evaluation is deterministic: the same
payload and rules always produce the same verdict object, which is what lets
:class:`~repro.experiments.spec.ExperimentSpec` attach verdicts to sweep
rows byte-identically across any ``--processes`` count.

Rule types (each a JSON object with a ``type`` key):

``hit_ratio_floor``
    ``{"type": "hit_ratio_floor", "min": 0.5, "scope": "total"|"window",
    "warmup": 2}`` — total hit ratio (or every window's, after skipping
    ``warmup`` windows) must be at least ``min``.
``staleness_rate_ceiling``
    ``{"type": "staleness_rate_ceiling", "max": 0.01}`` — total staleness
    violations per read must not exceed ``max``.
``counter_ceiling``
    ``{"type": "counter_ceiling", "field": "messages_dropped", "max": 0}``
    — a totals field must not exceed ``max``.
``histogram_quantile_ceiling``
    ``{"type": "histogram_quantile_ceiling", "metric": "wal_sync_seconds",
    "quantile": 0.99, "max": 0.05, "allow_missing": false}`` — a histogram
    percentile must not exceed ``max``; a missing histogram is itself a
    violation unless ``allow_missing``.
``latency_quantile_ceiling``
    ``{"type": "latency_quantile_ceiling", "quantile": 0.99, "max": 2.0,
    "allow_missing": true}`` — a percentile of the per-read latency
    histogram (``read_latency``, exported when the in-flight fetch model is
    on) must not exceed ``max`` simulated seconds.  Runs without the
    concurrency model export no latency histogram, so gate files shared
    across modes should set ``allow_missing``.
``max_anomalies``
    ``{"type": "max_anomalies", "max": 0, "fields": [...], "types": [...],
    "threshold": 3.0}`` — the anomaly detector must flag at most ``max``
    anomalies (optionally filtered by field/type).

Every rule accepts an optional ``name`` (defaults to a readable slug).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.analyze import detect_anomalies
from repro.obs.metrics import Histogram
from repro.obs.recorder import PAYLOAD_KIND
from repro.obs.windows import window_rows

__all__ = [
    "RULES_KIND",
    "SLO_KIND",
    "canonical_rules",
    "evaluate_slo",
    "load_rules",
    "validate_rules",
]

RULES_KIND = "repro-obs-slo-rules"
SLO_KIND = "repro-obs-slo"
SLO_VERSION = 1

_RULE_TYPES = (
    "hit_ratio_floor",
    "staleness_rate_ceiling",
    "counter_ceiling",
    "histogram_quantile_ceiling",
    "latency_quantile_ceiling",
    "max_anomalies",
)

#: The histogram a ``latency_quantile_ceiling`` rule reads — exported by the
#: recorder when the in-flight fetch model records per-read latency.
LATENCY_METRIC = "read_latency"


def _require_number(rule: Mapping[str, Any], key: str, rule_name: str) -> float:
    value = rule.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"SLO rule {rule_name!r}: {key!r} must be a number, got {value!r}")
    return float(value)


def validate_rules(rules: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Normalize and validate a rules list.

    Fills in default ``name`` slugs, checks every rule has a known ``type``
    and the parameters that type requires, and returns plain-dict copies in
    input order.

    Raises:
        ValueError: On an unknown rule type, a missing/mistyped parameter,
            or a duplicate rule name.
    """
    if isinstance(rules, (str, bytes, Mapping)):
        raise ValueError("rules must be a sequence of rule objects")
    normalized: List[Dict[str, Any]] = []
    seen_names = set()
    for position, rule in enumerate(rules):
        if not isinstance(rule, Mapping):
            raise ValueError(f"SLO rule #{position} must be an object, got {rule!r}")
        rule_type = rule.get("type")
        if rule_type not in _RULE_TYPES:
            raise ValueError(
                f"SLO rule #{position}: unknown type {rule_type!r} "
                f"(expected one of {', '.join(_RULE_TYPES)})"
            )
        out = {str(key): rule[key] for key in rule}
        name = out.get("name")
        if name is None:
            if rule_type == "counter_ceiling":
                name = f"{rule_type}:{out.get('field')}"
            elif rule_type == "histogram_quantile_ceiling":
                name = f"{rule_type}:{out.get('metric')}:p{out.get('quantile')}"
            elif rule_type == "latency_quantile_ceiling":
                name = f"{rule_type}:p{out.get('quantile')}"
            else:
                name = rule_type
            out["name"] = name
        if name in seen_names:
            raise ValueError(f"duplicate SLO rule name {name!r}")
        seen_names.add(name)

        if rule_type == "hit_ratio_floor":
            minimum = _require_number(out, "min", name)
            if not 0.0 <= minimum <= 1.0:
                raise ValueError(f"SLO rule {name!r}: min must be in [0, 1], got {minimum}")
            scope = out.setdefault("scope", "total")
            if scope not in ("total", "window"):
                raise ValueError(
                    f"SLO rule {name!r}: scope must be 'total' or 'window', got {scope!r}"
                )
            warmup = out.setdefault("warmup", 0)
            if not isinstance(warmup, int) or warmup < 0:
                raise ValueError(
                    f"SLO rule {name!r}: warmup must be a non-negative int, got {warmup!r}"
                )
        elif rule_type == "staleness_rate_ceiling":
            maximum = _require_number(out, "max", name)
            if maximum < 0:
                raise ValueError(f"SLO rule {name!r}: max must be >= 0, got {maximum}")
        elif rule_type == "counter_ceiling":
            field = out.get("field")
            if not isinstance(field, str) or not field:
                raise ValueError(f"SLO rule {name!r}: 'field' must be a non-empty string")
            _require_number(out, "max", name)
        elif rule_type == "histogram_quantile_ceiling":
            metric = out.get("metric")
            if not isinstance(metric, str) or not metric:
                raise ValueError(f"SLO rule {name!r}: 'metric' must be a non-empty string")
            quantile = _require_number(out, "quantile", name)
            if not 0.0 <= quantile <= 1.0:
                raise ValueError(
                    f"SLO rule {name!r}: quantile must be in [0, 1], got {quantile}"
                )
            _require_number(out, "max", name)
            out.setdefault("allow_missing", False)
        elif rule_type == "latency_quantile_ceiling":
            quantile = _require_number(out, "quantile", name)
            if not 0.0 <= quantile <= 1.0:
                raise ValueError(
                    f"SLO rule {name!r}: quantile must be in [0, 1], got {quantile}"
                )
            _require_number(out, "max", name)
            out.setdefault("allow_missing", False)
        elif rule_type == "max_anomalies":
            maximum = _require_number(out, "max", name)
            if maximum < 0:
                raise ValueError(f"SLO rule {name!r}: max must be >= 0, got {maximum}")
            for key in ("fields", "types"):
                value = out.get(key)
                if value is not None and (
                    isinstance(value, (str, bytes))
                    or not all(isinstance(item, str) for item in value)
                ):
                    raise ValueError(
                        f"SLO rule {name!r}: {key!r} must be a list of strings"
                    )
        normalized.append(out)
    return normalized


def load_rules(path: str) -> List[Dict[str, Any]]:
    """Load and validate an SLO rules file.

    Accepts either a bare JSON list of rules or a wrapper object
    ``{"kind": "repro-obs-slo-rules", "rules": [...]}``.  Anything else —
    text that is not JSON, another kind, an invalid rule — is a
    :class:`ValueError` naming ``path``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(data, Mapping):
        if data.get("kind") not in (None, RULES_KIND):
            raise ValueError(
                f"{path}: expected kind {RULES_KIND!r}, got {data.get('kind')!r}"
            )
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a list of SLO rules, got a {type(data).__name__}")
    try:
        return validate_rules(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def canonical_rules(rules: Sequence[Mapping[str, Any]]) -> str:
    """A canonical JSON encoding of a (validated) rules list.

    Sorted keys, no whitespace — a stable hashable string suitable for a
    frozen :class:`~repro.experiments.spec.RunCell` field.
    """
    return json.dumps(validate_rules(rules), sort_keys=True, separators=(",", ":"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def evaluate_slo(
    payload: Mapping[str, Any],
    rules: Sequence[Mapping[str, Any]],
    *,
    anomalies: Optional[Sequence[Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Evaluate SLO rules against a recorder payload.

    Strictly post-hoc and deterministic: the payload is read, never mutated.
    Anomalies are computed lazily — only when a ``max_anomalies`` rule is
    present and ``anomalies`` was not supplied.

    Args:
        payload: A recorder payload (live or loaded from ``OBS_RUN.json``).
        rules: Rules as accepted by :func:`validate_rules`.
        anomalies: Pre-computed :func:`~repro.obs.analyze.detect_anomalies`
            output, to avoid recomputing when the caller already has it.

    Returns:
        A JSON-serializable verdict object: ``{"kind": "repro-obs-slo",
        "version": 1, "passed": bool, "violations": [names...],
        "verdicts": [{name, type, ok, observed, threshold, detail}, ...]}``.
    """
    if payload.get("kind") != PAYLOAD_KIND:
        raise ValueError(
            f"payload is not a {PAYLOAD_KIND} payload (kind={payload.get('kind')!r})"
        )
    normalized = validate_rules(rules)
    totals = payload.get("meta", {}).get("totals", {})
    verdicts: List[Dict[str, Any]] = []

    for rule in normalized:
        rule_type = rule["type"]
        name = rule["name"]
        ok = True
        observed: Any = None
        threshold: Any = None
        detail = ""

        if rule_type == "hit_ratio_floor":
            threshold = float(rule["min"])
            if rule["scope"] == "total":
                reads = float(totals.get("reads", 0))
                observed = _ratio(float(totals.get("hits", 0)), reads)
                ok = observed >= threshold or reads == 0
                detail = f"total hit ratio {observed:.4f} (floor {threshold})"
            else:
                rows = window_rows(payload.get("windows", {}), ("reads", "hits"))
                worst: Optional[Mapping[str, Any]] = None
                observed = None
                for row in rows[int(rule["warmup"]):]:
                    if not row.get("reads"):
                        continue
                    rate = float(row["hit_rate"])
                    if observed is None or rate < observed:
                        observed, worst = rate, row
                if observed is None:
                    detail = "no windows with reads after warmup"
                else:
                    ok = observed >= threshold
                    detail = (
                        f"worst window hit ratio {observed:.4f} at "
                        f"t=[{worst['start']:g}, {worst['end']:g}) (floor {threshold})"
                    )
        elif rule_type == "staleness_rate_ceiling":
            threshold = float(rule["max"])
            reads = float(totals.get("reads", 0))
            observed = _ratio(float(totals.get("staleness_violations", 0)), reads)
            ok = observed <= threshold
            detail = f"staleness violations per read {observed:.6f} (ceiling {threshold})"
        elif rule_type == "counter_ceiling":
            threshold = float(rule["max"])
            field = rule["field"]
            observed = float(totals.get(field, 0))
            ok = observed <= threshold
            detail = f"totals[{field}] = {observed:g} (ceiling {threshold:g})"
        elif rule_type == "histogram_quantile_ceiling":
            threshold = float(rule["max"])
            metric = rule["metric"]
            data = payload.get("metrics", {}).get("histograms", {}).get(metric)
            if data is None:
                observed = None
                ok = bool(rule["allow_missing"])
                detail = f"histogram {metric!r} not present in payload"
            else:
                quantile = float(rule["quantile"])
                observed = Histogram.from_dict(metric, data).percentile(quantile)
                ok = observed <= threshold
                detail = f"{metric} p{quantile * 100:g} = {observed:g} (ceiling {threshold:g})"
        elif rule_type == "latency_quantile_ceiling":
            threshold = float(rule["max"])
            data = payload.get("metrics", {}).get("histograms", {}).get(LATENCY_METRIC)
            if data is None:
                observed = None
                ok = bool(rule["allow_missing"])
                detail = (
                    f"histogram {LATENCY_METRIC!r} not present in payload "
                    "(run without the in-flight fetch model?)"
                )
            else:
                quantile = float(rule["quantile"])
                observed = Histogram.from_dict(LATENCY_METRIC, data).percentile(quantile)
                ok = observed <= threshold
                detail = (
                    f"read latency p{quantile * 100:g} = {observed:g}s "
                    f"(ceiling {threshold:g}s)"
                )
        elif rule_type == "max_anomalies":
            threshold = float(rule["max"])
            if anomalies is None:
                anomalies = detect_anomalies(
                    payload, threshold=float(rule.get("threshold", 3.0))
                )
            matched = [
                record
                for record in anomalies
                if (rule.get("fields") is None or record["field"] in rule["fields"])
                and (rule.get("types") is None or record["type"] in rule["types"])
            ]
            observed = len(matched)
            ok = observed <= threshold
            worst = matched[0] if matched else None
            detail = f"{observed} anomalies (budget {threshold:g})" + (
                f"; worst: {worst['type']} in {worst['field']} at "
                f"t=[{worst['start']:g}, {worst['end']:g})"
                if worst
                else ""
            )

        verdicts.append(
            {
                "name": name,
                "type": rule_type,
                "ok": bool(ok),
                "observed": observed,
                "threshold": threshold,
                "detail": detail,
            }
        )

    violations = [verdict["name"] for verdict in verdicts if not verdict["ok"]]
    return {
        "kind": SLO_KIND,
        "version": SLO_VERSION,
        "passed": not violations,
        "violations": violations,
        "verdicts": verdicts,
    }
