"""The :class:`ObsRecorder`: windowed sampling + tracing for replay engines.

The recorder is attached to a set of *hosts* — ``(node_id, result,
cache_stats)`` triples — and observes them by diffing their counters:

* at every window boundary it snapshots each host and attributes the deltas
  since the previous snapshot to the window that just closed
  (:class:`~repro.obs.windows.WindowSampler` keeps them per node);
* for sampled requests (every ``span_every``-th, deterministic countdown —
  no RNG is ever consulted, so replay results cannot be perturbed) it diffs
  counters across the un-instrumented request handler to classify the
  outcome and emit a span;
* discrete events (scenario transitions, rebalances, snapshots, recovery,
  evictions, hot-key switches) land in a bounded
  :class:`~repro.obs.trace.TraceBuffer`.

Engines keep their plain hot paths when no recorder is attached: the
recorder is only ever consulted from ``_obs_*`` wrapper methods that the
replay loops bind *instead of* the plain ones, never in addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.obs.windows import WindowSampler

__all__ = ["ObsConfig", "ObsRecorder", "WINDOW_FIELDS", "as_recorder"]

PAYLOAD_KIND = "repro-obs"
PAYLOAD_VERSION = 1

# Counter fields sampled from each host's result object at window
# boundaries.  Missing fields read as 0, so the same list serves
# SimulationResult (single cache) and NodeResult (cluster) hosts.
_RESULT_FIELDS = (
    "reads",
    "writes",
    "hits",
    "stale_misses",
    "cold_misses",
    "staleness_violations",
    "messages_dropped",
    "polls",
    "invalidates_sent",
    "updates_sent",
    "freshness_cost",
    "cold_miss_cost",
    "poll_cost",
    "tier_cost",
    "l1_hits",
    "l1_evictions",
    "l1_writebacks",
    "l1_served_degraded",
    "hot_decisions",
    "failed_fetches",
    "backend_fetches",
    "coalesced_reads",
    "stale_serves",
    "early_refreshes",
    "hot_pressure",
)
# Fields sampled from each host's Cache.stats (the L2 cache).
_CACHE_FIELDS = ("evictions", "expirations")
WINDOW_FIELDS: Tuple[str, ...] = _RESULT_FIELDS + _CACHE_FIELDS


# Stands in for a host result without a cost field: it costs nothing.
_NO_COST = SimpleNamespace(freshness_cost=0, cold_miss_cost=0)


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Picklable observability settings (safe to ship to sweep workers).

    ``window`` is the sampling window width in simulation seconds;
    ``span_every`` samples every N-th request as a span (0 disables spans);
    ``max_trace_records`` bounds the span/event buffer.  ``enabled=False``
    makes :func:`as_recorder` return ``None`` so engines bind their plain,
    zero-overhead hot paths.
    """

    window: float = 1.0
    span_every: int = 1000
    max_trace_records: int = 10000
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (self.window > 0 and self.window == self.window):
            raise ValueError(f"obs window must be a positive number, got {self.window!r}")
        if self.span_every < 0:
            raise ValueError(f"span_every must be >= 0, got {self.span_every}")
        if self.max_trace_records < 0:
            raise ValueError(f"max_trace_records must be >= 0, got {self.max_trace_records}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "span_every": self.span_every,
            "max_trace_records": self.max_trace_records,
        }


def as_recorder(obs: Any) -> Optional["ObsRecorder"]:
    """Normalize an ``obs=`` argument to a recorder (or ``None`` if disabled)."""
    if obs is None:
        return None
    if isinstance(obs, ObsRecorder):
        return obs
    if isinstance(obs, ObsConfig):
        return ObsRecorder(obs) if obs.enabled else None
    raise TypeError(f"obs must be an ObsConfig, ObsRecorder, or None, got {type(obs).__name__}")


def obs_process_read(
    driver: Any, time: float, key: str, key_size: int, value_size: int
) -> None:
    """A replay driver's ``_process_read`` with the recorder wrapped around it.

    The replay driver binds it as ``_obs_process_read``, *instead of* the
    plain handler and only when a recorder is attached.
    """
    obs = driver.obs
    if time >= obs.next_boundary:
        obs.roll(time)
    token = obs.read_begin()
    driver._process_read(time, key, key_size, value_size)
    obs.read_end(time, key, token)


def obs_process_write(
    driver: Any, time: float, key: str, key_size: int, value_size: int
) -> None:
    """The write twin of :func:`obs_process_read` (``_obs_process_write``)."""
    obs = driver.obs
    if time >= obs.next_boundary:
        obs.roll(time)
    span = obs.write_begin()
    driver._process_write(time, key, key_size, value_size)
    obs.write_end(time, key, span)


class ObsRecorder:
    """Observes attached hosts; never feeds anything back into the replay."""

    __slots__ = (
        "config",
        "registry",
        "windows",
        "trace",
        "next_boundary",
        "_window_index",
        "_hosts",
        "_cost_sources",
        "_last",
        "_last_latency",
        "_span_countdown",
        "_meta",
        "_extra_totals",
    )

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.registry = MetricsRegistry()
        self.windows = WindowSampler(self.config.window)
        self.trace = TraceBuffer(self.config.max_trace_records)
        self.next_boundary = self.config.window
        self._window_index = 0
        self._hosts: Tuple[Tuple[str, Any, Any], ...] = ()
        self._cost_sources: Tuple[Tuple[Any, Any], ...] = ()
        self._last: Dict[str, Dict[str, float]] = {}
        self._last_latency: Dict[str, Dict[int, int]] = {}
        # Countdown of 1 samples the very first request, then every N-th.
        self._span_countdown = 1 if self.config.span_every else 0
        self._meta: Dict[str, Any] = {}
        self._extra_totals: Dict[str, float] = {}

    # -- attachment and lifecycle -------------------------------------------

    def attach(self, hosts: Sequence[Tuple[str, Any, Any]]) -> None:
        """Bind the hosts to observe: ``(node_id, result, cache_stats)`` triples.

        ``cache_stats`` may be ``None`` for hosts without a directly owned
        cache.
        """
        self._hosts = tuple(hosts)
        # Where `_cost_now` reads each host's two cost fields: the result
        # itself, or `_NO_COST` for a field the result does not carry.
        self._cost_sources = tuple(
            (
                result if hasattr(result, "freshness_cost") else _NO_COST,
                result if hasattr(result, "cold_miss_cost") else _NO_COST,
            )
            for _, result, _ in self._hosts
        )
        self._last = {node_id: self._snapshot(result, stats) for node_id, result, stats in self._hosts}
        self._last_latency = {
            node_id: dict(getattr(result, "latency_buckets", None) or {})
            for node_id, result, _ in self._hosts
        }

    def run_start(self, time: float = 0.0, **meta: Any) -> None:
        self._meta.update(meta)
        self.event(time, "run-start", **meta)

    def add_totals(self, extras: Mapping[str, Any]) -> None:
        """Fold scenario-owned result fields into the run totals.

        Scenarios that own fleet-level results (the autoscaler's elasticity
        gap, for instance) report them here so SLO rules can gate them via
        ``counter_ceiling`` like any other total.  Repeated calls accumulate.
        """
        for field, value in extras.items():
            if value:
                self._extra_totals[field] = self._extra_totals.get(field, 0) + value

    def finish(self, end_time: float, **meta: Any) -> None:
        """Close the open window, record totals, and emit the run-end event."""
        self._flush_window()
        totals: Dict[str, float] = dict(self._extra_totals)
        for node_id, result, stats in self._hosts:
            for field, value in self._snapshot(result, stats).items():
                if value:
                    totals[field] = totals.get(field, 0) + value
        for field in sorted(totals):
            self.registry.counter(f"total_{field}").value = totals[field]
        for node_id, result, stats in self._hosts:
            buckets = getattr(result, "latency_buckets", None)
            if not buckets:
                continue
            # Fold each host's run-level latency buckets into one exported
            # histogram: exact bucket addition.
            total = self.registry.histogram("read_latency")
            for index, count in buckets.items():
                total.counts[index] = total.counts.get(index, 0) + count
            total.count += getattr(result, "latency_count", 0)
            total.sum += getattr(result, "latency_sum", 0.0)
        self.registry.gauge("end_time").set(end_time)
        self._meta.update(meta)
        self._meta["end_time"] = end_time
        self._meta["totals"] = totals
        self.event(end_time, "run-end")

    # -- windowed sampling ---------------------------------------------------

    def _snapshot(self, result: Any, stats: Any) -> Dict[str, float]:
        values = {field: getattr(result, field, 0) for field in _RESULT_FIELDS}
        if stats is not None:
            for field in _CACHE_FIELDS:
                values[field] = getattr(stats, field, 0)
        return values

    def _flush_window(self) -> None:
        """Attribute deltas since the last snapshot to the open window."""
        index = self._window_index
        boundary = (index + 1) * self.config.window
        for node_id, result, stats in self._hosts:
            current = self._snapshot(result, stats)
            last = self._last[node_id]
            deltas = {
                field: current[field] - last.get(field, 0)
                for field in current
                if current[field] != last.get(field, 0)
            }
            latency = self._latency_deltas(node_id, result)
            if latency is not None:
                deltas["read_latency_p50"] = latency.percentile(0.50)
                deltas["read_latency_p99"] = latency.percentile(0.99)
                deltas["read_latency_p999"] = latency.percentile(0.999)
            if not deltas:
                continue
            self.windows.add(index, node_id, deltas)
            evicted = deltas.get("evictions", 0)
            if evicted:
                self.event(boundary, "eviction", node=node_id, count=evicted)
            switched = deltas.get("hot_decisions", 0)
            if switched:
                self.event(boundary, "hot-key-switch", node=node_id, count=switched)
            self._last[node_id] = current

    def _latency_deltas(self, node_id: str, result: Any) -> Optional[Histogram]:
        """This window's read-latency samples as a throwaway histogram.

        ``latency_buckets`` is the host's *live* bucket dict (populated only
        when the in-flight fetch model is on); the diff against the previous
        snapshot isolates the window.  Returns ``None`` — emitting no window
        fields, keeping concurrency-off payloads byte-identical — when the
        host recorded nothing new.
        """
        buckets = getattr(result, "latency_buckets", None)
        if not buckets:
            return None
        last = self._last_latency.get(node_id, {})
        window = Histogram("window_read_latency")
        for index, count in buckets.items():
            delta = count - last.get(index, 0)
            if delta:
                window.counts[index] = delta
                window.count += delta
        if window.count == 0:
            return None
        self._last_latency[node_id] = dict(buckets)
        return window

    def roll(self, now: float) -> None:
        """Close the open window and open the one containing ``now``.

        Engines call this when a request (or vectorized span) starts at or
        past ``next_boundary``; empty windows in between stay sparse.
        """
        self._flush_window()
        self._window_index = int(now // self.config.window)
        self.next_boundary = (self._window_index + 1) * self.config.window

    # -- per-request hooks (enabled mode only) -------------------------------

    def span_due(self) -> bool:
        """Deterministic every-N-th sampling decision (no RNG consulted)."""
        if self._span_countdown == 0:
            return False
        self._span_countdown -= 1
        if self._span_countdown == 0:
            self._span_countdown = self.config.span_every
            return True
        return False

    def _cost_now(self) -> float:
        total = 0.0
        for fresh, cold in self._cost_sources:
            total += fresh.freshness_cost + cold.cold_miss_cost
        return total

    def _span_snapshot(self) -> Optional[List[Tuple[str, float, Dict[str, float]]]]:
        """Pre-request snapshot for span diffing (None when not sampled)."""
        if not self.span_due():
            return None
        return [
            (node_id, getattr(result, "reads", 0) + getattr(result, "writes", 0),
             self._snapshot(result, stats))
            for node_id, result, stats in self._hosts
        ]

    def read_begin(self) -> Tuple[float, Optional[List[Tuple[str, float, Dict[str, float]]]]]:
        return self._cost_now(), self._span_snapshot()

    def read_end(
        self,
        time: float,
        key: Any,
        token: Tuple[float, Optional[List[Tuple[str, float, Dict[str, float]]]]],
    ) -> None:
        cost_before, span = token
        self.registry.histogram("read_cost").observe(self._cost_now() - cost_before)
        if span is not None:
            self.record_read_span(time, key, span)

    def write_begin(self) -> Optional[List[Tuple[str, float, Dict[str, float]]]]:
        return self._span_snapshot()

    def write_end(
        self,
        time: float,
        key: Any,
        span: Optional[List[Tuple[str, float, Dict[str, float]]]],
    ) -> None:
        if span is not None:
            self.record_write_span(time, key, span)

    def record_read_span(
        self, time: float, key: Any, before: List[Tuple[str, float, Dict[str, float]]]
    ) -> None:
        node, deltas = self._span_deltas(before)
        if deltas.get("l1_hits"):
            outcome, phases = "l1_hit", ["route", "l1_lookup"]
        elif deltas.get("hits"):
            outcome, phases = "hit", ["route", "tier_lookup"]
        elif deltas.get("stale_misses"):
            outcome, phases = "stale_miss", ["route", "tier_lookup", "backend_fetch"]
        elif deltas.get("cold_misses"):
            outcome, phases = "cold_miss", ["route", "tier_lookup", "backend_fetch"]
        elif deltas.get("failed_fetches"):
            outcome, phases = "unreachable", ["route", "tier_lookup"]
        else:
            outcome, phases = "other", ["route"]
        cost = deltas.get("freshness_cost", 0) + deltas.get("cold_miss_cost", 0)
        self.trace.append(
            {
                "type": "span",
                "time": time,
                "op": "read",
                "key": key,
                "node": node,
                "outcome": outcome,
                "cost": cost,
                "stale": bool(deltas.get("staleness_violations")),
                "phases": phases,
            }
        )

    def record_write_span(
        self, time: float, key: Any, before: List[Tuple[str, float, Dict[str, float]]]
    ) -> None:
        node, deltas = self._span_deltas(before)
        sent = deltas.get("invalidates_sent", 0) + deltas.get("updates_sent", 0)
        # Fanout is buffered by the owning node's policy and flushed later;
        # the flushed messages show up in the window counters instead.
        phases = ["route", "backend_write", "fanout" if sent else "buffer_fanout"]
        self.trace.append(
            {
                "type": "span",
                "time": time,
                "op": "write",
                "key": key,
                "node": node,
                "outcome": "applied",
                "messages": sent,
                "buffered": not sent,
                "phases": phases,
            }
        )

    def _span_deltas(
        self, before: List[Tuple[str, float, Dict[str, float]]]
    ) -> Tuple[str, Dict[str, float]]:
        """Locate the host that served the request and diff its counters."""
        serving = None
        combined: Dict[str, float] = {}
        for (node_id, requests, snapshot), (_, result, stats) in zip(before, self._hosts):
            now_requests = getattr(result, "reads", 0) + getattr(result, "writes", 0)
            if now_requests == requests:
                continue
            current = self._snapshot(result, stats)
            if serving is None:
                serving = node_id
            for field, value in current.items():
                delta = value - snapshot.get(field, 0)
                if delta:
                    combined[field] = combined.get(field, 0) + delta
        return serving or "?", combined

    # -- events and store timings -------------------------------------------

    def event(self, time: float, kind: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"type": "event", "time": time, "kind": kind}
        record.update(fields)
        self.trace.append(record)
        self.registry.counter(f"events_{kind}").inc()

    def observe_store(self, metric: str, seconds: float) -> None:
        """Fold a wall-clock store timing (WAL sync, snapshot) into a histogram."""
        self.registry.histogram(metric).observe(seconds)

    # -- payload -------------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The JSON-serializable record of everything observed."""
        return {
            "kind": PAYLOAD_KIND,
            "version": PAYLOAD_VERSION,
            "config": self.config.as_dict(),
            "meta": dict(self._meta),
            "metrics": self.registry.as_dict(),
            "windows": self.windows.as_dict(),
            "trace": list(self.trace.records),
            "trace_dropped": self.trace.dropped,
        }
