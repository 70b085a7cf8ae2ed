"""Deterministic chaos injection: seeded fault plans over the fleet.

A :class:`ChaosSpec` is a small frozen description — seed, fault budget,
which fault kinds to draw from, and the per-kind severity knobs.  Binding it
against a concrete run (duration, fleet size) expands it into a
:class:`ChaosPlan`: a fixed schedule of timed faults drawn from a dedicated
``random.Random(seed ^ salt)`` stream, entirely decoupled from the channels'
and samplers' streams, so the same spec produces the same faults on every
engine and worker count.

Fault kinds:

* ``delay`` — a target node's freshness channel gains extra constant delay
  for a window (degraded-but-alive link).
* ``drop`` — the channel gains partial message loss for a window.
* ``slow-node`` — the target's backend fetches slow down by a factor for a
  window (requires the in-flight fetch model, which is what models service
  time at all).
* ``crash`` — the target node loses its volatile state at an instant
  (crash + immediate restart, cache cold).

Plans compose with any scenario: the cluster merges the scenario's events
and the plan's events into one timed schedule.  Note that freshness traffic
is batched at flush boundaries (every ``staleness_bound`` seconds), so a
``delay``/``drop`` window only affects messages when it spans a boundary —
short windows between two flushes are no-ops by construction, exactly as a
real blip between two propagation rounds would be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.scenarios import ScenarioEvent
from repro.errors import ClusterError

#: XOR'd into the spec seed for the plan's draw stream, decorrelating it
#: from the per-node channel/detector/sampler streams derived from the cell
#: seed.
CHAOS_SEED_SALT = 0xC4A05AA1

_KINDS = ("delay", "drop", "slow-node", "crash")


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Seeded fault-plan description (hashable, picklable).

    Args:
        seed: Seed of the plan's own draw stream.
        faults: How many faults to inject.
        kinds: Fault kinds to draw from (uniformly).
        window: Fraction of the run each windowed fault (delay/drop/slow)
            lasts.
        start / end: Fractions of the run bounding the injection window.
        delay: Extra channel delay of a ``delay`` fault, in seconds.
        loss: Partial loss rate of a ``drop`` fault.
        slowdown: Service-time multiplier of a ``slow-node`` fault.
    """

    seed: int = 0
    faults: int = 4
    kinds: Tuple[str, ...] = _KINDS
    window: float = 0.1
    start: float = 0.1
    end: float = 0.9
    delay: float = 0.5
    loss: float = 0.5
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.faults < 1:
            raise ClusterError(f"chaos faults must be >= 1, got {self.faults}")
        if not self.kinds:
            raise ClusterError("chaos kinds must name at least one fault kind")
        for kind in self.kinds:
            if kind not in _KINDS:
                raise ClusterError(
                    f"unknown chaos fault kind {kind!r}; expected one of {_KINDS}"
                )
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ClusterError(
                f"chaos window must satisfy 0 <= start < end <= 1, got "
                f"[{self.start}, {self.end}]"
            )
        if not 0.0 < self.window <= 1.0:
            raise ClusterError(f"chaos window must be in (0, 1], got {self.window}")
        if not 0.0 <= self.loss <= 1.0:
            raise ClusterError(f"chaos loss must be in [0, 1], got {self.loss}")
        if self.delay < 0:
            raise ClusterError(f"chaos delay must be >= 0, got {self.delay}")
        if self.slowdown < 1.0:
            raise ClusterError(f"chaos slowdown must be >= 1, got {self.slowdown}")

    def describe(self) -> Dict[str, Any]:
        """Spec coordinates recorded next to the results."""
        return {
            "seed": self.seed,
            "faults": self.faults,
            "kinds": list(self.kinds),
            "window": self.window,
            "start": self.start,
            "end": self.end,
            "delay": self.delay,
            "loss": self.loss,
            "slowdown": self.slowdown,
        }


@dataclass(slots=True)
class _Fault:
    """One drawn fault: kind, target node index, and its time window."""

    kind: str
    node_index: int
    at: float
    until: float

    def label(self) -> str:
        return f"chaos-{self.kind}:{self.node_index}"


class ChaosPlan:
    """A bound fault schedule, re-expandable against any run horizon."""

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        self.faults: List[_Fault] = []
        self._bound = False

    @property
    def needs_concurrency(self) -> bool:
        """Whether the *spec* may draw slow-node faults.

        Checked before binding: the refusal is on the spec, not the draw, so
        a plan never silently degrades when the dice happen to avoid
        ``slow-node``.
        """
        return "slow-node" in self.spec.kinds

    def bind(self, duration: float, num_nodes: int) -> None:
        """Draw the fault schedule against a concrete run.

        Re-binding re-draws from scratch (same seed, same faults), so the
        same plan object can drive sequential replays.
        """
        spec = self.spec
        rng = random.Random((spec.seed ^ CHAOS_SEED_SALT) % 2**32)
        lo = spec.start * duration
        hi = spec.end * duration
        window = spec.window * duration
        self.faults = []
        for _ in range(spec.faults):
            kind = spec.kinds[rng.randrange(len(spec.kinds))]
            node_index = rng.randrange(num_nodes)
            at = lo + rng.random() * (hi - lo)
            self.faults.append(
                _Fault(kind=kind, node_index=node_index, at=at, until=at + window)
            )
        # Deterministic application order at equal times.
        self.faults.sort(key=lambda fault: (fault.at, fault.node_index, fault.kind))
        self._bound = True

    def events(self) -> List[ScenarioEvent]:
        """Expand the drawn faults into timed cluster events.

        Windowed faults that overlap on one node *compose* rather than
        clobber: at every window boundary the event re-applies the overlay of
        all faults still active there — losses compose independently, delays
        add, and a slowdown holds until the last overlapping slow window
        closes — so a short fault ending inside a longer one never clears the
        longer one early.
        """
        if not self._bound:
            raise ClusterError("ChaosPlan.events() called before bind()")
        events: List[ScenarioEvent] = []
        channel_faults: Dict[int, List[_Fault]] = {}
        slow_faults: Dict[int, List[_Fault]] = {}
        for fault in self.faults:
            if fault.kind in ("delay", "drop"):
                channel_faults.setdefault(fault.node_index, []).append(fault)
            elif fault.kind == "slow-node":
                slow_faults.setdefault(fault.node_index, []).append(fault)
            else:  # crash
                events.append(
                    ScenarioEvent(
                        time=fault.at,
                        label=fault.label(),
                        apply=_crash_apply(fault.node_index),
                    )
                )
        for index, faults in sorted(channel_faults.items()):
            events.extend(self._channel_boundary_events(index, faults))
        for index, faults in sorted(slow_faults.items()):
            events.extend(self._slow_boundary_events(index, faults))
        return events

    def _channel_boundary_events(
        self, index: int, faults: List[_Fault]
    ) -> List[ScenarioEvent]:
        events: List[ScenarioEvent] = []
        for boundary_fault, time, ending in _boundaries(faults):
            loss_keep = 1.0
            delay = 0.0
            for fault in faults:
                if fault.at <= time < fault.until:
                    if fault.kind == "drop":
                        loss_keep *= 1.0 - self.spec.loss
                    else:
                        delay += self.spec.delay
            loss = 1.0 - loss_keep
            label = boundary_fault.label() + (":end" if ending else "")
            events.append(
                ScenarioEvent(
                    time=time,
                    label=label,
                    apply=_channel_overlay_apply(index, loss, delay),
                )
            )
        return events

    def _slow_boundary_events(
        self, index: int, faults: List[_Fault]
    ) -> List[ScenarioEvent]:
        events: List[ScenarioEvent] = []
        for boundary_fault, time, ending in _boundaries(faults):
            active = any(fault.at <= time < fault.until for fault in faults)
            slowdown = self.spec.slowdown if active else 1.0
            label = boundary_fault.label() + (":end" if ending else "")
            events.append(
                ScenarioEvent(
                    time=time,
                    label=label,
                    apply=_slowdown_apply(index, slowdown),
                )
            )
        return events


def _boundaries(faults: List[_Fault]) -> List[Tuple[_Fault, float, bool]]:
    """Window start/end boundaries in application order.

    Each entry is ``(fault, time, is_end)``; sorted by time with starts
    before ends at ties so a window opening exactly when another closes
    keeps the overlay alive across the seam.
    """
    edges = [(fault.at, 0, fault, False) for fault in faults]
    edges += [(fault.until, 1, fault, True) for fault in faults]
    edges.sort(key=lambda edge: (edge[0], edge[1], edge[2].node_index, edge[2].kind))
    return [(fault, time, ending) for time, _, fault, ending in edges]


def _channel_overlay_apply(index: int, loss: float, delay: float) -> Any:
    def apply(cluster: Any, time: float) -> None:
        channel = cluster.node_at(index).channel
        if loss == 0.0 and delay == 0.0:
            channel.clear_degraded()
        else:
            channel.set_degraded(loss=loss, delay=delay)

    return apply


def _slowdown_apply(index: int, slowdown: float) -> Any:
    def apply(cluster: Any, time: float) -> None:
        cluster.node_at(index).fetches.slowdown = slowdown

    return apply


def _crash_apply(index: int) -> Any:
    def crash(cluster: Any, time: float) -> None:
        cluster.node_at(index).crash(time)

    return crash


def as_chaos_plan(chaos: Optional[Any]) -> Optional[ChaosPlan]:
    """Normalize ``None`` / :class:`ChaosSpec` / :class:`ChaosPlan`."""
    if chaos is None:
        return None
    if isinstance(chaos, ChaosPlan):
        return chaos
    if isinstance(chaos, ChaosSpec):
        return ChaosPlan(chaos)
    raise ClusterError(
        f"chaos must be a ChaosSpec or ChaosPlan, got {type(chaos).__name__}"
    )
