"""The freshness-policy interface.

A freshness policy decides how cached data is kept within the staleness bound
``T``.  Policies fall into two families:

* **TTL-based** (``ttl_mode`` set): decisions are driven by a timer local to
  the cache; the backend is never consulted.
* **Write-reactive** (``reacts_to_writes`` set): writes are buffered at the
  backend and, at the end of every interval of length ``T``, the policy
  chooses an :class:`Action` per dirty key — send an update, send an
  invalidate, or do nothing.  The flush takes them through
  :meth:`FreshnessPolicy.decisions`: an iterator over ``decide`` unless the
  policy has a cheaper way to produce the same actions.

The simulator (:mod:`repro.sim.simulation`) binds the policy to a
:class:`PolicyContext` carrying the cost model, the staleness bound, and the
components the policy is allowed to inspect.  Policies that claim cache-state
knowledge or future knowledge (the hypothetical baselines in Figure 5) access
those through the context; the plain adaptive policy does not touch them.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.backend.datastore import DataStore
    from repro.backend.invalidation_tracker import InvalidationTracker
    from repro.cache.cache import Cache
    from repro.core.cost_model import CostModel
    from repro.workload.base import Request


class Action(Enum):
    """Per-key decision taken at an interval flush.

    Example:

        >>> Action("update") is Action.UPDATE
        True
        >>> str(Action.INVALIDATE)
        'invalidate'
    """

    UPDATE = "update"
    INVALIDATE = "invalidate"
    NOTHING = "nothing"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(slots=True)
class FutureIndex:
    """Per-key index of future requests, available to omniscient policies.

    ``reads[key]`` and ``writes[key]`` are sorted lists of request times.  The
    omniscient optimal policy uses this to know whether the next request to a
    key is a read or a write.

    Example:

        >>> from repro.workload.base import OpType, Request
        >>> index = FutureIndex.from_requests([
        ...     Request(time=1.0, key="k", op=OpType.READ),
        ...     Request(time=2.0, key="k", op=OpType.WRITE),
        ... ])
        >>> index.next_write_after("k", 1.0)
        2.0
        >>> index.next_read_after("k", 1.0) is None
        True
    """

    reads: Dict[str, List[float]] = field(default_factory=dict)
    writes: Dict[str, List[float]] = field(default_factory=dict)

    @classmethod
    def from_requests(cls, requests: List["Request"]) -> "FutureIndex":
        """Build the index from a time-ordered request stream."""
        index = cls()
        for request in requests:
            target = index.reads if request.is_read else index.writes
            target.setdefault(request.key, []).append(request.time)
        return index

    def next_read_after(self, key: str, time: float) -> Optional[float]:
        """Return the time of the first read of ``key`` strictly after ``time``."""
        return _first_after(self.reads.get(key), time)

    def next_write_after(self, key: str, time: float) -> Optional[float]:
        """Return the time of the first write of ``key`` strictly after ``time``."""
        return _first_after(self.writes.get(key), time)


def _first_after(times: Optional[List[float]], time: float) -> Optional[float]:
    """Return the first element of a sorted list strictly greater than ``time``."""
    if not times:
        return None
    from bisect import bisect_right

    index = bisect_right(times, time)
    if index >= len(times):
        return None
    return times[index]


@dataclass(slots=True)
class PolicyContext:
    """Everything a policy may consult when making decisions.

    Attributes:
        costs: The cost model (``c_m``, ``c_i``, ``c_u``).
        staleness_bound: The target staleness bound ``T`` in seconds.
        cache: The cache (only policies with ``knows_cache_state`` should
            inspect it).
        datastore: The backend store.
        tracker: The backend's invalidated-keys tracker.
        future: Per-key future request index (only for ``needs_future``
            policies, i.e. the omniscient optimal baseline).
    """

    costs: "CostModel"
    staleness_bound: float
    cache: "Cache"
    datastore: "DataStore"
    tracker: "InvalidationTracker"
    future: Optional[FutureIndex] = None


class FreshnessPolicy(ABC):
    """Base class for all freshness policies.

    Subclasses set the class attributes that tell the simulator which
    machinery to engage (TTL timers vs. write buffering) and override the
    observation/decision hooks they need.
    """

    #: Human-readable name used in experiment reports.
    name: str = "policy"
    #: ``"expiry"``, ``"polling"``, or ``None`` for non-TTL policies.
    ttl_mode: Optional[str] = None
    #: Whether the backend should buffer writes and call :meth:`decide` at
    #: every interval flush.
    reacts_to_writes: bool = False
    #: Whether the policy may inspect ``context.cache`` (the "C.S." baselines).
    knows_cache_state: bool = False
    #: Whether the policy needs the future request index (the "Opt." baseline).
    needs_future: bool = False

    def __init__(self) -> None:
        self.context: Optional[PolicyContext] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, context: PolicyContext) -> None:
        """Attach the policy to a simulation run."""
        self.context = context

    def reset(self) -> None:
        """Clear any per-run state (called between simulation runs)."""
        self.context = None

    # ------------------------------------------------------------------ #
    # Observation hooks (called for every request, in time order)
    # ------------------------------------------------------------------ #
    def observe_read(self, key: str, time: float) -> None:
        """Observe a read request (before the cache lookup)."""

    def observe_write(self, key: str, time: float) -> None:
        """Observe a write request (after it is applied to the backend)."""

    # ------------------------------------------------------------------ #
    # Decision hook (write-reactive policies only)
    # ------------------------------------------------------------------ #
    def decide(self, key: str, time: float) -> Action:
        """Choose the action for a dirty key at an interval flush.

        Only called when ``reacts_to_writes`` is true.  ``time`` is the flush
        time (the end of the interval during which the key was written).
        """
        return Action.NOTHING

    def decisions(self, keys: Sequence[str], time: float) -> Iterator[Action]:
        """The actions of one interval flush, one per dirty key of ``keys``.

        The flush advances the iterator in lockstep with its sends: key
        ``i``'s action is taken after key ``i - 1``'s message was sent and
        applied.  The default is therefore lazy, so a :meth:`decide` that
        reads what an earlier send changed (the tracker, another key's cache
        entry) sees it; a policy whose decisions do not depend on the sends
        may override this to hoist per-flush work out of the per-key call.
        """
        return map(self.decide, keys, repeat(time))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
