"""What the columnar kernels replay: the policy classes they decide for,
and the envelope rows that send every other configuration to the scalar loop."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptivePolicy, CacheStateAdaptivePolicy
from repro.core.ttl import TTLExpiryPolicy, TTLPollingPolicy
from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
from repro.deferred import settled_class
from repro.sim.node import CacheNode
from repro.sketch.exact import ExactEWTracker
from repro.workload.compiled import CompiledTrace

#: The write-reacting policy classes the columnar flush decides for, in the
#: order of their codes in :attr:`_HostColumns.kinds` (the TTL classes of
#: :data:`_VECTOR_POLICIES` follow them).
_REACTIVE_KINDS = (
    AlwaysInvalidatePolicy,
    AlwaysUpdatePolicy,
    AdaptivePolicy,
    CacheStateAdaptivePolicy,
)
_UPDATE, _ADAPTIVE, _CACHE_STATE = 1, 2, 3

#: Policy classes with a vectorized kernel.  Exact types only: a subclass may
#: override hooks in ways the kernels would not reproduce.
_VECTOR_POLICIES = _REACTIVE_KINDS + (TTLExpiryPolicy, TTLPollingPolicy)


def _ttl_resolvable(node: CacheNode, trace: CompiledTrace) -> bool:
    """Whether the trace's clock resolves the node's TTL timer.

    The TTL kernels need ``fetched_at + ttl`` to move past ``fetched_at`` and
    a poll count ``(t - anchor) / ttl`` to fit an integer column with room to
    spare, everywhere on the trace: the TTL must span a few float spacings at
    the trace's last timestamp and divide it fewer than ``2**50`` times.
    Inside that envelope the accounted poll count never overtakes the seen
    one, which is what the polling kernel's closed form rests on; outside it
    the scalar loop's Python floats and unbounded ints are the reference.
    A policy without a TTL timer has nothing to resolve.
    """
    if node.policy.ttl_mode is None or len(trace) == 0:
        return True
    ttl, end = node._ttl_value, trace.times[-1]
    return bool(ttl >= 4 * np.spacing(end) and end / ttl < 2**50)


class EnvelopeRow(NamedTuple):
    """One way out of the vectorizable envelope: a configuration ``predicate``
    holds for replays on the scalar path, with ``name`` as its
    ``fallback_reason``.  :func:`envelope_exit` says what each ``scope`` of
    predicate is asked of."""

    name: str
    scope: str
    reason: str
    predicate: Callable[..., bool]


#: The envelope of both columnar engines and the only statement of it:
#: ``vector_eligible()`` and ``run()`` ask it through
#: :func:`envelope_exit`, the fleet engine puts its own rows in front
#: (``repro.cluster.vector.FLEET_ENVELOPE``), and "What runs where" in
#: docs/guides/performance.md renders it.  Widening the envelope is deleting
#: a row, next to the kernel that makes it unnecessary.
ENVELOPE: Tuple[EnvelopeRow, ...] = (
    EnvelopeRow(
        "store", "driver",
        "persistence journals every write and checkpoints node state; the kernels do neither",
        lambda engine: engine._store is not None,
    ),
    EnvelopeRow(
        "concurrency", "driver",
        "in-flight fetches queue fills in time order; the kernels assume instant fills",
        lambda engine: engine.concurrency is not None,
    ),
    EnvelopeRow(
        "cost-breakdown", "driver",
        "a per-size cost breakdown prices each request; the kernels fold one constant per read",
        lambda engine: engine.costs.breakdown is not None,
    ),
    EnvelopeRow(
        "policy", "node",
        "no kernel for the policy class (exact types only: a subclass may override any hook)",
        lambda node, trace: type(node.policy) not in _VECTOR_POLICIES,
    ),
    EnvelopeRow(
        "estimator", "node",
        "an adaptive policy on a sketch estimator; the kernels fold E[W] on the exact tracker",
        lambda node, trace: isinstance(node.policy, AdaptivePolicy)
        and settled_class(node.policy.estimator) is not ExactEWTracker,
    ),
    EnvelopeRow(
        "ttl-above-bound", "node",
        "a TTL above the staleness bound lets hits violate it after a fetch or a poll; the TTL "
        "kernels count none there",
        lambda node, trace: node.policy.ttl_mode is not None
        and node._ttl_value > node.staleness_bound,
    ),
    EnvelopeRow(
        "ttl-resolution", "node",
        "a TTL below the resolution of the trace's clock: fetched_at + ttl rounds to fetched_at",
        lambda node, trace: not _ttl_resolvable(node, trace),
    ),
    EnvelopeRow(
        "hot-key", "node",
        "hot-key detection switches a key's policy mid-run; the kernels run one policy per node",
        lambda node, trace: node.detector is not None or node.hot_policy is not None,
    ),
    EnvelopeRow(
        "l1-tier", "node",
        "an L1's LRU and admission depend on request order; the kernels see span endpoints only",
        lambda node, trace: node.l1 is not None,
    ),
    EnvelopeRow(
        "bounded-cache", "node",
        "a bounded cache evicts in request order; the kernels assume every fill stays",
        lambda node, trace: node.cache.capacity is not None,
    ),
    EnvelopeRow(
        "membership", "node",
        "a node unreachable or off the ring at the start; the kernels assume a healthy fleet",
        lambda node, trace: not (node.reachable and node.in_ring),
    ),
    EnvelopeRow(
        "channel", "node",
        "a lossy, delayed, degraded or cut channel drops messages or lands them mid-span; "
        "the kernels deliver at the flush",
        lambda node, trace: not node.channel.instant,
    ),
)


def envelope_exit(
    rows: Tuple[EnvelopeRow, ...],
    engine,
    nodes: Sequence[CacheNode],
    stop_at: Optional[float] = None,
) -> Optional[EnvelopeRow]:
    """The first row of ``rows`` this replay trips; ``None`` inside the envelope.

    A node row is asked of every node driven, a driver row of the engine, a
    fleet row of the fleet engine and its ``run()`` argument.
    """
    asked = {
        "node": [(node, engine.trace) for node in nodes],
        "driver": [(engine,)],
        "fleet": [(engine, stop_at)],
    }
    return next(
        (row for row in rows if any(row.predicate(*of) for of in asked[row.scope])), None
    )
