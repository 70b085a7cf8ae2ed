"""Configuration of the two-level (L1/L2) cache hierarchy.

A :class:`TierConfig` turns a :class:`~repro.sim.node.CacheNode` into a
tiered node: a small, fast, per-node L1 sits in front of the node's existing
cache, which becomes the L2 (the sharded, replicated fleet tier).  The config
is declarative and picklable — names and numbers only — so it can ride inside
:class:`~repro.experiments.spec.RunCell` grids and be recorded verbatim next
to result rows.

``l1_capacity=0`` disables the hierarchy entirely: the cluster normalises a
zero-capacity config to "no tier" and reproduces the single-tier results
byte-for-byte (test-pinned), so the tier axes are safe to add to any existing
experiment grid.

Example:

    >>> from repro.tier import TierConfig
    >>> tier = TierConfig(l1_capacity=64, mode="write-back", admission="second-hit")
    >>> tier.enabled
    True
    >>> TierConfig(l1_capacity=0).enabled
    False
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

#: Fill modes of the hierarchy (how a fetched object reaches the tiers).
TIER_MODES = ("write-through", "write-back")

#: Registered admission-policy names (see :mod:`repro.tier.admission`).
ADMISSION_POLICIES = ("always", "second-hit", "size-ttl")


@dataclass(frozen=True, slots=True)
class TierConfig:
    """Parameters of the per-node L1 in front of the sharded L2.

    Args:
        l1_capacity: L1 size in objects.  ``0`` disables the tier (the node
            behaves exactly like a single-tier node — pinned equivalence).
        mode: ``"write-through"`` installs every backend fetch into the L2
            and promotes admitted keys into the L1 as a copy; the L2 always
            holds everything the L1 holds.  ``"write-back"`` installs fetches
            into the L1 *only* and defers the L2 install: dirty entries are
            flushed down in batch at every interval flush (and demoted on L1
            eviction), each charged
            :meth:`~repro.core.cost_model.CostModel.writeback_flush_cost`.
        admission: Name of the L1 admission policy — ``"always"``,
            ``"second-hit"`` (Count-min sketch, admit on the second access
            within the decay window), or ``"size-ttl"`` (second-hit plus
            size/TTL gating).
        max_value_size: Largest value (bytes) ``"size-ttl"`` admits into the
            L1 (``None`` = no size gate).
        min_ttl_headroom: ``"size-ttl"`` only admits an entry whose TTL-expiry
            timer (when the node's policy has one) still has at least this
            many seconds left — caching an about-to-expire object in the fast
            tier is wasted work.
        sketch_width: Width of the ``"second-hit"`` Count-min sketch.
        sketch_depth: Depth of the ``"second-hit"`` Count-min sketch.
        decay_every: Halve the admission sketch every this many interval
            flushes so "recently seen" forgets old traffic.
    """

    l1_capacity: int = 0
    mode: str = "write-through"
    admission: str = "second-hit"
    max_value_size: Optional[int] = None
    min_ttl_headroom: float = 0.0
    sketch_width: int = 512
    sketch_depth: int = 4
    decay_every: int = 8

    def __post_init__(self) -> None:
        if self.l1_capacity < 0:
            raise ConfigurationError(
                f"l1_capacity must be >= 0, got {self.l1_capacity}"
            )
        if self.mode not in TIER_MODES:
            raise ConfigurationError(
                f"tier mode must be one of {TIER_MODES}, got {self.mode!r}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission must be one of {ADMISSION_POLICIES}, got {self.admission!r}"
            )
        if self.max_value_size is not None and self.max_value_size < 1:
            raise ConfigurationError(
                f"max_value_size must be >= 1 or None, got {self.max_value_size}"
            )
        if self.min_ttl_headroom < 0:
            raise ConfigurationError(
                f"min_ttl_headroom must be >= 0, got {self.min_ttl_headroom}"
            )
        if self.sketch_width < 1 or self.sketch_depth < 1:
            raise ConfigurationError(
                "sketch_width and sketch_depth must be >= 1, got "
                f"width={self.sketch_width}, depth={self.sketch_depth}"
            )
        if self.decay_every < 1:
            raise ConfigurationError(
                f"decay_every must be >= 1, got {self.decay_every}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the config actually creates an L1 (``l1_capacity > 0``)."""
        return self.l1_capacity > 0

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to primitives for result rows and run configs."""
        return asdict(self)
