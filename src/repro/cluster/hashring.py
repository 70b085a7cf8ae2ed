"""Consistent-hash ring with virtual nodes.

The fleet shards the key space across cache nodes with consistent hashing:
every node is hashed onto a 64-bit ring at ``vnodes`` points, and a key is
owned by the first node clockwise from the key's own hash.  Replicas are the
next distinct nodes along the ring.  Virtual nodes smooth the load split, and
consistent hashing keeps rebalances minimal — when a node leaves, only the
keys it owned move, which is what makes the node-failure scenarios meaningful
(a naive ``hash % n`` would reshuffle the entire key space on every change).

Hashing uses the same stable BLAKE2 fingerprint as the sketches
(:func:`repro.sketch.hashing.stable_fingerprint`), so ring placement is
deterministic across processes and Python invocations.

Lookup is the cluster simulator's per-request hot path, so the ring keeps two
structures: the canonical sorted ``(point, node_id)`` list, and flat parallel
arrays (``point hashes`` / ``point owners``) that make the bisect walk
allocation-free.  On top sits a per-``count`` routing cache mapping keys to
their replica tuples; membership is effectively static between scenario
events, so after warm-up a lookup is a single dict probe.  Every membership
change (add/remove) invalidates the cache and rebuilds the flat arrays.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.errors import ClusterError
from repro.sketch.hashing import stable_fingerprint

#: Bound of each per-count routing cache; cleared wholesale on overflow so a
#: stream of millions of distinct keys cannot grow the ring's memory without
#: bound.  Sized to the same ~tens-of-MiB budget as the fingerprint memo
#: (`DEFAULT_FINGERPRINT_CACHE_SIZE`): for realistic Zipf-skewed streams the
#: hot keys dominate lookups, so a larger cache buys almost no hit rate.
_MAX_CACHED_ROUTES = 1 << 17


class ConsistentHashRing:
    """Maps keys to nodes via consistent hashing with virtual nodes.

    Args:
        vnodes: Number of ring points per node.  More vnodes means a more
            even key split at the cost of a larger ring (lookup stays
            ``O(log(nodes * vnodes))``).
    """

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        # Canonical sorted list of (point, node_id) pairs.
        self._points: List[Tuple[int, str]] = []
        self._nodes: Dict[str, List[int]] = {}
        # Flat parallel mirrors of ``_points`` (rebuilt on membership change):
        # bisect over a plain int list beats tuple-compare bisect, and the
        # clockwise walk indexes owner strings without unpacking tuples.
        self._point_hashes: List[int] = []
        self._point_owners: List[str] = []
        # count -> {key -> replica tuple}; cleared in place on membership
        # change so aliases held by hot loops stay valid.
        self._route_caches: Dict[int, Dict[str, Tuple[str, ...]]] = {}
        # node_id -> failure-domain label.  Zones do not influence placement
        # (points depend only on the node id, so a node rejoining after a
        # zone outage lands on exactly its old points); they exist so
        # correlated-failure scenarios can select "everything in zone-1".
        self._zones: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[str]:
        """Node ids currently on the ring, in insertion-independent order."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str, zone: Optional[str] = None) -> None:
        """Place ``node_id`` on the ring at its ``vnodes`` points.

        ``zone`` optionally labels the node's failure domain.  Zones never
        affect placement — ring points hash only the node id — so they are
        pure metadata for correlated-failure scenarios.
        """
        if node_id in self._nodes:
            raise ClusterError(f"node {node_id!r} is already on the ring")
        points = []
        for vnode in range(self.vnodes):
            point = stable_fingerprint(f"{node_id}#{vnode}")
            insort(self._points, (point, node_id))
            points.append(point)
        self._nodes[node_id] = points
        if zone is not None:
            self._zones[node_id] = str(zone)
        self._membership_changed()

    def remove_node(self, node_id: str) -> None:
        """Remove ``node_id`` and all its ring points.

        The node's zone label (if any) is kept, so a rejoin after a zone
        outage restores the node to its original failure domain.
        """
        points = self._nodes.pop(node_id, None)
        if points is None:
            raise ClusterError(f"node {node_id!r} is not on the ring")
        self._points = [pair for pair in self._points if pair[1] != node_id]
        self._membership_changed()

    def copy(self) -> "ConsistentHashRing":
        """An independent ring with the same nodes, points and zones, and
        no cached routes: what building it node by node gives, without
        hashing or sorting a point."""
        ring = ConsistentHashRing.__new__(ConsistentHashRing)
        ring.vnodes = self.vnodes
        ring._points = list(self._points)
        ring._nodes = {node: list(points) for node, points in self._nodes.items()}
        ring._point_hashes = list(self._point_hashes)
        ring._point_owners = list(self._point_owners)
        ring._route_caches = {}
        ring._zones = dict(self._zones)
        return ring

    def zone_of(self, node_id: str) -> Optional[str]:
        """Failure-domain label of ``node_id``, or ``None`` if unlabeled."""
        return self._zones.get(node_id)

    def zone_members(self, zone: str) -> List[str]:
        """Node ids labeled with ``zone`` that are currently on the ring."""
        return sorted(
            node_id
            for node_id, label in self._zones.items()
            if label == str(zone) and node_id in self._nodes
        )

    @property
    def zones(self) -> List[str]:
        """Distinct zone labels of nodes currently on the ring, sorted."""
        return sorted(
            {label for node, label in self._zones.items() if node in self._nodes}
        )

    def _membership_changed(self) -> None:
        """Rebuild the flat mirrors and drop every cached route."""
        self._point_hashes = [point for point, _ in self._points]
        self._point_owners = [owner for _, owner in self._points]
        for cache in self._route_caches.values():
            cache.clear()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def primary(self, key: str) -> str:
        """Return the node owning ``key``."""
        return self.route(key, 1)[0]

    def route_cache_for(self, count: int) -> Dict[str, Tuple[str, ...]]:
        """The live ``key -> replicas`` cache for ``count`` replicas.

        Hot loops alias this dict and probe it directly (one dict get per
        request), falling back to :meth:`route` on a miss.  The dict is
        cleared — never replaced — on membership change, so the alias stays
        valid for the lifetime of the ring.
        """
        cache = self._route_caches.get(count)
        if cache is None:
            cache = self._route_caches[count] = {}
        return cache

    def route(self, key: str, count: int) -> Tuple[str, ...]:
        """Return up to ``count`` distinct nodes for ``key``, primary first.

        Walks the ring clockwise from the key's hash, skipping duplicate
        nodes, so the result is the primary followed by the replicas in ring
        order.  Returns fewer than ``count`` nodes when the ring holds fewer
        distinct nodes.  Results are cached per ``count`` until the ring
        membership changes.

        Raises:
            ClusterError: If the ring is empty.
        """
        cache = self.route_cache_for(count)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if not self._point_hashes:
            raise ClusterError("hash ring is empty; no node can own any key")
        if count < 1:
            raise ClusterError(f"count must be >= 1, got {count}")
        owners = self._point_owners
        total = len(owners)
        start = bisect_left(self._point_hashes, stable_fingerprint(key))
        if count == 1:
            # The first point clockwise is the primary; no dedup walk needed.
            chosen = (owners[start % total],)
        else:
            picked: List[str] = []
            seen = set()
            for offset in range(total):
                node_id = owners[(start + offset) % total]
                if node_id in seen:
                    continue
                seen.add(node_id)
                picked.append(node_id)
                if len(picked) == count:
                    break
            chosen = tuple(picked)
        if len(cache) >= _MAX_CACHED_ROUTES:
            cache.clear()
        cache[key] = chosen
        return chosen

    def nodes_for(self, key: str, count: int) -> List[str]:
        """Return up to ``count`` distinct nodes for ``key``, primary first.

        List-returning wrapper over :meth:`route` (which is what the hot
        paths use); see there for semantics.

        Raises:
            ClusterError: If the ring is empty.
        """
        return list(self.route(key, count))

    def ownership_counts(self, keys: List[str]) -> Dict[str, int]:
        """Count how many of ``keys`` each node owns (for balance reporting)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.primary(key)] += 1
        return counts
