"""The omniscient optimal policy ("Opt." in Figure 5).

This hypothetical baseline knows both the current cache contents and the full
future request stream.  At every interval flush it therefore makes the
throughput-optimal choice for each dirty key:

* if the key is not cached (or already invalidated), no message is needed —
  the eventual miss will fetch fresh data anyway;
* if the key is cached and the next request to it is a read, refresh it with
  the cheaper of an update (``c_u``) or an invalidate-then-miss
  (``c_i + c_m``);
* if the next request to it is a write (or there are no more requests), defer:
  nothing needs to be sent until a read is actually coming, and the key will
  re-enter the dirty set at its next write.

No deployable system can implement this policy.  It is the paper's baseline
for Figure 5, and a lower bound only in part:

* it bounds the reactive policies (invalidate, update, adaptive): their
  choices at a flush are among the ones it weighs;
* it bounds the TTL policies only while an update costs no more than a miss
  (``c_u <= c_m``).  An expiry is an invalidate that costs nothing, so with
  a dearer update a TTL timer can undercut even the exact optimum over
  reactive choices: at ``CostModel(update=1.5)`` ttl-expiry's C_F is 14.0
  against that optimum's 14.3 on one seeded one-key trace
  (``tests/test_optimal_bound.py``);
* today it can serve a read beyond the staleness bound: the deferral above
  holds until the flush after the next write, and a read can fall before
  that flush.  Its C_F then undercuts what any policy within the bound pays
  (the strict xfails in ``tests/test_optimal_bound.py``).
"""

from __future__ import annotations

from repro.core.policy import Action, FreshnessPolicy


class OptimalPolicy(FreshnessPolicy):
    """Omniscient baseline for freshness cost (see the module docstring for
    what it bounds)."""

    name = "optimal"
    reacts_to_writes = True
    knows_cache_state = True
    needs_future = True

    def decide(self, key: str, time: float) -> Action:
        """Make the throughput-optimal per-key choice using future knowledge."""
        context = self.context
        entry = context.cache.peek(key)
        if entry is None or not entry.is_valid:
            # Nothing useful to refresh: a future read will pay the miss that
            # the pending invalidation (or absence) already implies.
            return Action.NOTHING
        future = context.future
        next_read = future.next_read_after(key, time) if future is not None else None
        next_write = future.next_write_after(key, time) if future is not None else None
        if next_read is None:
            # Never read again: any message would be pure waste.
            return Action.NOTHING
        if next_write is not None and next_write < next_read:
            # The value will change again before anyone reads it; deciding now
            # would pay for a refresh that is immediately obsolete.  The key
            # re-enters the dirty buffer at that write.
            return Action.NOTHING
        value_size = context.datastore.value_size(key)
        update_cost = context.costs.update_cost(value_size=value_size)
        invalidate_then_miss = context.costs.invalidate_cost() + context.costs.miss_cost(
            value_size=value_size
        )
        if update_cost <= invalidate_then_miss:
            return Action.UPDATE
        return Action.INVALIDATE
