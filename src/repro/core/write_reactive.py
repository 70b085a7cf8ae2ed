"""The non-adaptive write-reactive baselines (§3.1 of the paper).

Both policies react to writes rather than timers: writes are buffered at the
backend and, at the end of every staleness interval ``T``, one message per
dirty key is emitted.

* **Always-invalidate** ("Inv." in Figure 5): send an invalidate for every
  dirty key.  The backend's invalidation tracker suppresses redundant
  invalidates for keys that are already invalidated and have not been
  re-fetched.
* **Always-update** ("Up." in Figure 5): send an update (key plus fresh value)
  for every dirty key, keeping cached copies always valid at the price of a
  larger message for every write interval — even for keys nobody reads.

Example:

    >>> from repro.core.write_reactive import AlwaysInvalidatePolicy, AlwaysUpdatePolicy
    >>> AlwaysInvalidatePolicy().decide("any-key", time=1.0).value
    'invalidate'
    >>> AlwaysUpdatePolicy().decide("any-key", time=1.0).value
    'update'
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence

from repro.core.policy import Action, FreshnessPolicy


class _ConstantActionPolicy(FreshnessPolicy):
    """A write-reactive policy that takes one fixed action for every dirty key."""

    reacts_to_writes = True
    #: The action :meth:`decide` returns, whatever the key.
    action: Action

    def decide(self, key: str, time: float) -> Action:
        """Return the policy's one action."""
        return self.action

    def decisions(self, keys: Sequence[str], time: float) -> Iterator[Action]:
        """The action once per dirty key, without a call per key (a subclass
        that overrides :meth:`decide` keeps the per-key default)."""
        if type(self).decide is not _ConstantActionPolicy.decide:
            return super().decisions(keys, time)
        return repeat(self.action, len(keys))


class AlwaysInvalidatePolicy(_ConstantActionPolicy):
    """Send an invalidate for every key written during the interval
    (duplicate suppression happens in the backend)."""

    name = "invalidate"
    action = Action.INVALIDATE


class AlwaysUpdatePolicy(_ConstantActionPolicy):
    """Send an update, pushing the fresh value, for every key written during
    the interval."""

    name = "update"
    action = Action.UPDATE
