"""Backend data-store substrate.

The backend is the ground truth: every write lands here, each key carries a
monotonically increasing version number, and the full write history is kept so
that the simulator can decide — for any read time and staleness bound — whether
a cached version satisfies bounded staleness.  The backend also hosts the
machinery that the paper's write-reactive policies need: a per-interval write
buffer (Figure 4), a tracker of already-invalidated keys (§3.1), and a message
channel to the cache that can model delay, loss, and reordering (§5).
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.backend.datastore": ("DataStore", "KeyHistory"),
    "repro.backend.buffer": ("WriteBuffer",),
    "repro.backend.messages": ("InvalidateMessage", "Message", "UpdateMessage"),
    "repro.backend.channel": ("Channel", "DeliveryRecord"),
    "repro.backend.invalidation_tracker": ("InvalidationTracker",),
})
