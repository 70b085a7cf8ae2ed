"""Cache-aside cache substrate.

Implements the in-memory, capacity-limited cache that the paper's evaluation
simulates (Figure 1): reads are served from the cache, writes bypass it and go
straight to the backend, and entries are populated when a read misses.
Freshness is *not* guaranteed by the cache itself — that is the job of the
policies in :mod:`repro.core`.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.cache.entry": ("CacheEntry", "EntryState"),
    "repro.cache.cache": ("Cache",),
    "repro.cache.stats": ("CacheStats",),
})
