"""Sketches for estimating E[W], the expected number of writes between reads.

The adaptive policy (§3.3 of the paper) decides between updating and
invalidating a key by comparing ``E[W] * c_u`` against ``c_i + c_m``.  Exact
per-key tracking needs three counters per key, which grows linearly with the
key population, so the paper proposes approximating the counts with a
Count-min sketch and improving accuracy with a Top-K sketch that keeps exact
counters only for the hottest keys.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.sketch.base": ("EWEstimator",),
    "repro.sketch.hashing": ("HashFamily",),
    "repro.sketch.exact": ("ExactEWTracker",),
    "repro.sketch.countmin": ("CountMinEWSketch", "CountMinSketch"),
    "repro.sketch.topk": ("TopKEWSketch",),
    "repro.sketch.memory": ("estimator_memory_bytes",),
})
