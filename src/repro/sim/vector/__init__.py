"""Vectorized (columnar) replay of a compiled trace.

The scalar :class:`~repro.sim.simulation.Simulation` pays Python-interpreter
overhead per request.  For the policies the paper sweeps most, almost nothing
*happens* per request: between two simulation events (interval flushes,
message deliveries) a key's entry changes state at most once, so the hit/miss
classification, the staleness check, and the cost accumulation over a whole
span of requests follow from each key's *endpoints* in the span — how many
reads, the first and the last one, the first and the last write.

:class:`VectorSimulation` exploits exactly that.  It consumes a
:class:`~repro.workload.compiled.CompiledTrace` and replays a *window* of
spans — every span between flush boundaries up to the next due work that is
not an interval flush — with **one kernel call**, each span's flush
included, for every host of every replay stepped with it.  It builds or
walks no object per key, so a replay costs O(requests) of numpy plus a small
fixed charge per span and a larger one per window — not O(keys x spans) of
Python, which is what made a tight staleness bound (many short spans) the
slow case.  The result is byte-for-byte identical to the scalar engine: same
counters, same float accumulation order, same dict insertion orders, same
:class:`DataStore` history (the equivalence suite pins this for every
policy/workload combination).

Why byte-identity is achievable at all:

* **No kernel reads the datastore.**  A span never outlives one staleness
  interval ``T``, so any in-span hit's staleness horizon ``t - T`` lies before
  the span start, and the freshness check counts the key's earlier writes in
  the index, and neither does a flush, a poll settle or the finalize.
  Every replay therefore commits the trace's writes once, after its walk,
  and defers their histories to the first caller that reads one.
* **Versions are positional.**  ``DataStore.read`` at a scalar read sees
  exactly the writes that precede the read in stream order, so the version a
  miss fetches equals the count of that key's writes with smaller stream
  position — computable from the compiled columns (and robust to timestamp
  ties); an update carries the count of the key's writes before the cut's
  end.
* **Uniform-cost folds are order-free.**  With a fixed cost preset the per-read
  serve cost and the per-miss cost are constants; accumulating ``n`` of them
  left-to-right gives the same float regardless of which keys they came from.
  Varying-order sums (TTL poll charges, a flush's message costs) fold in
  stream or drain order with a seeded ``cumsum``.
* **Per-key span groups are slices, not sorts.**  A stable key sort of the
  whole trace, restricted to a span's position range, *is* the stable key
  sort of that span, so the trace's memoised
  :class:`~repro.workload.compiled.TraceIndex` — built by the first replay,
  shared by every later one — hands each span its per-key read and write
  positions as bounds into two key-major columns.
* **A span is a fact of the trace.**  What a cut holds — its per-key bounds,
  its write batch, the hosts' groups and the reactive kernel's
  policy-independent prelude — depends on the trace and the cut's two
  positions only, not on the bound, so it lives in the index's span table,
  built a batch of cuts at a time and read by every replay
  (:class:`~repro.workload.compiled.CutBatch`).
* **A write's place among the reads is arithmetic.**  The index stores, per
  write, where in the key-major read column the key's next read sits, so how
  many of a span's writes precede a key's first read (the version a miss
  fetches, the buffered writes a miss fill discards) or fall between two of
  its reads (the runs the E[W] estimator folds) is computed for all keys of a
  span from the span's writes alone, never from its reads.
* **A unit's members never meet.**  Stacked hosts own disjoint rows and
  each member keeps its own order of obs roll, window and fold, so one
  kernel call for a lockstep unit does what one per member did.
* **Between a window's cuts only the cache state feeds back**, and the
  window kernel carries it from cut to cut.

Both columnar engines are one class, :class:`SpanReplay`, mixed in front of
their scalar driver, :class:`VectorSimulation` its one-host, unrouted case;
a configuration outside the envelope (a row of :data:`ENVELOPE`) replays on
the scalar driver's request loop instead, identical by construction.  One
module per seam, each importing only the ones before it: ``envelope``,
``columns`` (the hosts' state, the cut blocks, the tally folds),
``reactive`` and ``ttl`` (the kernels), ``lockstep`` (the walk and the
unit) and ``engine``.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.sim.vector.envelope": ("ENVELOPE", "EnvelopeRow", "envelope_exit"),
    "repro.sim.vector.lockstep": ("replay_in_lockstep",),
    "repro.sim.vector.engine": ("SpanReplay", "VectorSimulation"),
})
