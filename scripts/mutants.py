#!/usr/bin/env python3
"""Mutation score: does tier-1 kill the bugs this code could ship?

Each mutant is ``(name, file, old, new, why, killer)``: an exact-string
edit of ``file`` (a path under the repository root), and the test that
killed it last.  ``old`` must occur exactly once in the file; a mutant that
has to change several places gives ``old`` and ``new`` as equal-length
tuples, applied pair by pair, and ``file`` as one path or a tuple of one
path per pair.  Every mutant is applied to a
fresh ``git archive HEAD`` copy in a temporary directory.  Its killer runs
there first; only when that test passes, or names no test any more, does
all of tier-1 run with ``-x``.  A killer outside :data:`SLIP_PINS` that
fails is a ``killed`` verdict a full run would also reach, so the selection
cannot let a mutant survive:

* ``killed`` — a test outside :data:`SLIP_PINS` fails;
* ``killed-by-pin`` — only a pin of the TTL-polling slip fails (the pins
  assert the slip's exact figures, not a property the mutant breaks);
* ``survived`` — tier-1 passes;
* ``equivalent`` — listed in :data:`EQUIVALENT` with the reason no output
  can change; not run.

Usage::

    python scripts/mutants.py

It prints one line per mutant (``*`` marks a killer that no longer kills:
copy ``MUTANTS.json``'s ``by`` into the mutant's entry) and writes
``MUTANTS.json`` (untracked) at the repository root.
Exit status: 0 when no mutant survives, 1 when one does, 2 when a mutant
no longer applies to HEAD or tier-1 could not run in a copy.  Standard
library only: it needs git, and pytest in the running interpreter.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent

Edit = Union[str, Tuple[str, ...]]
Mutant = Tuple[str, Edit, Edit, Edit, str, str]

VECTOR_COLUMNS = "src/repro/sim/vector/columns.py"
VECTOR_REACTIVE = "src/repro/sim/vector/reactive.py"
VECTOR_TTL = "src/repro/sim/vector/ttl.py"
VECTOR_LOCKSTEP = "src/repro/sim/vector/lockstep.py"
TTL = "src/repro/core/ttl.py"
COMPILED = "src/repro/workload/compiled.py"
POISSON = "src/repro/workload/poisson.py"
FLEET = "src/repro/cluster/vector.py"
SCENARIOS = "src/repro/cluster/scenarios.py"
DEFERRED = "src/repro/deferred.py"
RECORDER = "src/repro/obs/recorder.py"
COORDINATOR = "src/repro/concurrency/coordinator.py"

#: The mutants: the TTL kernels, the polling kernel's run table, the
#: poll-count pair, the batches of big cuts, a replay's end on its columns
#: (the deferred histories, the settle at the horizon), the span table's
#: whole batches, the shipped bugs (the ignored kill point), the three
#: scenario timelines, trace preparation (the index's composite sort,
#: the in-place draw), and the node state a replay leaves to a build on its
#: first read, and the reactive window kernel's state carried from cut to
#: cut, and the TTL units' members (each its own TTL, tallies, settle and
#: stride), and the stateful fleet's per-request fast paths (the recorder's
#: zero read cost, the coordinator's ``next_done`` slot), and the refusals
#: of an infinite bound, horizon or request time, and the state objects a
#: columnar replay must not build (no row changes: only a count can tell).
#: The last field of each is the test that killed it last, run first on its
#: copy.
MUTANTS: Tuple[Mutant, ...] = (
    (
        "poll-count-round-scalar",
        TTL,
        "return int((t - anchor) / ttl) if t > anchor else 0",
        "return round((t - anchor) / ttl) if t > anchor else 0",
        "the scalar half of the poll-count pair rounds: the scalar engine "
        "charges polls the kernels do not",
        "tests/test_perf_equivalence.py::"
        "test_fleet_ttl_replay_matches_per_node_key_reference[2-round-robin-None-ttl-polling]",
    ),
    (
        "poll-count-round-array",
        TTL,
        "counts = ((t - anchor) / ttl).astype(np.int64)",
        "counts = np.round((t - anchor) / ttl).astype(np.int64)",
        "the array half of the pair rounds: the kernels charge polls the "
        "scalar engine does not",
        "tests/test_cluster_parallel.py::"
        "test_vector_cluster_replay_matches_scalar_fleet",
    ),
    (
        "expiry-kernel-all-cold",
        VECTOR_TTL,
        "    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.\n",
        "    valid, cold = valid & False, cold | True\n"
        "    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.\n",
        "the TTL-expiry kernel fills every key cold, handed entries or not "
        "(the wrong row an envelope row once fenced off)",
        "tests/test_vector_engine.py::"
        "test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows[ttl-expiry-single-VALID]",
    ),
    (
        "polling-kernel-all-cold",
        VECTOR_TTL,
        "    first_time = times[first_position]\n",
        "    first_time = times[first_position]\n"
        "    valid, cold = valid & False, cold | True\n",
        "the TTL-polling kernel fills every key cold, handed entries or not",
        "tests/test_vector_engine.py::"
        "test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows[ttl-polling-single-VALID]",
    ),
    (
        "stale-miss-constant-fold",
        (VECTOR_COLUMNS, VECTOR_TTL),
        (
            "    if tally.stale_misses and not streamed and tally.charges is None:\n",
            "    missed = first_position[refetching]\n",
        ),
        (
            "    if tally.stale_misses and tally.charges is None:\n",
            "    missed = first_position[refetching & False]\n",
        ),
        "a polling span's stale misses fold as one constant ahead of its "
        "poll charges instead of in stream order among them (visible at "
        "c_m != 1 only)",
        "tests/test_vector_engine.py::"
        "test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows"
        "[ttl-polling-single-INVALIDATED]",
    ),
    (
        "warm-polling-baseline-zero",
        VECTOR_TTL,
        "    paid = poll_counts(loaded_anchor, columns.accounted[rows], ttl)\n",
        "    paid = 0 * poll_counts(loaded_anchor, columns.accounted[rows], ttl)\n",
        "a loaded polling entry's first read counts its polls from its "
        "anchor, not from its accounting point: polls charged twice",
        "tests/test_vector_engine.py::"
        "test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows[ttl-polling-single-VALID]",
    ),
    (
        "run-lead-counts-own",
        VECTOR_TTL,
        "        lead = seen - np.append(carried, counted[:-1])\n",
        "        lead = seen - counted\n",
        "a poll-count run's first read charges its polls past its own "
        "accounting point, not the previous run's: a run after a slip "
        "charges one poll short",
        "tests/test_cluster_parallel.py::"
        "test_vector_cluster_replay_matches_scalar_fleet",
    ),
    (
        "slip-run-first-read-only",
        VECTOR_TTL,
        "        emitted = leads + np.where(again != 0, length - 1, 0)\n",
        "        emitted = leads + np.where(again != 0, 0, 0)\n",
        "a run whose accounting point rounds back a poll charges its first "
        "read only, not the re-charged poll of every later read (the slip "
        "fixed in one engine only)",
        "tests/test_cluster_parallel.py::"
        "test_vector_cluster_replay_matches_scalar_fleet",
    ),
    (
        "slip-fixed",
        TTL,
        (
            "return int((t - anchor) / ttl) if t > anchor else 0",
            "counts = ((t - anchor) / ttl).astype(np.int64)",
            "    k_now = int((now - anchor) / ttl)\n",
            "(int((accounted - anchor) / ttl) if accounted > anchor else 0)",
        ),
        (
            "return round((t - anchor) / ttl) if t > anchor else 0",
            "counts = np.round((t - anchor) / ttl).astype(np.int64)",
            "    k_now = round((now - anchor) / ttl)\n",
            "(round((accounted - anchor) / ttl) if accounted > anchor else 0)",
        ),
        "the row change of the TTL-polling debt: every poll count rounds, both "
        "halves of the pair and the hot path's inlined copy alike; only the "
        "slip's pins can tell",
        "src/repro/core/ttl.py::repro.core.ttl.poll_count",
    ),
    (
        "inner-edges-bisected-right",
        COMPILED,
        "            np.tile(edges[1:-1], keys.size),\n",
        "            np.tile(edges[1:-1], keys.size),\n            right=True,\n",
        "a batch that starts with a big cut bisects its inner edges past the "
        "request on each edge: that request lands in the cut before it",
        "tests/test_perf_equivalence.py::"
        "test_a_batch_of_cuts_equals_its_cuts_built_one_by_one[single-0.05-0]",
    ),
    (
        "write-run-block-splits-a-group",
        VECTOR_COLUMNS,
        "stride, write_lo[block], num_writes[block]\n",
        "stride, write_lo[block], np.minimum(num_writes[block], _CUT_GRID)\n",
        "a write-run block ends inside a group with more writes than the "
        "block holds: the group's writes past the boundary go uncounted",
        "tests/test_perf_equivalence.py::"
        "test_a_batch_of_cuts_equals_its_cuts_built_one_by_one[single-0.05-0]",
    ),
    (
        "histories-in-key-order",
        VECTOR_COLUMNS,
        '    written = written[np.argsort(index.write_pos[offsets[written]], kind="stable")]\n',
        "    written = np.sort(written)\n",
        "the deferred build creates the datastore's histories in key-id order, "
        "not in first-write order: the store's key order is not the scalar "
        "engine's",
        "tests/test_perf_equivalence.py::"
        "test_index_span_slices_match_per_span_stable_sort[0]",
    ),
    (
        "settle-folds-in-key-order",
        VECTOR_TTL,
        "result.freshness_cost, columns.filled[rows[mine]], polls[mine], ctx.miss_const\n",
        "result.freshness_cost, rows[mine], polls[mine], ctx.miss_const\n",
        "the end-of-run poll charges fold in key-id order, not in the cache's "
        "order: a different float at c_m != 1",
        "tests/test_vector_engine.py::"
        "test_a_ttl_host_handed_cached_entries_replays_the_scalar_rows"
        "[ttl-polling-skipped-single-VALID]",
    ),
    (
        "evicted-batch-keeps-its-cuts",
        COMPILED,
        "            self._drop(self.table[next(iter(self.table))][0])\n",
        "            self.table_bytes -= self.table[next(iter(self.table))][0].nbytes\n",
        "the span table uncharges its oldest batch but keeps its cut entries: "
        "the table holds more than its cap says",
        "tests/test_perf_equivalence.py::"
        "test_replays_on_a_shared_trace_equal_replays_on_fresh_traces[poisson]",
    ),
    (
        "one-cut-block-takes-the-next-writes",
        VECTOR_COLUMNS,
        "            self.writes[lo:hi],\n",
        "            np.roll(self.writes, -1, axis=0)[lo:hi],\n",
        "a block of cuts counts the writes of the batch's next cuts: each host's "
        "result counts another cut's writes",
        "tests/test_experiments.py::"
        "test_a_fused_unit_gives_each_cell_the_row_it_gets_alone[single-0.01]",
    ),
    (
        "fleet-kill-point-ignored",
        FLEET,
        "        lambda engine, stop_at: stop_at is not None,\n",
        "        lambda engine, stop_at: False,\n",
        "the fleet envelope lets a replay with a kill point onto the kernels, "
        "which replay to the end of the trace instead of stopping there",
        "tests/test_vector_engine.py::"
        "test_every_envelope_row_replays_scalar_rows_under_its_own_name[stop-at-fleet]",
    ),
    (
        "instant-ignores-its-time",
        SCENARIOS,
        "self.at = _time(self.at_param, self._at_arg, self.at_fraction * duration)",
        "self.at = self.at_fraction * duration",
        "an instant scenario fires at its default fraction of the run whatever "
        "time it was given",
        "tests/test_cluster_scenarios.py::"
        "test_a_scenario_time_that_is_not_a_real_number_is_refused_by_name[soon-kill-at-t-kill_at]",
    ),
    (
        "window-end-never-fires",
        SCENARIOS,
        "            ScenarioEvent(time=self.end, label=end, apply=self.finish),\n",
        "",
        "a window scenario starts and never ends: the partition, outage, squeeze "
        "or gray spell lasts to the end of the run",
        "tests/test_scenario_catalog.py::"
        "test_scenario_events_are_pinned_time_for_time[backend-saturation-1]",
    ),
    (
        "outage-rejoins-cold",
        SCENARIOS,
        '        warm = self.rejoin == "warm"\n',
        "        warm = False\n",
        "a failed node or zone rejoins cold under rejoin=\"warm\": the snapshot "
        "it was made to restore from is never read",
        "tests/test_cluster_scenarios.py::"
        "test_warm_rejoin_cuts_the_miss_spike_versus_cold_rejoin",
    ),
    (
        "index-position-field-short",
        COMPILED,
        "        position_bits = max(total - 1, 0).bit_length()\n",
        "        position_bits = max(total - 2, 0).bit_length()\n",
        "the index's composite key gives positions one bit too few at 2^k + 1 "
        "requests: the last position spills into the key field",
        "tests/test_trace_prep.py::"
        "test_the_composite_sort_lays_out_the_argsort_index[1025-1-mixed]",
    ),
    (
        "write-rank-searched-right",
        COMPILED,
        "np.searchsorted(composite[:reads], composite[reads:]).astype(",
        'np.searchsorted(composite[:reads], composite[reads:], side="right").astype(',
        "a write's rank among its key's reads is searched past equal keys",
        "tests/test_trace_prep.py::"
        "test_the_composite_sort_lays_out_the_argsort_index[1025-65-mixed]",
    ),
    (
        "write-rank-needle-flagged",
        COMPILED,
        "np.searchsorted(composite[:reads], composite[reads:]).astype(",
        "np.searchsorted(composite[:reads], composite[reads:] | (1 << write_shift)).astype(",
        "a write's rank is searched with its write flag still set: every write "
        "ranks past every read",
        "tests/test_trace_prep.py::"
        "test_the_composite_sort_lays_out_the_argsort_index[1025-65-mixed]",
    ),
    (
        "exponential-draw-unscaled",
        POISSON,
        "            times *= mean_gap\n",
        "",
        "the Poisson draw loop keeps its standard exponentials unscaled: every "
        "gap is drawn at rate 1, not at the aggregate rate",
        "tests/test_trace_prep.py::"
        "test_the_poisson_draw_pins_its_first_chunks_to_fresh_draws",
    ),
    (
        "deferred-build-never-runs",
        DEFERRED,
        "            owner.__class__ = cls\n            build()\n",
        "            owner.__class__ = cls\n",
        "the first read of a node's state turns its owners back without building: "
        "a columnar replay's nodes read empty",
        "tests/test_deferred_state.py::"
        "test_the_first_read_finds_what_the_eager_write_back_built[single-owners]",
    ),
    (
        "deferred-build-writes-the-next-host",
        VECTOR_COLUMNS,
        "            entries, invalidated, pending, counters = self.tables[host]\n",
        "            entries, invalidated, pending, counters = self.tables[(host + 1) % stride]\n",
        "a host's write-back fills the next host's dicts: every fleet node reads "
        "its neighbour's state",
        "tests/test_deferred_state.py::"
        "test_the_first_read_finds_what_the_eager_write_back_built[fleet-owners]",
    ),
    (
        "pickle-drops-the-pending-build",
        DEFERRED,
        "        def reduce_ex(owner: Deferrable, protocol: int):\n            settle(owner)\n",
        "        def reduce_ex(owner: Deferrable, protocol: int):\n"
        "            del owner._build\n            owner.__class__ = cls\n",
        "copying or pickling an owner whose build is pending drops the build: the "
        "copy and the original both read empty",
        "tests/test_deferred_state.py::"
        "test_the_first_read_finds_what_the_eager_write_back_built[single-pickle]",
    ),
    (
        "window-flush-forgets-tracked",
        VECTOR_REACTIVE,
        "        tracked[mine] = (holds | send) & ~update\n",
        "        tracked[mine] = holds & ~update\n",
        "a window's flush leaves the invalidates it sends out of the tracker's "
        "column: the next cut's flush sends a repeat invalidate instead of "
        "suppressing it",
        "tests/test_perf_equivalence.py::test_span_kernel_matches_per_key_reference[invalidate]",
    ),
    (
        "window-miss-keeps-earlier-writes",
        VECTOR_REACTIVE,
        "        drains = np.where(miss, kept[lo:hi], written[lo:hi])\n",
        "        drains = written[lo:hi].copy()\n",
        "a miss in a window leaves the writes before it buffered: the flush "
        "drains a key whose every write the fill already saw",
        "tests/test_perf_equivalence.py::test_span_kernel_matches_per_key_reference[invalidate]",
    ),
    (
        "window-passes-a-members-roll",
        VECTOR_LOCKSTEP,
        "        self.until = min(self.until, until)\n",
        "        self.until = max(self.until, until)\n",
        "a unit's window runs on past the first obs roll of a member that rolls "
        "before the others: that member's obs windows close on the wrong counts",
        "tests/test_vector_engine.py::"
        "test_a_unit_ends_each_window_at_its_members_earliest_obs_roll",
    ),
    (
        "window-ew-carry-resets-per-cut",
        VECTOR_REACTIVE,
        "    resumed[1:] = observed[:-1] & ~starts[1:]\n",
        "    resumed[1:] = ~starts[1:]\n",
        "the E[W] carry of a row restarts at each cut of a window: writes since "
        "the last read in an earlier cut drop out of the next run, and the "
        "adaptive hosts decide on a wrong E[W]",
        "tests/test_vector_engine.py::test_fleet_cut_in_one_kernel_call_matches_the_scalar_fleet"
        "[2-rf2-round-robin-adaptive-0.05]",
    ),
    (
        "ttl-unit-takes-the-first-members-ttl",
        VECTOR_COLUMNS,
        "        self.ttl = np.array([host._ttl_value for host in hosts], dtype=np.float64)\n",
        "        self.ttl = np.array([hosts[0]._ttl_value for host in hosts], dtype=np.float64)\n",
        "every member of a TTL unit expires or polls at the first member's TTL: "
        "the other bounds' cells replay with the wrong timer",
        "tests/test_experiments.py::"
        "test_a_fused_ttl_unit_gives_each_cell_the_row_it_gets_alone[ttl-expiry]",
    ),
    (
        "ttl-unit-folds-into-the-next-member",
        VECTOR_LOCKSTEP,
        "        folding = iter(tallies)\n",
        "        folding = iter(tallies[-1:] + tallies[:-1])\n",
        "each stacked host's tallies fold into the host after it: a member's "
        "counts land on the next member's result",
        "tests/test_experiments.py::"
        "test_a_fused_ttl_unit_gives_each_cell_the_row_it_gets_alone[ttl-expiry]",
    ),
    (
        "ttl-unit-settles-once-at-the-first-finish",
        VECTOR_LOCKSTEP,
        (
            "        if node._poll_ttl is not None:\n",
            "            _settle_polls(member._ctx, self.columns, horizon, hosts)\n",
        ),
        (
            "        if node._poll_ttl is not None and not self.finished:\n",
            "            _settle_polls(member._ctx, self.columns, horizon, slice(None))\n",
        ),
        "TTL-polling's settle runs once, for every member's hosts, when the first "
        "member finishes, on that member's context: the others settle at its TTL",
        "tests/test_experiments.py::"
        "test_a_fused_ttl_unit_gives_each_cell_the_row_it_gets_alone[ttl-polling]",
    ),
    (
        "ttl-unit-held-violations-at-the-first-bound",
        VECTOR_TTL,
        "            columns.bound[groups.host[reading[held]]],\n",
        "            np.full(held.size, columns.bound[0]),\n",
        "a TTL unit counts every member's handed-in entries' violations against "
        "the first member's staleness bound",
        "tests/test_vector_engine.py::"
        "test_ttl_hosts_handed_cached_entries_replay_the_scalar_rows_as_one_unit[ttl-polling]",
    ),
    (
        "flat-rule-updates-at-the-tie",
        VECTOR_REACTIVE,
        "        return values * rule.update_cost < rule.invalidate_cost + rule.miss_cost\n",
        "        return values * rule.update_cost <= rule.invalidate_cost + rule.miss_cost\n",
        "the columnar flush's flat-cost E[W] comparison updates at the break-even "
        "point, where ew_decision invalidates",
        "tests/test_policy_costs.py::test_vector_ew_decisions_are_from_ew_value_by_value[flat-tie]",
    ),
    (
        "fleets-share-their-shapes-ring",
        "src/repro/cluster/cluster.py",
        "        self.ring = _shape_ring(num_nodes, vnodes, self.zones).copy()\n",
        "        self.ring = _shape_ring(num_nodes, vnodes, self.zones)\n",
        "every fleet of a shape routes on one ring: a node a scenario removes is "
        "gone from the next fleet of that shape too",
        "tests/test_cluster_scenarios.py::"
        "test_a_fleet_that_loses_a_node_leaves_the_next_of_its_shape_a_fresh_ring",
    ),
    (
        "ttl-unit-ignores-the-read-stride",
        VECTOR_LOCKSTEP,
        "            id(ctx.index), schedule, member.duration, member._stride, ctx.serve_const,\n",
        "            id(ctx.index), schedule, member.duration, 1, ctx.serve_const,\n",
        "replays whose groups read with different strides stack into one unit: "
        "a round-robin fleet's groups read every other read of their key",
        "tests/test_experiments.py::test_units_in_lockstep_give_every_cell_its_own_row",
    ),
    (
        "window-writes-back-before-the-kernel",
        VECTOR_LOCKSTEP,
        "        self._fold(_kernel_reactive_window(ctx, self.columns, prelude, flushes))\n",
        "        self.columns.write_back()\n"
        "        self._fold(_kernel_reactive_window(ctx, self.columns, prelude, flushes))\n",
        "each reactive window first writes its hosts' objects back from the columns: "
        "every window after the first builds the entries the columns hold",
        "tests/test_perf.py::test_reactive_cuts_build_no_state_objects",
    ),
    (
        "ttl-cut-writes-back-after-the-kernel",
        VECTOR_LOCKSTEP,
        "            kernel(ctx, self.columns, tallies, groups)\n",
        "            kernel(ctx, self.columns, tallies, groups)\n"
        "            self.columns.write_back()\n",
        "a TTL unit's one kernel call writes its hosts' objects back at once: "
        "every cached entry is built whether or not a caller reads it",
        "tests/test_perf.py::test_the_ttl_cut_builds_no_state_objects",
    ),
    (
        "histories-built-eagerly",
        VECTOR_COLUMNS,
        "    ctx.datastore.defer_histories(partial(_build_histories, ctx.trace.key_names, ctx.index))\n",
        "    _build_histories(ctx.trace.key_names, ctx.index, ctx.datastore._histories)\n",
        "a replay's end builds the datastore's histories at once instead of on "
        "their first read: a sweep that reads none pays for every written key",
        "tests/test_perf.py::test_a_columnar_replay_builds_no_history_nobody_reads",
    ),
    (
        "zero-read-cost-in-the-next-bucket",
        RECORDER,
        "        counts[ZERO_BUCKET] = counts.get(ZERO_BUCKET, 0) + 1\n",
        "        counts[ZERO_BUCKET + 1] = counts.get(ZERO_BUCKET + 1, 0) + 1\n",
        "a read that costs nothing lands in the bucket above zero: the read-cost "
        "histogram's percentiles rise off zero",
        "tests/test_obs.py::"
        "test_stateful_fleet_read_cost_equals_the_reference_wrappers[invalidate]",
    ),
    (
        "zero-read-cost-uncounted",
        RECORDER,
        "        read_cost.count += 1\n",
        "",
        "a read that costs nothing takes its bucket but not the histogram's count: "
        "the count and the mean stop covering every read",
        "tests/test_obs.py::"
        "test_stateful_fleet_read_cost_equals_the_reference_wrappers[invalidate]",
    ),
    (
        "read-cost-after-sum-is-the-before-sum",
        RECORDER,
        "    cost = 0.0\n    for fresh, cold in sources:\n"
        "        cost += fresh.freshness_cost + cold.cold_miss_cost\n",
        "    cost = cost_before\n",
        "the fleet's cost after a read is not summed again: every read records "
        "a zero cost, misses and polls included",
        "tests/test_obs.py::"
        "test_stateful_fleet_read_cost_equals_the_reference_wrappers[invalidate]",
    ),
    (
        "drain-keeps-next-done",
        COORDINATOR,
        "            self.next_done = completions[0].done if completions else math.inf\n",
        "",
        "a drain pops completions but leaves next_done at the earliest one it "
        "popped: every read and write calls the drain again until the next issue",
        "tests/test_concurrency.py::test_next_done_is_the_earliest_outstanding_completion[0]",
    ),
    (
        "discard-keeps-next-done",
        COORDINATOR,
        "        self._inflight.clear()\n        self.next_done = math.inf\n",
        "        self._inflight.clear()\n",
        "a crash drops the outstanding fetches but keeps their earliest completion "
        "as next_done",
        "tests/test_concurrency.py::test_next_done_is_the_earliest_outstanding_completion[0]",
    ),
    (
        "infinite-bound-accepted",
        "src/repro/sim/driver.py",
        "    if not (math.isfinite(number) and number > 0):\n",
        "    if not (number > 0):\n",
        "an infinite staleness bound or horizon is accepted: a replay flushes at "
        "inf for ever (the refusal a shipped bug once lacked)",
        "tests/test_driver.py::"
        "test_engines_refuse_a_bound_or_horizon_that_is_not_positive_and_finite[Simulation-inf]",
    ),
    (
        "infinite-request-time-in-order",
        "src/repro/workload/base.py",
        "        times[0] >= previous and times[-1] < math.inf"
        " and (times[1:] >= times[:-1]).all()\n",
        "        times[0] >= previous and (times[1:] >= times[:-1]).all()\n",
        "a chunk or a trace ending at an infinite time is in order: the replay "
        "flushes at inf for ever (the refusal a shipped bug once lacked)",
        "tests/test_input_shapes.py::"
        "test_an_infinite_time_is_refused_by_the_sorted_checks_and_the_index",
    ),
)

#: Mutants that cannot change any output, by name, with the reason.
EQUIVALENT: Dict[str, str] = {
    "write-rank-searched-right": (
        "a write's needle and every read key end in distinct stream positions, "
        "so no needle equals a read and both sides of the search agree"
    ),
}

#: Tests that pin the TTL-polling slip's exact figures (``int`` where the
#: poll count would round): they fail on the row change the slip's fix is,
#: so a mutant only they kill is ``killed-by-pin``.
SLIP_PINS: Tuple[str, ...] = (
    "src/repro/core/ttl.py::repro.core.ttl.poll_count",
    "src/repro/core/ttl.py::repro.core.ttl.poll_counts",
    "src/repro/core/ttl.py::repro.core.ttl.poll_instant",
    "tests/test_perf_equivalence.py::test_inlined_poll_arithmetic_matches_policy_methods",
    "tests/test_perf_equivalence.py::"
    "test_polling_closed_form_matches_scalar_arithmetic_up_to_the_resolvability_edge",
    "tests/test_tier.py::test_polling_is_not_double_charged_after_an_l2_eviction",
    "tests/test_tier.py::test_l1_eviction_settles_polls_of_l1_only_victims",
    # The run-table test insists on slipping runs, and hands a loaded entry
    # a slipping poll count.
    *(
        "tests/test_perf_equivalence.py::"
        f"test_polling_run_table_matches_the_reference_and_the_scalar_engine[{block}]"
        for block in ("1", "7", "None")
    ),
)


def _edits(old: Edit, new: Edit) -> List[Tuple[str, str]]:
    olds = (old,) if isinstance(old, str) else old
    news = (new,) if isinstance(new, str) else new
    return list(zip(olds, news, strict=True))


def _apply(copy: Path, mutant: Mutant) -> None:
    name, files, old, new, _, _ = mutant
    edits = _edits(old, new)
    if isinstance(files, str):
        files = (files,) * len(edits)
    for file, (before, after) in zip(files, edits, strict=True):
        path = copy / file
        text = path.read_text()
        found = text.count(before)
        if found != 1:
            raise LookupError(f"{name}: {file} holds {found} copies of {before!r}, not 1")
        path.write_text(text.replace(before, after))


def _pytest(copy: Path, args: Sequence[str]) -> Tuple[int, str]:
    """Run pytest in ``copy`` (no test named: tier-1, the pyproject's
    ``testpaths``); its exit code and the first failing test."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, failed.group(1) if failed else ""


def _verdict(copy: Path, killer: str) -> Tuple[str, str]:
    """The killer, then if need be tier-1, on a mutated copy: ``(status,
    first failing test)``.  A pin is no killer to try first: only all of
    tier-1 passing makes its failure ``killed-by-pin``."""
    if killer not in SLIP_PINS:
        code, _ = _pytest(copy, [killer])
        if code == 1:
            return "killed", killer
    deselect = [arg for pin in SLIP_PINS for arg in ("--deselect", pin)]
    code, failed = _pytest(copy, deselect)
    if code == 1:
        return "killed", failed
    if code == 0 and SLIP_PINS:
        code, failed = _pytest(copy, list(SLIP_PINS))
        if code == 1:
            return "killed-by-pin", failed
    if code == 0:
        return "survived", ""
    raise RuntimeError(f"pytest exited {code} on a mutated copy")


def main() -> int:
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    started = time.perf_counter()
    rows = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        pristine = Path(scratch) / "head"
        pristine.mkdir()
        archive = subprocess.run(
            ["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(pristine)], input=archive, check=True)
        for mutant in MUTANTS:
            name, file, _, _, why, killer = mutant
            clock = time.perf_counter()
            if name in EQUIVALENT:
                status, failed = "equivalent", EQUIVALENT[name]
            else:
                copy = Path(scratch) / name
                shutil.copytree(pristine, copy)
                try:
                    _apply(copy, mutant)
                    status, failed = _verdict(copy, killer)
                except (LookupError, RuntimeError) as error:
                    print(f"error      {name}: {error}", flush=True)
                    return 2
                finally:
                    shutil.rmtree(copy)
            seconds = round(time.perf_counter() - clock, 1)
            moved = "*" if failed != killer and status != "equivalent" else " "
            print(f"{status:<14}{moved}{name}  {failed}  ({seconds} s)", flush=True)
            rows.append(dict(name=name, file=file, status=status, by=failed,
                             seconds=seconds, why=why))
    wall = round(time.perf_counter() - started, 1)
    survivors = [row["name"] for row in rows if row["status"] == "survived"]
    (ROOT / "MUTANTS.json").write_text(
        json.dumps(dict(head=head, wall_s=wall, mutants=rows), indent=2) + "\n"
    )
    print(f"{len(rows) - len(survivors)} of {len(rows)} not surviving, {wall} s; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
