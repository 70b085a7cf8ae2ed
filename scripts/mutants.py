#!/usr/bin/env python3
"""Mutation score: does tier-1 kill the bugs this code could ship?

Each mutant is ``(name, file, old, new, why)``: an exact-string edit of
``file`` (a path under the repository root).  ``old`` must occur exactly
once in the file; a mutant that has to change several places of one file
gives ``old`` and ``new`` as equal-length tuples, applied pair by pair.
Every mutant is applied to a fresh ``git archive HEAD`` copy in a temporary
directory, where tier-1 runs with ``-x``:

* ``killed`` — a test outside :data:`SLIP_PINS` fails;
* ``killed-by-pin`` — only a pin of the TTL-polling slip fails (the pins
  assert the slip's exact figures, not a property the mutant breaks);
* ``survived`` — tier-1 passes;
* ``equivalent`` — listed in :data:`EQUIVALENT` with the reason no output
  can change; not run.

Usage::

    python scripts/mutants.py

It prints one line per mutant and writes ``MUTANTS.json`` (untracked) at
the repository root.
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
Mutant = Tuple[str, str, Edit, Edit, str]

VECTOR = "src/repro/sim/vector.py"
POLLING = "src/repro/sim/polling.py"
TTL = "src/repro/core/ttl.py"
COMPILED = "src/repro/workload/compiled.py"

#: The mutants: the TTL kernels, the polling kernel's run table, the
#: poll-count pair, the batches of big cuts, and a replay's end on its
#: columns (the deferred histories, the settle at the horizon).
MUTANTS: Tuple[Mutant, ...] = (
    (
        "poll-count-round-scalar",
        TTL,
        "return int((t - anchor) / ttl) if t > anchor else 0",
        "return round((t - anchor) / ttl) if t > anchor else 0",
        "the scalar half of the poll-count pair rounds: the scalar engine "
        "charges polls the kernels do not",
    ),
    (
        "poll-count-round-array",
        TTL,
        "counts = ((t - anchor) / ttl).astype(np.int64)",
        "counts = np.round((t - anchor) / ttl).astype(np.int64)",
        "the array half of the pair rounds: the kernels charge polls the "
        "scalar engine does not",
    ),
    (
        "expiry-kernel-all-cold",
        VECTOR,
        "    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.\n",
        "    valid, cold = valid & False, cold | True\n"
        "    # Rank of the latest fetch in the run: -1 is a loaded valid entry's.\n",
        "the TTL-expiry kernel fills every key cold, handed entries or not "
        "(the wrong row an envelope row once fenced off)",
    ),
    (
        "polling-kernel-all-cold",
        VECTOR,
        "    first_time = times[first_position]\n",
        "    first_time = times[first_position]\n"
        "    valid, cold = valid & False, cold | True\n",
        "the TTL-polling kernel fills every key cold, handed entries or not",
    ),
    (
        "stale-miss-constant-fold",
        VECTOR,
        (
            "    if tally.stale_misses and not streamed:\n",
            "    missed = first_position[refetching]\n",
        ),
        (
            "    if tally.stale_misses:\n",
            "    missed = first_position[refetching & False]\n",
        ),
        "a polling span's stale misses fold as one constant ahead of its "
        "poll charges instead of in stream order among them (visible at "
        "c_m != 1 only)",
    ),
    (
        "warm-polling-baseline-zero",
        VECTOR,
        "    paid = poll_counts(loaded_anchor, columns.accounted[rows], ttl)\n",
        "    paid = 0 * poll_counts(loaded_anchor, columns.accounted[rows], ttl)\n",
        "a loaded polling entry's first read counts its polls from its "
        "anchor, not from its accounting point: polls charged twice",
    ),
    (
        "run-lead-counts-own",
        POLLING,
        "        lead = seen - np.append(carried, counted[:-1])\n",
        "        lead = seen - counted\n",
        "a poll-count run's first read charges its polls past its own "
        "accounting point, not the previous run's: a run after a slip "
        "charges one poll short",
    ),
    (
        "slip-run-first-read-only",
        POLLING,
        "        emitted = leads + np.where(again != 0, length - 1, 0)\n",
        "        emitted = leads + np.where(again != 0, 0, 0)\n",
        "a run whose accounting point rounds back a poll charges its first "
        "read only, not the re-charged poll of every later read (the slip "
        "fixed in one engine only)",
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
    ),
    (
        "inner-edges-bisected-right",
        COMPILED,
        "            np.tile(edges[1:-1], keys.size),\n",
        "            np.tile(edges[1:-1], keys.size),\n            right=True,\n",
        "a batch that starts with a big cut bisects its inner edges past the "
        "request on each edge: that request lands in the cut before it",
    ),
    (
        "write-run-block-splits-a-group",
        VECTOR,
        "stride, write_lo[block], num_writes[block]\n",
        "stride, write_lo[block], np.minimum(num_writes[block], _CUT_GRID)\n",
        "a write-run block ends inside a group with more writes than the "
        "block holds: the group's writes past the boundary go uncounted",
    ),
    (
        "histories-in-key-order",
        VECTOR,
        '    written = written[np.argsort(index.write_pos[offsets[written]], kind="stable")]\n',
        "    written = np.sort(written)\n",
        "the deferred build creates the datastore's histories in key-id order, "
        "not in first-write order: the store's key order is not the scalar "
        "engine's",
    ),
    (
        "settle-folds-in-key-order",
        VECTOR,
        "result.freshness_cost, columns.filled[rows[mine]], polls[mine], ctx.miss_const\n",
        "result.freshness_cost, rows[mine], polls[mine], ctx.miss_const\n",
        "the end-of-run poll charges fold in key-id order, not in the cache's "
        "order: a different float at c_m != 1",
    ),
)

#: Mutants that cannot change any output, by name, with the reason.
EQUIVALENT: Dict[str, str] = {}

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
    name, file, old, new, _ = mutant
    path = copy / file
    text = path.read_text()
    for before, after in _edits(old, new):
        found = text.count(before)
        if found != 1:
            raise LookupError(f"{name}: {file} holds {found} copies of {before!r}, not 1")
        text = text.replace(before, after)
    path.write_text(text)


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


def _verdict(copy: Path) -> Tuple[str, str]:
    """Tier-1 on a mutated copy: ``(status, first failing test)``."""
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
            name, file, _, _, why = mutant
            clock = time.perf_counter()
            if name in EQUIVALENT:
                status, failed = "equivalent", EQUIVALENT[name]
            else:
                copy = Path(scratch) / name
                shutil.copytree(pristine, copy)
                try:
                    _apply(copy, mutant)
                    status, failed = _verdict(copy)
                except (LookupError, RuntimeError) as error:
                    print(f"error      {name}: {error}", flush=True)
                    return 2
                finally:
                    shutil.rmtree(copy)
            seconds = round(time.perf_counter() - clock, 1)
            print(f"{status:<14} {name}  {failed}  ({seconds} s)", flush=True)
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
