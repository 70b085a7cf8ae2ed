"""One fan-out: run a body over shares of work, one forked process per share.

The one place that spreads work over processes — the cells of an experiment
grid (:mod:`repro.experiments.runner`) — does it here, and this is the only
module of the package that imports :mod:`multiprocessing`.  A fleet replay
never forks: it runs in one process.  What the shares have in common (a
compiled trace, its index, a routing plan) is built by the caller
*before* the call and reaches the children by ``fork`` inheritance, the body
and its closure included: nothing is pickled on the way in, only each share's
result on the way out.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Callable, List, Sequence, Type, TypeVar

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation only; the import is not free
    from multiprocessing.connection import Connection

Share = TypeVar("Share")
Result = TypeVar("Result")


def _answer(sender: Connection, body: Callable[[Share], Result], share: Share) -> None:
    """Child process body: send the share's result, or what it raised, up the pipe."""
    try:
        outcome = body(share)
    except Exception as error:  # re-raised by the parent, as its own type
        outcome = error
    sender.send(outcome)


def fork_each(
    body: Callable[[Share], Result],
    shares: Sequence[Share],
    describe: Callable[[Share], str],
    error: Type[ReproError],
) -> List[Result]:
    """Run ``body(share)`` for every share — the first one here, each of the
    others in a forked child — and return the results in share order.

    The caller is a worker: it runs its share on the pages it has just warmed
    while the children run, instead of sleeping in ``recv()`` next to one more
    forked copy of itself.  An exception a share raises, here or in a child,
    is raised again as its own type.  Only the child holds the write end of
    its one-way pipe, so one that dies without answering (``SIGKILL``, the OOM
    killer) reads as end-of-file and becomes an ``error`` naming
    ``describe(share)`` and the exit code; a worker pool would replace it
    silently and wait for ever.  No child outlives the call, whichever way it
    ends.  On a platform without ``fork`` the shares run one after another
    in-process: slower, same results; no share or one never forks.
    """
    if len(shares) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [body(share) for share in shares]
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_answer, args=(sender, body, share))
            child.start()
            sender.close()
            children.append((child, receiver, share))
        results = [body(shares[0])]
        for child, receiver, share in children:
            try:
                outcome = receiver.recv()
            except EOFError:
                child.join()
                raise error(
                    f"{describe(share)} died without a result (exit code {child.exitcode})"
                ) from None
            if isinstance(outcome, Exception):
                raise outcome
            results.append(outcome)
        return results
    finally:
        for child, receiver, _ in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
