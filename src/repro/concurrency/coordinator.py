"""Per-host in-flight fetch tables and stampede-mitigation policies.

A :class:`FetchCoordinator` sits between a read path and the shared
:class:`~repro.concurrency.backend.BackendServer`.  It tracks which keys have
a backend fetch in flight, orders fetch completions deterministically, and
implements the classic cache-stampede mitigations as data (flags consulted by
the host's concurrent read path):

* ``none`` — every miss issues its own fetch and waits for it; concurrent
  misses on the same key dogpile the backend.
* ``single-flight`` — concurrent misses on a key coalesce onto the one
  in-flight fetch (the leader); followers wait for the same completion and
  the backend sees exactly one fetch.
* ``stale-while-revalidate`` — like single-flight, but when an expired or
  invalidated copy is still resident, both the leader and the followers
  serve it immediately (zero latency, staleness counted honestly) while the
  refresh completes in the background.
* ``dogpile-lock`` — the leader takes the lock and waits for the fresh
  value; followers serve the stale copy when one is resident, else they
  wait on the leader's fetch.
* ``early-expiry`` — single-flight coalescing plus probabilistic early
  refresh on *hits* (XFetch): as an entry's freshness budget runs out, a
  seeded coin increasingly often triggers a background refresh before the
  entry goes stale, spreading refreshes out instead of letting a popular
  key expire under a thundering herd.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Iterator, List, Optional

from repro.concurrency.backend import BackendServer
from repro.concurrency.config import ConcurrencyConfig
from repro.concurrency.service import ServiceTimeSampler
from repro.sim.events import FetchCompletion

#: XOR'd into a host's seed for its service-time sampler stream, following
#: the detector/tier seed discipline (`node_seed ^ constant`).
SERVICE_SEED_SALT = 0x5EEDF17C

#: XOR'd into a host's seed for the early-expiry (XFetch) coin stream.
XFETCH_SEED_SALT = 0x2B7E1516


class InFlightFetch:
    """One outstanding backend fetch: what was read and when it lands."""

    __slots__ = ("key", "issued_at", "start", "done", "version", "value_size", "key_size")

    def __init__(
        self,
        key: str,
        issued_at: float,
        start: float,
        done: float,
        version: int,
        value_size: int,
        key_size: int,
    ) -> None:
        self.key = key
        self.issued_at = issued_at
        self.start = start
        self.done = done
        self.version = version
        self.value_size = value_size
        self.key_size = key_size


class FetchCoordinator:
    """In-flight fetch table, completion ordering, and policy flags."""

    __slots__ = (
        "config",
        "server",
        "coalesces",
        "followers_serve_stale",
        "leader_serves_stale",
        "early_expiry",
        "slowdown",
        "_sampler",
        "_xfetch",
        "_inflight",
        "_completions",
        "_seq",
        "next_done",
    )

    def __init__(self, config: ConcurrencyConfig, server: BackendServer, seed: int) -> None:
        self.config = config
        self.server = server
        policy = config.policy
        self.coalesces = policy != "none"
        self.followers_serve_stale = policy in ("stale-while-revalidate", "dogpile-lock")
        self.leader_serves_stale = policy == "stale-while-revalidate"
        self.early_expiry = policy == "early-expiry"
        #: Multiplier on every sampled service time.  1.0 is the healthy
        #: host; gray-failure scenarios raise it mid-run to model a
        #: slow-but-alive node without touching the sampler's random stream
        #: (the underlying draw sequence is unchanged, so a window that is
        #: never entered leaves replays byte-identical).
        self.slowdown = 1.0
        self._sampler = ServiceTimeSampler(config, (seed ^ SERVICE_SEED_SALT) % 2**32)
        self._xfetch = random.Random((seed ^ XFETCH_SEED_SALT) % 2**32)
        self._inflight: Dict[str, InFlightFetch] = {}
        self._completions: List[FetchCompletion] = []
        self._seq = 0
        #: Completion time of the earliest outstanding fetch (inf if none):
        #: the heap's top, kept beside it by every push, pop and clear.
        self.next_done = math.inf

    def lookup(self, key: str) -> Optional[InFlightFetch]:
        """The in-flight fetch for ``key``, if the policy coalesces."""
        return self._inflight.get(key)

    def issue(
        self,
        key: str,
        issued_at: float,
        version: int,
        value_size: int,
        key_size: int,
    ) -> InFlightFetch:
        """Admit a fetch for ``key`` to the backend and track its completion.

        The caller has already read ``version``/``value_size`` from the
        datastore at issue time (the backend snapshot the fetch will carry);
        the coordinator only models *when* that value lands in the cache.
        """
        start, done = self.server.schedule(
            issued_at, self._sampler.sample() * self.slowdown
        )
        fetch = InFlightFetch(
            key=key,
            issued_at=issued_at,
            start=start,
            done=done,
            version=version,
            value_size=value_size,
            key_size=key_size,
        )
        self._seq += 1
        completions = self._completions
        heapq.heappush(completions, FetchCompletion(done=done, seq=self._seq, fetch=fetch))
        self.next_done = completions[0].done
        if self.coalesces:
            self._inflight[key] = fetch
        return fetch

    @property
    def pending(self) -> int:
        """Number of outstanding fetches (monitoring only)."""
        return len(self._completions)

    def drain(self, until: float) -> Iterator[InFlightFetch]:
        """Yield fetches completing at or before ``until``, in (done, seq) order."""
        completions = self._completions
        while completions and completions[0].done <= until:
            fetch = heapq.heappop(completions).fetch
            self.next_done = completions[0].done if completions else math.inf
            if self._inflight.get(fetch.key) is fetch:
                del self._inflight[fetch.key]
            yield fetch

    def discard_pending(self) -> None:
        """Drop every outstanding completion (host lost its volatile state).

        The restarted process has no record of the requests that issued the
        fetches, so their responses are discarded on arrival.  The backend
        slots they occupy stay busy — that work was already admitted.
        """
        self._completions.clear()
        self._inflight.clear()
        self.next_done = math.inf

    def should_refresh_early(self, now: float, as_of: float, bound: float) -> bool:
        """XFetch coin: refresh a *hit* early as its freshness budget drains.

        Triggers when the remaining budget ``(as_of + bound) - now`` drops
        below ``beta * mean_service_time * Exp(1)`` — rare while the entry is
        fresh, increasingly likely as expiry nears, guaranteed once overdue.
        The coin stream is seeded per host, so replays are deterministic.
        """
        gap = (as_of + bound) - now
        if gap <= 0.0:
            return True
        draw = -math.log(1.0 - self._xfetch.random())
        return gap <= self.config.beta * self.config.mean * draw
