"""Replication configuration and replica-read routing.

Every key lives on ``factor`` distinct nodes: the ring primary plus the next
``factor - 1`` nodes clockwise.  Writes dirty every replica (each replica's
backend buffer records the key, and the fan-out at the interval flush sends
one freshness message per replica).  Reads go to a single replica chosen by
the read policy:

* ``primary`` — always the ring primary (classic primary-copy caching),
* ``round-robin`` — rotate across replicas per key, spreading hot-key load,
* ``hash`` — a stable per-key choice among replicas (sticky but spread).

All three are deterministic, which is what keeps cluster results reproducible
regardless of how many worker processes ran the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ClusterError
from repro.sketch.hashing import stable_fingerprint

READ_POLICIES = ("primary", "round-robin", "hash")

#: A read as the replay loop hands it on: ``(time, key, key_size, value_size)``.
ReadHandler = Callable[[float, str, int, int], None]


@dataclass(frozen=True, slots=True)
class ReplicationConfig:
    """How many replicas each key has and how reads pick among them.

    Args:
        factor: Number of replicas per key (1 = no replication).
        read_policy: One of :data:`READ_POLICIES`.
    """

    factor: int = 1
    read_policy: str = "primary"

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ClusterError(f"replication factor must be >= 1, got {self.factor}")
        if self.read_policy not in READ_POLICIES:
            raise ClusterError(
                f"read_policy must be one of {READ_POLICIES}, got {self.read_policy!r}"
            )


class ReplicaRouter:
    """Stateful read routing across a key's replica set.

    The read policy is resolved once, by :meth:`bind`: a replay gets one
    callable that routes and serves a read in a single frame.
    :meth:`choose_read_node` answers the same question for one read, through
    the same callable and the same per-key round-robin counters.
    """

    def __init__(self, config: ReplicationConfig) -> None:
        self.config = config
        #: Reads routed so far per key (round-robin only).  Mutated in place,
        #: never rebound: a bound read callable holds this dict.
        self._round_robin: Dict[str, int] = {}

    def bind(
        self,
        routes: Mapping[str, Tuple[str, ...]],
        route: Optional[Callable[[str, int], Tuple[str, ...]]],
        factor: int,
        serve: Mapping[str, ReadHandler],
    ) -> ReadHandler:
        """The read callable of one run: route a read and hand it to its node.

        ``routes`` is the live ``key -> replicas`` map (primary first, at
        least one replica), ``route(key, factor)`` fills a key it lacks, and
        ``serve`` maps a node id to the callable that serves the read there.
        A key with one replica is served by it and leaves its round-robin
        counter where it is.
        """
        find = routes.get
        policy = self.config.read_policy
        if policy == "primary":

            def read(time: float, key: str, key_size: int, value_size: int) -> None:
                replicas = find(key)
                if replicas is None:
                    replicas = route(key, factor)
                serve[replicas[0]](time, key, key_size, value_size)

        elif policy == "hash":

            def read(time: float, key: str, key_size: int, value_size: int) -> None:
                replicas = find(key)
                if replicas is None:
                    replicas = route(key, factor)
                # One replica is slot 0 of any fingerprint.
                node_id = replicas[stable_fingerprint(key + "#read") % len(replicas)]
                serve[node_id](time, key, key_size, value_size)

        else:
            counters = self._round_robin
            sequence_of = counters.get

            def read(time: float, key: str, key_size: int, value_size: int) -> None:
                replicas = find(key)
                if replicas is None:
                    replicas = route(key, factor)
                width = len(replicas)
                if width == 1:
                    node_id = replicas[0]
                else:
                    sequence = sequence_of(key, 0)
                    counters[key] = sequence + 1
                    node_id = replicas[sequence % width]
                serve[node_id](time, key, key_size, value_size)

        return read

    def choose_read_node(self, key: str, replicas: Sequence[str]) -> str:
        """Pick the replica that serves the next read of ``key``.

        ``replicas`` is the primary-first list from the hash ring; it may be
        shorter than the configured factor when nodes have failed.  One read
        through a :meth:`bind` callable whose nodes record their id.
        """
        if not replicas:
            raise ClusterError(f"no replica available for key {key!r}")
        chosen = []
        record = {
            node_id: lambda *read, node_id=node_id: chosen.append(node_id)
            for node_id in replicas
        }
        self.bind({key: tuple(replicas)}, None, len(replicas), record)(0.0, key, 0, 0)
        return chosen[0]
