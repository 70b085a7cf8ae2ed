"""Declarative experiment grids.

An :class:`ExperimentSpec` names the axes of an evaluation — policies,
workloads, staleness bounds, cache capacities, channels — and expands into the
cross product of concrete :class:`RunCell` instances.  Cells are plain,
picklable data, so they can be fanned out across worker processes and recorded
verbatim next to their results.

Seeding is deterministic and *workload-anchored*: a cell's seed is a stable
hash of the workload coordinates (name, parameters, duration, base seed) and
is independent of the policy, bound, capacity, and channel axes.  Every cell
that replays the same workload therefore replays an *identical* trace, which
is what makes the resulting policy comparisons meaningful — and results
reproducible regardless of how many worker processes executed the grid.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.backend.channel import Channel
from repro.concurrency.config import (
    SERVICE_TIME_DISTRIBUTIONS,
    STAMPEDE_POLICIES,
    ConcurrencyConfig,
)
from repro.errors import ClusterError, ConfigurationError
from repro.resilience.chaos import ChaosSpec
from repro.sim.driver import positive_finite

#: The replay engines a spec (and ``sweep --engine``) can name.
ENGINES = ("scalar", "vector")


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """Parameters of a lossy/delayed backend-to-cache channel.

    ``retries``/``retry_timeout``/``retry_backoff`` give senders bounded
    re-attempts against probabilistic loss (see
    :class:`~repro.backend.channel.Channel`); the defaults keep the channel
    fire-and-forget and byte-identical to pre-retry rows.
    """

    loss_probability: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    retries: int = 0
    retry_timeout: float = 0.0
    retry_backoff: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flatten to primitives for serialisation."""
        return asdict(self)

    def build(self, seed: int) -> Channel:
        """The channel this record describes, every field applied.

        The one place a spec becomes a :class:`Channel`: a single-cache cell
        seeds it from the cell seed, a fleet from each node's seed.
        """
        return Channel(seed=seed, **self.as_dict())


@dataclass(frozen=True, slots=True)
class _NamedSpec:
    """A registry name plus primitive parameters, sorted so equal specs compare equal."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, params: Optional[Mapping[str, Any]] = None):
        """Build a spec from a name and a parameter mapping."""
        return cls(name=name, params=tuple(sorted((params or {}).items())))

    def params_dict(self) -> Dict[str, Any]:
        """Return the parameters as a plain dict."""
        return dict(self.params)


@dataclass(frozen=True, slots=True)
class ScenarioSpec(_NamedSpec):
    """A cluster-scenario axis entry: registry name plus parameters.

    Kept declarative (a name and primitive parameters) so cells stay
    picklable and serialisable; the runner materialises the actual
    :class:`~repro.cluster.scenarios.Scenario` via
    :func:`repro.cluster.scenarios.make_scenario`.
    """

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to primitives for serialisation."""
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True, slots=True)
class WorkloadSpec(_NamedSpec):
    """A workload axis entry: registry name plus constructor parameters."""

    @property
    def label(self) -> str:
        """Short human-readable label used in reports."""
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class RunCell:
    """One fully-specified simulation run within an experiment grid."""

    experiment: str
    cell_id: int
    policy: str
    workload: str
    workload_params: Tuple[Tuple[str, Any], ...]
    staleness_bound: float
    cache_capacity: Optional[int]
    channel: Optional[ChannelSpec]
    duration: float
    seed: int
    cost_preset: str = "fixed"
    cost_params: Tuple[Tuple[str, Any], ...] = ()
    # Cluster coordinates.  ``num_nodes=None`` means a single-cache cell
    # executed by the plain Simulation; any integer switches the cell to a
    # ClusterSimulation with that fleet size.
    num_nodes: Optional[int] = None
    replication: int = 1
    read_policy: str = "primary"
    scenario: Optional[ScenarioSpec] = None
    hot_policy: Optional[str] = None
    hot_fraction: float = 0.02
    vnodes: int = 64
    # Persistence coordinates.  ``persistence=True`` runs the cell with a
    # write-ahead log + snapshots in a per-cell scratch directory and records
    # the deterministic store counters in the row.
    persistence: bool = False
    snapshot_interval: Optional[float] = None
    # Tier coordinates.  ``l1_capacity=0`` keeps the cell single-tier (and
    # byte-identical to a cell without any tier coordinates — test-pinned);
    # a positive capacity fronts every node's cache with an L1 in
    # ``tier_mode`` using the ``tier_admission`` policy.
    l1_capacity: int = 0
    tier_mode: str = "write-through"
    tier_admission: str = "second-hit"
    # Replay engine.  ``"scalar"`` streams the workload through the classic
    # loop; ``"vector"`` compiles it to columnar arrays first and replays
    # through the vector engine (byte-identical results, different wall
    # clock) — cells outside the vectorizable envelope fall back to the
    # scalar loop automatically.
    engine: str = "scalar"
    # Observability.  ``obs_window=None`` (default) replays with zero
    # telemetry overhead; a positive window samples windowed time-series,
    # spans, and events (see :mod:`repro.obs`) into the row's ``obs`` key.
    # Result counters are byte-identical either way.
    obs_window: Optional[float] = None
    # SLO rules as a *canonical JSON string* (see
    # :func:`repro.obs.slo.canonical_rules`) so the frozen cell stays
    # hashable and picklable.  Evaluated post-run against the cell's obs
    # payload into the row's ``slo`` key; requires ``obs_window``.
    slo_rules: Optional[str] = None
    # Concurrency coordinates.  ``None`` (default) replays with the classic
    # instant-fetch engines (byte-identical, test-pinned); a
    # :class:`~repro.concurrency.ConcurrencyConfig` enables the in-flight
    # fetch model (service times, backend queueing, stampede policy, read
    # latency percentiles).  The config's ``seed`` is rebound to the cell
    # seed by the runner, keeping the service-time streams workload-anchored.
    concurrency: Optional[ConcurrencyConfig] = None
    # Resilience coordinates.  ``zones`` spreads cluster nodes round-robin
    # over that many failure domains on the ring (labels only; placement is
    # untouched, so zones=1 cells stay byte-identical).  ``chaos`` injects a
    # seeded fault plan alongside whatever scenario the cell runs.
    zones: int = 1
    chaos: Optional["ChaosSpec"] = None

    def describe(self) -> Dict[str, Any]:
        """Flatten the cell coordinates for result rows and logs."""
        return {
            "experiment": self.experiment,
            "cell_id": self.cell_id,
            "policy": self.policy,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "staleness_bound": self.staleness_bound,
            "cache_capacity": self.cache_capacity,
            "channel": self.channel.as_dict() if self.channel is not None else None,
            "duration": self.duration,
            "seed": self.seed,
            "cost_preset": self.cost_preset,
            "num_nodes": self.num_nodes,
            "replication": self.replication,
            "read_policy": self.read_policy,
            "scenario": self.scenario.name if self.scenario is not None else "none",
            "scenario_params": dict(self.scenario.params) if self.scenario is not None else {},
            "hot_policy": self.hot_policy,
            "persistence": self.persistence,
            "snapshot_interval": self.snapshot_interval if self.persistence else None,
            "l1_capacity": self.l1_capacity,
            "tier_mode": self.tier_mode,
            "tier_admission": self.tier_admission,
            "engine": self.engine,
            "obs_window": self.obs_window,
            "concurrency": self.concurrency is not None,
            "stampede_policy": (
                self.concurrency.policy if self.concurrency is not None else None
            ),
            "service_time": (
                self.concurrency.service_time if self.concurrency is not None else None
            ),
            "service_mean": (
                self.concurrency.mean if self.concurrency is not None else None
            ),
            "backend_capacity": (
                self.concurrency.capacity if self.concurrency is not None else None
            ),
            "zones": self.zones,
            "chaos": self.chaos.describe() if self.chaos is not None else None,
        }


def stable_cell_seed(
    base_seed: int,
    workload: str,
    workload_params: Mapping[str, Any] | Sequence[Tuple[str, Any]],
    duration: float,
) -> int:
    """Derive a deterministic, process-independent seed for a workload cell.

    Uses CRC-32 over a canonical JSON encoding (``hash()`` is randomised per
    interpreter and would break cross-process reproducibility).  The seed
    intentionally ignores the policy/bound/capacity/channel axes so that every
    cell sharing a workload replays the identical trace.
    """
    payload = json.dumps(
        {
            "base_seed": base_seed,
            "workload": workload,
            "params": sorted((key, repr(value)) for key, value in dict(workload_params).items()),
            "duration": duration,
        },
        sort_keys=True,
    )
    return (base_seed * 0x9E3779B1 + zlib.crc32(payload.encode())) % 2**32


@dataclass(slots=True)
class ExperimentSpec:
    """The declarative description of an experiment grid.

    Attributes:
        name: Experiment name, recorded in every result row.
        policies: Policy registry names to evaluate.
        workloads: Workload axis; entries are :class:`WorkloadSpec` or bare
            registry names (expanded with default parameters).
        staleness_bounds: Staleness bounds ``T`` in seconds (each positive and
            finite).
        cache_capacities: Cache capacity axis (``None`` = unbounded).
        channels: Channel axis (``None`` = ideal channel).
        num_nodes: Fleet-size axis; ``None`` entries are single-cache cells,
            integers are cluster cells (default: single-cache only).
        replications: Replication-factor axis for cluster cells.
        scenarios: Cluster-scenario axis; entries are ``None`` (steady
            state), registry names, or :class:`ScenarioSpec` instances.
        read_policy: Replica-read routing for cluster cells (not an axis).
        hot_policy: Hot-key policy name for cluster cells (``None`` disables
            hot-key switching; not an axis).
        hot_fraction: Hot-key detection threshold for cluster cells.
        vnodes: Virtual nodes per cluster node on the hash ring.
        persistence: Persistence axis; ``True`` entries run their cells with
            a write-ahead log + snapshots (scratch directory per cell) and
            add the deterministic store counters to the row.
        snapshot_intervals: Snapshot-cadence axis for persistent cells
            (``None`` = only the final checkpoint).  Non-default entries
            require every ``persistence`` entry to be ``True``.
        l1_capacities: L1-capacity axis for cluster cells (``0`` = the
            single-tier fleet, byte-identical to not setting the axis at
            all).  Positive entries require every ``num_nodes`` entry to be
            a cluster cell.
        tier_modes: Tier fill-mode axis (``"write-through"`` /
            ``"write-back"``); non-default entries require a positive
            ``l1_capacities`` axis.
        tier_admission: L1 admission policy for tiered cells (not an axis).
        engine: Replay engine for every cell (not an axis): ``"scalar"``
            streams, ``"vector"`` compiles the trace and replays columnar
            (byte-identical rows; ineligible cells fall back to scalar).
        obs_window: Telemetry window width for every cell (not an axis);
            ``None`` disables recording, any positive width attaches the
            obs payload to each row (result counters byte-identical).
        slo_rules: Declarative SLO rules (see :mod:`repro.obs.slo`)
            evaluated post-run against every cell's obs payload into the
            row's ``slo`` key; requires ``obs_window``.  Evaluation is
            deterministic, so verdicts are byte-identical across any
            ``--processes`` count.
        concurrency: Concurrency axis; ``None`` entries replay with the
            classic instant-fetch engines, each
            :class:`~repro.concurrency.ConcurrencyConfig` entry enables the
            in-flight fetch model with that service-time distribution,
            backend capacity, and stampede policy.
        stampede_policies: Stampede-mitigation axis crossed with every
            non-``None`` ``concurrency`` entry (empty = each config keeps
            its own ``policy``).  Entries must name registered policies.
        service_times: Service-time-distribution axis crossed with every
            non-``None`` ``concurrency`` entry (empty = each config keeps
            its own ``service_time``).
        zones: Failure-domain count for cluster cells (not an axis): nodes
            are labeled round-robin over ``zones`` domains on the ring.
            Labels never affect placement, so ``zones=1`` is byte-identical
            to not setting it; correlated-failure scenarios need ``>= 2``.
        chaos: Seeded fault plan (:class:`~repro.resilience.chaos.ChaosSpec`)
            injected into every cluster cell alongside its scenario (not an
            axis; ``None`` disables injection).
        duration: Trace duration in seconds (positive and finite), shared by
            every cell.
        base_seed: Root of the deterministic per-cell seeding.
        cost_preset: Cost-model preset name (see the registry).
        cost_params: Keyword overrides for the preset.
    """

    name: str
    policies: Sequence[str]
    workloads: Sequence[Union[str, WorkloadSpec]]
    staleness_bounds: Sequence[float]
    cache_capacities: Sequence[Optional[int]] = (None,)
    channels: Sequence[Optional[ChannelSpec]] = (None,)
    num_nodes: Sequence[Optional[int]] = (None,)
    replications: Sequence[int] = (1,)
    scenarios: Sequence[Union[None, str, ScenarioSpec]] = (None,)
    read_policy: str = "primary"
    hot_policy: Optional[str] = None
    hot_fraction: float = 0.02
    vnodes: int = 64
    persistence: Sequence[bool] = (False,)
    snapshot_intervals: Sequence[Optional[float]] = (None,)
    l1_capacities: Sequence[int] = (0,)
    tier_modes: Sequence[str] = ("write-through",)
    tier_admission: str = "second-hit"
    engine: str = "scalar"
    obs_window: Optional[float] = None
    slo_rules: Optional[Sequence[Mapping[str, Any]]] = None
    concurrency: Sequence[Optional[ConcurrencyConfig]] = (None,)
    stampede_policies: Sequence[str] = ()
    service_times: Sequence[str] = ()
    zones: int = 1
    chaos: Optional[ChaosSpec] = None
    duration: float = 10.0
    base_seed: int = 0
    cost_preset: str = "fixed"
    cost_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The one emptiness rule: an axis without entries is a zero-cell grid
        # that would run nothing and report success.
        for axis in AXES:
            if not getattr(self, axis.field):
                raise ConfigurationError(
                    axis.empty or f"the {axis.field} axis needs at least one entry"
                )
        # The drivers' rule, asked of every cell's bound and horizon up front.
        positive_finite("duration", self.duration)
        for bound in self.staleness_bounds:
            positive_finite("staleness_bounds entries", bound)
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be {' or '.join(map(repr, ENGINES))}, got {self.engine!r}"
            )
        if self.obs_window is not None and self.obs_window <= 0:
            raise ConfigurationError(
                f"obs_window must be positive (or None to disable), got {self.obs_window}"
            )
        if self.slo_rules is not None:
            if self.obs_window is None:
                raise ConfigurationError(
                    "slo_rules are evaluated against the obs payload; set "
                    "obs_window to record one"
                )
            from repro.obs.slo import validate_rules

            try:
                validate_rules(self.slo_rules)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc
        for nodes in self.num_nodes:
            if nodes is not None and nodes < 1:
                raise ConfigurationError(f"num_nodes entries must be >= 1, got {nodes}")
        for factor in self.replications:
            if factor < 1:
                raise ConfigurationError(f"replication factors must be >= 1, got {factor}")
        for interval in self.snapshot_intervals:
            if interval is not None and interval <= 0:
                raise ConfigurationError(
                    f"snapshot intervals must be positive, got {interval}"
                )
        if any(interval is not None for interval in self.snapshot_intervals) and not all(
            self.persistence
        ):
            raise ConfigurationError(
                "snapshot intervals only apply to persistent cells; every "
                f"persistence entry must be True (got {list(self.persistence)}) "
                "or the non-persistent rows would be labeled with a snapshot "
                "cadence that never ran"
            )
        # Tier axes: validate entries eagerly (tier_modes is not a grid factor
        # of its own — it feeds the l1_capacities row — so the emptiness rule
        # above does not reach it).
        if not self.tier_modes:
            raise ConfigurationError(
                "the l1_capacities and tier_modes axes each need at least one entry"
            )
        for capacity in self.l1_capacities:
            if capacity < 0:
                raise ConfigurationError(
                    f"l1_capacities entries must be >= 0, got {capacity}"
                )
        # What the cells hand the cache, the channel, the ring and the
        # hot-key detector unchanged: each component checks its own argument,
        # here rather than in the first worker that builds a cell.
        from repro.cache.cache import Cache
        from repro.cluster.hashring import ConsistentHashRing
        from repro.cluster.hotkey import HotKeyConfig

        for capacity in self.cache_capacities:
            Cache(capacity)
        for channel in self.channels:
            if channel is not None:
                channel.build(0)
        try:
            ConsistentHashRing(self.vnodes)
            HotKeyConfig(hot_fraction=self.hot_fraction)
        except ClusterError as exc:
            raise ConfigurationError(str(exc)) from exc
        from repro.tier.config import ADMISSION_POLICIES, TIER_MODES

        for mode in self.tier_modes:
            if mode not in TIER_MODES:
                raise ConfigurationError(
                    f"tier_modes entries must be one of {TIER_MODES}, got {mode!r}"
                )
        if self.tier_admission not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"tier_admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.tier_admission!r}"
            )
        wants_tier = any(capacity > 0 for capacity in self.l1_capacities)
        if not wants_tier and tuple(self.tier_modes) != ("write-through",):
            raise ConfigurationError(
                "tier_modes only takes effect with a positive l1_capacities "
                f"axis (got l1_capacities={list(self.l1_capacities)})"
            )
        # Concurrency axes: validate entries eagerly, and require a
        # non-``None`` concurrency entry before crossing the stampede-policy
        # or service-time axes (they parameterize the fetch model; labeling
        # instant-fetch rows with a policy that never ran would be a lie).
        for entry in self.concurrency:
            if entry is not None and not isinstance(entry, ConcurrencyConfig):
                raise ConfigurationError(
                    "concurrency entries must be None or ConcurrencyConfig, "
                    f"got {entry!r}"
                )
        for policy in self.stampede_policies:
            if policy not in STAMPEDE_POLICIES:
                raise ConfigurationError(
                    f"stampede_policies entries must be one of "
                    f"{STAMPEDE_POLICIES}, got {policy!r}"
                )
        for service in self.service_times:
            if service not in SERVICE_TIME_DISTRIBUTIONS:
                raise ConfigurationError(
                    f"service_times entries must be one of "
                    f"{SERVICE_TIME_DISTRIBUTIONS}, got {service!r}"
                )
        has_concurrency = any(entry is not None for entry in self.concurrency)
        if (self.stampede_policies or self.service_times) and not has_concurrency:
            raise ConfigurationError(
                "stampede_policies and service_times parameterize the "
                "in-flight fetch model; add a ConcurrencyConfig entry to the "
                "concurrency axis"
            )
        if self.zones < 1:
            raise ConfigurationError(f"zones must be >= 1, got {self.zones}")
        if self.chaos is not None and not isinstance(self.chaos, ChaosSpec):
            raise ConfigurationError(
                f"chaos must be a ChaosSpec, got {type(self.chaos).__name__}"
            )
        # What only a fleet can run stays off single-cache cells (the plain
        # Simulation has no ring, L1, zones or fault plan), in one check.
        cluster_sizes = [nodes for nodes in self.num_nodes if nodes is not None]
        cluster_only = (
            (
                self.hot_policy is not None or any(self.normalized_scenarios()),
                "scenarios and hot_policy only apply",
                " or the single-cache rows would be labeled with a scenario that never ran",
            ),
            (
                wants_tier,
                "the l1_capacities axis only applies",
                " or the single-cache rows would be labeled with an L1 that never ran",
            ),
            (self.zones > 1 or self.chaos is not None, "zones and chaos only apply", ""),
        )
        for wanted, subject, consequence in cluster_only:
            if wanted and None in self.num_nodes:
                raise ConfigurationError(
                    f"{subject} to cluster cells; every num_nodes entry must be an "
                    f"integer fleet size (got {list(self.num_nodes)}){consequence}"
                )
        if cluster_sizes:
            self._check_fleet_combinations(sorted(set(cluster_sizes)))

    def _check_fleet_combinations(self, fleet_sizes: List[int]) -> None:
        """Ask :func:`~repro.cluster.cluster.check_fleet` about every distinct
        fleet combination on the axes, smallest fleet first: a cell no fleet
        can run would otherwise only surface inside a worker mid-sweep, losing
        every already-computed row."""
        from repro.cluster.cluster import check_fleet
        from repro.cluster.scenarios import Scenario, make_scenario
        from repro.experiments.registry import make_policy
        from repro.resilience.chaos import as_chaos_plan

        names = [*self.policies, *([self.hot_policy] if self.hot_policy else [])]
        policies = [make_policy(name) for name in names]
        chaos = as_chaos_plan(self.chaos)
        axes = {
            "num_nodes": fleet_sizes,
            "replication": self.replications,
            "staleness_bound": [float(bound) for bound in self.staleness_bounds],
            "store": [bool(persistent) for persistent in self.persistence],
            "snapshots": [interval is not None for interval in self.snapshot_intervals],
            "tier": [capacity > 0 for capacity in self.l1_capacities],
            "concurrency": [entry is not None for entry in self.concurrency],
        }
        for spec in self.normalized_scenarios():
            fleet: Dict[str, Any] = {}
            try:
                scenario = make_scenario(spec.name, spec.params_dict()) if spec else Scenario()
                for values in itertools.product(*map(dict.fromkeys, axes.values())):
                    fleet = dict(zip(axes, values))
                    check_fleet(
                        zones=self.zones,
                        policies=policies,
                        scenario=scenario,
                        chaos=chaos,
                        duration=float(self.duration),
                        **fleet,
                    )
            except ClusterError as exc:
                cell = "".join(f", {key}={value}" for key, value in fleet.items())
                raise ConfigurationError(
                    f"{exc} (cluster cells with scenario={spec.name if spec else 'none'}{cell})"
                ) from exc

    def normalized_workloads(self) -> List[WorkloadSpec]:
        """Return the workload axis with bare names promoted to specs."""
        return [
            workload if isinstance(workload, WorkloadSpec) else WorkloadSpec.of(workload)
            for workload in self.workloads
        ]

    def tier_combos(self) -> List[Tuple[int, str]]:
        """The (l1_capacity, tier_mode) pairs the grid actually runs.

        A zero-capacity tier is the single-tier fleet whatever its fill
        mode, so ``l1_capacity=0`` appears exactly once with the default
        mode instead of once per ``tier_modes`` entry — crossing it with
        every mode would re-run byte-identical baseline cells and emit
        indistinguishable duplicate rows.
        """
        combos: List[Tuple[int, str]] = []
        seen_zero = False
        for capacity in self.l1_capacities:
            if capacity == 0:
                if not seen_zero:
                    combos.append((0, "write-through"))
                    seen_zero = True
            else:
                combos.extend((int(capacity), mode) for mode in self.tier_modes)
        return combos

    def concurrency_combos(self) -> List[Optional[ConcurrencyConfig]]:
        """The concurrency configs the grid actually runs.

        ``None`` (instant fetch) appears exactly once however often it is
        listed; each non-``None`` base config is crossed with the
        ``stampede_policies`` and ``service_times`` axes (an empty axis
        keeps the base config's own value), deduplicating identical
        combinations so the grid never re-runs byte-identical cells.
        """
        combos: List[Optional[ConcurrencyConfig]] = []
        seen: set = set()
        for base in self.concurrency:
            if base is None:
                if None not in seen:
                    combos.append(None)
                    seen.add(None)
                continue
            policies = tuple(self.stampede_policies) or (base.policy,)
            services = tuple(self.service_times) or (base.service_time,)
            for policy in policies:
                for service in services:
                    combo = replace(base, policy=policy, service_time=service)
                    if combo not in seen:
                        combos.append(combo)
                        seen.add(combo)
        return combos

    def normalized_scenarios(self) -> List[Optional[ScenarioSpec]]:
        """Return the scenario axis with bare names promoted to specs."""
        normalized: List[Optional[ScenarioSpec]] = []
        for scenario in self.scenarios:
            if scenario is None or isinstance(scenario, ScenarioSpec):
                normalized.append(scenario)
            elif scenario in ("none", ""):
                normalized.append(None)
            else:
                normalized.append(ScenarioSpec.of(scenario))
        return normalized

    @property
    def num_cells(self) -> int:
        """Size of the expanded grid."""
        return math.prod(len(axis.entries(self)) for axis in AXES)

    def expand(self) -> List[RunCell]:
        """Expand the grid into concrete, deterministically-seeded cells.

        The cross product of :data:`AXES` in table order (the last row varies
        fastest); everything that is not an axis is the same in every cell.
        """
        slo_rules = None
        if self.slo_rules is not None:
            from repro.obs.slo import canonical_rules

            slo_rules = canonical_rules(self.slo_rules)
        constants: Dict[str, Any] = {name: getattr(self, name) for name in PASS_THROUGH}
        constants.update(
            experiment=self.name,
            duration=float(self.duration),
            cost_params=tuple(sorted(self.cost_params.items())),
            obs_window=_optional_float(self.obs_window),
            slo_rules=slo_rules,
        )
        coordinates = [name for axis in AXES for name in axis.coordinates]
        cells: List[RunCell] = []
        for cell_id, entries in enumerate(
            itertools.product(*(axis.entries(self) for axis in AXES))
        ):
            cell = dict(constants)
            cell.update(zip(coordinates, itertools.chain.from_iterable(entries)))
            cells.append(RunCell(cell_id=cell_id, **cell))
        return cells


class Axis(NamedTuple):
    """One factor of the grid, one row of :data:`AXES`."""

    #: The :class:`ExperimentSpec` field holding the axis.
    field: str
    #: The :class:`RunCell` fields one entry fills.
    coordinates: Tuple[str, ...]
    #: The normalised entries the grid runs, one tuple of coordinate values each.
    entries: Callable[[ExperimentSpec], Sequence[Tuple[Any, ...]]]
    #: Wording of the emptiness error where it predates the shared rule.
    empty: str = ""


def _each(field: str, cast: Callable[[Any], Any] = lambda value: value) -> Callable:
    """Entries of a one-coordinate axis: every field value, through ``cast``."""
    return lambda spec: [(cast(value),) for value in getattr(spec, field)]


def _optional_float(value: Optional[float]) -> Optional[float]:
    return float(value) if value is not None else None


#: The grid, in product order.  :meth:`ExperimentSpec.expand`,
#: :attr:`ExperimentSpec.num_cells` and the emptiness rule all iterate this
#: table: a new axis is a new row here (plus its spec field and cell
#: coordinate), not an edit to any of them.
AXES: Tuple[Axis, ...] = (
    # The seed is workload-anchored (see the module docstring), so it is a
    # coordinate of this row and of no other.
    Axis(
        "workloads",
        ("workload", "workload_params", "seed"),
        lambda spec: [
            (w.name, w.params, stable_cell_seed(spec.base_seed, w.name, w.params, spec.duration))
            for w in spec.normalized_workloads()
        ],
        "an experiment needs at least one workload",
    ),
    Axis(
        "staleness_bounds",
        ("staleness_bound",),
        _each("staleness_bounds", float),
        "an experiment needs at least one staleness bound",
    ),
    Axis("cache_capacities", ("cache_capacity",), _each("cache_capacities")),
    Axis("channels", ("channel",), _each("channels")),
    Axis("num_nodes", ("num_nodes",), _each("num_nodes")),
    Axis("replications", ("replication",), _each("replications", int)),
    Axis("scenarios", ("scenario",), lambda spec: [(s,) for s in spec.normalized_scenarios()]),
    Axis("persistence", ("persistence",), _each("persistence", bool)),
    Axis(
        "snapshot_intervals", ("snapshot_interval",), _each("snapshot_intervals", _optional_float)
    ),
    Axis("l1_capacities", ("l1_capacity", "tier_mode"), ExperimentSpec.tier_combos),
    Axis("concurrency", ("concurrency",), lambda spec: [(c,) for c in spec.concurrency_combos()]),
    Axis(
        "policies",
        ("policy",),
        _each("policies"),
        "an experiment needs at least one policy",
    ),
)

#: Spec fields that are not axes and reach every cell under the same name.
PASS_THROUGH = (
    "read_policy",
    "hot_policy",
    "hot_fraction",
    "vnodes",
    "tier_admission",
    "engine",
    "zones",
    "chaos",
    "cost_preset",
)
