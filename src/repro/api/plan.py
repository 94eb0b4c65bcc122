"""Plan resolution: graph capabilities × config → one concrete `RunPlan`.

Every ``"auto"`` in an :class:`~repro.api.config.ExecutionConfig` is
negotiated here, in exactly one place, against the :class:`GraphCaps` of
the graph being run on.  The resolved :class:`RunPlan` records *why* each
choice was made (:attr:`RunPlan.decisions`), and :meth:`RunPlan.explain`
renders that provenance for humans — the same text the CLI ``plan``
subcommand prints.

The rules (asserted by ``tests/test_api_plan.py``):

* ``backend="auto"`` → ``fast`` for every graph (the array core runs any
  vertex ids); ``reference`` runs only when asked for.
* ``transport="auto"`` → ``shm`` for every multiprocess run (zero-copy
  columns), ``None`` otherwise; an explicit transport without
  ``multiprocess=True`` is an error.
* ``fault_tolerance=True`` → requires ``multiprocess=True`` (only the
  supervised process engine can respawn a dead worker);
  ``checkpoint_interval=None`` → 4 supersteps between cuts,
  ``max_restarts=None`` → 3 respawns.  Either knob without
  ``fault_tolerance=True`` is an error.
* ``trace=True`` → carried through verbatim (every mode can record);
  the decision is logged so ``explain()`` shows the observability
  plane was on for the run.

:func:`resolve_service_plan` layers the replication topology of a
:class:`~repro.api.config.ServicePlanConfig` on top, with the same
provenance discipline:

* ``service_transport="auto"`` → ``pipe`` when ``replicas > 0`` (the
  replicas are local children; pipes skip the socket stack), ``None``
  when replication is off.
* ``heartbeat_interval=None`` → 0.5 s; ``max_failovers=None`` → one
  promotion per replica.  Any replication knob set with ``replicas=0``
  is an error (there is nothing to fail over to).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.api.config import ExecutionConfig, ServicePlanConfig
from repro.api.registry import PARTITIONERS, TRANSPORTS

__all__ = [
    "GraphCaps",
    "PlanDecision",
    "RunPlan",
    "ServiceRunPlan",
    "resolve_plan",
    "resolve_service_plan",
    "plan_for",
]

#: Resolver defaults for the fault-tolerance knobs (``None`` in the config).
DEFAULT_CHECKPOINT_INTERVAL = 4
DEFAULT_MAX_RESTARTS = 3

#: Resolver default for the replication heartbeat cadence (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 0.5


@dataclass(frozen=True)
class GraphCaps:
    """What plan resolution needs to know about a graph — nothing more.

    Sizes only — every substrate runs any vertex ids.  Partitioner
    builders receive the caps (range-style ones size their blocks by
    them).
    """

    num_vertices: int
    num_edges: int

    @classmethod
    def of(cls, graph) -> "GraphCaps":
        """Probe a :class:`~repro.graph.adjacency.Graph` or CSR snapshot."""
        return cls(num_vertices=graph.num_vertices, num_edges=graph.num_edges)


@dataclass(frozen=True)
class PlanDecision:
    """One resolved axis: what was asked, what was chosen, and why."""

    field: str
    requested: Any
    value: Any
    reason: str

    def __str__(self) -> str:
        requested = "(default)" if self.requested is None else str(self.requested)
        return f"{self.field:<14}{requested:>10} -> {self.value!s:<10} {self.reason}"


@dataclass(frozen=True)
class RunPlan:
    """The fully-negotiated execution choices for one run.

    Every field is concrete (no ``"auto"`` survives resolution); the
    distributed axes are ``None`` for a local plan.  ``decisions`` keeps
    the provenance of each choice, rendered by :meth:`explain`.
    """

    mode: str  # "local" | "distributed"
    backend: str  # "fast" | "reference"
    num_workers: int
    partitioner: Optional[str]  # registered name or instance repr
    multiprocess: bool
    caps: GraphCaps
    requested: ExecutionConfig
    transport: Optional[str] = None  # "pipe" | "shm" | "tcp" | None (not mp)
    fault_tolerance: bool = False
    checkpoint_interval: Optional[int] = None  # concrete iff fault-tolerant
    max_restarts: Optional[int] = None  # concrete iff fault-tolerant
    trace: bool = False  # observability plane (repro.obs) on/off
    decisions: Tuple[PlanDecision, ...] = ()

    @property
    def use_fast(self) -> bool:
        """Whether the local lifecycle runs on the array substrate."""
        return self.backend == "fast"

    def summary(self) -> str:
        """One line: the resolved choices without the provenance."""
        if self.mode == "local":
            return f"local fit, backend={self.backend}" + (
                ", trace=on" if self.trace else ""
            )
        workers = f"{self.num_workers} {'process' if self.multiprocess else 'simulated'} workers"
        transport = f", transport={self.transport}" if self.multiprocess else ""
        fault = (
            f", fault_tolerance=on (checkpoint_interval="
            f"{self.checkpoint_interval}, max_restarts={self.max_restarts})"
            if self.fault_tolerance
            else ""
        )
        trace = ", trace=on" if self.trace else ""
        return (
            f"distributed fit on {workers}, backend={self.backend}, "
            f"partitioner={self.partitioner}"
            f"{transport}{fault}{trace}"
        )

    def explain(self) -> str:
        """Human-readable provenance: one line per negotiated choice."""
        lines = [f"execution plan: {self.summary()}"]
        lines.extend(f"  {decision}" for decision in self.decisions)
        return "\n".join(lines)

    def build_partitioner(self):
        """Instantiate the plan's partitioner (registry name or instance)."""
        spec = self.requested.partitioner
        if spec is None:
            spec = "hash"
        if isinstance(spec, str):
            return PARTITIONERS.resolve(spec)(self.num_workers, self.caps)
        return spec


def _decide(decisions, field, requested, value, reason) -> None:
    decisions.append(
        PlanDecision(field=field, requested=requested, value=value, reason=reason)
    )


def resolve_plan(caps: GraphCaps, config: Optional[ExecutionConfig] = None) -> RunPlan:
    """Negotiate every ``"auto"`` in ``config`` against ``caps``.

    Raises :class:`ValueError` for inconsistent requests (e.g. a transport
    without ``multiprocess=True``).
    """
    config = config if config is not None else ExecutionConfig()
    decisions = []

    # Local lifecycle substrate -------------------------------------------
    if config.backend == "auto":
        backend = "fast"
        reason = "the array substrate runs any vertex ids"
    else:
        backend = config.backend
        reason = "explicitly requested"
    _decide(decisions, "backend", config.backend, backend, reason)

    distributed = config.num_workers > 0
    mode = "distributed" if distributed else "local"
    _decide(
        decisions,
        "mode",
        None,
        mode,
        f"num_workers={config.num_workers}"
        + ("" if distributed else " (0 = in-process fit)"),
    )

    partitioner_name = None
    if distributed:
        # Partitioner ------------------------------------------------------
        spec = config.partitioner
        if spec is None:
            partitioner_name = "hash"
            reason = "default uniform hash partitioner"
        elif isinstance(spec, str):
            if spec not in PARTITIONERS:
                raise ValueError(
                    f"unknown partitioner {spec!r}; "
                    f"registered: {PARTITIONERS.names()}"
                )
            partitioner_name = spec
            reason = "resolved from the partitioner registry"
        else:
            partitioner_name = type(spec).__name__
            reason = "caller-supplied instance"
        _decide(decisions, "partitioner", spec, partitioner_name, reason)

        if config.multiprocess:
            _decide(
                decisions,
                "multiprocess",
                True,
                True,
                "workers run as real OS processes (driver is the barrier)",
            )

    # Multiprocess data plane ---------------------------------------------
    transport = None
    multiprocess = config.multiprocess and distributed
    if multiprocess:
        if config.transport == "auto":
            transport = "shm"
            reason = "message columns swap zero-copy through shared memory"
        else:
            transport = config.transport
            reason = "explicitly requested"
            TRANSPORTS.resolve(transport)  # fail fast
        _decide(decisions, "transport", config.transport, transport, reason)
    elif config.transport != "auto":
        raise ValueError(
            f"transport={config.transport!r} selects the multiprocess data "
            f"plane and requires multiprocess=True with num_workers > 0; "
            f"the in-process engines exchange messages by reference"
        )

    # Fault tolerance ------------------------------------------------------
    fault_tolerance = config.fault_tolerance
    checkpoint_interval = max_restarts = None
    if fault_tolerance:
        if not multiprocess:
            raise ValueError(
                "fault_tolerance=True requires multiprocess=True with "
                "num_workers > 0: only the supervised process engine can "
                "respawn a dead worker (the in-process engines share the "
                "driver's fate)"
            )
        _decide(
            decisions,
            "fault_tolerance",
            True,
            True,
            "checkpoint/replay recovery supervises the worker processes",
        )
        if config.checkpoint_interval is None:
            checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
            reason = "default cut cadence (replay cost vs snapshot traffic)"
        else:
            checkpoint_interval = config.checkpoint_interval
            reason = "explicitly requested"
        _decide(
            decisions,
            "checkpoint_interval",
            config.checkpoint_interval,
            checkpoint_interval,
            reason,
        )
        if config.max_restarts is None:
            max_restarts = DEFAULT_MAX_RESTARTS
            reason = "default respawn budget"
        else:
            max_restarts = config.max_restarts
            reason = "explicitly requested"
        _decide(
            decisions, "max_restarts", config.max_restarts, max_restarts, reason
        )
    elif config.checkpoint_interval is not None or config.max_restarts is not None:
        knob = (
            "checkpoint_interval"
            if config.checkpoint_interval is not None
            else "max_restarts"
        )
        raise ValueError(
            f"{knob} tunes the fault-tolerant supervisor and requires "
            f"fault_tolerance=True"
        )

    # Observability --------------------------------------------------------
    if config.trace:
        _decide(
            decisions,
            "trace",
            True,
            True,
            "flight recorder + metrics registry on (repro.obs)",
        )

    return RunPlan(
        mode=mode,
        backend=backend,
        num_workers=config.num_workers,
        partitioner=partitioner_name,
        multiprocess=multiprocess,
        caps=caps,
        requested=config,
        transport=transport,
        fault_tolerance=fault_tolerance,
        checkpoint_interval=checkpoint_interval,
        max_restarts=max_restarts,
        trace=config.trace,
        decisions=tuple(decisions),
    )


@dataclass(frozen=True)
class ServiceRunPlan:
    """A resolved service deployment: the execution plan + the topology.

    ``base`` is the :class:`RunPlan` the detector itself runs on; the
    replication axes are ``None``/0 for an unreplicated deployment.
    ``decisions`` holds only the service-plane provenance — ``explain()``
    renders both layers.
    """

    base: RunPlan
    replicas: int
    heartbeat_interval: Optional[float]  # concrete iff replicas > 0
    max_failovers: Optional[int]  # concrete iff replicas > 0
    service_transport: Optional[str]  # "pipe" | "tcp" | None (unreplicated)
    requested: ServicePlanConfig
    decisions: Tuple[PlanDecision, ...] = ()

    @property
    def replicated(self) -> bool:
        return self.replicas > 0

    def summary(self) -> str:
        if not self.replicated:
            return f"unreplicated service over a {self.base.summary()}"
        return (
            f"replicated service ({self.replicas} replica(s), "
            f"transport={self.service_transport}, heartbeat="
            f"{self.heartbeat_interval}s, max_failovers={self.max_failovers}) "
            f"over a {self.base.summary()}"
        )

    def explain(self) -> str:
        """Both provenance layers: the service topology, then the base plan."""
        lines = [f"service plan: {self.summary()}"]
        lines.extend(f"  {decision}" for decision in self.decisions)
        lines.append(self.base.explain())
        return "\n".join(lines)


def resolve_service_plan(
    caps: GraphCaps, config: Optional[ServicePlanConfig] = None
) -> ServiceRunPlan:
    """Negotiate a :class:`~repro.api.config.ServicePlanConfig` topology.

    Resolves the embedded :class:`ExecutionConfig` through
    :func:`resolve_plan`, then the replication axes with the same
    recorded-provenance discipline.  Replication knobs without
    ``replicas > 0`` raise :class:`ValueError` — a topology that cannot
    fail over must not silently pretend it could.
    """
    from repro.api.registry import SERVICE_TRANSPORTS

    config = config if config is not None else ServicePlanConfig()
    base = resolve_plan(caps, config.execution)
    decisions = []
    replicated = config.replicas > 0

    heartbeat_interval = max_failovers = service_transport = None
    if replicated:
        _decide(
            decisions,
            "replicas",
            config.replicas,
            config.replicas,
            "read replicas rebuilt from shipped WAL records",
        )
        if config.service_transport == "auto":
            service_transport = "pipe"
            reason = "replicas are local children; pipes skip the socket stack"
        else:
            service_transport = config.service_transport
            reason = "explicitly requested"
            SERVICE_TRANSPORTS.resolve(service_transport)  # fail fast
        _decide(
            decisions,
            "service_transport",
            config.service_transport,
            service_transport,
            reason,
        )
        if config.heartbeat_interval is None:
            heartbeat_interval = DEFAULT_HEARTBEAT_INTERVAL
            reason = "default lapse-detection cadence"
        else:
            heartbeat_interval = config.heartbeat_interval
            reason = "explicitly requested"
        _decide(
            decisions,
            "heartbeat_interval",
            config.heartbeat_interval,
            heartbeat_interval,
            reason,
        )
        if config.max_failovers is None:
            max_failovers = config.replicas
            reason = "default budget: every replica may be promoted once"
        else:
            max_failovers = config.max_failovers
            reason = "explicitly requested"
        _decide(
            decisions,
            "max_failovers",
            config.max_failovers,
            max_failovers,
            reason,
        )
    else:
        for knob, value in (
            ("heartbeat_interval", config.heartbeat_interval),
            ("max_failovers", config.max_failovers),
        ):
            if value is not None:
                raise ValueError(
                    f"{knob} tunes the replication supervisor and requires "
                    f"replicas > 0"
                )
        if config.service_transport != "auto":
            raise ValueError(
                f"service_transport={config.service_transport!r} connects "
                f"the primary to its replicas and requires replicas > 0"
            )

    return ServiceRunPlan(
        base=base,
        replicas=config.replicas,
        heartbeat_interval=heartbeat_interval,
        max_failovers=max_failovers,
        service_transport=service_transport,
        requested=config,
        decisions=tuple(decisions),
    )


def plan_for(graph, config: Optional[ExecutionConfig] = None) -> RunPlan:
    """Convenience: probe ``graph`` and resolve ``config`` in one call."""
    return resolve_plan(GraphCaps.of(graph), config)
