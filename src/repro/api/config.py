"""Declarative run configuration: *what* to run, never *how it resolved*.

Three frozen dataclasses describe a run before any negotiation happens:

* :class:`AlgoConfig` — the algorithm itself (seed, horizon T, τ1 sweep
  step).  Identical values ⇒ bit-identical labels on every backend.
* :class:`ExecutionConfig` — where and on what substrate the run executes:
  the local backend, worker count, partitioner, multiprocess flag,
  transport, fault tolerance, tracing.
  Every field takes ``"auto"``; :func:`repro.api.plan.resolve_plan`
  turns the config plus the graph's capabilities into a concrete
  :class:`~repro.api.plan.RunPlan` with recorded provenance.
* :class:`ServicePlanConfig` — the one service config, for a
  :class:`CommunityService` or a replicated :class:`ServiceSupervisor`:
  the algo + execution configs plus the ingest/query/durability and
  replication knobs.

Configs are pure data: hashable-by-value (except a caller-supplied
partitioner instance), comparable, and safe to share between runs.  All
validation of *choices* lives here; all *negotiation* lives in
:func:`~repro.api.plan.resolve_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

from repro.utils.validation import check_positive, check_type

__all__ = [
    "DEFAULT_ITERATIONS",
    "AlgoConfig",
    "ExecutionConfig",
    "ServicePlanConfig",
    "BACKEND_CHOICES",
    "ENGINE_CHOICES",
    "SHARD_BACKEND_CHOICES",
    "STATE_FORMAT_CHOICES",
    "TRANSPORT_CHOICES",
    "SERVICE_TRANSPORT_CHOICES",
]

#: Paper default for rSLPA (Section V-A3: stable for T >= 200).
DEFAULT_ITERATIONS = 200

#: Built-in values per execution axis (``auto`` defers to plan resolution;
#: ``transport`` may also name anything registered in
#: :data:`repro.api.registry.TRANSPORTS`).  ``engine``, ``shard_backend``
#: and ``state_format`` name the one distributed substrate (columnar
#: messages over CSR shards, exporting an array state) and have no other
#: value.
BACKEND_CHOICES = ("auto", "fast", "reference")
ENGINE_CHOICES = ("auto", "array")
SHARD_BACKEND_CHOICES = ("auto", "csr")
STATE_FORMAT_CHOICES = ("auto", "array")
TRANSPORT_CHOICES = ("auto", "pipe", "shm", "tcp")
#: Service-plane (primary → replica WAL shipping) wires; no ``shm``,
#: which packs only the BSP engine's column payloads — replicas exchange
#: small pickled control records.
SERVICE_TRANSPORT_CHOICES = ("auto", "pipe", "tcp")


#: Spellings of the deleted tuple plane, dict shards and dict export.
_REMOVED_CHOICES = {
    ("engine", "reference"): "the tuple message plane",
    ("shard_backend", "dict"): "dict worker shards",
    ("state_format", "dict"): "the dict LabelState export; call "
    ".to_label_state() on the returned ArrayLabelState",
}


def _check_choice(value: str, choices, name: str) -> None:
    removed = _REMOVED_CHOICES.get((name, value))
    if removed is not None:
        raise ValueError(
            f"{name}={value!r} ({removed}) was removed; every distributed "
            f"run uses columnar messages over CSR shards and returns an "
            f"array state, so {name} takes {choices[0]!r} or {choices[1]!r}"
        )
    if value not in choices:
        pretty = ", ".join(repr(c) for c in choices[:-1])
        raise ValueError(
            f"{name} must be {pretty} or {choices[-1]!r}, got {value!r}"
        )


@dataclass(frozen=True)
class AlgoConfig:
    """The rSLPA algorithm parameters (identical values ⇒ identical labels).

    ``seed`` keys every counter-based random draw, ``iterations`` is the
    propagation horizon T, and ``tau_step`` the grid step of the τ1
    entropy sweep (Section III-B).
    """

    seed: int = 0
    iterations: int = DEFAULT_ITERATIONS
    tau_step: float = 0.001

    def __post_init__(self):
        check_type(self.seed, int, "seed")
        check_type(self.iterations, int, "iterations")
        check_positive(self.iterations, "iterations")
        check_positive(self.tau_step, "tau_step")


@dataclass(frozen=True)
class ExecutionConfig:
    """Where a run executes; ``"auto"`` fields are negotiated by
    :func:`repro.api.plan.resolve_plan` against the graph's capabilities.

    Parameters
    ----------
    backend:
        Local lifecycle substrate — ``"fast"`` (vectorised CSR/array, any
        vertex ids), ``"reference"`` (pure Python), or ``"auto"`` (fast).
    num_workers:
        ``0`` runs locally; ``> 0`` runs on the simulated BSP cluster
        with that many workers.
    engine:
        Distributed message plane; ``"auto"`` or ``"array"`` (the one
        columnar plane).
    shard_backend:
        Worker-shard adjacency storage; ``"auto"`` or ``"csr"`` (the one
        shard layout).
    state_format:
        Distributed fit export; ``"auto"`` or ``"array"`` (the one
        export, an :class:`~repro.core.labels_array.ArrayLabelState`).
    partitioner:
        A registered partitioner name (``"hash"``, ``"range"``, or a
        plugin registered in :data:`repro.api.registry.PARTITIONERS`), a
        ready :class:`~repro.graph.partition.Partitioner` instance, or
        ``None`` for the default hash partitioner.
    multiprocess:
        Run distributed workers as real OS processes
        (:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine`)
        instead of the in-process simulator; every distributed wrapper,
        Correction Propagation included, runs there with bit-identical
        results and stats.
    transport:
        The multiprocess engine's wire, one per worker, carrying verbs
        and column payloads alike — ``"pipe"`` (pickles over a pipe),
        ``"shm"`` (a pipe whose columns travel through zero-copy
        shared-memory rings), ``"tcp"`` (pickles over localhost sockets,
        column bytes out of band), a plugin registered in
        :data:`repro.api.registry.TRANSPORTS`, or ``"auto"`` (shm).  Only
        meaningful with ``multiprocess=True``.
    fault_tolerance:
        Supervise the multiprocess engine: checkpoint a consistent cut
        every ``checkpoint_interval`` supersteps and transparently
        respawn/replay on worker death (bit-identical results).  Requires
        ``multiprocess=True``.
    checkpoint_interval:
        Supersteps between consistent cuts (``None`` = resolver default).
        Requires ``fault_tolerance=True``.
    max_restarts:
        Worker respawns allowed before a crash is surfaced
        (``None`` = resolver default).  Requires ``fault_tolerance=True``.
    trace:
        Record the run on the observability plane (:mod:`repro.obs`):
        per-phase spans on a bounded flight recorder plus the mergeable
        metrics registry, surfaced as ``result.trace``
        (:class:`~repro.obs.TraceResult`).  Off by default — the
        disabled path makes zero calls into :mod:`repro.obs` and
        results stay bit-identical either way.
    """

    backend: str = "auto"
    num_workers: int = 0
    engine: str = "auto"
    shard_backend: str = "auto"
    state_format: str = "auto"
    partitioner: Optional[Union[str, object]] = None
    multiprocess: bool = False
    transport: str = "auto"
    fault_tolerance: bool = False
    checkpoint_interval: Optional[int] = None
    max_restarts: Optional[int] = None
    trace: bool = False

    def __post_init__(self):
        from repro.api.registry import TRANSPORTS as transport_registry

        _check_choice(self.backend, BACKEND_CHOICES, "backend")
        _check_choice(self.engine, ENGINE_CHOICES, "engine")
        if self.transport not in transport_registry:  # plugin wires too
            _check_choice(self.transport, TRANSPORT_CHOICES, "transport")
        _check_choice(self.shard_backend, SHARD_BACKEND_CHOICES, "shard_backend")
        _check_choice(self.state_format, STATE_FORMAT_CHOICES, "state_format")
        check_type(self.num_workers, int, "num_workers")
        if self.num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )
        check_type(self.multiprocess, bool, "multiprocess")
        check_type(self.fault_tolerance, bool, "fault_tolerance")
        check_type(self.trace, bool, "trace")
        if self.checkpoint_interval is not None:
            check_type(self.checkpoint_interval, int, "checkpoint_interval")
            check_positive(self.checkpoint_interval, "checkpoint_interval")
        if self.max_restarts is not None:
            check_type(self.max_restarts, int, "max_restarts")
            if self.max_restarts < 0:
                raise ValueError(
                    f"max_restarts must be >= 0, got {self.max_restarts}"
                )


@dataclass(frozen=True)
class ServicePlanConfig:
    """A :class:`~repro.service.CommunityService` deployment, in one object.

    Composes the algorithm and execution configs with the service planes'
    knobs, and is the one config of :class:`CommunityService` and
    :class:`ServiceSupervisor`, whose keyword arguments go through
    :meth:`with_overrides`; ``seed``, ``iterations``, ``tau_step`` and
    ``backend`` read back as properties.  ``batch_size`` net edits make
    one ingest window, which the ``submit`` that fills it applies before
    returning (ingest is synchronous).  ``staleness_batches`` is K in
    the lazy re-extraction policy: a query finding K or more batches
    applied since the last extraction triggers one (0 = always fresh).
    ``checkpoint_every = 0`` disables automatic checkpoints.

    The replication topology lives here too: ``replicas > 0`` deploys the
    service under a :class:`~repro.service.replication.ServiceSupervisor`
    with that many read replicas.  ``heartbeat_interval`` (seconds,
    ``None`` = resolver default), ``max_failovers`` (primary promotions
    allowed before the supervisor gives up, ``None`` = one per replica)
    and ``service_transport`` (``"pipe"``/``"tcp"``/``"auto"``, or a
    plugin in :data:`repro.api.registry.SERVICE_TRANSPORTS`) are
    negotiated with provenance by
    :func:`repro.api.plan.resolve_service_plan`; any of them set with
    ``replicas = 0`` is an error caught there.
    """

    algo: AlgoConfig = field(default_factory=AlgoConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    batch_size: int = 256
    staleness_batches: int = 4
    match_threshold: float = 0.3
    drift_tolerance: float = 0.1
    checkpoint_every: int = 1
    keep_checkpoints: int = 2
    replicas: int = 0
    heartbeat_interval: Optional[float] = None
    max_failovers: Optional[int] = None
    service_transport: str = "auto"

    def __post_init__(self):
        from repro.api.registry import SERVICE_TRANSPORTS as service_registry
        from repro.core.tracking import check_matcher

        check_type(self.algo, AlgoConfig, "algo")
        check_type(self.execution, ExecutionConfig, "execution")
        check_type(self.batch_size, int, "batch_size")
        check_positive(self.batch_size, "batch_size")
        check_matcher(self.match_threshold, self.drift_tolerance)
        check_type(self.replicas, int, "replicas")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.heartbeat_interval is not None:
            check_positive(self.heartbeat_interval, "heartbeat_interval")
        if self.max_failovers is not None:
            check_type(self.max_failovers, int, "max_failovers")
            if self.max_failovers < 0:
                raise ValueError(
                    f"max_failovers must be >= 0, got {self.max_failovers}"
                )
        if self.service_transport not in service_registry:
            _check_choice(
                self.service_transport,
                SERVICE_TRANSPORT_CHOICES,
                "service_transport",
            )

    @property
    def seed(self) -> int:
        return self.algo.seed

    @property
    def iterations(self) -> int:
        return self.algo.iterations

    @property
    def tau_step(self) -> float:
        return self.algo.tau_step

    @property
    def backend(self) -> str:
        return self.execution.backend

    def with_overrides(self, **keywords) -> "ServicePlanConfig":
        """This config with keyword overrides applied (validated anew).

        ``seed``, ``iterations`` and ``tau_step`` set fields of ``algo``,
        ``backend`` sets ``execution.backend``, and any other name sets
        this config's own field of that name; each applies on top of an
        ``algo=`` or ``execution=`` passed alongside it.  An unknown name
        raises ``TypeError``.
        """
        own = dict(keywords)
        algo = {
            name: own.pop(name)
            for name in ("seed", "iterations", "tau_step") if name in own
        }
        if "backend" in own:
            backend = own.pop("backend")
            own["execution"] = replace(
                own.get("execution", self.execution), backend=backend
            )
        unknown = sorted(set(own) - {f.name for f in fields(self)})
        if unknown:
            raise TypeError(
                f"unknown service config keyword(s): {', '.join(unknown)}"
            )
        if algo:
            own["algo"] = replace(own.get("algo", self.algo), **algo)
        return replace(self, **own)
