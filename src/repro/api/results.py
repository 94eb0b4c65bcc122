"""Uniform result objects across the execution planes.

Every front-door entry point returns one of three carriers, so callers
consume local, distributed, and service runs identically: the cover (or
repair report), a handle on the live label state, the communication
stats when a cluster was involved, wall-clock timings, and — always —
the :class:`~repro.api.plan.RunPlan` that produced the result, so
``result.plan.explain()`` answers "what actually ran?" after the fact.

The payload fields are intentionally loosely typed (the state handle is
whichever representation the resolved backend runs on: a dict-backed
:class:`~repro.core.labels.LabelState` or an
:class:`~repro.core.labels_array.ArrayLabelState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.api.plan import RunPlan, ServiceRunPlan

__all__ = [
    "DetectionResult",
    "UpdateResult",
    "DistributedResult",
    "ReplicatedRunResult",
]


def _trace_result(comm_stats: Any, plan: Any) -> Optional[Any]:
    """Freeze the observability context riding on ``comm_stats.obs`` (if
    the run was traced) into a :class:`~repro.obs.TraceResult`, stamped
    with the resolved plan's summary."""
    obs = getattr(comm_stats, "obs", None)
    if obs is None:
        return None
    return obs.result({"plan": plan.summary()})


@dataclass(frozen=True)
class DetectionResult:
    """A completed fit + extraction (local or distributed)."""

    cover: Any  #: the extracted :class:`~repro.core.communities.Cover`
    state: Any  #: live label-state handle (array or dict representation)
    plan: RunPlan
    detector: Any  #: the fitted detector, ready for ``update`` calls
    comm_stats: Optional[Any] = None  #: CommStats for distributed fits
    timings: Mapping[str, float] = field(default_factory=dict)

    @property
    def num_communities(self) -> int:
        return len(self.cover)

    @property
    def recovery(self) -> Optional[Any]:
        """Fault-tolerance counters
        (:class:`~repro.distributed.metrics.RecoveryStats`) when the fit
        ran on the supervised multiprocess engine, else ``None``."""
        return getattr(self.comm_stats, "recovery", None)

    @property
    def trace(self) -> Optional[Any]:
        """The recorded :class:`~repro.obs.TraceResult` when the run was
        traced (``ExecutionConfig(trace=True)``), else ``None``."""
        return _trace_result(self.comm_stats, self.plan)


@dataclass(frozen=True)
class UpdateResult:
    """One applied edit batch (Correction Propagation)."""

    report: Any  #: the :class:`~repro.core.incremental_fast.UpdateReport`
    state: Any  #: live label-state handle after the repair
    plan: RunPlan
    cover: Optional[Any] = None  #: re-extracted cover (only if requested)
    timings: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DistributedResult:
    """A raw cluster run: the merged state plus its communication bill."""

    state: Any  #: the merged :class:`~repro.core.labels_array.ArrayLabelState`
    comm_stats: Any  #: per-superstep :class:`~repro.distributed.metrics.CommStats`
    plan: RunPlan
    timings: Mapping[str, float] = field(default_factory=dict)

    @property
    def recovery(self) -> Optional[Any]:
        """Fault-tolerance counters
        (:class:`~repro.distributed.metrics.RecoveryStats`) when the run
        was supervised (``plan.fault_tolerance``), else ``None``."""
        return getattr(self.comm_stats, "recovery", None)

    @property
    def trace(self) -> Optional[Any]:
        """The recorded :class:`~repro.obs.TraceResult` when the run was
        traced (``ExecutionConfig(trace=True)``), else ``None``."""
        return _trace_result(self.comm_stats, self.plan)


@dataclass(frozen=True)
class ReplicatedRunResult:
    """A completed replicated-service run (supervisor shut down cleanly).

    ``stats`` is the final ``ServiceSupervisor.stats()`` snapshot —
    including the failover ledger — frozen at shutdown; ``cover`` is the
    promoted (or never-failed) primary's final extraction, bit-identical
    per seed to an unreplicated run of the same edit sequence.
    """

    cover: Any  #: final :class:`~repro.core.communities.Cover`
    stats: Mapping[str, Any]
    plan: ServiceRunPlan
    timings: Mapping[str, float] = field(default_factory=dict)

    @property
    def failovers(self) -> int:
        return int(self.stats.get("failovers", 0))

    @property
    def promoted_replica(self) -> Optional[int]:
        return self.stats.get("promoted_replica")

    @property
    def replayed_records(self) -> int:
        return int(self.stats.get("replayed_records", 0))
