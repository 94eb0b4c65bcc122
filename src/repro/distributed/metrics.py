"""Communication-cost accounting for the BSP engine.

The paper's efficiency argument is about *communication volume*: rSLPA's
fetch protocol moves ``O(|V|)`` labels per iteration where SLPA moves
``O(|E|)`` (Section III-A), and Correction Propagation moves ``O(η)``
(Section IV-D).  :class:`CommStats` measures exactly those quantities —
messages and bytes per superstep, split into worker-local and remote.

:class:`RecoveryStats` is the fault-tolerance sibling: checkpoint and
recovery counters the supervised multiprocess engine maintains, attached
to its :class:`CommStats` (``stats.recovery``) so they travel through the
cluster wrappers and the service unchanged.  After a recovery the engine
rewinds :class:`CommStats` with :meth:`CommStats.truncate`, which is what
keeps per-superstep counters bit-identical to a failure-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SuperstepStats", "CommStats", "RecoveryStats"]


@dataclass
class SuperstepStats:
    """Counters for one superstep."""

    superstep: int
    messages: int = 0
    remote_messages: int = 0
    bytes: int = 0
    remote_bytes: int = 0

    @property
    def local_messages(self) -> int:
        return self.messages - self.remote_messages

    def as_dict(self) -> Dict[str, int]:
        """JSON view, symmetric with :meth:`RecoveryStats.as_dict`."""
        return {
            "superstep": self.superstep,
            "messages": self.messages,
            "remote_messages": self.remote_messages,
            "bytes": self.bytes,
            "remote_bytes": self.remote_bytes,
        }


@dataclass
class RecoveryStats:
    """Fault-tolerance counters for one supervised multiprocess engine.

    All zero on a failure-free run with checkpointing off; a recovered run
    reports how much work the failure cost (``supersteps_replayed``)
    without perturbing any :class:`CommStats` counter.
    """

    checkpoints_taken: int = 0
    checkpoints_torn: int = 0
    recoveries: int = 0
    workers_respawned: int = 0
    supersteps_replayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-serialisable view (service stats / benchmark records)."""
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoints_torn": self.checkpoints_torn,
            "recoveries": self.recoveries,
            "workers_respawned": self.workers_respawned,
            "supersteps_replayed": self.supersteps_replayed,
        }


@dataclass
class CommStats:
    """Aggregated counters for one engine run.

    ``recovery`` is attached by the supervised multiprocess engine (and is
    ``None`` for the in-process engines, which share the driver's fate).
    ``obs`` rides along the same way when the run was traced: the engine
    (or cluster wrapper) attaches its :class:`repro.obs.Obs` context so
    the recorded spans and metrics travel to the uniform result objects
    with the stats, without widening any return signature.
    """

    per_superstep: List[SuperstepStats] = field(default_factory=list)
    recovery: Optional[RecoveryStats] = None
    obs: Optional[Any] = None

    def record(self, stats: SuperstepStats) -> None:
        """Append one superstep's counters, and mirror them into the
        ``engine.messages`` / ``engine.remote_messages`` /
        ``engine.bytes`` / ``engine.remote_bytes`` counters of ``obs``
        when the run is traced.  Like spans, the registry records what
        executed: a superstep replayed after a recovery counts again
        there, while :meth:`truncate` keeps ``per_superstep`` exact."""
        self.per_superstep.append(stats)
        if self.obs is not None:
            for name in ("messages", "remote_messages", "bytes", "remote_bytes"):
                self.obs.metrics.counter(f"engine.{name}").inc(getattr(stats, name))

    def truncate(self, supersteps: int) -> None:
        """Forget everything recorded after the first ``supersteps`` entries.

        Recovery rewinds the run to its last consistent cut and replays;
        the replayed supersteps re-record identical counters, so the
        rewound stats end bit-identical to a failure-free run's.
        """
        del self.per_superstep[supersteps:]

    @property
    def supersteps(self) -> int:
        return len(self.per_superstep)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.per_superstep)

    @property
    def total_remote_messages(self) -> int:
        return sum(s.remote_messages for s in self.per_superstep)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.per_superstep)

    @property
    def total_remote_bytes(self) -> int:
        return sum(s.remote_bytes for s in self.per_superstep)

    def messages_per_superstep(self) -> List[int]:
        return [s.messages for s in self.per_superstep]

    def as_dict(self, per_superstep: bool = False) -> Dict[str, Any]:
        """JSON view, symmetric with :meth:`RecoveryStats.as_dict`.

        The flat totals use the benchmark-record field names, so sweeps
        splat ``**stats.as_dict()`` instead of plucking fields; pass
        ``per_superstep=True`` for the full per-step breakdown, and the
        recovery ledger rides along whenever the run was supervised.
        """
        view: Dict[str, Any] = {
            "supersteps": self.supersteps,
            "messages": self.total_messages,
            "remote_messages": self.total_remote_messages,
            "bytes": self.total_bytes,
            "remote_bytes": self.total_remote_bytes,
        }
        if per_superstep:
            view["per_superstep"] = [s.as_dict() for s in self.per_superstep]
        if self.recovery is not None:
            view["recovery"] = self.recovery.as_dict()
        return view

    def summary(self) -> str:
        """One-line human-readable summary (used by the examples)."""
        return (
            f"{self.supersteps} supersteps, {self.total_messages} messages "
            f"({self.total_remote_messages} remote), "
            f"{self.total_bytes} bytes ({self.total_remote_bytes} remote)"
        )
