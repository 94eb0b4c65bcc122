"""The columnar BSP superstep engine.

Executes one :class:`ArrayWorkerProgram` per worker shard in bulk-
synchronous supersteps, the MapReduce/Spark execution model the paper
targets (Section V-B2): within a superstep every worker processes its
inbox and emits messages, and at the synchronisation barrier the engine
routes them to the owner of each destination vertex and records
communication statistics.  Programs emit column batches into an
:class:`~repro.distributed.message_array.ArrayMessageContext`, and the
barrier is one vectorised
:func:`~repro.distributed.message_array.route_columns` call.

Programs are *worker-level* (one instance per shard) rather than
vertex-level: the paper's algorithms are most naturally written as
mappers/reducers over a worker's local vertices (see Algorithms 1-2).

Determinism: workers run in id order and every per-kind inbox is
delivered ``(dst, fields...)``-sorted, so a run is a pure function of
(program, shards, seed) — the property that lets the test suite assert
distributed == sequential equality bit for bit.

Observability: set :attr:`ArrayBSPEngine.obs` to record
``engine.compute`` / ``engine.route`` spans, leave it ``None`` for a
zero-overhead run.
"""

from __future__ import annotations

from time import time_ns
from typing import Dict, List, Sequence

from repro.distributed.message_array import (
    ArrayInbox,
    ArrayMessageContext,
    ArrayOutbox,
    route_columns,
)
from repro.distributed.metrics import CommStats
from repro.distributed.worker import CSRShard
from repro.graph.partition import Partitioner

__all__ = ["ArrayWorkerProgram", "ArrayBSPEngine"]


class ArrayWorkerProgram:
    """Base class for worker-level BSP programs.

    Subclasses hold per-worker algorithm state, are constructed once per
    shard, and must be picklable to run under the multiprocess backend.
    ``ctx`` is an :class:`ArrayMessageContext` and the inbox arrives as an
    :class:`ArrayInbox` of per-kind column tuples (sorted by
    ``(dst, fields...)`` within each kind).
    """

    def __init__(self, shard: CSRShard):
        self.shard = shard

    def on_start(self, ctx: ArrayMessageContext) -> None:
        """Called once before superstep 1; emit initial messages here."""

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        """Process this worker's inbox columns; emit follow-ups via ``ctx``.

        Inbox columns are read-only and only guaranteed valid for the
        duration of this call: under the multiprocess shared-memory
        transport they are views into a ring slot that is rewritten two
        supersteps later.  Programs that must retain inbox data across
        supersteps should keep :meth:`ArrayInbox.materialize`'s owned
        copy instead of the inbox itself (the built-in programs consume
        their inbox within the superstep, which is the common shape).
        """
        raise NotImplementedError

    def collect(self) -> dict:
        """Return this worker's final local results (merged by the caller)."""
        return {}

    def snapshot(self) -> dict:
        """Portable copy of this program's mutable state (checkpointing).

        The default captures everything in ``__dict__`` except the shard:
        shards are immutable inputs the supervisor re-ships to a
        replacement process, not state.  The snapshot is pickled across a
        process boundary, which is what gives it copy semantics — programs
        whose state is builtins/ndarrays (all built-ins) need not override.
        """
        return {k: v for k, v in self.__dict__.items() if k != "shard"}

    def restore(self, snapshot: dict) -> None:
        """Reinstate a :meth:`snapshot`; replay from it is bit-identical
        because every random draw is keyed by counters in that state."""
        self.__dict__.update(snapshot)


class ArrayBSPEngine:
    """Runs array programs over shards with a vectorised routing barrier."""

    def __init__(self, shards: Sequence[CSRShard], partitioner: Partitioner):
        if len(shards) != partitioner.num_partitions:
            raise ValueError(
                f"{len(shards)} shards but partitioner has "
                f"{partitioner.num_partitions} partitions"
            )
        worker_ids = sorted(shard.worker_id for shard in shards)
        if worker_ids != list(range(partitioner.num_partitions)):
            # route_columns addresses inboxes by partition index, so ids
            # must BE the partition indices (the builders guarantee this);
            # fail loudly instead of silently dropping misaddressed mail.
            raise ValueError(
                f"shard worker_ids {worker_ids} must be the partition "
                f"indices 0..{partitioner.num_partitions - 1}"
            )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.stats = CommStats()
        self.obs = None  # set to a repro.obs.Obs to record this engine

    def run(
        self,
        programs: Sequence[ArrayWorkerProgram],
        max_supersteps: int = 100_000,
    ) -> List[ArrayWorkerProgram]:
        """Execute until message quiescence (or the superstep cap).

        Returns the programs so callers can :meth:`ArrayWorkerProgram.collect`.
        """
        if len(programs) != len(self.shards):
            raise ValueError("one program instance per shard is required")
        obs = self.obs
        num_partitions = self.partitioner.num_partitions
        outboxes: Dict[int, ArrayOutbox] = {}
        for program in programs:
            if obs is not None:
                compute_start = time_ns()
            ctx = ArrayMessageContext()
            program.on_start(ctx)
            outboxes[program.shard.worker_id] = ctx.finalize()
            if obs is not None:
                obs.trace.record(
                    "engine.compute",
                    compute_start,
                    plane="array",
                    worker=program.shard.worker_id,
                    superstep=0,
                )
        superstep = 0
        while any(outboxes.values()):
            superstep += 1
            if superstep > max_supersteps:
                raise RuntimeError(
                    f"BSP program did not quiesce within {max_supersteps} supersteps"
                )
            if obs is not None:
                route_start = time_ns()
            inboxes, step_stats = route_columns(
                outboxes, self.partitioner, num_partitions, superstep
            )
            self.stats.record(step_stats)
            if obs is not None:
                obs.trace.record(
                    "engine.route", route_start, plane="array",
                    superstep=superstep,
                )
                obs.metrics.counter("engine.messages").inc(step_stats.messages)
                obs.metrics.counter("engine.remote_messages").inc(
                    step_stats.remote_messages
                )
                obs.metrics.counter("engine.bytes").inc(step_stats.bytes)
                obs.metrics.counter("engine.remote_bytes").inc(
                    step_stats.remote_bytes
                )
            outboxes = {}
            for program in programs:
                if obs is not None:
                    compute_start = time_ns()
                ctx = ArrayMessageContext()
                inbox = ArrayInbox(inboxes.get(program.shard.worker_id))
                program.on_superstep(ctx, superstep, inbox)
                outboxes[program.shard.worker_id] = ctx.finalize()
                if obs is not None:
                    obs.trace.record(
                        "engine.compute",
                        compute_start,
                        plane="array",
                        worker=program.shard.worker_id,
                        superstep=superstep,
                    )
        return list(programs)
