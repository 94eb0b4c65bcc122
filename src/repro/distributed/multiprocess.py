"""True multi-process execution of BSP programs (one machine, N processes).

The in-process engines simulate the cluster deterministically; this backend
demonstrates the same programs running with *real* parallelism, one OS
process per worker, one wire per worker, and the driver acting as the
synchronisation barrier — the closest single-machine analogue to the
paper's 7-node Spark deployment.

Programs are :class:`~repro.distributed.engine_array.ArrayWorkerProgram`
subclasses; outboxes are per-kind numpy columns and the driver barrier is
the vectorised :func:`~repro.distributed.message_array.route_columns`.

The *transport* (``transport=``: ``"pipe"``, ``"shm"`` or ``"tcp"``, see
:mod:`repro.distributed.transport`) names the :mod:`repro.runtime` wire
class, resolved through :data:`repro.api.registry.TRANSPORTS`; each
worker's one wire carries its command verbs and its column payloads
alike.  Results and per-superstep :class:`CommStats` are bit-identical
across all transports — routing happens on the driver before any wire
touches the columns.

Each worker pins itself to a CPU of its own (see :func:`_worker_main`),
so the shards compute at the same time; the driver and the service
supervisor's children stay unpinned.

Programs and their factory must be picklable (every built-in one is).
A program's state stays inside its process; its results come back via
``collect()`` as the same named columns the in-process engine's programs
return (on ``shm`` through the worker's outbox ring, copied out once, so
the caller owns them past ``shutdown()``), every program — Correction
Propagation included — runs here unchanged, and
:func:`~repro.distributed.engine_array.gather_columns` assembles either
engine's results.

A worker that dies mid-run can never hang the driver: every wait on the
wire polls process liveness and raises
:class:`~repro.runtime.WorkerCrashedError` naming the dead worker, and
``shutdown()`` releases pipes, sockets, and shared-memory segments on
every exit path (idempotently, crash or no crash).

Fault tolerance (``fault_tolerance=True``) turns that detection into
supervised recovery:

* every ``checkpoint_interval`` barriers (and always at superstep 0 and
  at quiescence) the driver collects a **consistent cut** — each worker's
  CRC-validated pickled :meth:`~repro.distributed.engine_array.
  ArrayWorkerProgram.snapshot` plus materialised copies of the
  superstep's outboxes and the :class:`CommStats` length, held
  driver-side, which survives any worker death;
* on :class:`WorkerCrashedError` the driver respawns the dead worker
  (re-shipping its shard, rebuilding its wire endpoint — the tcp
  endpoint redials with exponential backoff), restores the last cut on
  *all* workers through a deadlock-free ``sync``/``restore`` drain
  protocol, rewinds :class:`CommStats`, and replays;
* because every random draw is keyed by counters inside the snapshot,
  the replay — and therefore the final covers *and* every per-superstep
  counter — is bit-identical to a failure-free run.

Respawns are bounded by ``max_restarts``; a torn snapshot (CRC mismatch)
invalidates the whole cut and the previous one is kept.  Failures can be
scripted deterministically with a
:class:`~repro.distributed.faults.FaultPlan` (``fault_plan=``); a
respawned worker always runs with its faults stripped, so a scripted
failure fires exactly once.  ``recovery`` (a
:class:`~repro.distributed.metrics.RecoveryStats`, also attached to
``stats.recovery``) counts checkpoints, respawns, and replayed
supersteps; ``leaked_pids`` lists any process that survived the SIGKILL
escalation (:meth:`~repro.runtime.Wire.stop`) in
:meth:`~MultiprocessBSPEngine.shutdown`.

The engine holds no process of its own: its :class:`~repro.runtime.Wire`
is the one table of worker processes, and the wire starts, finds dead
(``dead``), respawns (``restart``) and stops them.

Usage::

    with MultiprocessBSPEngine(shards, partitioner, factory) as engine:
        engine.run()
        ids, columns = gather_columns(shards, engine.collect())
"""

from __future__ import annotations

import logging
import os
import pickle
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.faults import FaultPlan
from repro.distributed.message_array import (
    ArrayInbox,
    ArrayMessageContext,
    ArrayOutbox,
    packed_nbytes,
    route_columns,
)
from repro.distributed.metrics import CommStats, RecoveryStats
from repro.distributed.worker import CSRShard
from repro.graph.partition import Partitioner
from repro.runtime import WorkerCrashedError, fire_faults

__all__ = ["MultiprocessBSPEngine", "WorkerCrashedError"]

logger = logging.getLogger(__name__)

ProgramFactory = Callable[[CSRShard], ArrayWorkerProgram]

#: Tag of every control reply a worker sends on its wire.  Control replies
#: must be distinguishable from stale payload messages (outboxes, collect
#: dicts) while the recovery protocol drains an interrupted barrier — no
#: payload is a tuple starting with this sentinel.
_CTRL = "__ctrl__"

#: Upper bound on the messages a worker sends until a recovery ack; it
#: can owe at most a handful of stale ones (one outbox, one snapshot or
#: collect reply, acks of an interrupted earlier recovery).
_DRAIN_LIMIT = 64

#: Seconds a crash waits for the dead worker's exit to become reapable.
_DEATH_GRACE_S = 5.0

#: The ``plane`` attribute of every engine span (the columnar plane).
_PLANE = "array"


def _worker_main(
    endpoint,
    shard: CSRShard,
    factory: ProgramFactory,
    faults: FaultPlan,
    trace: bool = False,
) -> None:
    """Child-process loop: execute one program over commands from the driver.

    ``endpoint`` is the child half of the engine's wire; every command
    arrives and every reply leaves through it.

    With ``trace=True`` the worker keeps its own flight recorder and
    metrics registry (:class:`repro.obs.Obs`): per-superstep
    ``compute``/``pack``/``transport_send``/``barrier_wait`` spans with
    this worker's attribution, shipped to the driver on the ``trace``
    verb and cleared.  ``time.time_ns()`` is the shared timebase, so the
    shipped spans align with the driver's on one wall clock.

    First the worker pins itself to ``cpus[wid % len(cpus)]`` of the
    sorted affinity set it inherited, when that set holds two or more:
    unpinned, a woken worker tends to stay on the CPU of the driver that
    woke it, and the shards compute one after the other.  Pinning moves
    no byte.  The driver, which works while the workers wait, stays
    unpinned, as do the service's children: theirs is a serial ping-pong
    with nothing to overlap, where pinning only added cross-CPU wake-ups.
    """
    wid = shard.worker_id
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[wid % len(cpus)]})
    except (AttributeError, OSError):  # no affinity control: run unpinned
        pass
    obs = None
    if trace:
        from repro.obs import Obs

        obs = Obs()
    program = factory(shard)
    try:
        endpoint.open()
        while True:
            if obs is not None:
                idle_start = time.time_ns()
            command = endpoint.recv()
            verb = command[0]
            if verb in ("start", "step"):
                if verb == "start":
                    superstep, inbox = 0, None
                else:
                    _verb, superstep, inbox = command
                if obs is not None:
                    # Time blocked in endpoint.recv() waiting for the barrier
                    # to release this superstep.
                    obs.trace.record(
                        "engine.barrier_wait", idle_start, plane=_PLANE,
                        worker=wid, superstep=superstep,
                    )
                # The recv seam: before the inbox is touched.
                fire_faults(faults, wid, superstep, "recv")
                if obs is not None:
                    compute_start = time.time_ns()
                ctx = ArrayMessageContext()
                if verb == "start":
                    program.on_start(ctx)
                else:
                    program.on_superstep(ctx, superstep, ArrayInbox(inbox))
                if obs is not None:
                    pack_start = time.time_ns()
                    obs.trace.record(
                        "engine.compute", compute_start, plane=_PLANE,
                        worker=wid, superstep=superstep, end_ns=pack_start,
                    )
                payload = ctx.finalize()
                if obs is not None:
                    send_start = time.time_ns()
                    obs.trace.record(
                        "engine.pack", pack_start, plane=_PLANE,
                        worker=wid, superstep=superstep, end_ns=send_start,
                    )
                # The reply seam: computed, nothing sent yet.
                fire_faults(faults, wid, superstep, "reply")
                endpoint.send(payload)
                if obs is not None:
                    obs.trace.record(
                        "engine.transport_send", send_start, plane=_PLANE,
                        worker=wid, superstep=superstep,
                    )
                # Drop the inbox views before the next iteration: shm inbox
                # columns alias a ring slot, and lingering references would
                # keep the mapping pinned past endpoint.close().
                command = inbox = ctx = payload = None
            elif verb == "trace":
                # Ship-and-clear this worker's recordings.  The reply is a
                # >= 3 tuple tagged _CTRL, so an interrupted fetch drains
                # safely through the recovery's await_reply.
                if obs is not None:
                    endpoint.send(
                        (_CTRL, "trace", obs.trace.take(), obs.metrics.snapshot())
                    )
                else:  # tracing off: reply empty rather than desync
                    endpoint.send((_CTRL, "trace", [], {}))
            elif verb == "snapshot":
                _verb, superstep = command
                blob = pickle.dumps(
                    program.snapshot(), protocol=pickle.HIGHEST_PROTOCOL
                )
                crc = zlib.crc32(blob)
                if faults.at(wid, superstep, "snapshot"):
                    blob = blob[: len(blob) // 2]  # torn write: fails its CRC
                endpoint.send((_CTRL, "snap", superstep, blob, crc))
            elif verb == "sync":
                endpoint.send((_CTRL, "sync", command[1]))
            elif verb == "restore":
                _verb, _superstep, blob, token = command
                program.restore(pickle.loads(blob))
                endpoint.send((_CTRL, "restored", token))
            elif verb == "reset":
                program = factory(shard)
                endpoint.send((_CTRL, "reset", command[1]))
            elif verb == "collect":
                endpoint.send(program.collect())
            elif verb == "stop":
                break
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown command {verb!r}")
    finally:
        endpoint.close()


@dataclass
class _Cut:
    """One consistent cut: everything needed to rewind the whole cluster.

    Held driver-side (the driver survives worker deaths).  ``outboxes``
    are materialised copies — shm outbox columns are views into ring slots
    that are rewritten two supersteps later, so the cut must own its data.
    """

    superstep: int
    blobs: Dict[int, bytes]  # worker_id -> pickled program snapshot
    outboxes: Dict[int, ArrayOutbox]  # worker_id -> owned outbox copy
    stats_len: int  # CommStats length at the cut


class MultiprocessBSPEngine:
    """Drives persistent worker processes through synchronous supersteps.

    With ``fault_tolerance=True`` the engine checkpoints a consistent cut
    every ``checkpoint_interval`` barriers and transparently recovers from
    worker deaths (up to ``max_restarts`` respawns) with bit-identical
    results and stats; without it, a death raises
    :class:`WorkerCrashedError` as before.  ``fault_plan`` injects
    scripted failures (see :mod:`repro.distributed.faults`).
    """

    def __init__(
        self,
        shards: Sequence[CSRShard],
        partitioner: Partitioner,
        factory: ProgramFactory,
        transport: str = "pipe",
        fault_tolerance: bool = False,
        checkpoint_interval: int = 4,
        max_restarts: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        obs=None,
    ):
        if len(shards) != partitioner.num_partitions:
            raise ValueError(
                f"{len(shards)} shards but partitioner has "
                f"{partitioner.num_partitions} partitions"
            )
        worker_ids = sorted(shard.worker_id for shard in shards)
        if worker_ids != list(range(partitioner.num_partitions)):
            # The columnar barrier addresses inboxes by partition index.
            raise ValueError(
                f"shard worker_ids {worker_ids} must be the partition "
                f"indices 0..{partitioner.num_partitions - 1}"
            )
        from repro.api.registry import TRANSPORTS

        wire_class = TRANSPORTS.resolve(transport)
        if not isinstance(checkpoint_interval, int) or checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be an int >= 1, "
                f"got {checkpoint_interval!r}"
            )
        if not isinstance(max_restarts, int) or max_restarts < 0:
            raise ValueError(
                f"max_restarts must be an int >= 0, got {max_restarts!r}"
            )
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise TypeError(
                f"fault_plan must be a FaultPlan, got {type(fault_plan).__name__}"
            )
        self.partitioner = partitioner
        self.recovery = RecoveryStats()
        # The observability context (None = off).  It rides on the stats
        # object like the recovery ledger, so the cluster wrappers and
        # the service surface the recorded run for free.
        self.obs = obs
        # One stats object carries both planes of accounting, so the
        # cluster wrappers and the service see recovery counters for free.
        self.stats = CommStats(recovery=self.recovery, obs=obs)
        self.leaked_pids: List[int] = []
        self._transport = transport
        self._segment_grows = 0  # the wire's count at the last record
        if obs is not None:
            obs.meta.setdefault("mode", "multiprocess")
            obs.meta.setdefault("plane", _PLANE)
            obs.meta.setdefault("transport", transport)
            obs.meta.setdefault("num_workers", len(shards))
            try:  # the affinity set each worker pins itself from
                obs.meta.setdefault("cpus", len(os.sched_getaffinity(0)))
            except AttributeError:  # no affinity control: workers unpinned
                pass
        self._fault_tolerance = bool(fault_tolerance)
        self._checkpoint_interval = checkpoint_interval
        self._max_restarts = max_restarts
        # Retained for respawns: the supervisor re-ships a dead worker's
        # shard and rebuilds its endpoint from the same factory and wire.
        self._shards = {shard.worker_id: shard for shard in shards}
        self._worker_ids = list(self._shards)
        self._factory = factory
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        # One wire per worker carries verbs and payloads alike; the wire
        # also holds the worker processes.
        self._wire = wire_class(crash_error=WorkerCrashedError)
        self._closed = False
        self._checkpoint: Optional[_Cut] = None
        self._superstep = 0
        self._stats_base = 0
        self._outboxes: Optional[Dict[int, ArrayOutbox]] = None
        self._ctrl_token = 0
        self._last_max_supersteps = 100_000
        try:
            self._wire.bind()
            # Every worker starts before the first attach, so tcp workers
            # dial in in parallel.
            for wid in self._worker_ids:
                self._wire.start(wid, _worker_main, *self._worker_args(wid))
            for wid in self._worker_ids:
                self._wire.attach(wid)
        except BaseException:
            # A worker dying during the handshake (or any bind failure)
            # must not leak processes, sockets, or shm segments.
            self.shutdown()
            raise

    def _worker_args(self, wid: int) -> tuple:
        """What :func:`_worker_main` takes after the endpoint."""
        return (
            self._shards[wid], self._factory, self._fault_plan,
            self.obs is not None,
        )

    # ------------------------------------------------------------------
    # Crash-aware wire
    # ------------------------------------------------------------------
    def _recv_outboxes(self) -> Dict[int, ArrayOutbox]:
        outboxes: Dict[int, ArrayOutbox] = {}
        try:
            for wid in self._worker_ids:
                outboxes[wid] = self._wire.recv(wid)
        except Exception:
            # The exception's traceback pins this frame (and the partial
            # dict) until the caller is done with it; shm views held here
            # would block segment reaping during recovery/shutdown.
            outboxes.clear()
            raise
        if self.obs is not None:
            self._record_payloads("outbox", outboxes)
        return outboxes

    def _send_inboxes(self, inboxes, superstep: int) -> None:
        """Ship every inbox as one ``step`` message per worker.

        A crash raises at once.  That is safe for recovery: each worker
        gets its verb and its payload as one message, so a survivor has
        either the whole superstep (and answers it before the ``sync``
        ack that recovery drains up to) or nothing, and is idle on its
        wire either way.
        """
        for wid in self._worker_ids:
            self._wire.send(wid, ("step", superstep, inboxes[wid]))
        if self.obs is not None:
            self._record_payloads("inbox", inboxes)

    def _record_payloads(self, direction: str, payloads) -> None:
        """Traced runs: every ``transport.<name>.*`` metric, recorded here.

        One ``<direction>_bytes`` sample per worker payload, and the
        growth of the wire's shared-memory rings (shm only) as
        ``segment_grows``.
        """
        metrics = self.obs.metrics
        histogram = metrics.histogram(
            f"transport.{self._transport}.{direction}_bytes"
        )
        for columns in payloads.values():
            histogram.observe(packed_nbytes(columns))
        grows = getattr(self._wire, "segment_grows", 0)
        if grows > self._segment_grows:
            metrics.counter(f"transport.{self._transport}.segment_grows").inc(
                grows - self._segment_grows
            )
            self._segment_grows = grows

    # ------------------------------------------------------------------
    # Superstep loop
    # ------------------------------------------------------------------
    def _route_arrays(
        self, outboxes: Dict[int, ArrayOutbox], superstep: int
    ) -> Dict[int, ArrayOutbox]:
        inboxes, step_stats = route_columns(
            outboxes, self.partitioner, self.partitioner.num_partitions, superstep
        )
        self.stats.record(step_stats)
        return inboxes

    def _ensure_started(self) -> None:
        """Issue the ``start`` barrier unless a run is already in flight."""
        if self._outboxes is not None:
            return
        self._checkpoint = None  # a fresh start invalidates any previous cut
        self._superstep = 0
        self._stats_base = len(self.stats.per_superstep)
        obs = self.obs
        for wid in self._worker_ids:
            self._wire.send(wid, ("start",))
        if obs is not None:
            barrier_start = time.time_ns()
        self._outboxes = self._recv_outboxes()
        if obs is not None:
            obs.trace.record(
                "engine.barrier_wait", barrier_start, plane=_PLANE,
                superstep=0,
            )
        if self._fault_tolerance:
            # Always checkpoint the post-start state: a consistent cut
            # exists before the first superstep can crash anything.
            self._take_checkpoint()

    def _superstep_loop(self, max_supersteps: int) -> None:
        obs = self.obs
        while any(self._outboxes.values()):
            superstep = self._superstep + 1
            if superstep > max_supersteps:
                raise RuntimeError(
                    f"program did not quiesce within {max_supersteps} supersteps"
                )
            if obs is not None:
                route_start = time.time_ns()
            inboxes = self._route_arrays(self._outboxes, superstep)
            self._superstep = superstep
            if obs is not None:
                send_start = time.time_ns()
                obs.trace.record(
                    "engine.route", route_start, plane=_PLANE,
                    superstep=superstep, end_ns=send_start,
                )
            self._send_inboxes(inboxes, superstep)
            if obs is not None:
                barrier_start = time.time_ns()
                obs.trace.record(
                    "engine.transport_send", send_start, plane=_PLANE,
                    superstep=superstep, end_ns=barrier_start,
                )
            self._outboxes = self._recv_outboxes()
            if obs is not None:
                obs.trace.record(
                    "engine.barrier_wait", barrier_start, plane=_PLANE,
                    superstep=superstep,
                )
            if (
                self._fault_tolerance
                and superstep % self._checkpoint_interval == 0
                and any(self._outboxes.values())
            ):
                self._take_checkpoint()
        if self._fault_tolerance and (
            self._checkpoint is None
            or self._checkpoint.superstep != self._superstep
        ):
            # Final cut at quiescence: covers a crash during collect().
            self._take_checkpoint()
        self._outboxes = None  # quiescent: the next run() starts fresh
        if obs is not None:
            self._fetch_worker_traces()

    def run(self, max_supersteps: int = 100_000) -> CommStats:
        """Run until message quiescence; returns the communication stats.

        With fault tolerance on, worker deaths inside the loop trigger
        checkpoint/replay recovery instead of raising.
        """
        if self._closed:
            raise RuntimeError("engine already shut down")
        self._last_max_supersteps = max_supersteps
        while True:
            try:
                self._ensure_started()
                self._superstep_loop(max_supersteps)
                return self.stats
            except WorkerCrashedError as exc:
                self._recover(exc)

    def collect(self) -> List[dict]:
        """Each worker program's ``collect()`` columns, in shard order, as
        arrays the caller owns (still valid after :meth:`shutdown`)."""
        if self._closed:
            raise RuntimeError("engine already shut down")
        while True:
            try:
                for wid in self._worker_ids:
                    self._wire.send(wid, ("collect",))
                return [self._wire.recv(wid) for wid in self._worker_ids]
            except WorkerCrashedError as exc:
                self._recover(exc)
                # The restored cut may predate quiescence: replay to the
                # end before asking again (recovery already drained any
                # stale collect replies).
                self._ensure_started()
                self._superstep_loop(self._last_max_supersteps)

    # ------------------------------------------------------------------
    # Checkpointing and supervised recovery
    # ------------------------------------------------------------------
    def _materialize_outboxes(self, outboxes):
        """Owned copies of the current outboxes (shm columns are views
        into ring slots that are rewritten two supersteps later)."""
        return {
            wid: {
                kind: tuple(np.array(col) for col in cols)
                for kind, cols in outbox.items()
            }
            for wid, outbox in outboxes.items()
        }

    def _fetch_worker_traces(self) -> None:
        """Ship-and-merge every worker's spans and metrics (trace verb).

        Called at quiescence so collect()-triggered replays fetch too.  A
        crash mid-fetch surfaces as :class:`WorkerCrashedError` and flows
        through the normal recovery path; replayed supersteps may then
        contribute duplicate spans, which is fine — the trace is a flight
        recorder of what actually executed, replays included.
        """
        obs = self.obs
        for wid in self._worker_ids:
            self._wire.send(wid, ("trace",))
        for wid in self._worker_ids:
            reply = self._wire.recv(wid)
            if not (
                isinstance(reply, tuple)
                and len(reply) == 4
                and reply[0] == _CTRL
                and reply[1] == "trace"
            ):  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"worker {wid}: expected a trace reply, "
                    f"got {type(reply).__name__}"
                )
            _tag, _kind, spans, metrics = reply
            obs.trace.merge(spans)
            obs.metrics.merge(metrics)

    def _take_checkpoint(self) -> None:
        """Collect a consistent cut; a torn snapshot keeps the previous one."""
        obs = self.obs
        if obs is not None:
            checkpoint_start = time.time_ns()
        for wid in self._worker_ids:
            self._wire.send(wid, ("snapshot", self._superstep))
        replies = [self._wire.recv(wid) for wid in self._worker_ids]
        blobs: Dict[int, bytes] = {}
        torn: List[int] = []
        for wid, reply in zip(self._worker_ids, replies):
            if not (
                isinstance(reply, tuple)
                and len(reply) == 5
                and reply[0] == _CTRL
                and reply[1] == "snap"
            ):  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"worker {wid}: expected a snapshot reply, "
                    f"got {type(reply).__name__}"
                )
            _tag, _kind, superstep, blob, crc = reply
            if superstep != self._superstep or zlib.crc32(blob) != crc:
                torn.append(wid)
            else:
                blobs[wid] = blob
        if torn:
            # One torn snapshot invalidates the whole cut — a mixed cut
            # would not be consistent.  Keep the previous cut; recovery
            # just replays a little further.
            self.recovery.checkpoints_torn += 1
            logger.warning(
                "discarding torn checkpoint at superstep %d (worker(s) %s); "
                "keeping the cut at superstep %s",
                self._superstep,
                torn,
                self._checkpoint.superstep if self._checkpoint else None,
            )
            return
        self._checkpoint = _Cut(
            superstep=self._superstep,
            blobs=blobs,
            outboxes=self._materialize_outboxes(self._outboxes),
            stats_len=len(self.stats.per_superstep),
        )
        self.recovery.checkpoints_taken += 1
        if obs is not None:
            obs.trace.record(
                "engine.checkpoint", checkpoint_start, plane=_PLANE,
                superstep=self._superstep,
            )

    def _recover(self, exc: WorkerCrashedError) -> None:
        """Respawn the dead, rewind everyone to the last cut (or to a
        fresh start when no cut exists yet), and let the caller replay.

        Two faults in one superstep can surface one at a time: a worker
        found dead during the rewind starts another round of respawn and
        rewind, and the respawn budget bounds the rounds.
        """
        if self._closed or not self._fault_tolerance:
            raise exc
        obs = self.obs
        if obs is not None:
            restore_start = time.time_ns()
        while True:
            dead = self._wire.dead(_DEATH_GRACE_S)
            if not dead:  # pragma: no cover - not a process death; cannot repair
                raise exc
            self.recovery.recoveries += 1
            # Drop the live outboxes before touching the wire: shm outbox
            # columns are views pinning the dead worker's segments, and
            # detach cannot reap a segment with exported pointers.  The
            # cut owns materialised copies, so nothing is lost.
            self._outboxes = None
            logger.warning(
                "recovering from %s: respawning worker(s) %s", exc, dead
            )
            for wid in dead:
                self._respawn(wid)
            try:
                self._resync("reset" if self._checkpoint is None else "restore")
                break
            except WorkerCrashedError as again:
                exc = again
        if self._checkpoint is None:
            # Crashed before the first cut existed: reset every program
            # and redo the start barrier.
            self.stats.truncate(self._stats_base)
            self.recovery.supersteps_replayed += self._superstep
            self._superstep = 0
            self._outboxes = None
        else:
            cut = self._checkpoint
            self.recovery.supersteps_replayed += max(
                0, self._superstep - cut.superstep
            )
            self._superstep = cut.superstep
            self._outboxes = dict(cut.outboxes)
            self.stats.truncate(cut.stats_len)
        if obs is not None:
            obs.trace.record(
                "engine.restore", restore_start, plane=_PLANE,
                superstep=self._superstep,
            )

    def _respawn(self, wid: int) -> None:
        if self.recovery.workers_respawned >= self._max_restarts:
            raise self._wire.crashed(
                wid, f"(respawn budget exhausted: max_restarts={self._max_restarts})"
            )
        self.recovery.workers_respawned += 1
        obs = self.obs
        if obs is not None:
            respawn_start = time.time_ns()
        # Strip-on-respawn: a replacement worker is healthy, so every
        # scripted fault fires exactly once and replay terminates.
        self._fault_plan = self._fault_plan.without(child=wid)
        self._wire.restart(wid, _worker_main, *self._worker_args(wid))
        if obs is not None:
            obs.trace.record(
                "engine.respawn", respawn_start, plane=_PLANE,
                worker=wid, superstep=self._superstep,
            )
        logger.info("respawned worker %d (%s)", wid, self._shards[wid].describe())

    def _resync(self, verb: str) -> None:
        """Bring every worker to the same state via ``sync`` + restore/reset.

        Per worker, in order: a tiny ``sync`` verb (never blocks the
        driver), a drain of everything stale up to its ack — an outbox,
        snapshot and collect replies, acks of an interrupted earlier
        recovery — and only then the ``restore``/``reset`` verb.
        Sequencing the payload-bearing verb after the sync ack means the
        worker is provably idle on its wire when the (possibly
        larger-than-buffer) snapshot blob is sent, so the two sides can
        never deadlock pushing at each other.
        """
        self._ctrl_token += 1
        token = self._ctrl_token
        cut = self._checkpoint
        for wid in self._worker_ids:
            self._wire.send(wid, ("sync", token))
            self._await_ack(wid, "sync", token)
            if verb == "restore":
                self._wire.send(
                    wid, ("restore", cut.superstep, cut.blobs[wid], token)
                )
                self._await_ack(wid, "restored", token)
            else:
                self._wire.send(wid, ("reset", token))
                self._await_ack(wid, "reset", token)

    def _await_ack(self, wid: int, kind: str, token: int) -> None:
        """Drop ``wid``'s messages up to its ``kind`` ack for ``token``:
        a stale outbox or collect reply, or a control reply of an
        interrupted earlier phase."""
        self._wire.await_reply(
            wid,
            lambda msg: (
                isinstance(msg, tuple) and len(msg) >= 3 and msg[0] == _CTRL
                and msg[1] == kind and msg[-1] == token
            ),
            limit=_DRAIN_LIMIT,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers and release every resource; safe to call repeatedly
        (and after a worker crash, and from ``__exit__`` mid-exception).

        Escalates stop → SIGTERM → SIGKILL; a process that survives even
        SIGKILL (uninterruptible sleep) is reported in :attr:`leaked_pids`
        and logged instead of being silently abandoned.
        """
        if self._closed:
            return
        self._closed = True
        # Release outbox column views (shm: exported pointers into the
        # workers' segments) before the wire closes, or the segments
        # cannot be unmapped.
        self._outboxes = None
        self._checkpoint = None
        # The wire closes last, so it reaps shm segments and sockets even
        # when workers were terminated and their own close() never ran.
        self.leaked_pids += self._wire.stop(join_s=10, kill_join_s=5)

    def __enter__(self) -> "MultiprocessBSPEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
