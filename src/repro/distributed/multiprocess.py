"""True multi-process execution of BSP programs (one machine, N processes).

The in-process engines simulate the cluster deterministically; this backend
demonstrates the same programs running with *real* parallelism, one OS
process per worker, a control pipe per worker, and the driver acting as
the synchronisation barrier — the closest single-machine analogue to the
paper's 7-node Spark deployment.

Programs are :class:`~repro.distributed.engine_array.ArrayWorkerProgram`
subclasses; outboxes are per-kind numpy columns and the driver barrier is
the vectorised :func:`~repro.distributed.message_array.route_columns`.

How the columns move is the *transport* (``transport=``, see
:mod:`repro.distributed.transport` and
:data:`repro.api.registry.TRANSPORTS`): ``"pipe"`` pickles payloads over
the control pipes (the reference data plane), ``"shm"`` swaps them
through double-buffered shared-memory rings with only index headers on
the pipes, and ``"tcp"`` frames them over localhost sockets so worker
groups behave like separate hosts.  Results and per-superstep
:class:`CommStats` are bit-identical across all transports — routing
happens on the driver before any transport touches the columns.

Programs must be picklable (all programs in
:mod:`repro.distributed.programs_array` are, as long as their state is
builtins/ndarrays).  Mutations a program makes to its state stay inside
its process; results come back via ``collect()``, so this backend suits
the *propagation* programs (whose results are collected), not the
in-place correction program.

A worker that dies mid-run can never hang the driver: every wait polls
process liveness and raises
:class:`~repro.distributed.transport.WorkerCrashedError` naming the dead
worker, and ``shutdown()`` releases pipes, sockets, and shared-memory
segments on every exit path (idempotently, crash or no crash).

Fault tolerance (``fault_tolerance=True``) turns that detection into
supervised recovery:

* every ``checkpoint_interval`` barriers (and always at superstep 0 and
  at quiescence) the driver collects a **consistent cut** — each worker's
  CRC-validated pickled :meth:`~repro.distributed.engine_array.
  ArrayWorkerProgram.snapshot` plus materialised copies of the
  superstep's outboxes and the :class:`CommStats` length, held
  driver-side, which survives any worker death;
* on :class:`WorkerCrashedError` the driver respawns the dead worker
  (re-shipping its shard, rebuilding its transport endpoint — the TCP
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
escalation in :meth:`~MultiprocessBSPEngine.shutdown`.

Usage::

    with MultiprocessBSPEngine(shards, partitioner, factory) as engine:
        engine.run()
        results = engine.collect()
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import signal
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.faults import FaultPlan
from repro.distributed.message_array import (
    ArrayInbox,
    ArrayMessageContext,
    ArrayOutbox,
    route_columns,
)
from repro.distributed.metrics import CommStats, RecoveryStats
from repro.distributed.transport import Transport, WorkerCrashedError, WorkerEndpoint
from repro.distributed.worker import CSRShard
from repro.graph.partition import Partitioner

__all__ = ["MultiprocessBSPEngine", "WorkerCrashedError"]

logger = logging.getLogger(__name__)

ProgramFactory = Callable[[CSRShard], ArrayWorkerProgram]

#: Seconds between liveness polls while the driver waits on a pipe.
_POLL_S = 0.05

#: Tag of every control reply a worker sends on its pipe.  Control replies
#: must be distinguishable from stale data-plane messages (outbox headers,
#: collect dicts) while the recovery protocol drains an interrupted
#: barrier — no transport produces a tuple starting with this sentinel.
_CTRL = "__ctrl__"

#: Upper bound on stale messages drained per worker during recovery; a
#: worker can owe at most a handful (one outbox header, one snapshot or
#: collect reply, acks of an interrupted earlier recovery).
_DRAIN_LIMIT = 64

#: The ``plane`` attribute of every engine span (the columnar plane).
_PLANE = "array"


def _worker_main(
    conn,
    shard: CSRShard,
    factory: ProgramFactory,
    endpoint: WorkerEndpoint,
    fault_plan: Optional[FaultPlan] = None,
    trace: bool = False,
) -> None:
    """Child-process loop: execute one program over commands from the driver.

    With ``trace=True`` the worker keeps its own flight recorder and
    metrics registry (:class:`repro.obs.Obs`): per-superstep
    ``compute``/``pack``/``transport_send``/``barrier_wait`` spans with
    this worker's attribution, shipped to the driver on the ``trace``
    verb and cleared.  ``time.time_ns()`` is the shared timebase, so the
    shipped spans align with the driver's on one wall clock.
    """
    faults = fault_plan if fault_plan is not None else FaultPlan()
    wid = shard.worker_id
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
            command = conn.recv()
            verb = command[0]
            if verb in ("start", "step"):
                if verb == "start":
                    superstep, header = 0, None
                else:
                    _verb, superstep, header = command
                if obs is not None:
                    # Time blocked in conn.recv() waiting for the barrier
                    # to release this superstep.
                    obs.trace.record(
                        "engine.barrier_wait", idle_start, plane=_PLANE,
                        worker=wid, superstep=superstep,
                    )
                # Fault seams, in failure order: a kill strikes before the
                # inbox is touched, a stall delays the compute, a delay or
                # dropped send strikes between compute and transport.
                if faults.should_kill(wid, superstep):
                    os.kill(os.getpid(), signal.SIGKILL)
                stall = faults.stall_seconds(wid, superstep)
                if stall:
                    time.sleep(stall)
                if obs is not None:
                    compute_start = time.time_ns()
                ctx = ArrayMessageContext()
                inbox = None
                if verb == "start":
                    program.on_start(ctx)
                else:
                    inbox = endpoint.recv_inbox(header)
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
                delay = faults.delay_seconds(wid, superstep)
                if delay:
                    time.sleep(delay)
                if faults.should_drop_send(wid, superstep):
                    # A dropped transport send is indistinguishable from a
                    # crash to the driver — by design: a half-sent
                    # superstep must never be half-applied.
                    endpoint.close()
                    conn.close()
                    os._exit(3)
                endpoint.send_outbox(payload, conn.send)
                if obs is not None:
                    obs.trace.record(
                        "engine.transport_send", send_start, plane=_PLANE,
                        worker=wid, superstep=superstep,
                    )
                # Drop the inbox views before the next iteration: shm inbox
                # columns alias a ring slot, and lingering references would
                # keep the mapping pinned past endpoint.close().
                inbox = ctx = payload = None
            elif verb == "trace":
                # Ship-and-clear this worker's recordings.  The reply is a
                # >= 3 tuple tagged _CTRL, so an interrupted fetch drains
                # safely through _drain_until_ack during recovery.
                if obs is not None:
                    conn.send(
                        (_CTRL, "trace", obs.trace.take(), obs.metrics.snapshot())
                    )
                else:  # tracing off: reply empty rather than desync
                    conn.send((_CTRL, "trace", [], {}))
            elif verb == "snapshot":
                _verb, superstep = command
                blob = pickle.dumps(
                    program.snapshot(), protocol=pickle.HIGHEST_PROTOCOL
                )
                crc = zlib.crc32(blob)
                if faults.should_tear_snapshot(wid, superstep):
                    blob = blob[: len(blob) // 2]  # torn write: fails its CRC
                conn.send((_CTRL, "snap", superstep, blob, crc))
            elif verb == "sync":
                conn.send((_CTRL, "sync", command[1]))
            elif verb == "restore":
                _verb, _superstep, blob, token = command
                program.restore(pickle.loads(blob))
                conn.send((_CTRL, "restored", token))
            elif verb == "reset":
                program = factory(shard)
                conn.send((_CTRL, "reset", command[1]))
            elif verb == "collect":
                conn.send(program.collect())
            elif verb == "stop":
                break
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown command {verb!r}")
    finally:
        endpoint.close()
        conn.close()


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
        mp_context: Optional[str] = None,
        transport: Union[str, Transport] = "pipe",
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
        if isinstance(transport, str):
            from repro.api.registry import TRANSPORTS

            transport = TRANSPORTS.resolve(transport)()
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
        # the service surface the recorded run for free; the transport
        # gets the same reference for its driver-side byte/stall metrics.
        self.obs = obs
        # One stats object carries both planes of accounting, so the
        # cluster wrappers and the service see recovery counters for free.
        self.stats = CommStats(recovery=self.recovery, obs=obs)
        self.leaked_pids: List[int] = []
        self._transport = transport
        transport.obs = obs
        if obs is not None:
            obs.meta.setdefault("mode", "multiprocess")
            obs.meta.setdefault("plane", _PLANE)
            obs.meta.setdefault("transport", transport.name)
            obs.meta.setdefault("num_workers", len(shards))
        self._fault_tolerance = bool(fault_tolerance)
        self._checkpoint_interval = checkpoint_interval
        self._max_restarts = max_restarts
        # Retained for respawns: the supervisor re-ships a dead worker's
        # shard and rebuilds its endpoint from the same factory/transport.
        self._shards = list(shards)
        self._factory = factory
        self._fault_plans: List[Optional[FaultPlan]] = [fault_plan] * len(
            self._shards
        )
        self._ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        self._connections: List[Optional[object]] = [None] * len(self._shards)
        self._processes: List[Optional[object]] = [None] * len(self._shards)
        self._worker_ids = [shard.worker_id for shard in self._shards]
        self._closed = False
        self._checkpoint: Optional[_Cut] = None
        self._superstep = 0
        self._stats_base = 0
        self._outboxes: Optional[Dict[int, ArrayOutbox]] = None
        self._ctrl_token = 0
        self._last_max_supersteps = 100_000
        try:
            self._transport.bind(self._worker_ids, self._ctx)
            for index in range(len(self._shards)):
                self._spawn_worker(index)
            for wid, process in zip(self._worker_ids, self._processes):
                self._transport.attach(wid, process)
        except BaseException:
            # A worker dying during the handshake (or any bind failure)
            # must not leak processes, sockets, or shm segments.
            self.shutdown()
            raise

    def _spawn_worker(self, index: int) -> None:
        shard = self._shards[index]
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                shard,
                self._factory,
                self._transport.worker_endpoint(shard.worker_id),
                self._fault_plans[index],
                self.obs is not None,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._connections[index] = parent_conn
        self._processes[index] = process

    # ------------------------------------------------------------------
    # Crash-aware control plane
    # ------------------------------------------------------------------
    def _send(self, index: int, command) -> None:
        try:
            self._connections[index].send(command)
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise WorkerCrashedError(
                self._worker_ids[index],
                self._processes[index].exitcode,
                "(control pipe closed)",
            )

    def _recv(self, index: int):
        """Receive from one worker's pipe without ever blocking forever."""
        conn = self._connections[index]
        process = self._processes[index]
        while not conn.poll(_POLL_S):
            if not process.is_alive():
                # One final poll: the worker may have replied just before
                # dying and the message still sits in the pipe buffer.
                if conn.poll(_POLL_S):
                    break
                raise WorkerCrashedError(
                    self._worker_ids[index], process.exitcode
                )
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError):
            raise WorkerCrashedError(
                self._worker_ids[index], process.exitcode, "(pipe truncated)"
            )

    def _recv_outboxes(self) -> Dict[int, ArrayOutbox]:
        outboxes: Dict[int, ArrayOutbox] = {}
        try:
            for i, wid in enumerate(self._worker_ids):
                try:
                    outboxes[wid] = self._transport.recv_outbox(
                        wid, lambda i=i: self._recv(i)
                    )
                except ConnectionError:
                    raise WorkerCrashedError(
                        wid, self._processes[i].exitcode, "(data plane closed)"
                    )
        except Exception:
            # The exception's traceback pins this frame (and the partial
            # dict) until the caller is done with it; shm views held here
            # would block segment reaping during recovery/shutdown.
            outboxes.clear()
            raise
        return outboxes

    def _send_inboxes(self, inboxes, superstep: int) -> None:
        """Ship every inbox, completing sends to survivors before raising.

        A naive fail-fast here can deadlock recovery on the tcp transport:
        a survivor that received its ``step`` verb but not its frame would
        block in a socket read and never see the restore verb.  So one
        worker's death never prevents the others from getting their full
        payloads; the first crash is raised after the loop.
        """
        crash: Optional[WorkerCrashedError] = None
        for i, wid in enumerate(self._worker_ids):
            try:
                self._transport.send_inbox(
                    wid,
                    inboxes[wid],
                    lambda header, i=i, s=superstep: self._send(
                        i, ("step", s, header)
                    ),
                )
            except WorkerCrashedError as exc:
                crash = crash if crash is not None else exc
            except ConnectionError:
                if crash is None:
                    crash = WorkerCrashedError(
                        wid, self._processes[i].exitcode, "(data plane closed)"
                    )
        if crash is not None:
            raise crash

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
        for i in range(len(self._connections)):
            self._send(i, ("start",))
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
        """Gather each worker program's final results."""
        if self._closed:
            raise RuntimeError("engine already shut down")
        while True:
            try:
                for i in range(len(self._connections)):
                    self._send(i, ("collect",))
                return [self._recv(i) for i in range(len(self._connections))]
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
        for i in range(len(self._connections)):
            self._send(i, ("trace",))
        for i, wid in enumerate(self._worker_ids):
            reply = self._recv(i)
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
        for i in range(len(self._connections)):
            self._send(i, ("snapshot", self._superstep))
        replies = [self._recv(i) for i in range(len(self._connections))]
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
        dead = self._await_dead(exc)
        obs = self.obs
        if obs is not None:
            restore_start = time.time_ns()
        while True:
            self.recovery.recoveries += 1
            # Drop the live outboxes before touching the transport: shm
            # outbox columns are views pinning the dead worker's segments,
            # and detach cannot reap a segment with exported pointers.  The
            # cut owns materialised copies, so nothing is lost.
            self._outboxes = None
            logger.warning(
                "recovering from %s: respawning worker(s) %s",
                exc,
                [self._worker_ids[index] for index in dead],
            )
            for index in dead:
                self._respawn(index)
            try:
                self._resync("reset" if self._checkpoint is None else "restore")
                break
            except WorkerCrashedError as again:
                exc = again
                dead = self._await_dead(exc)
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

    def _await_dead(self, exc: WorkerCrashedError) -> List[int]:
        """Indices of the dead workers; re-raises ``exc`` if there are none.

        A pipe EOF can be observed microseconds before waitpid() sees the
        exit (the kernel closes fds before the zombie transition), so the
        death gets a moment to become reapable before the crash is judged
        something recovery cannot repair.
        """
        deadline = time.monotonic() + 5.0
        while True:
            dead = [
                index
                for index, process in enumerate(self._processes)
                if process is None or not process.is_alive()
            ]
            if dead or time.monotonic() >= deadline:
                break
            time.sleep(_POLL_S)
        if not dead:  # pragma: no cover - not a process death; cannot repair
            raise exc
        return dead

    def _respawn(self, index: int) -> None:
        wid = self._worker_ids[index]
        if self.recovery.workers_respawned >= self._max_restarts:
            raise WorkerCrashedError(
                wid,
                self._processes[index].exitcode,
                f"(respawn budget exhausted: max_restarts={self._max_restarts})",
            )
        self.recovery.workers_respawned += 1
        obs = self.obs
        if obs is not None:
            respawn_start = time.time_ns()
        self._processes[index].join(timeout=5)  # reap the corpse
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover
            pass
        self._transport.detach(wid)
        plan = self._fault_plans[index]
        if plan is not None:
            # Strip-on-respawn: a replacement worker is healthy, so every
            # scripted fault fires exactly once and replay terminates.
            self._fault_plans[index] = plan.without_worker(wid)
        self._spawn_worker(index)
        self._transport.attach(wid, self._processes[index])
        if obs is not None:
            obs.trace.record(
                "engine.respawn", respawn_start, plane=_PLANE,
                worker=wid, superstep=self._superstep,
            )
        logger.info("respawned worker %d (%s)", wid, self._shards[index].describe())

    def _resync(self, verb: str) -> None:
        """Bring every worker to the same state via ``sync`` + restore/reset.

        Per worker, in order: a tiny ``sync`` verb (never blocks the
        driver), a drain of everything stale up to its ack — outbox
        headers and their out-of-band frames, snapshot and collect
        replies, acks of an interrupted earlier recovery — and only then
        the ``restore``/``reset`` verb.  Sequencing the payload-bearing
        verb after the sync ack means the worker is provably idle in
        ``conn.recv`` when the (possibly larger-than-pipe-buffer)
        snapshot blob is sent, so the two sides can never deadlock
        pushing at each other.
        """
        self._ctrl_token += 1
        token = self._ctrl_token
        cut = self._checkpoint
        for index, wid in enumerate(self._worker_ids):
            self._send(index, ("sync", token))
            self._drain_until_ack(index, wid, "sync", token)
            if verb == "restore":
                self._send(
                    index, ("restore", cut.superstep, cut.blobs[wid], token)
                )
                self._drain_until_ack(index, wid, "restored", token)
            else:
                self._send(index, ("reset", token))
                self._drain_until_ack(index, wid, "reset", token)

    def _drain_until_ack(self, index: int, wid: int, kind: str, token: int) -> None:
        for _ in range(_DRAIN_LIMIT):
            msg = self._recv(index)
            if isinstance(msg, tuple) and len(msg) >= 3 and msg[0] == _CTRL:
                if msg[1] == kind and msg[-1] == token:
                    return
                continue  # control reply from an interrupted earlier phase
            try:
                self._transport.drain_stale(wid, msg)
            except ConnectionError:
                raise WorkerCrashedError(
                    wid, self._processes[index].exitcode, "(died during drain)"
                )
        raise RuntimeError(  # pragma: no cover - protocol violation
            f"worker {wid} never acknowledged {kind!r}"
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
        connections = [c for c in self._connections if c is not None]
        processes = [p for p in self._processes if p is not None]
        try:
            for conn in connections:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, ConnectionResetError, OSError):
                    pass  # worker already gone
            for process in processes:
                process.join(timeout=10)
        finally:
            for process in processes:
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5)
            for process in processes:
                if process.is_alive():  # pragma: no cover - ignored SIGTERM
                    process.kill()
                    process.join(timeout=5)
            for process in processes:
                if process.is_alive():
                    self.leaked_pids.append(process.pid)
                    logger.error(
                        "worker process pid=%d survived the SIGKILL "
                        "escalation; leaking it",
                        process.pid,
                    )
            for conn in connections:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            # Release outbox column views (shm: exported pointers into the
            # workers' segments) before closing the transport, or the
            # segments cannot be unmapped.
            self._outboxes = None
            self._checkpoint = None
            # Always last: reaps shm segments / sockets even when workers
            # were terminated and their own close() never ran.
            self._transport.close()

    def __enter__(self) -> "MultiprocessBSPEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
