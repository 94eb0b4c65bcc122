"""Replication plane: WAL-shipping read replicas with supervised failover.

One :class:`CommunityService` process is a single point of failure for
both ingest and queries.  This module keeps the service answering through
crashes by running it as a small supervised topology:

* a **primary** child process owns the authoritative
  :class:`~repro.service.facade.CommunityService` (ingest, WAL,
  checkpoints);
* N **read replicas** are restored services: each rebuilds the primary's
  state from the shared :class:`~repro.service.durability.CheckpointStore`
  with the restore :meth:`CommunityService.recover` runs (falling back
  past a corrupt checkpoint), installs the primary's exported index, then
  follows the CRC-tagged WAL records the supervisor ships record by
  record, and serves membership queries from its own index;
* the **supervisor** (this process) windows edits, commits each batch to
  the primary, fans the resulting WAL record out to the replicas, and —
  when the primary dies — promotes the freshest replica (highest applied
  WAL sequence), replays its on-disk tail, and resumes ingest, bounded by
  the resolved ``max_failovers`` budget.

Determinism is the whole design.  Batches are sequence-labelled once by
the supervisor; applies are idempotent (``seq <= applied`` is a no-op
ack); every shipped record re-passes its CRC on arrival
(:func:`~repro.service.durability.parse_wal_line`); and index refreshes
happen on a fixed grid (every ``staleness_batches`` applied batches, the
service's K) on primary and replicas alike, with replicas bootstrapped
from the primary's exported index state so stable-id trajectories match.
A run with scripted primary kills therefore converges to the *bit
identical* cover and stable-id assignment of a failure-free run.

Failures are scripted with the same
:class:`~repro.distributed.faults.FaultPlan` events the BSP engine
takes: both child loops fire them through
:func:`~repro.runtime.fire_faults` at the ``recv`` and ``reply`` seams
of every stepped verb (the primary's ``apply``, a replica's ``wal``,
keyed by WAL sequence number; the primary is the role-named child
:data:`~repro.distributed.faults.PRIMARY`); the primary tears its own
WAL append at the ``wal`` phase, and the supervisor drops shipped records
at the ``ship`` phase itself.  A promotion strips the fired primary kill
or tear and the promoted replica's events, a respawn strips
the replica's events, and a fired ship drop is stripped too
(:meth:`FaultPlan.without`), so every scripted fault fires exactly once.

Queries go through :class:`ReplicatedClient`: per-request timeout,
retry with jittered exponential backoff
(:class:`~repro.utils.backoff.JitteredBackoff`), automatic re-routing
away from replicas whose heartbeat lapsed (an ack or query response that
missed the resolved ``heartbeat_interval``), and a final crash-aware
fallback to the primary — so no client query errors during a failover;
at worst it is served stale (bounded by K batches) and counted.

The control wire between supervisor and children is pluggable
(:data:`repro.api.registry.SERVICE_TRANSPORTS`): ``pipe`` or ``tcp``,
the :class:`~repro.runtime.PipeWire` / :class:`~repro.runtime.TcpWire`
the BSP engine runs on too (one ``multiprocessing.Pipe`` per child, or
length-prefixed pickles over localhost sockets with per-supervisor
cookie auth).  A dead child surfaces as
:class:`~repro.runtime.ChildCrashedError`.  The supervisor holds no
process of its own: the wire is the one table of child processes, and it
starts, restarts (a replica respawn), drops (a dead primary) and stops
them.

The supervisor and its children share one
:class:`~repro.api.config.ServicePlanConfig`; each child runs its
service with that config's execution reduced to the backend (in-process
and untraced; a distributed fit is refused).  The child answers every
read, the bootstrap's index export included, on the one ``query`` verb.

A shipped record is byte-identical to the primary's: both come from
:func:`~repro.service.durability.encode_wal_record`, which sorts each
edge list, and the primary logs every batch as it came, once validated.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.api.config import ExecutionConfig, ServicePlanConfig
from repro.api.plan import GraphCaps, ServiceRunPlan, resolve_service_plan
from repro.api.registry import SERVICE_TRANSPORTS
from repro.api.results import ReplicatedRunResult
from repro.distributed.faults import PRIMARY, FaultPlan
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.runtime import TIMEOUT, ChildCrashedError, Wire, fire_faults
from repro.service.durability import encode_wal_record, parse_wal_line
from repro.service.facade import CommunityService, _service_obs
from repro.service.ingest import EditQueue
from repro.utils.backoff import JitteredBackoff

__all__ = [
    "ChildCrashedError",
    "FailoverExhaustedError",
    "ReplicaLapsedError",
    "ServiceSupervisor",
    "ReplicatedClient",
]

logger = logging.getLogger(__name__)

#: The child id of the initially-spawned primary (replicas use their rid).
_PRIMARY_CID = -1


class FailoverExhaustedError(RuntimeError):
    """The primary died more times than ``max_failovers`` allows."""


class ReplicaLapsedError(RuntimeError):
    """A replica missed its heartbeat window; the caller should re-route."""


# ----------------------------------------------------------------------
# Child process main loop
# ----------------------------------------------------------------------
def _query_payload(service: CommunityService, role: str, kind: str,
                   args: tuple):
    """Answer one ``query`` verb; index reads bypass any lazy refresh."""
    if kind in ("communities_of", "members", "overlap", "snapshot"):
        return getattr(service.index, kind)(*args)
    if kind == "stats":
        return dict(service.stats(), role=role)
    if kind == "status":
        return service.batches_applied
    if kind == "export_index":
        return service._export_index()
    raise ValueError(f"unknown query kind {kind!r}")


def _follow(service: CommunityService, seq: int, batch: EditBatch,
            grid: int) -> bool:
    """Apply one logged record on a replica, then refresh on the fixed
    grid as the primary did; ``False`` if the record was already applied."""
    fresh = service._replay(seq, batch) is not None
    if fresh and seq % grid == 0:
        service.refresh()
    return fresh


def _tear_wal(path, line: str) -> None:
    """Act out a scripted ``tear @ wal``: append the first half of
    ``line`` to the log at ``path``, fsync, and SIGKILL this process, as
    a crash in the middle of the append would leave it."""
    data = line.encode("utf-8")
    with open(path, "ab") as wal:
        wal.write(data[: len(data) // 2])
        wal.flush()
        os.fsync(wal.fileno())
    os.kill(os.getpid(), signal.SIGKILL)


def _service_child_main(
    endpoint,
    role: str,
    rid: int,
    graph: Optional[Graph],
    config: ServicePlanConfig,
    checkpoint_dir: str,
    faults: FaultPlan,
) -> None:
    """Child-process loop: primary or replica, switching role on promote.

    A replica is a restored :class:`CommunityService` serving its
    primary's exported index; it follows shipped records until promoted.
    The primary's ``apply`` and a replica's ``wal`` are the stepped verbs
    (the step is the WAL sequence number): each fires the plan's faults
    at ``recv``, and at ``reply`` after a fresh apply; the primary acts
    out a ``wal`` tear right before a fresh apply.
    """
    # The fixed extraction grid: primary and replicas alike refresh after
    # every K-th batch, so their stable-id trajectories match.
    grid = max(1, config.staleness_batches)
    service: Optional[CommunityService] = None
    try:
        endpoint.open()
        if role == "primary":
            service = CommunityService(
                graph, config=config, checkpoint_dir=checkpoint_dir
            ).start()
        else:
            message = endpoint.recv()
            if message[0] != "bootstrap":  # pragma: no cover - protocol
                raise ValueError(f"replica expected bootstrap, got {message!r}")
            service = CommunityService._restore(checkpoint_dir, config)
            service._install_index(message[1])
        endpoint.send(("ready", service.batches_applied))
        while True:
            message = endpoint.recv()
            verb = message[0]
            if verb == "stop":
                break
            if verb == "query":
                _verb, token, kind, args = message
                applied = service.batches_applied
                try:
                    payload = _query_payload(service, role, kind, args)
                    endpoint.send(("resp", token, True, payload, applied))
                except Exception as exc:
                    endpoint.send(("resp", token, False, exc, applied))
            elif verb == "apply" and role == "primary":
                _verb, seq, line = message
                fire_faults(faults, PRIMARY, seq, "recv")
                if seq <= service.batches_applied:
                    # Idempotent replay after a failover re-send: the
                    # record is already durable (the promotion replayed
                    # it from the on-disk tail).
                    endpoint.send(
                        ("applied", seq, True, None,
                         service.batches_applied,
                         service.store.latest_epoch() or 0)
                    )
                    continue
                record = parse_wal_line(line)
                error: Optional[BaseException] = None
                if record is None:
                    error = ValueError(f"record {seq} failed its CRC")
                elif seq != service.batches_applied + 1:
                    error = ValueError(
                        f"primary gap: expected seq "
                        f"{service.batches_applied + 1}, got {seq}"
                    )
                else:
                    if faults.at(PRIMARY, seq, "wal"):
                        _tear_wal(service.store.wal_path, line)
                    try:
                        service.apply(record[1])
                    except (ValueError, KeyError) as exc:
                        error = exc
                if error is None:
                    fire_faults(faults, PRIMARY, seq, "reply")
                    if seq % grid == 0:
                        service.refresh()
                endpoint.send(
                    ("applied", seq, error is None, error,
                     service.batches_applied,
                     service.store.latest_epoch() or 0)
                )
            elif verb == "wal" and role == "replica":
                _verb, seq, line = message
                fire_faults(faults, rid, seq, "recv")
                record = parse_wal_line(line)
                if record is None or seq > service.batches_applied + 1:
                    # Corrupt in transit or a gap: ask for a re-ship from
                    # the last record this replica durably applied.
                    endpoint.send(("nack", service.batches_applied))
                    continue
                if _follow(service, seq, record[1], grid):
                    fire_faults(faults, rid, seq, "reply")
                endpoint.send(("ack", seq, service.batches_applied))
            elif verb == "promote" and role == "replica":
                _verb, token, faults = message
                # Replay what the dead primary logged but never shipped.
                replayed = sum(
                    _follow(service, epoch, batch, grid)
                    for epoch, batch in service._wal_tail()
                )
                role = "primary"
                endpoint.send(
                    ("promoted", token, service.batches_applied, replayed)
                )
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown command {verb!r} for role {role}")
    finally:
        if service is not None:
            service.close()
        endpoint.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _ReplicaState:
    """Supervisor-side ledger for one replica."""

    __slots__ = ("rid", "acked", "shipped", "pending", "stalled", "respawns")

    def __init__(self, rid: int):
        self.rid = rid
        self.acked = 0  #: highest seq the replica confirmed applied
        self.shipped = 0  #: highest seq the supervisor handed to the wire
        self.pending: Deque[int] = deque()  #: seqs not yet shipped
        self.stalled = False  #: heartbeat lapsed; client re-routes
        self.respawns = 0


class ServiceSupervisor:
    """Primary + N read replicas under one deterministic supervisor.

    >>> from repro.graph.generators import ring_of_cliques
    >>> from repro.api.config import AlgoConfig, ServicePlanConfig
    >>> config = ServicePlanConfig(
    ...     algo=AlgoConfig(seed=3, iterations=40), batch_size=2,
    ...     replicas=1, staleness_batches=2,
    ... )
    >>> # sup = ServiceSupervisor(ring_of_cliques(3, 4), "state/", config)
    >>> # sup.start(); sup.submit_insert(0, 5); ...; sup.shutdown()

    Keyword arguments apply to ``config`` through
    :meth:`ServicePlanConfig.with_overrides` (``replicas=2, seed=7``).

    The supervisor windows edits exactly like the facade (same
    :class:`EditQueue` semantics), labels each drained batch with the
    next WAL sequence number, commits it to the primary, and ships the
    acknowledged record to every replica.  ``fault_plan`` scripts
    deterministic failures (:mod:`repro.distributed.faults`); see the
    module docstring for the failover protocol.
    """

    def __init__(
        self,
        graph: Graph,
        checkpoint_dir: str,
        config: Optional[ServicePlanConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        **overrides,
    ):
        config = (config or ServicePlanConfig()).with_overrides(**overrides)
        if config.replicas < 1:
            raise ValueError(
                "ServiceSupervisor requires replicas >= 1 in the "
                "ServicePlanConfig; an unreplicated deployment is plain "
                "CommunityService"
            )
        execution = config.execution
        if execution.num_workers or execution.multiprocess:
            raise ValueError(
                "replication runs a local fit: its children are daemon "
                "processes that fit in-process and cannot start BSP workers "
                f"(got num_workers={execution.num_workers}, "
                f"multiprocess={execution.multiprocess})"
            )
        self.plan: ServiceRunPlan = resolve_service_plan(
            GraphCaps.of(graph), config
        )
        if config.checkpoint_every < 1:
            raise ValueError(
                "replication requires checkpoint_every >= 1: replicas "
                "bootstrap (and promotions replay) from the shared "
                "checkpoint + WAL tail"
            )
        if checkpoint_dir is None:
            raise ValueError(
                "replication requires a checkpoint_dir: replicas bootstrap "
                "(and promotions replay) from the shared checkpoint + WAL"
            )
        self._graph = graph
        self._checkpoint_dir = str(checkpoint_dir)
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan()
        )
        self._queue = EditQueue(batch_size=config.batch_size)
        # The children run untraced: the supervisor's own context clocks
        # every cross-process exchange end to end.
        self._child_config = config.with_overrides(
            execution=ExecutionConfig(backend=config.backend)
        )
        self._wire: Wire = SERVICE_TRANSPORTS.resolve(
            self.plan.service_transport
        )()
        #: Pids that survived the SIGKILL escalation at shutdown.
        self.leaked_pids: List[int] = []
        self._replicas: Dict[int, _ReplicaState] = {}
        self._primary_cid = _PRIMARY_CID
        self._buffer: Dict[int, str] = {}  #: seq -> shipped WAL line
        self._committed_seq = 0
        self._latest_ckpt_epoch = 0
        self._token = 0
        self._started = False
        self._closed = False
        # Commit / ship / failover spans and the replication metrics.
        self.obs = _service_obs(config.execution)
        if self.obs is not None:
            self.obs.meta["mode"] = "replicated-service"
            self.obs.meta["replicas"] = config.replicas
        # Failover ledger (surfaced in stats()).
        self.failovers = 0
        self.promoted_replica: Optional[int] = None
        self.replayed_records = 0
        self.replica_respawns = 0
        self.wal_reships = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceSupervisor":
        """Spawn the primary (fit + baseline checkpoint) and the replicas."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._wire.bind()
        try:
            self._wire.start(
                self._primary_cid, _service_child_main,
                *self._child_args("primary", -1),
            )
            self._wire.attach(self._primary_cid)
            self._wire.recv(self._primary_cid)  # ready: fit + checkpoint 0
            for rid in range(self.plan.replicas):
                self._spawn_replica(rid, respawn=False)
        except BaseException:
            self.shutdown()
            raise
        self._started = True
        return self

    def _child_args(self, role: str, rid: int) -> tuple:
        """What :func:`_service_child_main` takes after the endpoint."""
        return (
            role, rid, self._graph if role == "primary" else None,
            self._child_config, self._checkpoint_dir, self._fault_plan,
        )

    def _spawn_replica(self, rid: int, respawn: bool) -> None:
        """Spawn (or respawn) replica ``rid`` and bootstrap it.

        The replica restores its service from the shared checkpoint and
        WAL exactly as :meth:`CommunityService.recover` does (falling back
        past a corrupt checkpoint), then installs the live primary's
        exported index, so it lands on the current stable-id trajectory
        (stable ids are path-dependent).  A respawned replica is healthy
        (its scripted faults are stripped) and takes the same path as an
        initial spawn, so the code path is exercised constantly, not only
        in disasters.  A replica replaced while still alive (one that
        lagged past the buffer) gets the wire's stop escalation.
        """
        # Out of the ledger until bootstrapped: a failover while the
        # primary exports must neither query nor elect this replica.
        state = self._replicas.pop(rid, None) or _ReplicaState(rid)
        try:
            if respawn:
                state.respawns += 1
                self.replica_respawns += 1
                self._fault_plan = self._fault_plan.without(child=rid)
            # The primary's index and its extraction epoch.
            exported, _applied = self._query_primary("export_index")
            # A first spawn has no old process to detach.
            self._wire.restart(
                rid, _service_child_main, *self._child_args("replica", rid)
            )
            self._wire.send(rid, ("bootstrap", exported))
            ready = self._wire.recv(rid)
        finally:
            self._replicas[rid] = state
        state.acked = ready[1]
        state.shipped = max(state.acked, self._committed_seq)
        state.pending.clear()
        state.stalled = False

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, op: str, u: int, v: int) -> Optional[int]:
        """Offer one edit; commits a batch when the window fills.

        Returns the committed WAL sequence when this edit completed a
        window, else ``None``.
        """
        self._require_started()
        self._queue.offer(op, u, v)
        if self._queue.ready:
            return self.flush()
        return None

    def submit_insert(self, u: int, v: int) -> Optional[int]:
        return self.submit("+", u, v)

    def submit_delete(self, u: int, v: int) -> Optional[int]:
        return self.submit("-", u, v)

    def flush(self) -> Optional[int]:
        """Drain the window and commit the net batch now (empty → no-op)."""
        self._require_started()
        batch = self._queue.drain()
        if not batch:
            return None
        return self._commit(batch)

    def apply(self, batch: EditBatch) -> Optional[int]:
        """Commit a pre-built batch (bulk ingest path); flushes first."""
        self._require_started()
        if self._queue.pending:
            self.flush()
        if not batch:
            return None
        return self._commit(batch)

    def _commit(self, batch: EditBatch) -> int:
        """Label, commit to the primary, and replicate one batch."""
        seq = self._committed_seq + 1
        line = encode_wal_record(seq, batch)
        self._buffer[seq] = line
        obs = self.obs
        commit_start = time.time_ns() if obs is not None else 0
        ack = self._apply_on_primary(seq, line)
        _verb, _seq, ok, error, applied, ckpt_epoch = ack
        if not ok:
            # Validation failed before anything durable happened: the
            # sequence number is not consumed and the error surfaces to
            # the caller exactly as the unreplicated facade would raise.
            del self._buffer[seq]
            raise error
        self._committed_seq = applied
        self._latest_ckpt_epoch = max(self._latest_ckpt_epoch, ckpt_epoch)
        if obs is not None:
            obs.trace.record(
                "service.commit", commit_start, plane="service", superstep=seq
            )
            obs.metrics.counter("service.records_committed").inc()
        for state in self._replicas.values():
            state.pending.append(seq)
        self._pump_replicas()
        self._prune_buffer()
        return seq

    def _apply_on_primary(self, seq: int, line: str):
        """Send one apply and wait for its ack, failing over as needed."""
        while True:
            try:
                self._wire.send(self._primary_cid, ("apply", seq, line))
                # Anything before the ack is a stale response from an
                # interrupted exchange (e.g. a query the client timed
                # out on).
                return self._wire.await_reply(
                    self._primary_cid,
                    lambda message: message[0] == "applied" and message[1] == seq,
                )
            except ChildCrashedError:
                self._handle_primary_crash(in_flight=(seq, line))
                # Loop: re-send to the promoted primary (idempotent if
                # the record was already durable before the crash).

    # ------------------------------------------------------------------
    # Replication pump
    # ------------------------------------------------------------------
    def _absorb(self, state: _ReplicaState) -> None:
        """Drain late messages (acks after a stall) without blocking."""
        while self._wire.poll(state.rid):
            message = self._wire.recv(state.rid, timeout=0)
            if message is TIMEOUT:
                break
            if message[0] == "ack":
                state.acked = max(state.acked, message[2])
                state.stalled = False
            elif message[0] == "nack":
                self._renact(state, message[1])

    def _renact(self, state: _ReplicaState, applied: int) -> None:
        """Reset a replica's pending window after a nack (gap/corruption)."""
        state.acked = applied
        state.pending = deque(
            range(applied + 1, max(state.shipped, self._committed_seq) + 1)
        )
        self.wal_reships += 1

    def _pump_replicas(self) -> None:
        for rid in sorted(self._replicas):
            self._pump(self._replicas[rid])

    def _pump(self, state: _ReplicaState) -> None:
        """Ship this replica's pending records, one synchronous ack each.

        A replica found dead — while idle or mid-ship — is respawned.
        """
        try:
            self._absorb(state)
        except ChildCrashedError:
            self._spawn_replica(state.rid, respawn=True)
            return
        guard = 0
        while guard < 10_000:  # defensive: every path below makes progress
            guard += 1
            if not state.pending:
                if state.stalled or state.acked >= self._committed_seq:
                    return
                # Tail gap (a dropped final record): re-ship the rest.
                self._renact(state, state.acked)
            seq = state.pending.popleft()
            if seq <= state.acked:
                continue
            if seq not in self._buffer:
                # Rotated out from under a lagging replica: a respawn
                # bootstraps it from the checkpoint that superseded the
                # missing records.
                self._spawn_replica(state.rid, respawn=True)
                return
            drops = self._fault_plan.at(state.rid, seq, "ship")
            if drops:
                # Scripted in-transit loss, once: the supervisor believes
                # the record shipped; the replica's gap detection must nack.
                self._fault_plan = self._fault_plan.without(event=drops[0])
                state.shipped = max(state.shipped, seq)
                continue
            obs = self.obs
            ship_start = time.time_ns() if obs is not None else 0
            try:
                self._wire.send(state.rid, ("wal", seq, self._buffer[seq]))
                state.shipped = max(state.shipped, seq)
                reply = self._wire.recv(
                    state.rid, timeout=self.plan.heartbeat_interval
                )
            except ChildCrashedError:
                self._spawn_replica(state.rid, respawn=True)
                return
            if obs is not None and reply is not TIMEOUT:
                obs.trace.record(
                    "service.wal_ship", ship_start, plane="service",
                    worker=state.rid, superstep=seq,
                )
                obs.metrics.counter("service.wal_records_shipped").inc()
            if reply is TIMEOUT:
                # Heartbeat lapse: stop pumping and let the client
                # re-route meanwhile.  The record is in flight, not lost
                # — its ack is absorbed on the next pump, and if it never
                # comes the tail-gap check re-ships from ``acked``.
                state.stalled = True
                return
            if reply[0] == "ack":
                state.acked = max(state.acked, reply[2])
                state.stalled = False
            elif reply[0] == "nack":
                self._renact(state, reply[1])

    def _prune_buffer(self) -> None:
        """Drop buffered lines a durable checkpoint made redundant.

        Records at or below the latest announced checkpoint epoch are
        recoverable from shared disk, so a replica that still needs them
        (it lagged past the buffer) is respawned from that checkpoint
        instead of re-shipped.
        """
        if not self._latest_ckpt_epoch:
            return
        floor = min(
            [self._latest_ckpt_epoch]
            + [state.acked for state in self._replicas.values()
               if not state.stalled]
        )
        for seq in [s for s in self._buffer if s <= floor]:
            del self._buffer[seq]

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _handle_primary_crash(
        self, in_flight: Optional[Tuple[int, str]]
    ) -> None:
        """Promote the freshest replica and resume, or give up loudly."""
        obs = self.obs
        failover_start = time.time_ns() if obs is not None else 0
        self.failovers += 1
        if self.failovers > self.plan.max_failovers:
            raise FailoverExhaustedError(
                f"primary died {self.failovers} time(s); max_failovers="
                f"{self.plan.max_failovers} exhausted"
            )
        self._wire.detach(self._primary_cid)
        if not self._replicas:
            raise FailoverExhaustedError(
                "primary died with no replicas left to promote"
            )
        logger.warning(
            "primary died (failover %d); electing the freshest replica",
            self.failovers,
        )
        # Freshest replica = highest applied WAL seq; ties break to the
        # lowest rid so elections are deterministic.
        statuses: Dict[int, int] = {}
        dead: List[int] = []
        for rid in sorted(self._replicas):
            state = self._replicas[rid]
            try:
                self._absorb(state)
                applied, _ = self._query_child(
                    rid, "status", (), timeout=None
                )
            except ChildCrashedError:
                # A dead replica cannot stand for election; respawn it
                # after a new primary exists to export index state from.
                dead.append(rid)
                continue
            statuses[rid] = applied
        if not statuses:
            raise FailoverExhaustedError(
                "primary died and every replica is dead too; nothing "
                "left to promote"
            )
        promoted = max(sorted(statuses), key=lambda rid: statuses[rid])
        # Strip the fired kill or tear so the promoted primary cannot
        # re-fire it.  Exactly this record was in flight when the crash
        # happened, so the fired event is the first primary death at its
        # seq (a recv kill fires before the tear, the tear before a reply
        # kill).
        plan = self._fault_plan
        if in_flight is not None:
            deaths = [
                event for phase in ("recv", "wal", "reply")
                for event in plan.at(PRIMARY, in_flight[0], phase)
                if event.action in ("kill", "tear")
            ]
            if deaths:
                plan = plan.without(event=deaths[0])
        # The promoted process stops being replica ``promoted``.
        plan = plan.without(child=promoted)
        self._fault_plan = plan
        token = self._next_token()
        self._wire.send(promoted, ("promote", token, plan))
        reply = self._wire.await_reply(
            promoted,
            lambda message: message[0] == "promoted" and message[1] == token,
        )
        _verb, _token, applied, replayed = reply
        self.replayed_records += replayed
        self.promoted_replica = promoted
        self._replicas.pop(promoted)
        self._primary_cid = promoted
        self._committed_seq = max(self._committed_seq, applied)
        logger.warning(
            "promoted replica %d at seq %d (%d record(s) replayed)",
            promoted, applied, replayed,
        )
        for rid in dead:
            self._spawn_replica(rid, respawn=True)
        if obs is not None:
            obs.trace.record(
                "service.failover", failover_start, plane="service",
                worker=promoted, superstep=self._committed_seq,
            )
            obs.metrics.counter("service.failovers").inc()

    # ------------------------------------------------------------------
    # Query plane (used by ReplicatedClient)
    # ------------------------------------------------------------------
    def _next_token(self) -> int:
        self._token += 1
        return self._token

    def _query_child(self, cid: int, kind: str, args: tuple,
                     timeout: Optional[float]):
        """One token-tagged query; stale responses are discarded."""
        token = self._next_token()
        self._wire.send(cid, ("query", token, kind, args))
        state = self._replicas.get(cid)

        def match(message) -> bool:
            # A late ack still counts; any other message is a stale
            # tokened response, dropped.
            if message[0] == "ack" and state is not None:
                state.acked = max(state.acked, message[2])
                state.stalled = False
            return message[0] == "resp" and message[1] == token

        reply = self._wire.await_reply(cid, match, timeout=timeout)
        if reply is TIMEOUT:
            raise ReplicaLapsedError(
                f"child {cid} missed the {timeout:.3f}s window"
            )
        _verb, _token, ok, payload, applied = reply
        if not ok:
            raise payload
        return payload, applied

    def query_primary(self, kind: str, args: tuple = ()):  # crash-aware
        """Query the primary (blocking, surviving failovers)."""
        self._require_started()
        return self._query_primary(kind, args)

    def _query_primary(self, kind: str, args: tuple = ()):
        """:meth:`query_primary` without the started check (a replica
        spawns from inside :meth:`start`)."""
        while True:
            try:
                return self._query_child(
                    self._primary_cid, kind, args, timeout=None
                )
            except ChildCrashedError:
                self._handle_primary_crash(in_flight=None)

    def query_replica(self, rid: int, kind: str, args: tuple,
                      timeout: Optional[float]):
        """Query one replica; lapses mark it stalled for re-routing."""
        self._require_started()
        state = self._replicas[rid]
        self._pump(state)
        if state.stalled:
            raise ReplicaLapsedError(f"replica {rid} heartbeat lapsed")
        try:
            return self._query_child(rid, kind, args, timeout=timeout)
        except ReplicaLapsedError:
            state.stalled = True
            raise
        except ChildCrashedError:
            self._spawn_replica(rid, respawn=True)
            raise ReplicaLapsedError(f"replica {rid} died; respawned")

    def live_replicas(self) -> List[int]:
        """Replica ids currently eligible for queries (not lapsed)."""
        return [
            rid for rid in sorted(self._replicas)
            if not self._replicas[rid].stalled
        ]

    def client(self, timeout: Optional[float] = None,
               attempts: int = 4) -> "ReplicatedClient":
        """A query client over this topology (see :class:`ReplicatedClient`)."""
        return ReplicatedClient(self, timeout=timeout, attempts=attempts)

    # ------------------------------------------------------------------
    # Introspection & shutdown
    # ------------------------------------------------------------------
    @property
    def committed_seq(self) -> int:
        """Highest WAL sequence the primary has acknowledged durable."""
        return self._committed_seq

    def stats(self) -> Dict[str, object]:
        """Primary service stats + the supervisor's failover ledger."""
        self._require_started()
        payload, _applied = self.query_primary("stats")
        payload = dict(payload)
        payload["failovers"] = self.failovers
        payload["promoted_replica"] = self.promoted_replica
        payload["replayed_records"] = self.replayed_records
        payload["replica_respawns"] = self.replica_respawns
        payload["wal_reships"] = self.wal_reships
        payload["committed_seq"] = self._committed_seq
        payload["replicas"] = {
            rid: {
                "acked": state.acked,
                "stalled": state.stalled,
                "respawns": state.respawns,
            }
            for rid, state in sorted(self._replicas.items())
        }
        if self.obs is not None:
            payload["supervisor_metrics"] = self.obs.metrics.snapshot()
        return payload

    def trace_result(self):
        """The supervisor's :class:`~repro.obs.TraceResult`, or ``None``.

        Covers the replication plane only (commit / ship / failover spans);
        the children run untraced so the clock never crosses a process
        boundary.
        """
        if self.obs is None:
            return None
        return self.obs.result(
            {
                "committed_seq": self._committed_seq,
                "failovers": self.failovers,
            }
        )

    def snapshot(self) -> Dict[int, frozenset]:
        """The primary's ``stable id -> members`` map (bit-identity probe)."""
        payload, _applied = self.query_primary("snapshot")
        return payload

    def finish(self) -> ReplicatedRunResult:
        """Drain replication, collect the final result, and shut down."""
        self._require_started()
        self.flush()
        self._pump_replicas()
        snapshot = self.snapshot()
        stats = self.stats()
        self.shutdown()
        from repro.core.communities import Cover

        cover = Cover([snapshot[cid] for cid in sorted(snapshot)])
        return ReplicatedRunResult(cover=cover, stats=stats, plan=self.plan)

    def shutdown(self) -> None:
        """Stop every child and release the wire (idempotent).

        Escalates stop → SIGTERM → SIGKILL; a process that survives even
        SIGKILL is reported in :attr:`leaked_pids` and logged.
        """
        if self._closed:
            return
        self._closed = True
        self.leaked_pids += self._wire.stop(join_s=2.0, kill_join_s=1.0)

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("supervisor not started; call start() first")
        if self._closed:
            raise RuntimeError("supervisor is shut down")

    def __enter__(self) -> "ServiceSupervisor":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ServiceSupervisor(replicas={sorted(self._replicas)}, "
            f"committed_seq={self._committed_seq}, "
            f"failovers={self.failovers})"
        )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class ReplicatedClient:
    """Queries over the topology: timeout, retry, re-route, never error.

    Each request walks the live replicas round-robin under a per-request
    timeout; a lapse (the resolved ``heartbeat_interval`` by default)
    marks the replica stalled and re-routes to the next.  Between
    attempts the client sleeps a jittered exponential backoff
    (:class:`~repro.utils.backoff.JitteredBackoff`, keyed by the service
    seed and the request number — deterministic per run, decorrelated
    across requests).  The final fallback queries the primary with a
    crash-aware blocking wait that survives failovers, so a query can be
    served stale (counted in :attr:`stale_serves`) but never errors for
    availability reasons; only genuine semantic errors (e.g. ``KeyError``
    for a dead community id) propagate.
    """

    def __init__(self, supervisor: ServiceSupervisor,
                 timeout: Optional[float] = None, attempts: int = 4):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self._sup = supervisor
        self._timeout = (
            timeout if timeout is not None
            else supervisor.plan.heartbeat_interval
        )
        self._attempts = attempts
        self._rr = 0
        self._requests = 0
        self.queries_served = 0
        self.stale_serves = 0
        self.reroutes = 0
        self.primary_fallbacks = 0

    def communities_of(self, vertex: int) -> Tuple[int, ...]:
        return self._query("communities_of", (vertex,))

    def members(self, cid: int) -> frozenset:
        return self._query("members", (cid,))

    def overlap(self, u: int, v: int) -> Tuple[int, ...]:
        return self._query("overlap", (u, v))

    def stats(self) -> Dict[str, object]:
        return self._query("stats", ())

    def _query(self, kind: str, args: tuple):
        self._requests += 1
        backoff = JitteredBackoff(
            0.01,
            attempts=self._attempts,
            key=(self._sup.plan.requested.algo.seed, self._requests, kind),
        )
        delays = backoff.delays()
        for attempt in range(self._attempts - 1):
            live = self._sup.live_replicas()
            if not live:
                break
            rid = live[self._rr % len(live)]
            self._rr += 1
            try:
                payload, applied = self._sup.query_replica(
                    rid, kind, args, timeout=self._timeout
                )
            except ReplicaLapsedError:
                self.reroutes += 1
                time.sleep(next(delays))
                continue
            self.queries_served += 1
            if applied < self._sup.committed_seq:
                self.stale_serves += 1
            return payload
        # Last resort: the primary, blocking and failover-surviving.
        self.primary_fallbacks += 1
        payload, _applied = self._sup.query_primary(kind, args)
        self.queries_served += 1
        return payload

    def __repr__(self) -> str:
        return (
            f"ReplicatedClient(served={self.queries_served}, "
            f"stale={self.stale_serves}, reroutes={self.reroutes})"
        )
