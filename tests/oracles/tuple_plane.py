"""The retired tuple message plane, kept as the columnar plane's test oracle.

The library's BSP substrate is the columnar engine
(:class:`repro.distributed.engine_array.ArrayBSPEngine`).  Before it, every
message was a Python ``(dst, payload)`` tuple, routed one
``partitioner.owner()`` call at a time and delivered as a fully sorted tuple
inbox.  That plane is an independent second implementation of the same
protocols, so the tests keep it here to pin the columnar plane bit for bit:
same collected results and the same per-superstep
:class:`~repro.distributed.metrics.CommStats` counters.

Everything below is the retired code moved verbatim (engine, message sizes,
the rSLPA / SLPA / Hash-to-Min programs), plus the retired dict-slice
Correction Propagation program (:class:`DictCorrectionProgram`, whose
per-vertex lists alias a :class:`~repro.core.labels.LabelState`) and
:class:`CorrectionOracleProgram`, which runs it on this engine through the
old sorted-tuple dispatch.  The oracle programs collect per-vertex
lists where the library's collect columns:
:func:`merge_collected_rslpa_state` (the retired driver-side converter)
turns the rSLPA lists into a :class:`~repro.core.labels.LabelState`, and
:func:`as_columns` lays any of them out as the library's columns.
"""

from __future__ import annotations

from collections import Counter
from time import time_ns
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.slpa import _SEND, _TIE
from repro.core.labels import NO_SOURCE, LabelState
from repro.core.randomness import (
    draw_position,
    draw_src_index,
    keep_lottery_uniform,
    repick_draw,
    slot_hash,
)
from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.message_array import ArrayInbox, ArrayMessageContext
from repro.distributed.metrics import CommStats, SuperstepStats
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.edits import apply_batch
from repro.graph.partition import Partitioner

# ----------------------------------------------------------------------
# Message representation and size accounting
# ----------------------------------------------------------------------
# A message is (dst_vertex, payload-tuple).
Message = Tuple[int, tuple]

_ADDRESS_BYTES = 8


def payload_size_bytes(payload: tuple) -> int:
    """Estimated wire size of a payload tuple."""
    size = 0
    for field in payload:
        if isinstance(field, str):
            size += len(field.encode("utf-8"))
        elif isinstance(field, (tuple, list, frozenset, set)):
            size += payload_size_bytes(tuple(field))
        else:
            size += 8
    return size


def message_size_bytes(message: Message) -> int:
    """Estimated wire size of a full message (address + payload)."""
    return _ADDRESS_BYTES + payload_size_bytes(message[1])


# ----------------------------------------------------------------------
# The tuple BSP engine
# ----------------------------------------------------------------------
class MessageContext:
    """Collects the messages a worker emits during one superstep."""

    __slots__ = ("outbox",)

    def __init__(self):
        self.outbox: List[Message] = []

    def send(self, dst_vertex: int, payload: tuple) -> None:
        """Queue ``payload`` for delivery to ``dst_vertex`` next superstep."""
        self.outbox.append((dst_vertex, payload))


class WorkerProgram:
    """Base class for worker-level BSP programs.

    Subclasses hold per-worker algorithm state, are constructed once per
    shard, and must be picklable if run under the multiprocess backend.
    """

    def __init__(self, shard: CSRShard):
        self.shard = shard

    def on_start(self, ctx: MessageContext) -> None:
        """Called once before superstep 1; emit initial messages here."""

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        """Process this worker's inbox; emit follow-up messages via ``ctx``.

        ``inbox`` holds the payload tuples addressed to this worker's
        vertices (each payload's first field is the destination vertex by
        engine convention — see :meth:`BSPEngine.run`), sorted for
        determinism.  The engine stops when a superstep generates no
        messages anywhere.
        """
        raise NotImplementedError

    def collect(self) -> dict:
        """Return this worker's final local results (merged by the caller)."""
        return {}


class BSPEngine:
    """Runs a program over shards with synchronous message routing."""

    def __init__(self, shards: Sequence[CSRShard], partitioner: Partitioner):
        if len(shards) != partitioner.num_partitions:
            raise ValueError(
                f"{len(shards)} shards but partitioner has "
                f"{partitioner.num_partitions} partitions"
            )
        self.shards = list(shards)
        self.partitioner = partitioner
        self.stats = CommStats()
        self.obs = None  # set to a repro.obs.Obs to record this engine

    def _route(
        self, outboxes: Dict[int, List[Message]], superstep: int
    ) -> Dict[int, List[tuple]]:
        """Deliver messages to owning workers; account communication."""
        obs = self.obs
        if obs is not None:
            route_start = time_ns()
        step_stats = SuperstepStats(superstep=superstep)
        inboxes: Dict[int, List[tuple]] = {s.worker_id: [] for s in self.shards}
        for sender_id, outbox in outboxes.items():
            for dst_vertex, payload in outbox:
                owner = self.partitioner.owner(dst_vertex)
                size = message_size_bytes((dst_vertex, payload))
                step_stats.messages += 1
                step_stats.bytes += size
                if owner != sender_id:
                    step_stats.remote_messages += 1
                    step_stats.remote_bytes += size
                # Engine convention: the destination vertex is prepended so
                # programs can dispatch without a second lookup table.
                inboxes[owner].append((dst_vertex,) + payload)
        for inbox in inboxes.values():
            inbox.sort()
        self.stats.record(step_stats)
        if obs is not None:
            obs.trace.record(
                "engine.route", route_start, plane="tuple", superstep=superstep
            )
            obs.metrics.counter("engine.messages").inc(step_stats.messages)
            obs.metrics.counter("engine.remote_messages").inc(
                step_stats.remote_messages
            )
            obs.metrics.counter("engine.bytes").inc(step_stats.bytes)
            obs.metrics.counter("engine.remote_bytes").inc(
                step_stats.remote_bytes
            )
        return inboxes

    def run(
        self,
        programs: Sequence[WorkerProgram],
        max_supersteps: int = 100_000,
    ) -> List[WorkerProgram]:
        """Execute until message quiescence (or the superstep cap).

        Returns the programs so callers can :meth:`WorkerProgram.collect`.
        """
        if len(programs) != len(self.shards):
            raise ValueError("one program instance per shard is required")
        obs = self.obs
        outboxes: Dict[int, List[Message]] = {}
        for program in programs:
            if obs is not None:
                compute_start = time_ns()
            ctx = MessageContext()
            program.on_start(ctx)
            outboxes[program.shard.worker_id] = ctx.outbox
            if obs is not None:
                obs.trace.record(
                    "engine.compute",
                    compute_start,
                    plane="tuple",
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
            inboxes = self._route(outboxes, superstep)
            outboxes = {}
            for program in programs:
                if obs is not None:
                    compute_start = time_ns()
                ctx = MessageContext()
                inbox = inboxes.get(program.shard.worker_id, [])
                program.on_superstep(ctx, superstep, inbox)
                outboxes[program.shard.worker_id] = ctx.outbox
                if obs is not None:
                    obs.trace.record(
                        "engine.compute",
                        compute_start,
                        plane="tuple",
                        worker=program.shard.worker_id,
                        superstep=superstep,
                    )
        return list(programs)


# ----------------------------------------------------------------------
# Tuple programs
# ----------------------------------------------------------------------
class RSLPAPropagationProgram(WorkerProgram):
    """Algorithm 1 as mappers/reducers (fetch protocol).

    Message kinds:
      ``(dst, "req", pos, requester, t)`` — requester asks dst for l_dst^pos;
      ``(dst, "lab", label, src, pos, t)`` — the reply, appended at dst.
    """

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.labels: Dict[int, List[int]] = {v: [v] for v in shard.vertices}
        self.srcs: Dict[int, List[int]] = {v: [NO_SOURCE] for v in shard.vertices}
        self.poss: Dict[int, List[int]] = {v: [NO_SOURCE] for v in shard.vertices}

    def _send_requests(self, ctx: MessageContext, t: int) -> None:
        for v in sorted(self.shard.vertices):
            nbrs = self.shard.neighbors(v)
            if len(nbrs) == 0:
                continue  # fallback slots are padded at collect()
            h = slot_hash(self.seed, v, t, 0)
            # int() keeps hashes and messages identical on the CSR backend,
            # whose neighbour sequences are numpy arrays.
            src = int(nbrs[draw_src_index(h, len(nbrs))])
            pos = draw_position(h, t)
            ctx.send(src, ("req", pos, v, t))

    def on_start(self, ctx: MessageContext) -> None:
        if self.iterations >= 1:
            self._send_requests(ctx, 1)

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        advanced_t: Optional[int] = None
        for message in inbox:
            kind = message[1]
            if kind == "lab":
                dst, _kind, label, src, pos, t = message
                self.labels[dst].append(label)
                self.srcs[dst].append(src)
                self.poss[dst].append(pos)
                advanced_t = t
            elif kind == "req":
                dst, _kind, pos, requester, t = message
                ctx.send(requester, ("lab", self.labels[dst][pos], dst, pos, t))
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown message kind {kind!r}")
        if advanced_t is not None and advanced_t < self.iterations:
            self._send_requests(ctx, advanced_t + 1)

    def collect(self) -> dict:
        """Per-vertex (labels, srcs, poss), degree-0 vertices padded."""
        result = {}
        for v in self.shard.vertices:
            labels, srcs, poss = self.labels[v], self.srcs[v], self.poss[v]
            while len(labels) < self.iterations + 1:  # degree-0 fallback
                labels.append(labels[0])
                srcs.append(NO_SOURCE)
                poss.append(NO_SOURCE)
            result[v] = (labels, srcs, poss)
        return result


class SLPAPropagationProgram(WorkerProgram):
    """The SLPA baseline's push protocol (one label per directed edge).

    Message kind: ``(listener, "spk", label, t)``.  Speaker draws and the
    plurality tie-break reuse the exact counter-based hashes of
    :class:`repro.baselines.slpa.SLPA`, so memories match bit-for-bit.
    """

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.memories: Dict[int, List[int]] = {v: [v] for v in shard.vertices}

    def _speak(self, ctx: MessageContext, t: int) -> None:
        for speaker in sorted(self.shard.vertices):
            memory = self.memories[speaker]
            for listener in self.shard.neighbors(speaker):
                listener = int(listener)  # CSR backend yields numpy ints
                h = slot_hash(
                    self.seed ^ _SEND, speaker * 0x1F1F1F1F + listener, t, 0
                )
                pos = draw_position(h, t)
                ctx.send(listener, ("spk", memory[pos], t))

    def on_start(self, ctx: MessageContext) -> None:
        if self.iterations >= 1:
            self._speak(ctx, 1)

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        if not inbox:
            return
        received: Dict[int, List[int]] = {}
        t = inbox[0][3]
        for listener, _kind, label, msg_t in inbox:
            if msg_t != t:  # pragma: no cover - protocol violation
                raise ValueError("mixed-iteration SLPA inbox")
            received.setdefault(listener, []).append(label)
        for listener, labels in received.items():
            counts = Counter(labels)
            best = max(counts.values())
            winners = sorted(l for l, c in counts.items() if c == best)
            if len(winners) == 1:
                choice = winners[0]
            else:
                h = slot_hash(self.seed ^ _TIE, listener, t, 0)
                choice = winners[draw_src_index(h, len(winners))]
            self.memories[listener].append(choice)
        if t < self.iterations:
            self._speak(ctx, t + 1)

    def collect(self) -> dict:
        result = {}
        for v in self.shard.vertices:
            memory = self.memories[v]
            while len(memory) < self.iterations + 1:  # degree-0 fallback
                memory.append(memory[0])
            result[v] = memory
        return result


class HashToMinProgram(WorkerProgram):
    """Hash-to-Min connected components over one worker shard."""

    def __init__(self, shard: CSRShard):
        super().__init__(shard)
        # int() keeps cluster members plain ints on the CSR shard backend.
        self.clusters: Dict[int, Set[int]] = {
            v: {v, *(int(u) for u in shard.neighbors(v))} for v in shard.vertices
        }
        self._dirty: Set[int] = {v for v in shard.vertices if shard.degree(v) > 0}

    def _emit(self, ctx: MessageContext) -> None:
        for v in sorted(self._dirty):
            cluster = self.clusters[v]
            m = min(cluster)
            payload = tuple(sorted(cluster))
            ctx.send(m, ("set", payload))
            for u in cluster:
                if u != m:
                    ctx.send(u, ("set", (m,)))
        self._dirty.clear()

    def on_start(self, ctx: MessageContext) -> None:
        self._emit(ctx)

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        received: Dict[int, Set[int]] = {}
        for dst, _kind, members in inbox:
            received.setdefault(dst, set()).update(members)
        for v, incoming in received.items():
            if not incoming <= self.clusters[v]:
                # Monotone variant: clusters only grow, so delta-sending
                # quiesces and min() improves until it is the component min.
                self.clusters[v] |= incoming
                self._dirty.add(v)
        self._emit(ctx)

    def collect(self) -> dict:
        return {v: min(cluster) for v, cluster in self.clusters.items()}


# ----------------------------------------------------------------------
# Correction Propagation on per-vertex dict slices
# ----------------------------------------------------------------------
class DictCorrectionProgram(ArrayWorkerProgram):
    """Algorithm 2 over workers: incremental repair after an edit batch.

    The shard's adjacency must reflect the *new* graph.  Each worker holds
    the label-state slice (labels/srcs/poss/epochs/receivers) of its local
    vertices; ``added``/``removed`` give the per-local-vertex neighbour
    deltas of the batch.

    Message kinds:
      ``(old_src, "unreg", pos, tar, k)``             — detach a stale record;
      ``(new_src, "fetch", pos, tar, k)``             — register + request;
      ``(tar, "fval", label, k, src, pos, version)``  — fetch reply;
      ``(tar, "corr", label, k, src, pos, version)``  — cascade correction.

    Two safeguards make the unsynchronised cascade converge to exactly the
    sequential fixpoint (asserted by the tests):

    * every value-carrying message is tagged with the provenance
      ``(src, pos)`` it derives from, and receivers drop updates that do not
      match their slot's *current* provenance — corrections from stale
      records (whose unregister is still in flight) are harmless;
    * every source slot carries a monotone ``version`` bumped on each value
      change, and receivers drop updates older than the newest seen — so
      two corrections for the same slot arriving in one superstep cannot be
      applied out of causal order.
    """

    def __init__(
        self,
        shard: CSRShard,
        seed: int,
        iterations: int,
        labels: Dict[int, List[int]],
        srcs: Dict[int, List[int]],
        poss: Dict[int, List[int]],
        epochs: Dict[int, List[int]],
        receivers: Dict[int, Dict[int, Set[Tuple[int, int]]]],
        added: Dict[int, Set[int]],
        removed: Dict[int, Set[int]],
        batch_epoch: int,
    ):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.labels = labels
        self.srcs = srcs
        self.poss = poss
        self.epochs = epochs
        self.receivers = receivers
        self.added = added
        self.removed = removed
        self.batch_epoch = batch_epoch
        self.touched_slots: Set[Tuple[int, int]] = set()
        # versions[(v, t)]: bumped whenever local slot (v, t) changes value.
        self.versions: Dict[Tuple[int, int], int] = {}
        # last_seen[(v, t)]: newest source version applied to local slot.
        self.last_seen: Dict[Tuple[int, int], int] = {}

    # -- classification (local part of Algorithm 2 lines 1-7) -------------
    def on_start(self, ctx: ArrayMessageContext) -> None:
        for v in sorted(set(self.added) | set(self.removed)):
            if not self.shard.owns(v):
                continue
            removed_here = self.removed.get(v, set())
            added_here = self.added.get(v, set())
            current = self.shard.neighbors(v)
            n_added = len(added_here)
            n_unchanged = len(current) - n_added
            for t in range(1, self.iterations + 1):
                src = self.srcs[v][t]
                if src == NO_SOURCE:
                    if n_added > 0:
                        self._repick(ctx, v, t, current)
                    continue
                if src in removed_here:
                    self._repick(ctx, v, t, current)
                    continue
                if n_added == 0:
                    continue
                lottery = keep_lottery_uniform(self.seed, v, t, self.batch_epoch)
                if lottery < n_added / (n_unchanged + n_added):
                    self._repick(ctx, v, t, tuple(sorted(added_here)))

    def _repick(
        self, ctx: ArrayMessageContext, v: int, t: int, candidates: Sequence[int]
    ) -> None:
        old_src, old_pos = self.srcs[v][t], self.poss[v][t]
        if old_src != NO_SOURCE:
            if self.shard.owns(old_src):
                self._do_unregister(old_src, old_pos, v, t)
            else:
                ctx.send(old_src, ("unreg", old_pos, v, t))
        epoch = self.epochs[v][t] + 1
        self.epochs[v][t] = epoch
        self.touched_slots.add((v, t))
        self.last_seen.pop((v, t), None)  # new provenance: reset staleness gate
        if len(candidates) == 0:
            old_label = self.labels[v][t]
            self.labels[v][t] = self.labels[v][0]
            self.srcs[v][t] = NO_SOURCE
            self.poss[v][t] = NO_SOURCE
            if self.labels[v][t] != old_label:
                self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
                self._broadcast_correction(ctx, v, t)
            return
        idx, pos = repick_draw(self.seed, v, t, epoch, len(candidates))
        src = int(candidates[idx])
        self.srcs[v][t] = src
        self.poss[v][t] = pos
        if self.shard.owns(src):
            self._do_register(src, pos, v, t)
            self._install_value(
                ctx, v, t, self.labels[src][pos], src, pos,
                self.versions.get((src, pos), 0),
            )
        else:
            ctx.send(src, ("fetch", pos, v, t))

    # -- record bookkeeping ------------------------------------------------
    def _do_unregister(self, src: int, pos: int, tar: int, k: int) -> None:
        bucket = self.receivers[src].get(pos)
        if bucket is None or (tar, k) not in bucket:
            raise AssertionError(
                f"unreg of unknown record ({src}, {pos}) -> ({tar}, {k})"
            )
        bucket.discard((tar, k))
        if not bucket:
            del self.receivers[src][pos]

    def _do_register(self, src: int, pos: int, tar: int, k: int) -> None:
        self.receivers[src].setdefault(pos, set()).add((tar, k))

    # -- value updates -----------------------------------------------------
    def _install_value(
        self,
        ctx: ArrayMessageContext,
        v: int,
        t: int,
        label: int,
        src: int,
        pos: int,
        version: int,
    ) -> None:
        """Accept an update only if provenance matches and it is not stale."""
        if self.srcs[v][t] != src or self.poss[v][t] != pos:
            return  # stale update from a record whose unregister is in flight
        if version <= self.last_seen.get((v, t), -1):
            return  # an update from a newer source state already applied
        self.last_seen[(v, t)] = version
        if self.labels[v][t] == label:
            return
        self.labels[v][t] = label
        self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
        self.touched_slots.add((v, t))
        self._broadcast_correction(ctx, v, t)

    def _broadcast_correction(self, ctx: ArrayMessageContext, v: int, t: int) -> None:
        label = self.labels[v][t]
        version = self.versions.get((v, t), 0)
        for tar, k in sorted(self.receivers[v].get(t, ())):
            if self.shard.owns(tar):
                # Local receiver: apply immediately (forward in iteration,
                # so the recursion is bounded by T).
                self._install_value(ctx, tar, k, label, v, t, version)
            else:
                ctx.send(tar, ("corr", label, k, v, t, version))

    # -- superstep dispatch --------------------------------------------------
    #: Inbox kinds in dispatch order: detach stale records, apply fetch
    #: replies, then cascade corrections, and serve new fetches last.
    #: Within a kind, rows arrive ``(dst, fields...)``-sorted.
    KIND_ORDER = ("unreg", "fval", "corr", "fetch")

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        for kind in self.KIND_ORDER:
            columns = inbox.columns(kind)
            if columns is None:
                continue
            rows = zip(*(col.tolist() for col in columns))
            if kind == "unreg":
                for dst, pos, tar, k in rows:
                    self._do_unregister(dst, pos, tar, k)
            elif kind == "fetch":
                for dst, pos, tar, k in rows:
                    self._do_register(dst, pos, tar, k)
                    ctx.send(
                        tar,
                        (
                            "fval",
                            self.labels[dst][pos],
                            k,
                            dst,
                            pos,
                            self.versions.get((dst, pos), 0),
                        ),
                    )
            else:
                for dst, label, k, src, pos, version in rows:
                    self._install_value(ctx, dst, k, label, src, pos, version)

    def collect(self) -> dict:
        return {
            "labels": self.labels,
            "srcs": self.srcs,
            "poss": self.poss,
            "epochs": self.epochs,
            "receivers": self.receivers,
            "touched": self.touched_slots,
        }


class CorrectionOracleProgram(DictCorrectionProgram):
    """Correction Propagation driven by the old sorted-tuple inbox.

    The dict-slice program reads its columnar inbox one kind at a time in
    :attr:`DictCorrectionProgram.KIND_ORDER`;
    this subclass runs on :class:`BSPEngine` and dispatches the sorted tuple
    inbox the way the tuple plane did, message by message.  Its sends go
    through the tuple :class:`MessageContext`, whose ``send`` has the same
    signature as the columnar one.
    """

    _ORDER = {"unreg": 0, "fval": 1, "corr": 2, "fetch": 3}

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        for message in sorted(inbox, key=lambda m: (self._ORDER[m[1]], m)):
            kind = message[1]
            if kind == "unreg":
                dst, _kind, pos, tar, k = message
                self._do_unregister(dst, pos, tar, k)
            elif kind in ("fval", "corr"):
                dst, _kind, label, k, src, pos, version = message
                self._install_value(ctx, dst, k, label, src, pos, version)
            elif kind == "fetch":
                dst, _kind, pos, tar, k = message
                self._do_register(dst, pos, tar, k)
                ctx.send(
                    tar,
                    (
                        "fval",
                        self.labels[dst][pos],
                        k,
                        dst,
                        pos,
                        self.versions.get((dst, pos), 0),
                    ),
                )
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown message kind {kind!r}")


# ----------------------------------------------------------------------
# Whole runs on the tuple plane
# ----------------------------------------------------------------------
def run_programs(program_cls, shards, partitioner, **kwargs):
    """Run one ``program_cls(shard, **kwargs)`` per shard; returns
    ``(merged collect() results, CommStats)``."""
    engine = BSPEngine(shards, partitioner)
    programs = [program_cls(shard, **kwargs) for shard in shards]
    engine.run(programs)
    merged = {}
    for program in programs:
        merged.update(program.collect())
    return merged, engine.stats


def merge_collected_rslpa_state(collected: Dict[int, tuple], iterations: int) -> LabelState:
    """Fully-recorded :class:`LabelState` from per-vertex collect() tuples
    (the ``(labels, srcs, poss)`` lists :class:`RSLPAPropagationProgram`
    collects)."""
    state = LabelState()
    for v, (labels, srcs, poss) in collected.items():
        state.labels[v] = list(labels)
        state.srcs[v] = list(srcs)
        state.poss[v] = list(poss)
        state.epochs[v] = [0] * len(labels)
        state.receivers[v] = {}
    for v, (labels, srcs, poss) in collected.items():
        for t in range(1, len(labels)):
            src = srcs[t]
            if src != NO_SOURCE:
                state.receivers[src].setdefault(poss[t], set()).add((v, t))
    state.set_num_iterations(iterations)
    return state


def as_columns(
    collected: dict, local_ids, names: Sequence[str]
) -> Dict[str, np.ndarray]:
    """An oracle program's per-vertex collect in the library's layout:
    one array per name (one per tuple field) whose last axis follows
    ``local_ids``."""
    rows = [collected[v] for v in local_ids.tolist()]
    fields = [rows] if len(names) == 1 else list(zip(*rows))
    return {
        name: np.array(field, dtype=np.int64).T for name, field in zip(names, fields)
    }


def run_update(graph, state, batch, seed, batch_epoch, partitioner):
    """:func:`repro.distributed.run_distributed_update` on this engine with
    :class:`CorrectionOracleProgram`; returns ``(graph, state, CommStats)``
    and, like the library wrapper, repairs ``graph`` and ``state`` in place."""
    new_graph = apply_batch(graph, batch)
    added = batch.added_neighbors()
    removed = batch.removed_neighbors()
    for v in set(added) | set(removed):
        if not state.has_vertex(v):
            state.init_vertex(v)
            for _ in range(state.num_iterations):
                state.labels[v].append(v)
                state.srcs[v].append(NO_SOURCE)
                state.poss[v].append(NO_SOURCE)
                state.epochs[v].append(0)
    shards = build_csr_shards(new_graph, partitioner)
    programs = [
        CorrectionOracleProgram(
            shard,
            seed=seed,
            iterations=state.num_iterations,
            labels={v: state.labels[v] for v in shard.vertices},
            srcs={v: state.srcs[v] for v in shard.vertices},
            poss={v: state.poss[v] for v in shard.vertices},
            epochs={v: state.epochs[v] for v in shard.vertices},
            receivers={v: state.receivers[v] for v in shard.vertices},
            added={v: s for v, s in added.items() if v in shard.vertices},
            removed={v: s for v, s in removed.items() if v in shard.vertices},
            batch_epoch=batch_epoch,
        )
        for shard in shards
    ]
    engine = BSPEngine(shards, partitioner)
    engine.run(programs)
    return new_graph, state, engine.stats
