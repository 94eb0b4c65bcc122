"""Algorithm 2 over workers: Correction Propagation on the columnar engine.

:class:`CorrectionPropagationProgram` repairs one shard's slice of an
:class:`~repro.core.labels_array.ArrayLabelState` (cut by
:func:`correction_slices`) after an edit batch with repick requests,
record maintenance (register/unregister), label fetches and correction
cascades, quiescing when every buffer drains (message volume ``O(η)``).
The cascade is sparse, so the program sends one row at a time; its inbox
is read one message kind at a time in
:attr:`~CorrectionPropagationProgram.KIND_ORDER`.  The static propagation
programs (Algorithm 1 and the SLPA baseline) live in
:mod:`repro.distributed.programs_array`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.core.labels_array import ArrayLabelState
from repro.core.randomness import NO_SOURCE, keep_lottery_uniform, repick_draw
from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.message_array import ArrayInbox, ArrayMessageContext
from repro.distributed.worker import CSRShard

__all__ = ["CorrectionPropagationProgram", "correction_slices"]


class CorrectionPropagationProgram(ArrayWorkerProgram):
    """Algorithm 2 over workers: incremental repair after an edit batch.

    The shard's adjacency must reflect the *new* graph.  The program
    repairs a copy of its item of ``slices`` (see
    :func:`correction_slices`), so ``functools.partial`` over everything
    but the shard is a picklable factory that can always rebuild it;
    ``added``/``removed`` give the batch's neighbour deltas per vertex.

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
        slices: Sequence[dict],
        seed: int,
        iterations: int,
        batch_epoch: int,
        added: Mapping[int, Set[int]],
        removed: Mapping[int, Set[int]],
    ):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.batch_epoch = batch_epoch
        self.added = added
        self.removed = removed
        own = slices[shard.worker_id]
        self.labels, self.srcs, self.poss, self.epochs = (
            np.array(own[name]) for name in ("labels", "srcs", "poss", "epochs")
        )
        self.rec_key, self.rec_tar, self.rec_k = (
            own["rec_key"], own["rec_tar"], own["rec_k"]
        )
        # receivers[key]: the live receiver set of owned slot ``key``,
        # materialised from the sorted records on first use.
        self.receivers: Dict[int, Set[Tuple[int, int]]] = {}
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
            r = self.shard.row(v)
            for t in range(1, self.iterations + 1):
                src = int(self.srcs[t, r])
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
        r = self.shard.row(v)
        old_src, old_pos = int(self.srcs[t, r]), int(self.poss[t, r])
        if old_src != NO_SOURCE:
            if self.shard.owns(old_src):
                self._do_unregister(old_src, old_pos, v, t)
            else:
                ctx.send(old_src, ("unreg", old_pos, v, t))
        epoch = int(self.epochs[t, r]) + 1
        self.epochs[t, r] = epoch
        self.last_seen.pop((v, t), None)  # new provenance: reset staleness gate
        if len(candidates) == 0:
            old_label = self.labels[t, r]
            self.labels[t, r] = self.labels[0, r]
            self.srcs[t, r] = NO_SOURCE
            self.poss[t, r] = NO_SOURCE
            if self.labels[t, r] != old_label:
                self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
                self._broadcast_correction(ctx, v, t)
            return
        idx, pos = repick_draw(self.seed, v, t, epoch, len(candidates))
        src = int(candidates[idx])
        self.srcs[t, r] = src
        self.poss[t, r] = pos
        if self.shard.owns(src):
            self._do_register(src, pos, v, t)
            self._install_value(
                ctx, v, t, int(self.labels[pos, self.shard.row(src)]), src, pos,
                self.versions.get((src, pos), 0),
            )
        else:
            ctx.send(src, ("fetch", pos, v, t))

    # -- record bookkeeping ------------------------------------------------
    def _receivers(self, src: int, pos: int) -> Set[Tuple[int, int]]:
        """The live receiver set of owned slot ``(src, pos)``."""
        key = self.shard.row(src) * (self.iterations + 1) + pos
        bucket = self.receivers.get(key)
        if bucket is None:
            lo, hi = self.rec_key.searchsorted((key, key + 1)).tolist()
            bucket = set(
                zip(self.rec_tar[lo:hi].tolist(), self.rec_k[lo:hi].tolist())
            )
            self.receivers[key] = bucket
        return bucket

    def _do_unregister(self, src: int, pos: int, tar: int, k: int) -> None:
        bucket = self._receivers(src, pos)
        if (tar, k) not in bucket:
            raise AssertionError(
                f"unreg of unknown record ({src}, {pos}) -> ({tar}, {k})"
            )
        bucket.discard((tar, k))  # kept even if empty: it shadows rec_key

    def _do_register(self, src: int, pos: int, tar: int, k: int) -> None:
        self._receivers(src, pos).add((tar, k))

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
        r = self.shard.row(v)
        if self.srcs[t, r] != src or self.poss[t, r] != pos:
            return  # stale update from a record whose unregister is in flight
        if version <= self.last_seen.get((v, t), -1):
            return  # an update from a newer source state already applied
        self.last_seen[(v, t)] = version
        if self.labels[t, r] == label:
            return
        self.labels[t, r] = label
        self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
        self._broadcast_correction(ctx, v, t)

    def _broadcast_correction(self, ctx: ArrayMessageContext, v: int, t: int) -> None:
        label = int(self.labels[t, self.shard.row(v)])
        version = self.versions.get((v, t), 0)
        for tar, k in sorted(self._receivers(v, t)):
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
                    label = int(self.labels[pos, self.shard.row(dst)])
                    version = self.versions.get((dst, pos), 0)
                    ctx.send(tar, ("fval", label, k, dst, pos, version))
            else:
                for dst, label, k, src, pos, version in rows:
                    self._install_value(ctx, dst, k, label, src, pos, version)

    def collect(self) -> Dict[str, np.ndarray]:
        """The repaired ``(T+1, n_local)`` matrices (``srcs`` as vertex ids)."""
        return dict(
            labels=self.labels, srcs=self.srcs, poss=self.poss, epochs=self.epochs
        )


def correction_slices(
    state: ArrayLabelState, shards: Sequence[CSRShard], new_ids: Sequence[int]
) -> List[dict]:
    """Every shard's slice of ``state``, indexed by worker id.

    A slice holds the ``labels``/``srcs``/``poss``/``epochs`` matrices of
    the shard's ``local_ids`` (``srcs`` as vertex ids) and the reverse
    records of its source slots sorted by ``rec_key = row * (T+1) + t``:
    record ``i`` says slot ``(rec_tar[i], rec_k[i])`` fetched slot
    ``(local_ids[row], t)``.  ``new_ids`` (no live column in ``state``)
    start from the fallback ``add_vertices`` gives.  Whole-state numpy
    passes; ``state`` is only read.
    """
    stride = state.num_iterations + 1
    ids = np.concatenate([shard.local_ids for shard in shards])
    starts = np.cumsum([0] + [len(shard.local_ids) for shard in shards])
    fresh = np.isin(ids, np.asarray(new_ids, dtype=np.int64))
    cols = state.columns(ids[~fresh])

    def take(matrix: np.ndarray, fill) -> np.ndarray:
        out = np.empty((stride, len(ids)), dtype=np.int64)
        out[:, ~fresh], out[:, fresh] = matrix[:, cols], fill
        return out

    labels, srcs = take(state.labels, ids[fresh]), take(state.srcs, NO_SOURCE)
    poss, epochs = take(state.poss, NO_SOURCE), take(state.epochs, 0)
    # Keyed by the source's index in the shard-major ``ids``, one sort
    # groups the records by owning shard, then by local slot (the order
    # within a slot is free: the program keeps receiver sets).
    k, c = np.nonzero(srcs != NO_SOURCE)
    index_of = np.empty(state.num_columns, dtype=np.int64)
    index_of[cols] = np.flatnonzero(~fresh)
    keys = index_of[srcs[k, c]] * stride + poss[k, c]
    srcs[k, c] = state.ids_of(srcs[k, c])
    order = np.argsort(keys)
    keys, tar, k = keys[order], ids[c[order]], k[order]
    bounds = np.searchsorted(keys, starts * stride)
    return [
        dict(
            labels=labels[:, lo:hi], srcs=srcs[:, lo:hi], poss=poss[:, lo:hi],
            epochs=epochs[:, lo:hi], rec_key=keys[a:b] - lo * stride,
            rec_tar=tar[a:b], rec_k=k[a:b],
        )
        for lo, hi, a, b in zip(starts[:-1], starts[1:], bounds[:-1], bounds[1:])
    ]
