"""Distributed propagation programs: Algorithm 1 and SLPA over columns.

* :class:`FastRSLPAPropagationProgram` — Algorithm 1's fetch protocol.
  Each iteration is two supersteps: every vertex sends one ``(src, pos)``
  request and receives one label back, so the per-iteration message
  volume is ``2·|V|`` — the paper's ``O(|V|)`` communication claim
  (Section III-A).
* :class:`FastSLPAPropagationProgram` — the baseline's push protocol: one
  spoken label per *directed edge* per iteration, ``2·|E|`` messages —
  the ``O(|E|)`` cost rSLPA improves on.

Per-vertex state lives in ``(T+1, n_local)`` int64 matrices, the shard's
adjacency is consumed as its local CSR pair, and every superstep is a
handful of broadcast hash-kernel calls (:func:`slot_hash_array` et al.)
over whole inbox columns instead of a Python loop per message.  Both
programs are **bit-identical** to their sequential counterparts, because
every random draw comes from the same counter-based slot hash over the
same ascending neighbour sequences; the test suite asserts the
equivalence across seeds and partitioners, and pins the messages and
per-superstep counters against a tuple-message oracle.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.baselines.slpa import _SEND, _TIE
from repro.core.randomness import (
    _C_SRC,
    NO_SOURCE,
    draw_position_array,
    draw_src_index_array,
    mix64_array,
    slot_hash_array,
)
from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.message_array import ArrayInbox, ArrayMessageContext
from repro.distributed.worker import CSRShard

__all__ = [
    "FastRSLPAPropagationProgram",
    "FastSLPAPropagationProgram",
    "shard_local_csr",
]


def shard_local_csr(
    shard: CSRShard,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shard's adjacency as ``(local_ids, indptr, indices)`` arrays.

    ``local_ids`` is ascending (so destination rows resolve with one
    ``searchsorted``); row ``r`` of the CSR pair is the ascending global-id
    neighbour list of ``local_ids[r]``.
    """
    return shard.local_ids, shard.indptr, shard.indices


class _LocalStateProgram(ArrayWorkerProgram):
    """Shared shard-local CSR plumbing for the array programs."""

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.local_ids, self.indptr, self.indices = shard_local_csr(shard)
        self.degrees = np.diff(self.indptr)
        self.n_local = len(self.local_ids)

    def _rows_of(self, dst: np.ndarray) -> np.ndarray:
        """Local matrix columns of the (owned) global ids in ``dst``.

        Fails loudly on a destination this shard does not own (a partitioner
        whose assignment disagrees with how the shards were built) — a bare
        searchsorted would silently scatter into a neighbouring vertex's
        column instead.
        """
        rows = np.searchsorted(self.local_ids, dst)
        owned = rows < self.n_local
        owned[owned] = self.local_ids[rows[owned]] == dst[owned]
        if not owned.all():
            raise KeyError(
                f"inbox destinations not owned by worker "
                f"{self.shard.worker_id}: {dst[~owned][:5].tolist()}"
            )
        return rows


class FastRSLPAPropagationProgram(_LocalStateProgram):
    """Algorithm 1's fetch protocol, one column batch per superstep.

    Two supersteps per iteration, message kinds ``req``/``lab``; labels,
    sources and positions live in
    ``(T+1, n_local)`` matrices pre-filled with the degree-0 fallback
    (own label, ``NO_SOURCE`` provenance), so the per-iteration scatter of
    received labels is the only state write.
    """

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard, seed, iterations)
        shape = (iterations + 1, self.n_local)
        self.labels = np.tile(self.local_ids, (iterations + 1, 1))
        self.srcs = np.full(shape, NO_SOURCE, dtype=np.int64)
        self.poss = np.full(shape, NO_SOURCE, dtype=np.int64)

    def _send_requests(self, ctx: ArrayMessageContext, t: int) -> None:
        mask = self.degrees > 0
        if not mask.any():
            return
        h = slot_hash_array(self.seed, self.local_ids, t, 0)
        src_idx = draw_src_index_array(h, self.degrees)
        pos = draw_position_array(h, t)
        # Degree-0 rows get a clamped placeholder gather; masked out below.
        gather = np.minimum(self.indptr[:-1] + src_idx, self.indices.size - 1)
        src = self.indices[gather]
        requesters = self.local_ids[mask]
        ctx.send_columns(
            "req",
            src[mask],
            pos[mask],
            requesters,
            np.full(len(requesters), t, dtype=np.int64),
        )

    def on_start(self, ctx: ArrayMessageContext) -> None:
        if self.iterations >= 1:
            self._send_requests(ctx, 1)

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        advanced_t = None
        lab = inbox.columns("lab")
        if lab is not None:
            dst, label, src, pos, t_col = lab
            advanced_t = int(t_col[0])
            rows = self._rows_of(dst)
            self.labels[advanced_t, rows] = label
            self.srcs[advanced_t, rows] = src
            self.poss[advanced_t, rows] = pos
        req = inbox.columns("req")
        if req is not None:
            dst, pos, requester, t_col = req
            rows = self._rows_of(dst)
            ctx.send_columns(
                "lab", requester, self.labels[pos, rows], dst, pos, t_col
            )
        if advanced_t is not None and advanced_t < self.iterations:
            self._send_requests(ctx, advanced_t + 1)

    def collect(self) -> dict:
        """Per-vertex ``(labels, srcs, poss)`` lists, keyed by vertex id."""
        label_seqs = self.labels.T.tolist()
        src_seqs = self.srcs.T.tolist()
        pos_seqs = self.poss.T.tolist()
        return {
            v: (label_seqs[r], src_seqs[r], pos_seqs[r])
            for r, v in enumerate(self.local_ids.tolist())
        }


class FastSLPAPropagationProgram(_LocalStateProgram):
    """The SLPA push protocol over columns: one ``spk`` row per directed edge.

    Speaker draws reuse :class:`repro.baselines.slpa.SLPA`'s composite edge
    key; the per-listener plurality + tie-break is the
    :class:`~repro.baselines.slpa_fast.FastSLPA` lexsort construction run
    on the inbox columns of one worker.
    """

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard, seed, iterations)
        self.memory = np.tile(self.local_ids, (iterations + 1, 1))
        # One row per directed local edge: speaker row r repeats degree[r]
        # times; the composite key matches the reference speaker draw.
        self._speaker_rows = np.repeat(
            np.arange(self.n_local, dtype=np.int64), self.degrees
        )
        self._edge_key = (
            self.local_ids[self._speaker_rows] * np.int64(0x1F1F1F1F)
            + self.indices
        )

    def _speak(self, ctx: ArrayMessageContext, t: int) -> None:
        if self.indices.size == 0:
            return
        h = slot_hash_array(self.seed ^ _SEND, self._edge_key, t, 0)
        pos = draw_position_array(h, t)
        spoken = self.memory[pos, self._speaker_rows]
        ctx.send_columns(
            "spk",
            self.indices,
            spoken,
            np.full(self.indices.size, t, dtype=np.int64),
        )

    def on_start(self, ctx: ArrayMessageContext) -> None:
        if self.iterations >= 1:
            self._speak(ctx, 1)

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        spk = inbox.columns("spk")
        if spk is None:
            return
        dst, label, t_col = spk
        t = int(t_col[0])
        rows = self._rows_of(dst)
        picked_rows, picked_labels = self._plurality(rows, label, t)
        self.memory[t, picked_rows] = picked_labels
        if t < self.iterations:
            self._speak(ctx, t + 1)

    def _plurality(
        self, rows: np.ndarray, labels: np.ndarray, t: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Plurality winner per listener row, reference tie-break included."""
        # Inbox columns arrive (dst, fields...)-sorted, so (row, label) runs
        # are already grouped; keep the explicit lexsort for independence
        # from the delivery order (it is O(m log m) on sorted input anyway).
        order = np.lexsort((labels, rows))
        sorted_row = rows[order]
        sorted_label = labels[order]
        new_run = np.empty(len(order), dtype=bool)
        new_run[0] = True
        new_run[1:] = (sorted_row[1:] != sorted_row[:-1]) | (
            sorted_label[1:] != sorted_label[:-1]
        )
        run_starts = np.flatnonzero(new_run)
        run_row = sorted_row[run_starts]
        run_label = sorted_label[run_starts]
        run_counts = np.diff(np.append(run_starts, len(order)))

        # Max votes per listener group.
        first_run = np.empty(len(run_starts), dtype=bool)
        first_run[0] = True
        first_run[1:] = run_row[1:] != run_row[:-1]
        group_starts = np.flatnonzero(first_run)
        max_per_group = np.maximum.reduceat(run_counts, group_starts)
        group_index = np.cumsum(first_run) - 1
        is_winner = run_counts == max_per_group[group_index]

        # Winners per listener in ascending label order; rank within group.
        winner_idx = np.flatnonzero(is_winner)
        winner_row = run_row[winner_idx]
        winner_label = run_label[winner_idx]
        first_winner = np.empty(len(winner_idx), dtype=bool)
        first_winner[0] = True
        first_winner[1:] = winner_row[1:] != winner_row[:-1]
        winner_group_start = np.flatnonzero(first_winner)
        winners_per_listener = np.diff(
            np.append(winner_group_start, len(winner_idx))
        )
        rank_in_group = np.arange(len(winner_idx)) - np.repeat(
            winner_group_start, winners_per_listener
        )

        # Reference tie-break: mix64(slot_hash(seed^TIE, listener, t) ^ C_SRC)
        # % num_winners indexes the ascending winner list.
        unique_listeners = self.local_ids[winner_row[winner_group_start]]
        tie_h = slot_hash_array(self.seed ^ _TIE, unique_listeners, t, 0)
        chosen_rank = (
            mix64_array(tie_h ^ np.uint64(_C_SRC))
            % winners_per_listener.astype(np.uint64)
        ).astype(np.int64)
        picked = rank_in_group == np.repeat(chosen_rank, winners_per_listener)
        return winner_row[picked], winner_label[picked]

    def collect(self) -> Dict[int, list]:
        """Per-vertex memory sequences, keyed by vertex id."""
        memory_seqs = self.memory.T.tolist()
        return {
            v: memory_seqs[r] for r, v in enumerate(self.local_ids.tolist())
        }
