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

from typing import Dict

import numpy as np

from repro.baselines.slpa import _SEND
from repro.baselines.slpa_fast import plurality
from repro.core.randomness import (
    NO_SOURCE,
    draw_position_array,
    draw_src_index_array,
    slot_hash_array,
)
from repro.distributed.engine_array import ArrayWorkerProgram
from repro.distributed.message_array import ArrayInbox, ArrayMessageContext
from repro.distributed.worker import CSRShard

__all__ = ["FastRSLPAPropagationProgram", "FastSLPAPropagationProgram"]


class _LocalStateProgram(ArrayWorkerProgram):
    """Shared shard-local CSR plumbing for the array programs.

    ``local_ids`` is ascending (so destination rows resolve with one
    ``searchsorted``); row ``r`` of the CSR pair is the ascending global-id
    neighbour list of ``local_ids[r]``.
    """

    def __init__(self, shard: CSRShard, seed: int, iterations: int):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.local_ids, self.indptr, self.indices = (
            shard.local_ids, shard.indptr, shard.indices
        )
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

    def collect(self) -> Dict[str, np.ndarray]:
        """The ``(T+1, n_local)`` label, source-id and position matrices."""
        return {"labels": self.labels, "srcs": self.srcs, "poss": self.poss}


class FastSLPAPropagationProgram(_LocalStateProgram):
    """The SLPA push protocol over columns: one ``spk`` row per directed edge.

    Speaker draws reuse :class:`repro.baselines.slpa.SLPA`'s composite edge
    key; the per-listener plurality + tie-break is
    :func:`~repro.baselines.slpa_fast.plurality`, the kernel
    :class:`~repro.baselines.slpa_fast.FastSLPA` runs, over the inbox
    columns of one worker.
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
        picked_rows, picked_labels = plurality(
            rows, label, self.local_ids, self.seed, t
        )
        self.memory[t, picked_rows] = picked_labels
        if t < self.iterations:
            self._speak(ctx, t + 1)

    def collect(self) -> Dict[str, np.ndarray]:
        """The ``(T+1, n_local)`` memory matrix."""
        return {"memory": self.memory}
