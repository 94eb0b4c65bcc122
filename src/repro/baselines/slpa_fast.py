"""Vectorised SLPA — numpy implementation of the voting baseline.

Semantically identical to :class:`repro.baselines.slpa.SLPA` (same speaker
draws, same plurality selection with uniform tie-breaking, same counter-based
randomness), but one iteration costs a handful of numpy passes over the
directed-edge arrays instead of a Python loop over every (listener, speaker)
pair.  The test-suite asserts bit-equality with the reference SLPA.

The plurality mode per listener is computed without Python loops, by
:func:`plurality`, the one kernel this engine and the distributed
:class:`~repro.distributed.programs_array.FastSLPAPropagationProgram`
share:

1. every directed edge (speaker -> listener) carries its spoken label;
2. ``lexsort`` groups (listener, label) runs; run lengths are the vote
   counts, and the runs with a listener's most votes are its winners;
3. the winners, in ascending label order, are indexed by the reference
   engine's own tie-break draw, so the pick is bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.slpa import _SEND, _TIE, DEFAULT_ITERATIONS, DEFAULT_THRESHOLD
from repro.core.communities import Cover
from repro.core.randomness import (
    draw_position_array,
    draw_src_index_array,
    slot_hash_array,
)
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_positive, check_probability, check_type

__all__ = ["FastSLPA", "fast_slpa_detect", "plurality"]


def plurality(
    rows: np.ndarray, labels: np.ndarray, ids: np.ndarray, seed: int, t: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each listener row's plurality label at iteration ``t``.

    Row ``rows[e]`` heard ``labels[e]``.  A tie among a row's most-voted
    labels breaks as in :class:`repro.baselines.slpa.SLPA`: the winners
    in ascending label order, indexed by ``draw_src_index(slot_hash(seed
    ^ TIE, ids[row], t, 0), #winners)``.  Returns the rows that heard
    anything, ascending, and their picked labels.
    """
    if rows.size == 0:
        return rows, labels
    order = np.lexsort((labels, rows))
    sorted_row, sorted_label = rows[order], labels[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (sorted_row[1:] != sorted_row[:-1]) | (
        sorted_label[1:] != sorted_label[:-1]
    )
    run_starts = np.flatnonzero(new_run)
    run_row, run_label = sorted_row[run_starts], sorted_label[run_starts]
    run_counts = np.diff(np.append(run_starts, len(order)))

    # Max votes per row; the runs that reach it win.
    first_run = np.ones(len(run_starts), dtype=bool)
    first_run[1:] = run_row[1:] != run_row[:-1]
    max_per_row = np.maximum.reduceat(run_counts, np.flatnonzero(first_run))
    winners = np.flatnonzero(run_counts == max_per_row[np.cumsum(first_run) - 1])
    winner_row, winner_label = run_row[winners], run_label[winners]

    # Rank each winner within its row (runs are label-sorted per row).
    first_winner = np.ones(len(winners), dtype=bool)
    first_winner[1:] = winner_row[1:] != winner_row[:-1]
    row_start = np.flatnonzero(first_winner)
    per_row = np.diff(np.append(row_start, len(winners)))
    rank = np.arange(len(winners)) - np.repeat(row_start, per_row)

    tie_h = slot_hash_array(seed ^ _TIE, ids[winner_row[row_start]], t, 0)
    picked = rank == np.repeat(draw_src_index_array(tie_h, per_row), per_row)
    return winner_row[picked], winner_label[picked]


class FastSLPA:
    """Vectorised speaker-listener propagation over a static snapshot.

    Accepts either a mutable :class:`Graph` (snapshotted to a
    :class:`CSRGraph`) or a ready-made :class:`CSRGraph`.
    """

    def __init__(
        self,
        graph: Union[Graph, CSRGraph],
        seed: int = 0,
        iterations: int = DEFAULT_ITERATIONS,
        threshold: float = DEFAULT_THRESHOLD,
    ):
        check_type(seed, int, "seed")
        check_type(iterations, int, "iterations")
        check_positive(iterations, "iterations")
        check_probability(threshold, "threshold")
        self.graph = graph
        self.seed = seed
        self.iterations = iterations
        self.threshold = threshold
        self.csr = CSRGraph.coerce(graph)
        self.indptr, self.indices = self.csr.indptr, self.csr.indices
        self.n = self.csr.num_vertices
        degrees = np.diff(self.indptr)
        # Directed-edge arrays: listeners[e] receives from speakers[e].
        self.listeners = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        self.speakers = self.indices
        self._vertex_rows = np.arange(self.n, dtype=np.int64)  # tie-hash keys
        self.zero_degree = degrees == 0
        self.memory = np.arange(self.n, dtype=np.int64)[np.newaxis, :].copy()
        self._t = 0
        # The reference implementation keys the speaker draw by
        # speaker * 0x1F1F1F1F + listener; precompute that composite id.
        self._edge_key = self.speakers * np.int64(0x1F1F1F1F) + self.listeners

    @property
    def num_iterations(self) -> int:
        return self._t

    def propagate(self, iterations: Optional[int] = None) -> np.ndarray:
        remaining = self.iterations if iterations is None else iterations
        for _ in range(remaining):
            self._t += 1
            t = self._t
            # --- label sending: one spoken label per directed edge --------
            h = slot_hash_array(self.seed ^ _SEND, self._edge_key, t, 0)
            pos = draw_position_array(h, t)
            spoken = self.memory[pos, self.speakers]

            # --- plurality selection per listener --------------------------
            picked_listeners, picked_labels = plurality(
                self.listeners, spoken, self._vertex_rows, self.seed, t
            )

            new_row = self.memory[0].copy()  # degree-0 fallback: own label
            new_row[picked_listeners] = picked_labels
            self.memory = np.vstack([self.memory, new_row])
        return self.memory

    # ------------------------------------------------------------------
    # Thresholding
    # ------------------------------------------------------------------
    def extract(self, threshold: Optional[float] = None) -> Cover:
        """Same τ-thresholding as the reference SLPA."""
        tau = self.threshold if threshold is None else threshold
        check_probability(tau, "threshold")
        length = self.memory.shape[0]
        min_count = tau * length
        holders: Dict[int, set] = {}
        mem = self.memory
        for v in range(self.n):
            column = mem[:, v]
            labels, counts = np.unique(column, return_counts=True)
            for label, count in zip(labels.tolist(), counts.tolist()):
                if count >= min_count:
                    holders.setdefault(label, set()).add(v)
        return Cover(c for c in holders.values() if len(c) >= 2)

    def memories_as_dict(self) -> Dict[int, List[int]]:
        """Memories in the reference engine's format (for equality tests)."""
        return {v: self.memory[:, v].tolist() for v in range(self.n)}


def fast_slpa_detect(
    graph: Graph,
    seed: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
    threshold: float = DEFAULT_THRESHOLD,
) -> Cover:
    """One-shot vectorised SLPA detection."""
    engine = FastSLPA(graph, seed=seed, iterations=iterations, threshold=threshold)
    engine.propagate()
    return engine.extract()
