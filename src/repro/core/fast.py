"""rSLPA randomized label propagation — vectorised numpy engine.

Produces label states **bit-identical** to
:class:`repro.core.rslpa.ReferencePropagator` for the same seed (the test
suite asserts this), because both engines derive every pick from the same
counter-based slot hash over the same sorted adjacency.

The engine requires contiguous vertex ids ``0..n-1`` (what every generator
in this library emits); :func:`repro.graph.io.relabel_to_integers` maps
anything else.  It keeps the full ``(T+1, n)`` label/provenance matrices and
can export a fully-recorded :class:`LabelState` so the incremental algorithm
can take over after a fast static run.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.labels import NO_SOURCE, LabelState
from repro.core.randomness import (
    draw_position_array,
    draw_src_index_array,
    slot_hash_array,
)
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_non_negative, check_type

__all__ = ["FastPropagator"]


class FastPropagator:
    """Vectorised Algorithm 1 over a static graph snapshot.

    Accepts either a mutable :class:`Graph` (snapshotted to a
    :class:`CSRGraph` at construction) or a ready-made :class:`CSRGraph`.
    Rebuild (or export to the reference engine) after graph mutations.
    """

    def __init__(self, graph: Union[Graph, CSRGraph], seed: int = 0):
        check_type(seed, int, "seed")
        self.graph = graph
        self.seed = seed
        self.csr = CSRGraph.coerce(graph)
        self.indptr, self.indices = self.csr.indptr, self.csr.indices
        self.n = self.csr.num_vertices
        self.degrees = np.diff(self.indptr)
        self._vids = np.arange(self.n, dtype=np.int64)
        init = self._vids.copy()
        # Row t of each matrix is iteration t.
        self.labels = init[np.newaxis, :].copy()
        self.srcs = np.full((1, self.n), NO_SOURCE, dtype=np.int64)
        self.poss = np.full((1, self.n), NO_SOURCE, dtype=np.int64)

    @property
    def num_iterations(self) -> int:
        return self.labels.shape[0] - 1

    def propagate(self, iterations: int) -> np.ndarray:
        """Run ``iterations`` supersteps; returns the label matrix view."""
        check_type(iterations, int, "iterations")
        check_non_negative(iterations, "iterations")
        if iterations == 0:
            return self.labels
        start = self.num_iterations + 1
        stop = start + iterations
        n = self.n
        grown_labels = np.empty((stop, n), dtype=np.int64)
        grown_labels[: self.labels.shape[0]] = self.labels
        grown_srcs = np.empty((stop, n), dtype=np.int64)
        grown_srcs[: self.srcs.shape[0]] = self.srcs
        grown_poss = np.empty((stop, n), dtype=np.int64)
        grown_poss[: self.poss.shape[0]] = self.poss
        self.labels, self.srcs, self.poss = grown_labels, grown_srcs, grown_poss

        zero_degree = self.degrees == 0
        any_zero = bool(zero_degree.any())
        for t in range(start, stop):
            h = slot_hash_array(self.seed, self._vids, t, 0)
            src_idx = draw_src_index_array(h, self.degrees)
            pos = draw_position_array(h, t)
            if self.indices.size:
                # Degree-0 vertices get a clamped placeholder gather index;
                # their results are overwritten by the fallback below.
                gather = np.minimum(self.indptr[:-1] + src_idx, self.indices.size - 1)
                src = self.indices[gather]
                picked = self.labels[pos, src]
            else:
                src = np.full(n, NO_SOURCE, dtype=np.int64)
                picked = self.labels[0].copy()
            if any_zero:
                picked = np.where(zero_degree, self.labels[0], picked)
                src = np.where(zero_degree, NO_SOURCE, src)
                pos = np.where(zero_degree, NO_SOURCE, pos)
            self.labels[t] = picked
            self.srcs[t] = src
            self.poss[t] = pos
        return self.labels

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def sequences(self) -> np.ndarray:
        """The ``(T+1, n)`` label matrix (column v = sequence of vertex v)."""
        return self.labels

    def to_array_state(self):
        """Export an :class:`~repro.core.labels_array.ArrayLabelState`.

        The vectorised sibling of :meth:`to_label_state`: the label and
        provenance matrices are adopted as-is (copied), and the reverse
        records are built by one argsort over source-slot keys instead of
        the per-slot Python double loop — so a fast static run hands over
        to :class:`~repro.core.incremental_fast.FastCorrectionPropagator`
        without ever leaving the array substrate.
        """
        from repro.core.labels_array import ArrayLabelState

        return ArrayLabelState.from_matrices(
            self.labels.copy(), self.srcs.copy(), self.poss.copy()
        )

    def to_label_state(self) -> LabelState:
        """Materialise a fully-recorded :class:`LabelState`.

        Builds provenance and reverse records in one pass, so a fast static
        run can hand over to the incremental Correction Propagation.  For
        the array-substrate hand-off (no dict round trip) use
        :meth:`to_array_state`, which is an order of magnitude faster.
        """
        state = LabelState()
        t_max = self.num_iterations
        labels_m = self.labels
        srcs_m = self.srcs
        poss_m = self.poss
        for v in range(self.n):
            state.labels[v] = labels_m[:, v].tolist()
            state.srcs[v] = srcs_m[:, v].tolist()
            state.poss[v] = poss_m[:, v].tolist()
            state.epochs[v] = [0] * (t_max + 1)
            state.receivers[v] = {}
        for t in range(1, t_max + 1):
            row_src = srcs_m[t]
            row_pos = poss_m[t]
            for v in range(self.n):
                src = int(row_src[v])
                if src != NO_SOURCE:
                    state.receivers[src].setdefault(int(row_pos[v]), set()).add((v, t))
        state.set_num_iterations(t_max)
        return state

    def __repr__(self) -> str:
        return f"FastPropagator(seed={self.seed}, T={self.num_iterations}, n={self.n})"
