"""rSLPA randomized label propagation — vectorised numpy engine.

Produces label states **bit-identical** to
:class:`repro.core.rslpa.ReferencePropagator` for the same seed (the test
suite asserts this), because both engines derive every pick from the same
counter-based slot hash over the same sorted adjacency.

The engine runs on any vertex ids: a graph whose ids are not ``0..n-1`` is
snapshotted under its sorted-order relabelling
(:func:`repro.graph.csr.snapshot_with_ids`), columns index the CSR rows,
and every slot hash is keyed by the vertex id ``ids[col]``.  It keeps the
full ``(T+1, n)`` label/provenance matrices and exports them as an
:class:`~repro.core.labels_array.ArrayLabelState`, so the incremental
algorithm can take over after a fast static run.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.labels_array import ArrayLabelState
from repro.core.randomness import (
    NO_SOURCE,
    draw_position_array,
    draw_src_index_array,
    slot_hash_array,
)
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, snapshot_with_ids
from repro.utils.validation import check_non_negative, check_type

__all__ = ["FastPropagator"]


class FastPropagator:
    """Vectorised Algorithm 1 over a static graph snapshot.

    Accepts either a mutable :class:`Graph` with any vertex ids
    (snapshotted to a :class:`CSRGraph` at construction) or a ready-made
    :class:`CSRGraph`.  ``ids`` maps columns to vertex ids.  Rebuild after
    graph mutations.
    """

    def __init__(self, graph: Union[Graph, CSRGraph], seed: int = 0):
        check_type(seed, int, "seed")
        self.graph = graph
        self.seed = seed
        self.csr, ids = snapshot_with_ids(graph)
        self.indptr, self.indices = self.csr.indptr, self.csr.indices
        self.n = self.csr.num_vertices
        self.degrees = np.diff(self.indptr)
        self.ids = np.arange(self.n, dtype=np.int64) if ids is None else ids
        # Row t of each matrix is iteration t; row 0 holds the own labels.
        self.labels = self.ids[np.newaxis, :].copy()
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
            h = slot_hash_array(self.seed, self.ids, t, 0)
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
        """The ``(T+1, n)`` label matrix (column c = sequence of vertex ``ids[c]``)."""
        return self.labels

    def to_array_state(self) -> ArrayLabelState:
        """Export an :class:`~repro.core.labels_array.ArrayLabelState`.

        The label and provenance matrices are adopted as-is (copied), and
        the reverse records are built by one argsort over source-slot keys,
        so a fast static run hands over to
        :class:`~repro.core.incremental_fast.FastCorrectionPropagator`
        without ever leaving the array substrate.
        """
        return ArrayLabelState(
            self.labels.copy(),
            self.srcs.copy(),
            self.poss.copy(),
            np.zeros_like(self.labels),
            ids=self.ids,
        )

    def to_label_state(self):
        """Materialise a fully-recorded :class:`~repro.core.labels.LabelState`."""
        return self.to_array_state().to_label_state()

    def __repr__(self) -> str:
        return f"FastPropagator(seed={self.seed}, T={self.num_iterations}, n={self.n})"
