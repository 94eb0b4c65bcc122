"""Worker shards: the per-machine state of the simulated cluster.

A :class:`CSRShard` owns a set of vertices and their adjacency (the
outgoing half of every incident edge, as in an edge-cut partitioning — each
worker can enumerate its vertices' neighbours locally but must message the
neighbour's owner to touch its state, exactly the Spark/Pregel model the
paper runs on).  The adjacency is a local ``indptr``/``indices`` pair over
*global* vertex ids, so BSP programs scan arrays instead of dict sets.

:func:`build_csr_shards` slices a :class:`~repro.graph.csr.CSRGraph`
snapshot with :func:`repro.graph.partition.slice_csr`, or a mutable
:class:`~repro.graph.adjacency.Graph` with any vertex ids.  Shards keep the
graph's own ids: every random draw is a slot hash keyed by the vertex id,
so they must carry the ids the sequential engines use.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, snapshot_with_ids
from repro.graph.partition import Partitioner, slice_csr

__all__ = ["CSRShard", "build_csr_shards"]


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's array stays writeable)."""
    view = array.view()
    view.flags.writeable = False
    return view


class CSRShard:
    """One worker's slice of the graph (picklable for the MP backend).

    ``local_ids[r]`` (ascending) owns row ``r`` of ``(indptr, indices)``;
    ``indices`` holds *global* neighbour ids, ascending within each row.
    """

    __slots__ = ("worker_id", "vertices", "local_ids", "indptr", "indices", "_row_of")

    def __init__(
        self,
        worker_id: int,
        local_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ):
        # np.asarray keeps the caller's buffer when it is already int64
        # (slice_csr output), and one C-level tolist() feeds both the owned
        # set and the row lookup — no per-vertex Python conversion loop.
        # The shard then stores read-only *views* (freezing the view, not
        # the caller's array), so neighbors() hands out immutable slices
        # and program code cannot silently corrupt the shared adjacency.
        self.worker_id = worker_id
        self.local_ids = _read_only(np.asarray(local_ids, dtype=np.int64))
        ids = self.local_ids.tolist()
        self.vertices = frozenset(ids)
        self.indptr = _read_only(np.asarray(indptr, dtype=np.int64))
        self.indices = _read_only(np.asarray(indices, dtype=np.int64))
        self._row_of = {v: r for r, v in enumerate(ids)}

    def degree(self, v: int) -> int:
        r = self._row_of[v]
        return int(self.indptr[r + 1] - self.indptr[r])

    def neighbors(self, v: int) -> np.ndarray:
        """Ascending neighbour array (a read-only view into the shard CSR)."""
        r = self._row_of[v]
        return self.indices[self.indptr[r] : self.indptr[r + 1]]

    def owns(self, v: int) -> bool:
        return v in self.vertices

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def local_edges(self) -> int:
        """Incident edge endpoints stored on this worker."""
        return len(self.indices)

    def describe(self) -> str:
        """One-line supervisor-facing description (respawn/recovery logs)."""
        return (
            f"{type(self).__name__} {self.worker_id}: "
            f"{self.num_vertices} vertices, {self.local_edges()} edge endpoints"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.worker_id}, |V|={self.num_vertices})"


def build_csr_shards(
    graph: Union[Graph, CSRGraph], partitioner: Partitioner
) -> List[CSRShard]:
    """Partition a graph into CSR-backed shards (array local adjacency).

    Accepts a ready :class:`CSRGraph` snapshot or a mutable :class:`Graph`
    with any vertex ids; the latter is snapshotted with
    :func:`~repro.graph.csr.snapshot_with_ids` and sliced back to its own
    ids.
    """
    csr, ids = snapshot_with_ids(graph)
    return [
        CSRShard(worker_id, local_ids, indptr, indices)
        for worker_id, (local_ids, indptr, indices) in enumerate(
            slice_csr(csr, partitioner, ids)
        )
    ]
