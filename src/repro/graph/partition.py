"""Vertex partitioners for the distributed engine.

The paper runs on a 7-node Spark cluster; our BSP simulator needs the same
notion of "which worker owns which vertex".  Partitioners are pure functions
of the vertex id, so ownership stays stable as the graph mutates and every
process in the multiprocess backend can compute it locally without
coordination.

:func:`slice_csr` carves a :class:`repro.graph.csr.CSRGraph` into per-worker
CSR shard arrays directly (vectorised multi-slice gathers, no round trip
through the mutable :class:`~repro.graph.adjacency.Graph`), which is how the
CSR-backed worker shards are built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.randomness import mix64, mix64_array
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive, check_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (csr imports edits)
    from repro.graph.csr import CSRGraph

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ContiguousPartitioner",
    "partition_counts",
    "slice_csr",
]


class Partitioner:
    """Maps vertex ids to worker indices ``0 .. num_partitions-1``."""

    def __init__(self, num_partitions: int):
        check_type(num_partitions, int, "num_partitions")
        check_positive(num_partitions, "num_partitions")
        self.num_partitions = num_partitions

    def owner(self, vertex: int) -> int:
        raise NotImplementedError

    def owner_array(self, vertices: np.ndarray) -> np.ndarray:
        """Owner of every id in ``vertices`` as an int64 array.

        The canonical vectorised hook: both built-in partitioners override
        it with pure array ops (it sits on the hot routing path of the
        columnar BSP engine, which gathers the owner of every message
        destination in one call per superstep).  The base implementation
        dispatches through the legacy :meth:`owners_array` name so PR-1
        subclasses that overrode *that* keep their vectorised form.
        """
        return self.owners_array(vertices)

    def owners_array(self, vertices: np.ndarray) -> np.ndarray:
        """Legacy name of :meth:`owner_array`; generic per-element fallback."""
        return np.fromiter(
            (self.owner(int(v)) for v in vertices),
            dtype=np.int64,
            count=len(vertices),
        )

    def partition(self, vertices: Iterable[int]) -> Dict[int, List[int]]:
        """Group ``vertices`` by owner; every partition index is present."""
        groups: Dict[int, List[int]] = {p: [] for p in range(self.num_partitions)}
        for vertex in vertices:
            groups[self.owner(vertex)].append(vertex)
        return groups

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_partitions={self.num_partitions})"


# Odd 64-bit multiplier decorrelating vertex ids before the mix (same role
# as the domain constants in repro.core.randomness, local to partitioning).
_C_PARTITION = 0x8D8AC1B3F8A7351B
_MASK64 = (1 << 64) - 1


class HashPartitioner(Partitioner):
    """Uniform hash partitioning (the Spark default for pair RDDs).

    The per-vertex assignment is one SplitMix64 mix over the id under a
    BLAKE2b-derived base key, so it is reproducible across processes and
    runs *and* has an exactly-matching vectorised form
    (:meth:`owner_array`) for the columnar routing barrier; ``salt`` lets
    tests create distinct assignments.
    """

    def __init__(self, num_partitions: int, salt: int = 0):
        super().__init__(num_partitions)
        check_type(salt, int, "salt")
        self.salt = salt
        self._base = derive_seed("hash-partition", salt)

    def owner(self, vertex: int) -> int:
        h = mix64(self._base ^ ((vertex * _C_PARTITION) & _MASK64))
        return h % self.num_partitions

    def owner_array(self, vertices: np.ndarray) -> np.ndarray:
        v = np.asarray(vertices).astype(np.uint64, copy=False)
        h = mix64_array(np.uint64(self._base) ^ (v * np.uint64(_C_PARTITION)))
        return (h % np.uint64(self.num_partitions)).astype(np.int64)


class ContiguousPartitioner(Partitioner):
    """Range partitioning of ``0 .. num_vertices-1`` into equal blocks.

    Useful for locality experiments: LFR and the web-graph generator emit
    community-correlated vertex ids, so contiguous blocks keep many edges
    worker-local.
    """

    def __init__(self, num_partitions: int, num_vertices: int):
        super().__init__(num_partitions)
        check_type(num_vertices, int, "num_vertices")
        check_positive(num_vertices, "num_vertices")
        self.num_vertices = num_vertices
        self._block = -(-num_vertices // num_partitions)  # ceil division

    def owner(self, vertex: int) -> int:
        if not 0 <= vertex < self.num_vertices:
            # Out-of-range ids (e.g. vertices inserted later) fall back to hash.
            return derive_seed("range-overflow", vertex) % self.num_partitions
        return min(vertex // self._block, self.num_partitions - 1)

    def owner_array(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        in_range = (vertices >= 0) & (vertices < self.num_vertices)
        if in_range.all():
            return np.minimum(vertices // self._block, self.num_partitions - 1)
        return super().owner_array(vertices)


def partition_counts(partitioner: Partitioner, vertices: Iterable[int]) -> List[int]:
    """Return the number of vertices owned by each partition."""
    counts = [0] * partitioner.num_partitions
    for vertex in vertices:
        counts[partitioner.owner(vertex)] += 1
    return counts


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows ``rows`` into a local (indptr, indices) pair."""
    lens = (indptr[rows + 1] - indptr[rows]) if len(rows) else np.zeros(0, np.int64)
    local_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=local_indptr[1:])
    total = int(local_indptr[-1])
    if total == 0:
        return local_indptr, np.empty(0, dtype=np.int64)
    starts = indptr[rows]
    # Standard multi-slice gather: offsets of each row start, then a ramp.
    gather = np.repeat(starts - local_indptr[:-1], lens) + np.arange(total)
    return local_indptr, indices[gather]


def slice_csr(
    csr: "CSRGraph", partitioner: Partitioner, ids: Optional[np.ndarray] = None
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Slice a CSR snapshot into per-worker CSR shard arrays.

    Returns one ``(local_ids, indptr, indices)`` triple per partition:
    ``local_ids`` holds the owned vertex ids ascending, and row ``r`` of the
    local CSR pair is the (global-id) neighbour list of ``local_ids[r]``.
    ``ids`` (ascending) names the vertex of each snapshot row when the
    graph's own ids are not ``0..n-1``; ownership and the returned arrays
    use those names.  Pure array ops — the snapshot is never converted
    back to a dict graph.
    """
    rows = np.arange(csr.num_vertices, dtype=np.int64)
    owners = partitioner.owner_array(rows if ids is None else ids)
    shards = []
    for p in range(partitioner.num_partitions):
        local_rows = rows[owners == p]
        local_indptr, local_indices = _gather_rows(csr.indptr, csr.indices, local_rows)
        if ids is None:
            shards.append((local_rows, local_indptr, local_indices))
        else:
            shards.append((ids[local_rows], local_indptr, ids[local_indices]))
    return shards
