"""Array graphs over rows ``0..n-1`` — the compute substrate.

Two array types live here, beside the dict-of-sets
:class:`repro.graph.adjacency.Graph` that callers build and pass in:

* :class:`CSRGraph` — an immutable snapshot (sorted ``indptr`` /
  ``indices``), what the static engines scan
  (:class:`repro.core.fast.FastPropagator`,
  :class:`repro.baselines.slpa_fast.FastSLPA`) and distributed shards are
  cut from (:func:`repro.graph.partition.slice_csr`);
* :class:`EdgeKeys` — the same layout with each row folded into its keys,
  so an edit batch advances it by one sorted merge.  The incremental
  repair (:class:`repro.core.incremental_fast.FastCorrectionPropagator`)
  keeps the live graph in one, over the label state's columns; the
  extraction, the checkpoints and the repair's candidate pools read it.

Construction is fully vectorised (``np.fromiter`` + one combined-key sort
+ ``np.bincount`` — no per-vertex Python loops).  The neighbour order
inside a row is ascending, matching the sorted-adjacency contract the
counter-based randomness (and hence the determinism tests) relies on.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.adjacency import Graph, normalize_edge
from repro.graph.io import relabel_to_integers

__all__ = ["CSRGraph", "EdgeKeys", "build_csr_arrays", "id_order", "snapshot_with_ids"]

Edge = Tuple[int, int]

# Directed edge (u, v) as one int64 key u * 2^32 + v: rows stay far below
# 2^31, so the key order is the (u, v) order.
_SHIFT = np.int64(32)
_LOW = (np.int64(1) << _SHIFT) - np.int64(1)


def _edge_keys(u: np.ndarray, v: np.ndarray, width: int) -> np.ndarray:
    """Encode directed pairs as single int64 keys (``u * width + v``)."""
    return u * np.int64(width) + v


def _csr_from_directed(
    n: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort directed pairs into CSR arrays (rows ascending, sorted rows).

    Sorts a single combined ``src * n + dst`` key (one C radix/merge pass,
    no argsort indirection) and decodes the neighbour column with a modulo.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n == 0 or len(src) == 0:
        return indptr, np.empty(0, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    key = src * np.int64(n) + dst
    key.sort()
    return indptr, key % np.int64(n)


def build_csr_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised CSR build of a graph with contiguous ids ``0..n-1``.

    Returns ``(indptr, indices)`` with ``indices[indptr[v]:indptr[v+1]]``
    being the ascending neighbours of ``v``.  This is the single builder in
    the library; everything CSR-shaped routes through here.

    The hot path has no per-edge Python loop: neighbour sets are flattened
    through a C-level :func:`itertools.chain` into one ``np.fromiter`` pass,
    rows are grouped and sorted by a single combined-key sort.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    ids = np.fromiter(graph.vertices(), dtype=np.int64, count=n)
    # n distinct ids inside [0, n) are exactly 0..n-1.
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(
            "CSRGraph requires contiguous vertex ids 0..n-1; "
            "use repro.graph.io.relabel_to_integers first"
        )
    degrees = np.fromiter(
        (len(graph.neighbors_view(v)) for v in range(n)), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    unsorted = np.fromiter(
        chain.from_iterable(graph.neighbors_view(v) for v in range(n)),
        dtype=np.int64,
        count=total,
    )
    key = np.repeat(np.arange(n, dtype=np.int64), degrees) * np.int64(n) + unsorted
    key.sort()
    return indptr, key % np.int64(n)


def snapshot_with_ids(
    graph: Union[Graph, "CSRGraph"],
) -> Tuple["CSRGraph", Optional[np.ndarray]]:
    """Snapshot a graph with any vertex ids: ``(csr, ids)``.

    Row ``r`` of ``csr`` is vertex ``ids[r]``, in ascending id order — a
    monotone relabelling, so every neighbour row stays ascending by id too.
    ``ids`` is ``None`` where rows already are the ids: a :class:`CSRGraph`
    or a graph on ``0..n-1``.
    """
    if isinstance(graph, Graph) and graph.num_vertices:
        vertices = list(graph.vertices())
        if min(vertices) != 0 or max(vertices) != len(vertices) - 1:
            graph, mapping = relabel_to_integers(graph)
            ids = np.fromiter(mapping, dtype=np.int64, count=len(mapping))
            return CSRGraph.from_graph(graph), ids
    return CSRGraph.coerce(graph), None


def id_order(ids: np.ndarray) -> Optional[np.ndarray]:
    """The rows ``0..n-1`` sorted by their ids ``ids`` (``argsort(ids)``),
    or ``None`` when the rows already ascend by id (the identity)."""
    if (ids[1:] > ids[:-1]).all():
        return None
    return np.argsort(ids, kind="stable")


def _directed_keys(pairs: np.ndarray) -> np.ndarray:
    """Both directions of the row pairs ``pairs`` (``(k, 2)``) as sorted keys."""
    u, v = pairs[:, 0], pairs[:, 1]
    keys = np.concatenate(((u << _SHIFT) | v, (v << _SHIFT) | u))
    keys.sort()
    return keys


class CSRGraph:
    """An immutable CSR snapshot of an undirected binary graph.

    Vertex ids are contiguous ``0..n-1``; each undirected edge is stored in
    both directions and every row of ``indices`` is ascending.  Instances
    are cheap to slice (:func:`repro.graph.partition.slice_csr`) and
    picklable (they ship to multiprocess workers as-is).
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, validate: bool = True):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if validate:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a mutable :class:`Graph` (vectorised, no Python loops)."""
        indptr, indices = build_csr_arrays(graph)
        return cls(indptr, indices, validate=False)

    @classmethod
    def coerce(cls, graph: Union[Graph, "CSRGraph"]) -> "CSRGraph":
        """Pass a snapshot through unchanged; snapshot a mutable graph."""
        return graph if isinstance(graph, cls) else cls.from_graph(graph)

    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_vertices: int = 0
    ) -> "CSRGraph":
        """Build from canonical-or-not edge pairs; ids must be ``>= 0``.

        ``num_vertices`` raises the vertex count above ``max id + 1`` so
        trailing isolated vertices survive the round trip.
        """
        pairs = [normalize_edge(u, v) for u, v in edges]
        unique = sorted(set(pairs))
        m = len(unique)
        flat = np.fromiter(
            (endpoint for edge in unique for endpoint in edge),
            dtype=np.int64,
            count=2 * m,
        )
        u, v = flat[0::2], flat[1::2]
        if m and u.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        n = max(num_vertices, int(v.max()) + 1 if m else 0)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        indptr, indices = _csr_from_directed(n, src, dst)
        return cls(indptr, indices, validate=False)

    def to_graph(self) -> Graph:
        """Materialise a mutable :class:`Graph` (isolated vertices kept)."""
        graph = Graph.from_edges((), vertices=range(self.num_vertices))
        u, v = self.edge_array()
        for a, b in zip(u.tolist(), v.tolist()):
            graph.add_edge(a, b)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (a fresh array each call)."""
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Ascending neighbour ids of ``v`` (a read-only array view)."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.num_vertices

    def has_edge(self, u: int, v: int) -> bool:
        if not (self.has_vertex(u) and self.has_vertex(v)) or u == v:
            return False
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def vertices(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """All edges once, canonical ``(min, max)`` form, lexicographic order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return src[keep], self.indices[keep]

    def edges(self) -> Iterator[Edge]:
        """Yield each edge exactly once in canonical ``(min, max)`` form."""
        u, v = self.edge_array()
        return iter(zip(u.tolist(), v.tolist()))

    def isolated_vertices(self) -> List[int]:
        """Vertices with no incident edges."""
        return np.flatnonzero(self.degrees == 0).tolist()

    # ------------------------------------------------------------------
    # Invariants / protocol
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants (shape, symmetry, sortedness)."""
        indptr, indices = self.indptr, self.indices
        if indptr.ndim != 1 or len(indptr) < 1:
            raise AssertionError("indptr must be a 1-D array of length n+1")
        if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
            raise AssertionError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise AssertionError("indptr must be non-decreasing")
        n = self.num_vertices
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise AssertionError("indices contain out-of-range vertex ids")
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if np.any(src == indices):
            raise AssertionError("self-loop stored in CSR")
        if len(indices) > 1:
            # Order may only break at row starts; a non-ascending step inside
            # a row means unsorted or duplicate neighbours.
            breaks = np.flatnonzero(np.diff(indices) <= 0) + 1
            if np.any(~np.isin(breaks, indptr)):
                raise AssertionError("a CSR row is not strictly ascending")
        # Symmetry: the reversed directed edge set must equal the original.
        keys = _edge_keys(src, indices, max(n, 1))
        rev = _edge_keys(indices, src, max(n, 1))
        if not np.array_equal(np.sort(keys), np.sort(rev)):
            raise AssertionError("adjacency is not symmetric")

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise KeyError(f"vertex {v} not in graph")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


class EdgeKeys:
    """An undirected graph over rows ``0..n-1`` as sorted directed edge keys.

    Each edge ``{u, v}`` is stored in both directions, as the int64 keys
    ``u·2³² + v``, sorted, so the neighbours of row ``u`` are the low halves
    of ``keys[indptr[u]:indptr[u + 1]]``, ascending: the :class:`CSRGraph`
    layout with the row folded into each key.  That makes an edit batch one
    sorted merge (:meth:`apply`, no re-sort) and an edge test one binary
    search (:meth:`contains`).  Which rows are vertices is the owner's to
    say; a row without keys is isolated or unused.
    """

    __slots__ = ("keys", "indptr")

    def __init__(self, keys: np.ndarray, indptr: np.ndarray):
        self.keys = keys
        self.indptr = indptr

    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "EdgeKeys":
        """The keys of a snapshot's rows (already in key order)."""
        rows = np.repeat(np.arange(csr.num_vertices, dtype=np.int64), csr.degrees)
        return cls((rows << _SHIFT) | csr.indices, csr.indptr.copy())

    @classmethod
    def from_pairs(cls, pairs: np.ndarray, num_rows: int) -> "EdgeKeys":
        """The graph on ``num_rows`` rows whose edges are the row pairs
        ``pairs`` (``(m, 2)``, each edge once, either direction)."""
        keys = _directed_keys(pairs)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys >> _SHIFT, minlength=num_rows), out=indptr[1:])
        return cls(keys, indptr)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.keys) // 2

    def contains(self, pairs: np.ndarray) -> np.ndarray:
        """Whether each row pair of ``pairs`` (``(k, 2)``) is an edge."""
        keys = (pairs[:, 0] << _SHIFT) | pairs[:, 1]
        at = np.searchsorted(self.keys, keys)
        found = at < len(self.keys)
        found[found] = self.keys[at[found]] == keys[found]
        return found

    def neighbors(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The neighbours of ``rows`` back to back, each row's ascending,
        and how many each row has."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        offsets = np.cumsum(counts) - counts
        at = np.repeat(starts - offsets, counts) + np.arange(
            int(counts.sum()), dtype=np.int64
        )
        return self.keys[at] & _LOW, counts

    def apply(self, deleted: np.ndarray, inserted: np.ndarray, num_rows: int) -> None:
        """Advance by one edit batch, in place.

        ``deleted`` and ``inserted`` are ``(k, 2)`` row pairs, each edge
        once: all present and all absent respectively.  New rows up to
        ``num_rows`` join without edges.  One delete and one insert at
        ``searchsorted`` positions keep the keys sorted, and the row
        pointers move by the per-row degree deltas.
        """
        deleted, inserted = _directed_keys(deleted), _directed_keys(inserted)
        keys = np.delete(self.keys, np.searchsorted(self.keys, deleted))
        keys = np.insert(keys, np.searchsorted(keys, inserted), inserted)
        indptr = np.empty(num_rows + 1, dtype=np.int64)
        indptr[: len(self.indptr)] = self.indptr
        indptr[len(self.indptr) :] = self.indptr[-1]
        delta = np.bincount(inserted >> _SHIFT, minlength=num_rows) - np.bincount(
            deleted >> _SHIFT, minlength=num_rows
        )
        indptr[1:] += np.cumsum(delta)
        self.keys, self.indptr = keys, indptr

    def canonical(
        self, ids: np.ndarray, alive: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph in id order: ``(vertex ids, u, v)``.

        ``ids[r]`` names row ``r`` and ``alive`` marks the rows that are
        vertices.  The vertex ids come back ascending, and each edge once as
        positions ``u < v`` into them, sorted by ``(u, v)``: the ascending
        ``(id, id)`` pairs of :func:`snapshot_with_ids`' upper triangle.
        When every row is a vertex and the rows ascend by id, ``u`` and
        ``v`` are rows and this is the mask ``u < v`` over the keys;
        otherwise one :func:`id_order` permutation maps rows to positions.
        """
        order = id_order(ids)
        rows = np.flatnonzero(alive) if order is None else order[alive[order]]
        src, dst = self.keys >> _SHIFT, self.keys & _LOW
        if order is not None or len(rows) < len(ids):
            position = np.zeros(len(ids), dtype=np.int64)
            position[rows] = np.arange(len(rows), dtype=np.int64)
            src, dst = position[src], position[dst]
        upper = src < dst
        u, v = src[upper], dst[upper]
        if order is not None:
            key = (u << _SHIFT) | v
            key.sort()
            u, v = key >> _SHIFT, key & _LOW
        return ids[rows], u, v

    def __repr__(self) -> str:
        return f"EdgeKeys(rows={self.num_rows}, |E|={self.num_edges})"
