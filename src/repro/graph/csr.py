"""Compressed sparse row graph snapshots — the shared compute substrate.

The library keeps two graph representations with distinct roles:

* :class:`repro.graph.adjacency.Graph` — mutable dict-of-set adjacency, the
  substrate for *edits* (O(1) edge insert/delete, the dynamic workloads);
* :class:`CSRGraph` — an immutable array snapshot (sorted ``indptr`` /
  ``indices``), the substrate for *compute*: the vectorised engines
  (:class:`repro.core.fast.FastPropagator`,
  :class:`repro.baselines.slpa_fast.FastSLPA`), distributed shard slicing
  (:func:`repro.graph.partition.slice_csr`), and every future batch engine.

Construction is fully vectorised (``np.fromiter`` + ``np.lexsort`` +
``np.bincount`` — no per-vertex Python loops), and :meth:`CSRGraph.with_edits`
re-snapshots after an edit batch in O(m) array operations, so dynamic
workloads can stay on the array substrate between batches.  The neighbour
order inside a row is ascending, matching the sorted-adjacency contract the
counter-based randomness (and hence the determinism tests) relies on.

:class:`CSRDelta` is the lightweight overlay for callers that accumulate
edits before paying for a rebuild: it answers ``has_edge``/``degree``/
``neighbors`` against base + pending edits and materialises a fresh
:class:`CSRGraph` on :meth:`CSRDelta.snapshot`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.adjacency import Graph, normalize_edge
from repro.graph.edits import EditBatch
from repro.graph.io import relabel_to_integers

__all__ = ["CSRGraph", "CSRDelta", "build_csr_arrays", "snapshot_with_ids"]

Edge = Tuple[int, int]


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


class CSRGraph:
    """An immutable CSR snapshot of an undirected binary graph.

    Vertex ids are contiguous ``0..n-1``; each undirected edge is stored in
    both directions and every row of ``indices`` is ascending.  Instances
    are cheap to slice (:func:`repro.graph.partition.slice_csr`), cheap to
    rebuild after edits (:meth:`with_edits`), and picklable (they ship to
    multiprocess workers as-is).
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
    # Edits
    # ------------------------------------------------------------------
    def with_edits(self, batch: EditBatch) -> "CSRGraph":
        """A new snapshot with ``batch`` applied, in O(m) array operations.

        Mirrors :func:`repro.graph.edits.apply_batch` semantics: insertions
        must be absent, deletions present (``ValueError`` otherwise).
        Inserted edges may mention new vertex ids; the snapshot grows to
        ``max id + 1``.
        """
        ins = sorted(batch.insertions)
        dels = sorted(batch.deletions)
        n_new = self.num_vertices
        if ins:
            n_new = max(n_new, max(max(u, v) for u, v in ins) + 1)
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        dst = self.indices
        keys = _edge_keys(src, dst, n_new)

        if dels:
            da = np.array([e[0] for e in dels], dtype=np.int64)
            db = np.array([e[1] for e in dels], dtype=np.int64)
            del_keys = np.concatenate(
                [_edge_keys(da, db, n_new), _edge_keys(db, da, n_new)]
            )
            drop = np.isin(keys, del_keys)
            if int(drop.sum()) != len(del_keys):
                missing = [
                    e for e in dels
                    if not (self.has_vertex(e[0]) and self.has_edge(*e))
                ]
                raise ValueError(f"deletions not present: {missing[:5]}")
            src, dst, keys = src[~drop], dst[~drop], keys[~drop]

        if ins:
            ia = np.array([e[0] for e in ins], dtype=np.int64)
            ib = np.array([e[1] for e in ins], dtype=np.int64)
            ins_keys = _edge_keys(ia, ib, n_new)
            present = np.isin(ins_keys, keys)
            if present.any():
                bad = [ins[i] for i in np.flatnonzero(present).tolist()]
                raise ValueError(f"insertions already present: {bad[:5]}")
            src = np.concatenate([src, ia, ib])
            dst = np.concatenate([dst, ib, ia])

        indptr, indices = _csr_from_directed(n_new, src, dst)
        return CSRGraph(indptr, indices, validate=False)

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


class CSRDelta:
    """A mutable edit overlay on top of an immutable :class:`CSRGraph`.

    Accumulates edge insertions/deletions without touching the base arrays;
    reads (``has_edge`` / ``degree`` / ``neighbors``) see base + pending
    edits, and :meth:`snapshot` materialises a fresh :class:`CSRGraph` in
    one O(m) rebuild.  This is the cheap path for dynamic workloads that
    alternate small edit batches with array-speed compute.
    """

    def __init__(self, base: CSRGraph):
        self.base = base
        self._inserted: set = set()
        self._deleted: set = set()

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Stage an insertion; returns True if it changes the overlay graph."""
        edge = normalize_edge(u, v)
        if edge in self._deleted:
            self._deleted.discard(edge)
            return True
        if self.has_edge(u, v):
            return False
        self._inserted.add(edge)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Stage a deletion; returns True if the edge existed in the overlay."""
        edge = normalize_edge(u, v)
        if edge in self._inserted:
            self._inserted.discard(edge)
            return True
        if not self.base.has_edge(*edge) or edge in self._deleted:
            return False
        self._deleted.add(edge)
        return True

    def apply(self, batch: EditBatch) -> None:
        """Stage a whole batch (cancelling pairs compose as in ``merged_with``)."""
        for u, v in sorted(batch.deletions):
            self.remove_edge(u, v)
        for u, v in sorted(batch.insertions):
            self.add_edge(u, v)

    @property
    def pending(self) -> EditBatch:
        """The net staged edits as an :class:`EditBatch`."""
        return EditBatch(
            insertions=frozenset(self._inserted), deletions=frozenset(self._deleted)
        )

    def __bool__(self) -> bool:
        return bool(self._inserted or self._deleted)

    # ------------------------------------------------------------------
    # Overlay-aware reads
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        grown = max((max(u, v) + 1 for u, v in self._inserted), default=0)
        return max(self.base.num_vertices, grown)

    @property
    def num_edges(self) -> int:
        return self.base.num_edges + len(self._inserted) - len(self._deleted)

    def has_edge(self, u: int, v: int) -> bool:
        edge = normalize_edge(u, v)
        if edge in self._inserted:
            return True
        if edge in self._deleted:
            return False
        return self.base.has_edge(*edge)

    def degree(self, v: int) -> int:
        base_deg = self.base.degree(v) if self.base.has_vertex(v) else 0
        gained = sum(1 for e in self._inserted if v in e)
        lost = sum(1 for e in self._deleted if v in e)
        return base_deg + gained - lost

    def neighbors(self, v: int) -> np.ndarray:
        """Ascending neighbour array of ``v`` under the overlay."""
        base = (
            set(self.base.neighbors(v).tolist()) if self.base.has_vertex(v) else set()
        )
        for a, b in self._inserted:
            if a == v:
                base.add(b)
            elif b == v:
                base.add(a)
        for a, b in self._deleted:
            if a == v:
                base.discard(b)
            elif b == v:
                base.discard(a)
        return np.array(sorted(base), dtype=np.int64)

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """Rebuild: a fresh :class:`CSRGraph` with all staged edits applied."""
        if not self:
            return self.base
        return self.base.with_edits(self.pending)

    def __repr__(self) -> str:
        return (
            f"CSRDelta(base={self.base!r}, +{len(self._inserted)}, "
            f"-{len(self._deleted)})"
        )
