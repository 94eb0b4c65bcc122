"""Dynamic undirected binary graph.

The paper operates on *binary graphs*: undirected, unweighted, no self-loops,
no parallel edges (Section I).  :class:`Graph` is the library's input and
export type: adjacency sets with O(1) edge insert/delete/lookup, plus
vertex-level operations used by the dynamic workloads (Section IV premises:
vertex insertion behaves like a vertex whose old neighbours were all removed;
vertex deletion like removing all incident edges).  The reference engines
edit one in place; the fast path keeps its live graph as an array
adjacency (:class:`repro.graph.csr.EdgeKeys`) and builds a :class:`Graph`
from it on demand.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

__all__ = ["Graph", "normalize_edge"]

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge.

    Raises ``ValueError`` for self-loops, which binary graphs exclude.
    """
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not allowed in a binary graph")
    return (u, v) if u < v else (v, u)


class Graph:
    """An undirected, unweighted, dynamic graph over integer vertex ids.

    Vertices may exist with degree zero (isolated); edges are unordered pairs
    of distinct vertices.  All mutators keep the adjacency symmetric.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.remove_edge(0, 1); g.degree(1)
    1
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self):
        self._adj: Dict[int, Set[int]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge], vertices: Iterable[int] = ()) -> "Graph":
        """Build a graph from an edge iterable (duplicates are ignored).

        ``vertices`` may add isolated vertices not mentioned by any edge.
        """
        graph = cls()
        for vertex in vertices:
            graph.add_vertex(vertex)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Vertex operations
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> bool:
        """Ensure ``v`` exists; return True if it was newly added."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        return True

    def remove_vertex(self, v: int) -> List[Edge]:
        """Remove ``v`` and all incident edges; return the removed edges."""
        if v not in self._adj:
            raise KeyError(f"vertex {v} not in graph")
        removed = [normalize_edge(v, u) for u in self._adj[v]]
        for u in list(self._adj[v]):
            self._adj[u].discard(v)
        self._num_edges -= len(removed)
        del self._adj[v]
        return removed

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; return True if it did not already exist.

        Endpoints are created on demand.
        """
        normalize_edge(u, v)  # validates no self-loop
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}``; return True if it existed."""
        if u not in self._adj or v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> FrozenSet[int]:
        """Return the neighbour set of ``v`` as an immutable snapshot."""
        if v not in self._adj:
            raise KeyError(f"vertex {v} not in graph")
        return frozenset(self._adj[v])

    def neighbors_view(self, v: int) -> Set[int]:
        """Return the *live* neighbour set (do not mutate)."""
        if v not in self._adj:
            raise KeyError(f"vertex {v} not in graph")
        return self._adj[v]

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise KeyError(f"vertex {v} not in graph")
        return len(self._adj[v])

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Yield each edge exactly once, in canonical ``(min, max)`` form."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def average_degree(self) -> float:
        """Mean degree, 0.0 for the empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def max_degree(self) -> int:
        """Largest vertex degree, 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def isolated_vertices(self) -> List[int]:
        """Vertices with no incident edges."""
        return [v for v, nbrs in self._adj.items() if not nbrs]

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[int]]:
        """Connected components via iterative BFS (no recursion limits)."""
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                node = frontier.pop()
                for nbr in self._adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        component.add(nbr)
                        frontier.append(nbr)
            components.append(component)
        return components

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Return the induced subgraph on ``keep`` (vertices preserved)."""
        keep_set = set(keep)
        sub = Graph()
        for v in keep_set:
            if v in self._adj:
                sub.add_vertex(v)
        for v in keep_set:
            if v not in self._adj:
                continue
            for u in self._adj[v]:
                if u in keep_set and v < u:
                    sub.add_edge(v, u)
        return sub

    def check_invariants(self) -> None:
        """Assert structural invariants; used heavily by the test suite."""
        count = 0
        for v, nbrs in self._adj.items():
            for u in nbrs:
                if v == u:
                    raise AssertionError(f"self-loop stored at vertex {v}")
                if u not in self._adj or v not in self._adj[u]:
                    raise AssertionError(f"asymmetric edge ({v}, {u})")
                count += 1
        if count != 2 * self._num_edges:
            raise AssertionError(
                f"edge count mismatch: counted {count // 2}, stored {self._num_edges}"
            )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, item) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        return self.has_vertex(item)

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"
