"""Graph I/O: edge-list files and networkx interop.

The paper's real-world pipeline extracts the WebGraph-compressed crawl into
plain text, symmetrises it, and drops multi-edges and self-loops
(Section V-B1).  :func:`read_edge_list` performs exactly that normalisation,
so any directed multigraph edge list becomes a binary graph.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.graph.adjacency import Graph

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "parse_edge_lines",
    "to_networkx",
    "from_networkx",
    "relabel_to_integers",
]

Edge = Tuple[int, int]


def parse_edge_lines(lines: Iterable[str]) -> List[Edge]:
    """Parse whitespace-separated vertex-pair lines.

    Blank lines and lines starting with ``#`` or ``%`` are skipped.
    Self-loops are dropped (binary-graph normalisation); duplicates are kept
    here and collapse when loaded into a :class:`Graph`.
    """
    edges: List[Edge] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from exc
        if u == v:
            continue
        edges.append((u, v))
    return edges


def read_edge_list(path: str) -> Graph:
    """Load a binary graph from an edge-list file (symmetrised, deduplicated)."""
    with open(path, "r", encoding="utf-8") as handle:
        edges = parse_edge_lines(handle)
    return Graph.from_edges(edges)


def write_edge_list(graph: Graph, path: str, header: str = "") -> None:
    """Write the graph as a canonical, sorted edge list."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in sorted(graph.edges()):
            handle.write(f"{u} {v}\n")


def to_networkx(graph: Graph) -> "nx.Graph":
    """Convert to a networkx graph (for cross-validation and plotting).

    networkx is an optional dependency, imported only here.
    """
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices())
    nxg.add_edges_from(graph.edges())
    return nxg


def from_networkx(nxg: "nx.Graph") -> Graph:
    """Convert from networkx; directions, weights and self-loops are dropped."""
    graph = Graph()
    for node in nxg.nodes():
        graph.add_vertex(int(node))
    for u, v in nxg.edges():
        if u != v:
            graph.add_edge(int(u), int(v))
    return graph


def relabel_to_integers(graph: Graph) -> Tuple[Graph, dict]:
    """Relabel vertices to ``0..n-1`` (sorted order); return (graph, old->new)."""
    mapping = {old: new for new, old in enumerate(sorted(graph.vertices()))}
    relabeled = Graph.from_edges(
        ((mapping[u], mapping[v]) for u, v in graph.edges()),
        vertices=mapping.values(),
    )
    return relabeled, mapping
