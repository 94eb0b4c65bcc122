"""Classic small real-world networks with known community structure.

The paper's quality evaluation is synthetic (LFR) and its efficiency
evaluation uses a web crawl we substitute; these classic datasets add a
third leg: *real* social structure at test-suite scale, with
ground-truth-ish factions the community-detection literature has used for
decades.

* :func:`karate_club` — Zachary's karate club (34 vertices, 78 edges) with
  the historical two-faction split after the club schism;
* :func:`les_miserables` — Hugo's character co-occurrence network
  (77 vertices, 254 weighted edges), used here to exercise the
  weighted-network binarization path.

Both are sourced from networkx's bundled public-domain data and normalised
through this library's own pipeline; networkx is an optional dependency,
imported only when one of them is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.graph.adjacency import Graph
from repro.graph.io import from_networkx
from repro.graph.transform import binarize, quantile_threshold

__all__ = ["LabelledGraph", "karate_club", "les_miserables"]


@dataclass
class LabelledGraph:
    """A real-world graph plus whatever ground truth history provides."""

    graph: Graph
    factions: List[Set[int]]
    name: str
    vertex_names: Dict[int, str]


def karate_club() -> LabelledGraph:
    """Zachary's karate club with the two post-split factions.

    The factions are the actual club split recorded by Zachary (1977) — the
    canonical sanity check: any community detector worth its salt separates
    the instructor's faction (around vertex 0) from the president's
    (around vertex 33).
    """
    import networkx as nx

    nxg = nx.karate_club_graph()
    graph = from_networkx(nxg)
    instructor = {
        v for v, data in nxg.nodes(data=True) if data["club"] == "Mr. Hi"
    }
    president = set(nxg.nodes()) - instructor
    return LabelledGraph(
        graph=graph,
        factions=[instructor, president],
        name="zachary-karate-club",
        vertex_names={v: f"member-{v}" for v in graph.vertices()},
    )


def les_miserables(keep_fraction: float = 0.6) -> LabelledGraph:
    """Les Misérables character co-occurrences, binarized per the paper.

    The raw network is weighted (number of co-occurrences); we apply the
    Section-I preprocessing — symmetrise and threshold — keeping the
    strongest ``keep_fraction`` of edges.  No formal ground truth exists;
    ``factions`` is empty and the dataset is used for structure/pipeline
    tests rather than NMI scoring.
    """
    import networkx as nx

    nxg = nx.les_miserables_graph()
    names = sorted(nxg.nodes())
    index = {name: i for i, name in enumerate(names)}
    weighted_edges: List[Tuple[int, int, float]] = [
        (index[u], index[v], float(data.get("weight", 1.0)))
        for u, v, data in nxg.edges(data=True)
    ]
    tau = quantile_threshold(weighted_edges, keep_fraction)
    graph = binarize(weighted_edges, threshold=tau, vertices=range(len(names)))
    return LabelledGraph(
        graph=graph,
        factions=[],
        name="les-miserables",
        vertex_names={i: name for name, i in index.items()},
    )
