"""The retired dict pipeline of Section III-B, kept as the extraction's oracle.

:mod:`repro.core.postprocess` runs the extraction on arrays over one
canonical edge order.  Before it, every stage walked a dict keyed by edge
tuples and a union-find visited every edge.  That pipeline is an independent
second implementation of the same thresholds, so the tests keep it here to
pin the array pipeline bit for bit.  Everything below is the retired module
moved verbatim, with one edit: :func:`edge_weights` returns its dict in
ascending ``(u, v)`` order (the library's canonical edge order) instead of
``graph.edges()`` order, so ties among equal weights break the same way in
both pipelines.  :func:`comparable` lays a result of either pipeline out as
plain Python values for an exact comparison.

Section III-B of the paper.  rSLPA's uniform picking leaves each community
agreeing on a *distribution* of labels rather than one frequent label, so
instead of SLPA's per-vertex thresholding:

1. every edge gets a weight ``w_ij = P(l_i = l_j)`` — the probability two
   independent uniform draws from ``L_i`` and ``L_j`` collide;
2. the strong threshold ``τ1`` filters edges; connected components with at
   least two vertices become communities.  ``τ1`` is chosen to maximise the
   information entropy of relative community sizes (Eq. 1);
3. the weak threshold ``τ2 = min_i max_j w_ij`` (Eq. 2) attaches each
   remaining isolated vertex to the communities of its strong neighbours —
   attachment to several communities is what creates *overlap*.

The τ1 sweep is implemented with a union-find that adds edges in descending
weight order and maintains the size histogram / entropy incrementally, so
sweeping the full candidate grid costs ``O(E α(V) + #steps)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import math

import numpy as np

from repro.core.communities import Cover
from repro.graph.adjacency import Graph
from repro.utils.validation import check_positive

__all__ = [
    "comparable",
    "sequence_similarity",
    "edge_weights",
    "weak_threshold",
    "DisjointSetEntropy",
    "sweep_tau1",
    "attach_weak",
    "extract_communities",
    "PostprocessResult",
]

Edge = Tuple[int, int]


def sequence_similarity(seq_a: Sequence[int], seq_b: Sequence[int]) -> float:
    """``P(l_a = l_b)`` for independent uniform draws from two sequences.

    >>> sequence_similarity([1, 1, 2], [1, 2, 2])
    0.4444444444444444
    """
    if not seq_a or not seq_b:
        raise ValueError("label sequences must be non-empty")
    counts_a = Counter(seq_a)
    counts_b = Counter(seq_b)
    if len(counts_a) > len(counts_b):
        counts_a, counts_b = counts_b, counts_a
    hits = sum(count * counts_b.get(label, 0) for label, count in counts_a.items())
    return hits / (len(seq_a) * len(seq_b))


def edge_weights(
    graph: Graph, sequences: Mapping[int, Sequence[int]]
) -> Dict[Edge, float]:
    """Similarity weight for every edge of ``graph``, keyed in ascending ``(u, v)`` order.

    ``sequences`` maps vertex -> label sequence of ints (e.g.
    ``LabelState.labels``).  Each weight is the integer collision count
    ``hits_uv = sum_l c_u(l) * c_v(l)`` divided by ``len_u * len_v`` in
    float64: the same correctly rounded division of the same integers as
    :func:`sequence_similarity`, so the floats are identical.  The counts
    come from one run-length encoding per vertex and a vectorised merge
    over all edges at once (:func:`_collision_counts`).
    """
    vertices = list(graph.vertices())
    seqs = []
    for v in vertices:
        seq = sequences[v]
        if not seq:
            raise ValueError(f"vertex {v} has an empty label sequence")
        seqs.append(seq)
    edges = sorted(graph.edges())
    if not edges:
        return {}
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    row_u, row_v = _edge_rows(vertices, edges)
    hits = _collision_counts(*_label_runs(seqs, lengths), row_u, row_v)
    weights = hits / (lengths[row_u] * lengths[row_v])
    del hits, row_u, row_v  # free the work arrays before the dict is built
    return dict(zip(edges, weights.tolist()))


def _edge_rows(vertices: List[int], edges: List[Edge]) -> Tuple[np.ndarray, np.ndarray]:
    """Position in ``vertices`` of each edge's two ends (any int ids)."""
    ids = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    order = np.argsort(ids)
    ends = np.fromiter(
        chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
    )
    rows = order[np.searchsorted(ids[order], ends)]
    return rows[0::2], rows[1::2]


def _label_runs(
    seqs: List[Sequence[int]], lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Each sequence, sorted and run-length encoded into one padded row.

    Row ``r`` holds the distinct labels of ``seqs[r]`` in ascending order
    beside their multiplicities, then at least one ``sentinel`` label
    (above every label) with count 0.  Labels are replaced by their rank
    among all labels, so both tables fit int32.
    """
    n = len(seqs)
    flat = np.fromiter(
        chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum())
    )
    distinct, codes = np.unique(flat, return_inverse=True)
    sentinel = distinct.size
    width = int(lengths.max()) + 1
    grid = np.full((n, width), sentinel, dtype=np.int32)
    grid[np.arange(width) < lengths[:, None]] = codes  # row-major, like codes
    grid.sort(axis=1)
    # Run index of every cell: a run starts wherever the label changes.
    rank = np.zeros(grid.shape, dtype=np.int32)
    rank[:, 1:] = grid[:, 1:] != grid[:, :-1]
    np.cumsum(rank, axis=1, out=rank)
    runs = int(rank[:, -1].max()) + 1
    cell = rank + (np.arange(n) * runs)[:, None]
    labels = np.full(n * runs, sentinel, dtype=np.int32)
    labels[cell] = grid
    counts = np.bincount(cell.ravel(), minlength=n * runs).astype(np.int32)
    counts[labels == sentinel] = 0
    return labels.reshape(n, runs), counts.reshape(n, runs), sentinel


def _collision_counts(
    labels: np.ndarray,
    counts: np.ndarray,
    sentinel: int,
    row_u: np.ndarray,
    row_v: np.ndarray,
) -> np.ndarray:
    """``sum_l c_u(l) * c_v(l)`` for every edge ``(row_u[e], row_v[e])``.

    A sorted merge of the two run rows of every edge at once: one cursor
    per row, the lower label advances (both on a match), and an edge drops
    out once either cursor reaches its row's sentinel.  With rows of at
    most ``R`` runs this takes at most ``2R`` vectorised steps.
    """
    runs = labels.shape[1]
    labels, counts = labels.ravel(), counts.ravel()
    cur_u, cur_v = row_u * runs, row_v * runs
    edge = np.arange(row_u.size)
    hits = np.zeros(row_u.size, dtype=np.int64)
    while edge.size:
        a, b = labels[cur_u], labels[cur_v]
        live = (a != sentinel) & (b != sentinel)
        if not live.all():
            edge, cur_u, cur_v, a, b = (
                edge[live], cur_u[live], cur_v[live], a[live], b[live]
            )
        match = np.flatnonzero(a == b)
        hits[edge[match]] += (
            counts[cur_u[match]].astype(np.int64) * counts[cur_v[match]]
        )
        cur_u += a <= b
        cur_v += a >= b
    return hits


def weak_threshold(graph: Graph, weights: Mapping[Edge, float]) -> float:
    """``τ2 = min_i max_j w_ij`` (Eq. 2) over vertices with neighbours.

    Degree-0 vertices have no incident weight and are excluded (they can
    never be attached anyway).  Returns 0.0 for an edgeless graph.
    """
    best_per_vertex: Dict[int, float] = {}
    for (u, v), w in weights.items():
        if w > best_per_vertex.get(u, -1.0):
            best_per_vertex[u] = w
        if w > best_per_vertex.get(v, -1.0):
            best_per_vertex[v] = w
    if not best_per_vertex:
        return 0.0
    return min(best_per_vertex.values())


class DisjointSetEntropy:
    """Union-find tracking the Eq. 1 entropy of components with size >= 2.

    Components of size 1 are "isolated vertices" in the paper's terminology
    and contribute nothing.  ``entropy`` is maintained incrementally under
    unions: O(1) updates on top of near-O(1) DSU finds.
    """

    def __init__(self, vertices: Iterable[int], num_vertices: Optional[int] = None):
        self.parent: Dict[int, int] = {v: v for v in vertices}
        self.size: Dict[int, int] = {v: 1 for v in self.parent}
        self.n = num_vertices if num_vertices is not None else len(self.parent)
        check_positive(self.n, "num_vertices")
        self.entropy = 0.0
        self.num_components = len(self.parent)  # including singletons

    def _term(self, size: int) -> float:
        if size < 2:
            return 0.0
        p = size / self.n
        return -p * math.log(p)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:  # path compression
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> bool:
        """Merge the components of ``u`` and ``v``; returns True if merged."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.entropy -= self._term(self.size[ru]) + self._term(self.size[rv])
        self.size[ru] += self.size[rv]
        self.parent[rv] = ru
        self.entropy += self._term(self.size[ru])
        self.num_components -= 1
        return True

    def components(self, min_size: int = 1) -> List[Set[int]]:
        """Materialise all components with at least ``min_size`` members."""
        groups: Dict[int, Set[int]] = {}
        for v in self.parent:
            groups.setdefault(self.find(v), set()).add(v)
        return [g for g in groups.values() if len(g) >= min_size]


@dataclass
class PostprocessResult:
    """Everything the post-processing stage decided.

    ``entropy_curve`` holds the swept (τ1 candidate, entropy) pairs so the
    τ-selection ablation can plot the landscape.
    """

    cover: Cover
    tau1: float
    tau2: float
    entropy: float
    weights: Dict[Edge, float] = field(repr=False, default_factory=dict)
    entropy_curve: List[Tuple[float, float]] = field(repr=False, default_factory=list)
    num_strong_communities: int = 0
    num_attached_vertices: int = 0


def sweep_tau1(
    graph: Graph,
    weights: Mapping[Edge, float],
    tau2: float,
    step: float = 0.001,
) -> Tuple[float, float, List[Tuple[float, float]]]:
    """Find ``argmax_τ1 entropy`` over the grid ``[τ2, max w]`` (Eq. 1).

    Scans thresholds *descending* while adding edges of weight >= τ to a
    DSU, so the whole sweep performs each union exactly once.  Returns
    ``(tau1, best_entropy, curve)``; ties prefer the **larger** τ1 (finer
    communities carry at least as much information).
    """
    check_positive(step, "step")
    if not weights:
        return tau2, 0.0, []
    sorted_edges = sorted(weights.items(), key=lambda kv: -kv[1])
    max_w = sorted_edges[0][1]
    if max_w < tau2:
        return tau2, 0.0, []
    dsu = DisjointSetEntropy(graph.vertices(), graph.num_vertices)

    # Descending grid: max_w, max_w - step, ..., down to tau2 inclusive.
    num_steps = max(0, int(math.floor((max_w - tau2) / step + 1e-9)))
    grid = [max_w - k * step for k in range(num_steps + 1)]
    if grid[-1] > tau2 + 1e-12:
        grid.append(tau2)

    curve: List[Tuple[float, float]] = []
    best_tau, best_entropy = grid[0], -1.0
    edge_idx = 0
    for tau in grid:
        while edge_idx < len(sorted_edges) and sorted_edges[edge_idx][1] >= tau - 1e-12:
            (u, v), _w = sorted_edges[edge_idx]
            dsu.union(u, v)
            edge_idx += 1
        curve.append((tau, dsu.entropy))
        if dsu.entropy > best_entropy + 1e-12:
            best_tau, best_entropy = tau, dsu.entropy
    return best_tau, best_entropy, curve


def attach_weak(
    graph: Graph,
    weights: Mapping[Edge, float],
    strong_components: Sequence[Set[int]],
    tau2: float,
) -> Tuple[List[Set[int]], int]:
    """The strong communities with isolated vertices attached through τ2.

    Every vertex outside the strong components joins the community of each
    strong neighbour whose edge weight reaches ``tau2`` (Eq. 2); joining
    several is what creates overlap.  Returns the communities (one per
    strong component, in order) and the number of vertices attached.
    """
    strong_members: Set[int] = set()
    community_of: Dict[int, int] = {}
    communities: List[Set[int]] = []
    for cid, component in enumerate(strong_components):
        communities.append(set(component))
        strong_members.update(component)
        for v in component:
            community_of[v] = cid

    attached = 0
    for v in graph.vertices():
        if v in strong_members:
            continue
        targets: Set[int] = set()
        for u in graph.neighbors_view(v):
            if u not in strong_members:
                continue
            edge = (u, v) if u < v else (v, u)
            if weights[edge] >= tau2 - 1e-12:
                targets.add(community_of[u])
        if targets:
            attached += 1
            for cid in targets:
                communities[cid].add(v)
    return communities, attached


def extract_communities(
    graph: Graph,
    sequences: Mapping[int, Sequence[int]],
    step: float = 0.001,
    tau1: Optional[float] = None,
    tau2: Optional[float] = None,
) -> PostprocessResult:
    """Full post-processing pipeline: weights -> τ2 -> τ1 sweep -> cover.

    ``tau1``/``tau2`` may be pinned (for ablations); by default they follow
    Eqs. 1 and 2.  Returns a :class:`PostprocessResult` whose cover contains
    the strong components (size >= 2) with weakly-attached isolated
    vertices merged in.
    """
    weights = edge_weights(graph, sequences)
    resolved_tau2 = weak_threshold(graph, weights) if tau2 is None else tau2
    if tau1 is None:
        resolved_tau1, entropy, curve = sweep_tau1(graph, weights, resolved_tau2, step)
    else:
        resolved_tau1, curve = tau1, []
        entropy = float("nan")

    # Strong pass: components of the τ1-filtered graph.
    dsu = DisjointSetEntropy(graph.vertices(), graph.num_vertices)
    for (u, v), w in weights.items():
        if w >= resolved_tau1 - 1e-12:
            dsu.union(u, v)
    strong_components = dsu.components(min_size=2)
    if tau1 is not None:
        entropy = sum(
            -(len(c) / graph.num_vertices) * math.log(len(c) / graph.num_vertices)
            for c in strong_components
        )
    # Weak pass: attach isolated vertices through τ2 (Eq. 2).
    communities, attached = attach_weak(
        graph, weights, strong_components, resolved_tau2
    )

    return PostprocessResult(
        cover=Cover(communities),
        tau1=resolved_tau1,
        tau2=resolved_tau2,
        entropy=entropy,
        weights=weights,
        entropy_curve=curve,
        num_strong_communities=len(strong_components),
        num_attached_vertices=attached,
    )


def comparable(result) -> tuple:
    """Every field of a ``PostprocessResult`` as plain Python values.

    Accepts this oracle's results (``weights`` a dict keyed by edge) and the
    library's (``edges`` an ``(m, 2)`` id array, ``weights`` a float64
    array aligned with it), so ``comparable(a) == comparable(b)`` compares
    the edge order, every weight, τ1, τ2, the entropy, the curve, the cover
    and the counts exactly.
    """
    if isinstance(result.weights, dict):
        edges = list(result.weights)
        weights = list(result.weights.values())
    else:
        edges = [tuple(edge) for edge in result.edges.tolist()]
        weights = result.weights.tolist()
    return (
        edges,
        weights,
        result.tau1,
        result.tau2,
        result.entropy,
        result.entropy_curve,
        result.cover.communities,
        result.num_strong_communities,
        result.num_attached_vertices,
    )
