"""Post-processing: from label sequences to overlapping communities.

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

Every stage runs on arrays over one canonical edge order, the ascending
``(u, v)`` id pairs with ``u < v`` (see :class:`WeightedEdges`), so the
result depends only on the graph's content, never on the order its edges
were inserted in.  A fast detector's live graph is the repair's
:class:`~repro.graph.csr.EdgeKeys` adjacency over the label state's
columns, and that order is its mask ``col_u < col_v`` (re-sorted by id
only once a vertex is born below the largest id); a :class:`Graph` is
snapshotted (:func:`repro.graph.csr.snapshot_with_ids`) for its upper
triangle.

Each weight is an integer collision count over a product of lengths.  The
counts compare label *codes*: an :class:`ArrayLabelState`'s labels are
vertex ids, so their columns code them; any other labels are ranked with
``np.unique``.  A refresh rarely changes most vertices' labels, so a
:class:`CountsRecord` keeps one extraction's counts, and the next counts
afresh only the edges that are new or have an end whose codes changed,
each oriented so that its count table is built for the changed end: the
tables then cover the changed rows and the ends of inserted edges only.

The τ1 sweep adds edges in the stable descending-weight order to a
union-find that maintains the size histogram / entropy incrementally.  Only
the unions that succeed change the entropy, and those are exactly the
maximum spanning forest for that order (Kruskal's algorithm), so the sweep
finds the forest once, with a vectorised Borůvka that breaks ties by edge
rank, and replays its ≤ n−1 edges: the same unions, hence the same floats,
as a pass over every edge, with each entropy term read from a table
(:class:`DisjointSetEntropy`).  When every sequence has the same length the
order is an integer radix sort of the counts.  The strong components are
the forest's prefix at τ1, and the weak attachment is two masks over the
edges whose (community, vertex) pairs become the
:class:`~repro.core.communities.Cover` arrays directly.  Past the
``O(m log m)`` sort, per-element Python runs only over the forest unions
and the τ1 grid.

Given an ``obs`` (a traced service's), :func:`extract_communities` records
its stages as the spans ``core.postprocess.edge_weights``, ``.sweep_tau1``
(τ2, the forest and the replay, with ``core.postprocess.forest`` inside)
and ``.strong_attach``, and counts ``core.postprocess.edges`` and
``.recounted_edges``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from time import time_ns
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.communities import Cover
from repro.core.labels_array import ArrayLabelState
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, EdgeKeys, snapshot_with_ids
from repro.metrics.entropy import size_entropy_from_sizes
from repro.utils.validation import check_positive

__all__ = [
    "sequence_similarity",
    "WeightedEdges",
    "CountsRecord",
    "edge_weights",
    "weak_threshold",
    "DisjointSetEntropy",
    "sweep_tau1",
    "attach_weak",
    "extract_communities",
    "PostprocessResult",
]

#: Label sequences: a live array state, or vertex -> sequence (any lengths).
Sequences = Union[ArrayLabelState, Mapping[int, Sequence[int]]]

#: A graph to extract from: a :class:`Graph` or :class:`CSRGraph` with any
#: vertex ids, or an :class:`EdgeKeys` adjacency over the columns of the
#: :class:`ArrayLabelState` that comes with it.
Graphlike = Union[Graph, CSRGraph, EdgeKeys]


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


@dataclass(frozen=True, eq=False)
class WeightedEdges:
    """A graph's edges in the canonical order, with their weights.

    Row ``r`` is the vertex ``ids[r]`` (ids ascending); edge ``e`` joins the
    rows ``u[e] < v[e]``, edges are sorted by ``(u, v)``, and ``weights[e]``
    is its float64 weight.  ``hits`` holds the integer collision counts
    when every sequence has the same length, so that each weight is
    ``hits[e] / length²``; it is ``None`` for sequences of mixed lengths.
    """

    ids: np.ndarray
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    hits: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` int64 id pairs, ascending."""
        return np.column_stack((self.ids[self.u], self.ids[self.v]))

    @cached_property
    def forest(self) -> np.ndarray:
        """The maximum spanning forest for the stable descending-weight order.

        Edge indices of the unions Kruskal's algorithm makes when it takes
        the edges in that order (ties by canonical position), in the order
        it makes them; computed on first use.
        """
        order = self._descending_order()
        return order[_kruskal_forest(self.num_vertices, self.u[order], self.v[order])]

    def _descending_order(self) -> np.ndarray:
        """The edges in the stable descending-weight order.

        With one sequence length, weight order is hits order (distinct
        counts below ``2**16`` give distinct weights, ``1 / length²``
        apart), so the order is the stable ascending order of
        ``max(hits) − hits``: a radix sort once that fits uint16.
        """
        hits = self.hits
        if hits is not None and hits.size:
            top = int(hits.max())
            if top < 1 << 16:
                return np.argsort((top - hits).astype(np.uint16), kind="stable")
        return np.argsort(-self.weights, kind="stable")


class CountsRecord:
    """One extraction's collision counts, carried over to the next.

    A fast detector keeps one between refreshes and hands it to
    :func:`edge_weights`, which reads it and then overwrites it with its
    own counts.  The record holds the row ids, the canonical edge keys
    ``u·n + v`` over those ``n`` rows, each edge's hits and the
    label-column codes they were counted from, the last three at the
    narrowest dtype that holds them (uint32, uint16 and uint16 at T=30
    with fewer than 65,536 vertices and columns).  An edge's hits depend
    only on the codes of its two rows, so an edge the record holds whose
    rows' codes did not change keeps its hits, however many repairs ran in
    between.  Rows are matched by id, so a vertex birth or removal costs
    only the edges it touches.  An edge counted afresh takes as its table
    row (:func:`_collision_counts`) an end whose codes changed, so the
    count tables cover the changed rows, not their neighbours.  Only
    label-column codes are kept: they have no padding, and a label keeps
    its code from one extraction to the next.  A record whose code width
    (T+1) differs is not used.
    ``recounted`` is how many edges the last call counted afresh.
    """

    __slots__ = ("ids", "keys", "hits", "codes", "recounted")

    def __init__(self):
        self.ids: Optional[np.ndarray] = None  # nothing to carry over
        self.keys = self.hits = self.codes = None
        self.recounted = 0

    def count(
        self,
        ids: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        codes: np.ndarray,
        num_labels: int,
        by_column: bool,
    ) -> np.ndarray:
        """The hits of the edges ``(u, v)``; then this record holds them.

        ``ids``, ``u`` and ``v`` are :func:`_canonical_edges`' output and
        ``codes`` / ``num_labels`` / ``by_column`` :func:`_label_codes`'.
        Edges the record holds whose rows' codes match the record's take
        its hits (:meth:`_held`), found by one ``searchsorted`` of their
        keys; :func:`_collision_counts` counts the rest, each edge oriented
        so that its table row is an end whose codes changed (either end of
        an edge between two unchanged rows, which only an insertion makes).
        """
        n = len(ids)
        keys = (u * n + v).astype(_unsigned(n * n))
        hits = np.empty(len(keys), dtype=np.int64)
        narrow = codes.astype(_unsigned(num_labels)) if by_column else None
        recount, table, other = slice(None), u, v
        if (
            by_column
            and self.ids is not None
            and self.ids.size
            and codes.shape[1] == self.codes.shape[1]
        ):
            same, kept, held_hits = self._held(ids, keys, u, v, narrow)
            hits[kept] = held_hits
            recount = ~kept
            table, other = u[recount], v[recount]
            flip = same[table]
            table, other = np.where(flip, other, table), np.where(flip, table, other)
        self.recounted = table.size
        if self.recounted:
            hits[recount] = _collision_counts(codes, num_labels, table, other)
        if by_column:
            self.ids, self.keys, self.codes = ids, keys, narrow
            self.hits = hits.astype(_unsigned(int(hits.max()) if hits.size else 0))
        else:
            self.ids = self.keys = self.hits = self.codes = None
        return hits

    def _held(
        self,
        ids: np.ndarray,
        keys: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        codes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which rows kept the record's codes (a mask over ``ids``), which
        edges ``(u, v)`` with keys ``keys`` the record holds with both rows
        unchanged (a mask), and those edges' hits.

        ``codes`` are at the record's narrow dtype.  With the record's own
        row ids (no birth or removal since), rows and keys are the
        record's; otherwise one ``searchsorted`` maps each row to the
        record's row of its id (a row whose id the record lacks matches no
        code row), and the kept edges' keys are rebuilt over those rows.
        """
        if np.array_equal(ids, self.ids):
            same = (codes == self.codes).all(axis=1)
            kept = same[u] & same[v]
            keys = keys[kept]
        else:
            row = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
            same = (self.ids[row] == ids) & (codes == self.codes[row]).all(axis=1)
            kept = same[u] & same[v]
            keys = (row[u[kept]] * len(self.ids) + row[v[kept]]).astype(self.keys.dtype)
        at = np.searchsorted(self.keys, keys)
        held = at < len(self.keys)
        held[held] = self.keys[at[held]] == keys[held]
        kept[kept] = held
        return same, kept, self.hits[at[held]]


def _unsigned(top: int) -> type:
    """The narrowest of uint8, uint16 and uint32 that holds ``0..top``,
    else int64."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def edge_weights(
    graph: Graphlike,
    sequences: Sequences,
    record: Optional[CountsRecord] = None,
) -> WeightedEdges:
    """Every edge of ``graph`` in the canonical order, weighted ``P(l_u = l_v)``.

    ``sequences`` is an :class:`~repro.core.labels_array.ArrayLabelState`,
    whose ``(T+1, n)`` label matrix is read directly, or maps every vertex
    to a non-empty label sequence of any length (e.g.
    ``LabelState.labels``); an :class:`EdgeKeys` ``graph`` takes the
    array state whose columns it is over.  Each weight is the integer
    collision count ``hits_uv = sum_l c_u(l) * c_v(l)`` divided by
    ``len_u * len_v`` in float64: the same correctly rounded division of
    the same integers as :func:`sequence_similarity`, so the floats are
    identical.  The counts compare label codes (:func:`_label_codes`: an
    array state's label columns) and come from one dense label-count
    table per chunk of rows, gathered for all edges at once
    (:func:`_collision_counts`).  Given the ``record`` of an earlier
    extraction, only the edges it cannot vouch for are counted
    (:meth:`CountsRecord.count`), and the record then holds this call's
    counts.
    """
    ids, u, v = _canonical_edges(graph, sequences)
    codes, num_labels, lengths, by_column = _label_codes(sequences, ids)
    if record is not None:
        hits = record.count(ids, u, v, codes, num_labels, by_column)
    elif u.size:
        hits = _collision_counts(codes, num_labels, u, v)
    else:
        hits = np.empty(0, dtype=np.int64)
    if lengths.size and lengths.min() == lengths.max():
        length = int(lengths[0])
        return WeightedEdges(ids, u, v, hits / (length * length), hits)
    return WeightedEdges(ids, u, v, hits / (lengths[u] * lengths[v]))


def _canonical_edges(
    graph: Graphlike, sequences: Sequences
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``graph``'s vertex ids, ascending, and each of its edges once as
    positions ``u < v`` into them, sorted by ``(u, v)``."""
    if isinstance(graph, EdgeKeys):
        if not isinstance(sequences, ArrayLabelState):
            raise TypeError("an EdgeKeys graph needs its columns' ArrayLabelState")
        return graph.canonical(sequences.ids, sequences.alive)
    csr, ids = snapshot_with_ids(graph)
    n = csr.num_vertices
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    upper = csr.indices > row
    return ids, row[upper], csr.indices[upper]


def _label_codes(
    sequences: Sequences, ids: np.ndarray
) -> Tuple[np.ndarray, int, np.ndarray, bool]:
    """The label sequences of the vertices ``ids`` as one row of codes each.

    Returns ``(codes, num_labels, lengths, by_column)``: codes lie in
    ``0..num_labels-1``, rows shorter than the longest are padded with
    ``num_labels``, and ``lengths`` are the sequence lengths.  An array
    state's labels are vertex ids, so its id → column lookup codes them
    (``by_column``); a label that names no column (a hand-built state)
    and a ``Mapping``'s sequences take the ranks of the distinct labels.
    """
    if isinstance(sequences, ArrayLabelState):
        cols = sequences.columns(ids)
        if not sequences.alive[cols].all():
            raise KeyError("the label state has dropped a vertex of the graph")
        labels = sequences.labels.T[cols]
        lengths = np.full(len(ids), labels.shape[1], dtype=np.int64)
        try:
            return sequences.columns(labels), sequences.num_columns, lengths, True
        except KeyError:
            flat = labels.ravel()
    else:
        seqs = [sequences[v] for v in ids.tolist()]
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            raise ValueError(f"vertex {ids[empty[0]]} has an empty label sequence")
        flat = np.fromiter(
            chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum())
        )
    distinct, ranks = np.unique(flat, return_inverse=True)
    num_labels = distinct.size
    width = int(lengths.max()) if lengths.size else 0
    codes = np.full((len(lengths), width), num_labels, dtype=np.int64)
    codes[np.arange(width) < lengths[:, None]] = ranks  # row-major, like ranks
    return codes, num_labels, lengths, False


def _collision_counts(
    codes: np.ndarray, num_labels: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """``sum_l c_u(l) * c_v(l)`` for every edge ``(u[e], v[e])``.

    ``codes`` is :func:`_label_codes`' padded matrix.  The sum equals
    ``sum_j c_u(L_v[j])`` over the slots ``j`` of ``v``, so the rows ``u``
    (in any order, repeats allowed) are the *table rows*: each chunk of
    them writes its label counts into a dense ``(rows, num_labels + 1)``
    table (the padding column stays 0), and each edge sums the table
    cells of its ``u`` at ``v``'s codes.  Only the distinct table rows are
    sorted and counted, so a caller that puts the few rows whose codes
    changed on the ``u`` side pays for those rows alone.  Chunks keep the
    table and the gathered cells within ``max(2**18, codes.size)``
    entries, and the table takes the narrowest dtype that holds a row's
    length, so its gathers stay in cache.
    """
    width = codes.shape[1]
    stride = num_labels + 1
    order = np.argsort(u)
    rows = u[order]
    start = np.ones(rows.size, dtype=bool)
    start[1:] = rows[1:] != rows[:-1]
    local = np.cumsum(start) - 1  # each edge's table row, in 0..k-1
    # Multiplicity of every slot's label within its table row (0 for padding).
    ordered = np.sort(codes[rows[start]], axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    run = np.cumsum(first.ravel()) - 1
    count = np.bincount(run)[run].reshape(ordered.shape)
    count[ordered == num_labels] = 0
    budget = max(1 << 18, codes.size)
    max_rows, max_edges = max(1, budget // stride), max(1, budget // width)
    table = np.zeros(min(len(ordered), max_rows) * stride, dtype=_unsigned(width))
    other = v[order]
    hits = np.empty(u.size, dtype=np.int64)
    e0 = 0
    while e0 < u.size:
        r0 = int(local[e0])
        e1 = min(int(np.searchsorted(local, r0 + max_rows)), e0 + max_edges)
        r1 = int(local[e1 - 1]) + 1
        cells = (np.arange(r1 - r0) * stride)[:, None] + ordered[r0:r1]
        table[cells] = count[r0:r1]
        at = ((local[e0:e1] - r0) * stride)[:, None] + codes[other[e0:e1]]
        hits[order[e0:e1]] = table[at].sum(axis=1, dtype=np.int64)
        table[cells] = 0
        e0 = e1
    return hits


def weak_threshold(edges: WeightedEdges) -> float:
    """``τ2 = min_i max_j w_ij`` (Eq. 2) over vertices with neighbours.

    Degree-0 vertices have no incident weight and are excluded (they can
    never be attached anyway).  Returns 0.0 for an edgeless graph.
    """
    if not edges.weights.size:
        return 0.0
    best = np.full(edges.num_vertices, -1.0)
    np.maximum.at(best, edges.u, edges.weights)
    np.maximum.at(best, edges.v, edges.weights)
    return float(best[best >= 0.0].min())


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest row of every row's connected component over the edges
    ``(u[i], v[i])`` on rows ``0..n-1``.

    Min-label hooking with pointer jumping: each round hooks every tree
    root onto the smallest root an edge joins it to, then flattens the
    trees.  Labels only fall, and an edge inside one tree stays inside it,
    so each round keeps only the edges that still join two trees.
    """
    label = np.arange(n, dtype=np.int64)
    while u.size:
        lu, lv = label[u], label[v]
        join = lu != lv
        if not join.any():
            break
        u, v, lu, lv = u[join], v[join], lu[join], lv[join]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def _kruskal_forest(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the edges Kruskal's algorithm keeps when it
    takes the edges ``(u[i], v[i])`` on rows ``0..n-1`` in position order.

    A vectorised Borůvka with the position as the (distinct) edge weight:
    each round every component picks its lowest-position edge to another
    component — an edge of the unique minimum spanning forest, by the cut
    property — and the picked edges merge the components, so at most
    ``log2(n)`` rounds run.  Each round carries its edges' component
    endpoints ``(cu, cv)`` beside their positions and relabels them
    through the round's merge; round 1's components are the rows.
    """
    pos = np.arange(u.size, dtype=np.int64)
    cu, cv = u, v
    picked = []
    while pos.size:
        cross = cu != cv
        pos, cu, cv = pos[cross], cu[cross], cv[cross]
        if not pos.size:
            break
        # pos ascends, so an edge's index orders the edges as its position.
        none = pos.size
        index = np.arange(none)
        best = np.full(n, none, dtype=np.int64)
        np.minimum.at(best, cu, index)
        np.minimum.at(best, cv, index)
        # Sort and keep each run's first: np.unique would hash.
        chosen = np.sort(best[best < none])
        first = np.ones(chosen.size, dtype=bool)
        first[1:] = chosen[1:] != chosen[:-1]
        chosen = chosen[first]
        picked.append(pos[chosen])
        label = _components(n, cu[chosen], cv[chosen])
        cu, cv = label[cu], label[cv]
    if not picked:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(picked))


@lru_cache(maxsize=1)
def _entropy_terms(n: int) -> Tuple[float, ...]:
    """``-(s/n)·log(s/n)`` for every component size ``s`` in ``0..n``,
    0.0 for the sizes 0 and 1 (isolated vertices contribute nothing)."""
    return (0.0, 0.0) + tuple(-(s / n) * math.log(s / n) for s in range(2, n + 1))


class DisjointSetEntropy:
    """Union-find over the rows ``0..n-1`` tracking the Eq. 1 entropy of
    components with size >= 2.

    Components of size 1 are "isolated vertices" in the paper's terminology
    and contribute nothing.  ``parent`` and ``size`` are Python lists
    indexed by row; finds halve paths and unions go by size.  Which row
    ends up a root may differ from another union-find's, but the component
    sizes, hence every entropy term, do not, and ``entropy`` is maintained
    with the same float operations in the same order under every union:
    subtract the two merged sizes' terms, add the merged size's.  Each
    term ``-(s/n)·log(s/n)`` is read from a table of every size's term,
    computed with ``math.log`` by the same expression and kept for the
    last ``n``, so it is the float the expression gives.
    """

    def __init__(self, rows: range):
        self.n = len(rows)
        check_positive(self.n, "num_vertices")
        if rows != range(self.n):
            raise ValueError("DisjointSetEntropy takes the rows range(n)")
        self.parent: List[int] = list(rows)
        self.size: List[int] = [1] * self.n
        self.entropy = 0.0
        self.num_components = self.n  # including singletons

    def union(self, u: int, v: int) -> bool:
        """Merge the components of ``u`` and ``v``; returns True if merged."""
        components = self.num_components
        self.replay((u,), (v,))
        return self.num_components < components

    def replay(self, us: Sequence[int], vs: Sequence[int]) -> List[float]:
        """Union ``us[i]`` with ``vs[i]`` for each ``i`` in turn; returns the
        entropy before the first union and after each.

        The finds and unions are written inline: the τ1 sweep replays its
        forest here, one union per edge.
        """
        parent, size = self.parent, self.size
        terms = _entropy_terms(self.n)
        entropy = self.entropy
        entropies = [entropy]
        merges = 0
        for u, v in zip(us, vs):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                a, b = size[u], size[v]
                if a < b:
                    u, v = v, u
                size[u] = a + b
                parent[v] = u
                entropy -= terms[a] + terms[b]
                entropy += terms[a + b]
                merges += 1
            entropies.append(entropy)
        self.entropy = entropy
        self.num_components -= merges
        return entropies


@dataclass(eq=False)
class PostprocessResult:
    """Everything the post-processing stage decided.

    ``edges`` holds the graph's edges as ascending ``(u, v)`` id pairs (an
    ``(m, 2)`` int64 array) and ``weights`` their float64 weights, aligned
    with it.  ``entropy_curve`` holds the swept (τ1 candidate, entropy)
    pairs so the τ-selection ablation can plot the landscape.
    """

    cover: Cover
    tau1: float
    tau2: float
    entropy: float
    edges: np.ndarray = field(
        repr=False, default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    weights: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    entropy_curve: List[Tuple[float, float]] = field(repr=False, default_factory=list)
    num_strong_communities: int = 0
    num_attached_vertices: int = 0


def sweep_tau1(
    edges: WeightedEdges,
    tau2: float,
    step: float = 0.001,
) -> Tuple[float, float, List[Tuple[float, float]]]:
    """Find ``argmax_τ1 entropy`` over the grid ``[τ2, max w]`` (Eq. 1).

    Scans thresholds *descending* while adding the edges of weight >= τ to
    a :class:`DisjointSetEntropy` in the stable descending-weight order;
    only the spanning-forest edges (:attr:`WeightedEdges.forest`) can
    merge, so only they are replayed, each union exactly once.  The
    forest's weights descend, so each grid point admits a prefix of it:
    one ``searchsorted`` finds every prefix, and the curve reads the
    entropy after that many unions.  Returns ``(tau1, best_entropy,
    curve)``; ties prefer the **larger** τ1 (finer communities carry at
    least as much information).
    """
    check_positive(step, "step")
    if not edges.weights.size:
        return tau2, 0.0, []
    forest = edges.forest
    weights = edges.weights[forest]
    max_w = float(weights[0])  # the heaviest edge is always the forest's first
    if max_w < tau2:
        return tau2, 0.0, []

    # Descending grid: max_w, max_w - step, ..., down to tau2 inclusive.
    num_steps = max(0, int(math.floor((max_w - tau2) / step + 1e-9)))
    grid = max_w - np.arange(num_steps + 1) * step
    if grid[-1] > tau2 + 1e-12:
        grid = np.append(grid, tau2)
    # Edges admitted at each grid point: those of weight >= tau - 1e-12.
    admitted = np.searchsorted(-weights, -(grid - 1e-12), side="right")
    replayed = forest[: admitted[-1]]
    dsu = DisjointSetEntropy(range(edges.num_vertices))
    entropies = dsu.replay(edges.u[replayed].tolist(), edges.v[replayed].tolist())

    curve: List[Tuple[float, float]] = []
    best_tau, best_entropy = float(grid[0]), -1.0
    for tau, k in zip(grid.tolist(), admitted.tolist()):
        entropy = entropies[k]
        curve.append((tau, entropy))
        if entropy > best_entropy + 1e-12:
            best_tau, best_entropy = tau, entropy
    return best_tau, best_entropy, curve


def attach_weak(
    edges: WeightedEdges,
    community: np.ndarray,
    tau2: float,
) -> Tuple[Cover, int]:
    """The strong communities with isolated vertices attached through τ2.

    ``community[r]`` is the strong community ``0..k-1`` of row ``r``, or −1
    outside every strong component.  Every vertex outside joins the
    community of each strong neighbour whose edge weight reaches ``tau2``
    (Eq. 2); joining several is what creates overlap.  Returns the cover,
    built straight from the ``(community, vertex)`` pairs, and the number
    of vertices attached.
    """
    reach = edges.weights >= tau2 - 1e-12
    cu, cv = community[edges.u], community[edges.v]
    u_joins = reach & (cu < 0) & (cv >= 0)
    v_joins = reach & (cv < 0) & (cu >= 0)
    attached = np.concatenate((edges.u[u_joins], edges.v[v_joins]))
    strong = np.flatnonzero(community >= 0)
    rows = np.concatenate((strong, attached))
    cids = np.concatenate((community[strong], cv[u_joins], cu[v_joins]))
    # A vertex joining one community over several edges counts once.
    cover = Cover.from_pairs(cids, edges.ids[rows])
    return cover, int(np.count_nonzero(np.bincount(attached)))


def _strong_communities(edges: WeightedEdges, tau1: float) -> np.ndarray:
    """Row -> strong community (``0..k-1`` by smallest member) or −1.

    The components of the τ1-filtered graph are those of the spanning
    forest's prefix of weight >= τ1; components of one vertex are not
    communities.
    """
    n = edges.num_vertices
    forest = edges.forest
    prefix = forest[edges.weights[forest] >= tau1 - 1e-12]
    label = _components(n, edges.u[prefix], edges.v[prefix])
    strong = np.bincount(label, minlength=n) >= 2
    index = np.full(n, -1, dtype=np.int64)
    index[strong] = np.arange(np.count_nonzero(strong))
    return index[label]


def extract_communities(
    graph: Graphlike,
    sequences: Sequences,
    step: float = 0.001,
    tau1: Optional[float] = None,
    tau2: Optional[float] = None,
    *,
    record: Optional[CountsRecord] = None,
    obs=None,
) -> PostprocessResult:
    """Full post-processing pipeline: weights -> τ2 -> τ1 sweep -> cover.

    ``sequences`` is an :class:`~repro.core.labels_array.ArrayLabelState`
    or maps each vertex to its label sequence (see :func:`edge_weights`).
    ``tau1``/``tau2`` may be pinned (for ablations); by default they follow
    Eqs. 1 and 2.  Returns a :class:`PostprocessResult` whose cover contains
    the strong components (size >= 2) with weakly-attached isolated
    vertices merged in.  A graph without edges (or without vertices) gives
    an empty cover, entropy 0.0 and, unless pinned, τ1 = τ2 = 0.0.
    ``record`` carries collision counts over between calls (see
    :class:`CountsRecord`); ``obs`` (a :class:`repro.obs.Obs`) records the
    stages as ``core.postprocess.*`` spans and counters, and ``None``
    keeps the extraction free of :mod:`repro.obs` calls.
    """
    if obs is not None:
        start = time_ns()
    edges = edge_weights(graph, sequences, record)
    if obs is not None:
        obs.trace.record("core.postprocess.edge_weights", start, plane="core")
        start = time_ns()
    resolved_tau2 = weak_threshold(edges) if tau2 is None else tau2
    if obs is not None:
        # Traced, the forest is timed on its own before the sweep reads it.
        forest_start = time_ns()
        edges.forest
        obs.trace.record("core.postprocess.forest", forest_start, plane="core")
    if tau1 is None:
        resolved_tau1, entropy, curve = sweep_tau1(edges, resolved_tau2, step)
    else:
        resolved_tau1, curve = tau1, []
    if obs is not None:
        obs.trace.record("core.postprocess.sweep_tau1", start, plane="core")
        start = time_ns()

    # Strong pass: components of the τ1-filtered graph.
    community = _strong_communities(edges, resolved_tau1)
    sizes = np.bincount(community[community >= 0]).tolist()
    if tau1 is not None:
        entropy = size_entropy_from_sizes(sizes, edges.num_vertices) if sizes else 0.0
    # Weak pass: attach isolated vertices through τ2 (Eq. 2).
    cover, attached = attach_weak(edges, community, resolved_tau2)
    if obs is not None:
        obs.trace.record("core.postprocess.strong_attach", start, plane="core")
        num_edges = len(edges.weights)
        obs.metrics.counter("core.postprocess.edges").inc(num_edges)
        obs.metrics.counter("core.postprocess.recounted_edges").inc(
            num_edges if record is None else record.recounted
        )

    return PostprocessResult(
        cover=cover,
        tau1=resolved_tau1,
        tau2=resolved_tau2,
        entropy=entropy,
        edges=edges.edges,
        weights=edges.weights,
        entropy_curve=curve,
        num_strong_communities=len(sizes),
        num_attached_vertices=attached,
    )
