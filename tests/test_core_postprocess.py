"""Tests for the post-processing stage (Section III-B)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.postprocess as postprocess
from oracles import postprocess as oracle
from repro.core.detector import RSLPADetector
from repro.core.fast import FastPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import (
    CountsRecord,
    DisjointSetEntropy,
    WeightedEdges,
    edge_weights,
    extract_communities,
    sequence_similarity,
    sweep_tau1,
    weak_threshold,
)
from repro.core.randomness import NO_SOURCE
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.service import CommunityService
from repro.workloads.dynamic import EditStream
from repro.workloads.lfr import LFRParams, generate_lfr
from repro.workloads.webgraph import WebGraphParams, generate_webgraph


class TestSequenceSimilarity:
    def test_identical_uniform_sequences(self):
        assert sequence_similarity([1, 1], [1, 1]) == 1.0

    def test_disjoint_sequences(self):
        assert sequence_similarity([1, 2], [3, 4]) == 0.0

    def test_known_value(self):
        # P(match) = (2*1 + 1*2) / 9 = 4/9
        assert sequence_similarity([1, 1, 2], [1, 2, 2]) == pytest.approx(4 / 9)

    def test_symmetry(self):
        a, b = [1, 2, 2, 3], [2, 3, 3]
        assert sequence_similarity(a, b) == sequence_similarity(b, a)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sequence_similarity([], [1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=8),
        st.lists(st.integers(0, 5), min_size=1, max_size=8),
    )
    def test_property_is_probability(self, a, b):
        assert 0.0 <= sequence_similarity(a, b) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_property_self_similarity_maximal(self, a):
        """P(l_a = l_a') >= P(l_a = l_b) when b is a permutation-free other."""
        assert sequence_similarity(a, a) >= 1.0 / len(a) - 1e-12


def _items(weighted):
    """``[((u, v), w), ...]`` of a :class:`WeightedEdges`, in its order."""
    return list(zip(map(tuple, weighted.edges.tolist()), weighted.weights.tolist()))


class TestEdgeWeights:
    def test_weights_for_all_edges(self, two_cliques_bridge):
        sequences = {v: [v % 3] for v in two_cliques_bridge.vertices()}
        weights = edge_weights(two_cliques_bridge, sequences)
        assert [e for e, _w in _items(weights)] == sorted(two_cliques_bridge.edges())

    def test_intra_clique_weights_exceed_bridge(self, two_cliques_bridge):
        propagator = ReferencePropagator(two_cliques_bridge, seed=3)
        propagator.propagate(40)
        weights = dict(_items(edge_weights(two_cliques_bridge, propagator.state.labels)))
        intra = [w for (u, v), w in weights.items() if (u < 4) == (v < 4)]
        bridge = weights[(0, 4)]
        assert sum(intra) / len(intra) > bridge

    def test_rejects_empty_sequence(self):
        g = Graph.from_edges([(0, 1)], vertices=[7])
        with pytest.raises(ValueError, match="vertex 1"):
            edge_weights(g, {0: [3], 1: [], 7: [3]})
        with pytest.raises(ValueError, match="vertex 7"):
            edge_weights(g, {0: [3], 1: [3], 7: []})

    def test_edgeless_graph(self):
        weighted = edge_weights(Graph.from_edges((), vertices=[4]), {4: [1]})
        assert _items(weighted) == []
        assert weighted.edges.shape == (0, 2)

    def test_array_state_equals_its_sequences(self, sparse_random):
        fast = FastPropagator(sparse_random, seed=5)
        fast.propagate(30)
        state = fast.to_array_state()
        got = edge_weights(sparse_random, state)
        want = edge_weights(sparse_random, state.sequences_dict())
        assert _items(got) == _items(want)

    def test_labels_naming_no_column(self):
        """A hand-built state whose labels name ids without a column (8,
        -5, 10**12) is coded by ``np.unique`` instead, and its record keeps
        nothing to carry over."""
        sequences = {0: [1, 2, 8], 1: [1, 2, 8], 2: [8, 8, -5],
                     5: [10**12, 5, 5], 7: [7, 7, 10**12]}
        ids = sorted(sequences)
        labels = np.array([sequences[v] for v in ids]).T
        state = ArrayLabelState.from_matrices(
            labels, np.full_like(labels, NO_SOURCE), np.zeros_like(labels), ids=ids
        )
        graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 5), (5, 7)])
        record = CountsRecord()
        got = edge_weights(graph, state, record)
        assert _items(got) == list(_oracle_weights(graph, sequences).items())
        assert _items(got) == _items(edge_weights(graph, sequences))
        assert record.recounted == graph.num_edges and record.ids is None


def _oracle_weights(graph, sequences):
    """One ``sequence_similarity`` per edge, in ascending ``(u, v)`` order."""
    return {
        (u, v): sequence_similarity(sequences[u], sequences[v])
        for u, v in sorted(graph.edges())
    }


def _weighted(graph, weights):
    """Hand-made ``{(u, v): w}`` weights of ``graph`` as :class:`WeightedEdges`."""
    ids = np.array(sorted(graph.vertices()), dtype=np.int64)
    edges = sorted(weights)
    rows = np.searchsorted(ids, np.array(edges, dtype=np.int64).reshape(-1, 2))
    return WeightedEdges(
        ids, rows[:, 0], rows[:, 1], np.array([weights[e] for e in edges], dtype=float)
    )


def _canonical(graph):
    """``graph`` rebuilt with vertices and edges inserted in ascending order."""
    return Graph.from_edges(sorted(graph.edges()), vertices=sorted(graph.vertices()))


@st.composite
def _labelled_graph(draw):
    """A random graph on non-contiguous ids (some isolated) with label
    sequences of unequal lengths over non-contiguous label values."""
    ids = draw(st.lists(st.integers(-1000, 10**6), min_size=1, max_size=25,
                        unique=True))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=60)) if u != v]
    graph = Graph.from_edges(edges, vertices=ids)
    pool = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6,
                         unique=True))
    label = st.one_of(st.sampled_from(pool), st.integers(-(2**62), 2**62))
    sequences = {
        v: draw(st.lists(label, min_size=1, max_size=12)) for v in ids
    }
    return graph, sequences


class TestEdgeWeightsOracle:
    """The collision-count kernel equals the per-edge ``Counter`` join, and
    the array pipeline equals the retired dict pipeline
    (``tests/oracles/postprocess.py``) bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_labelled_graph())
    def test_equals_sequence_similarity_in_edge_order(self, case):
        graph, sequences = case
        got = edge_weights(graph, sequences)
        assert _items(got) == list(_oracle_weights(graph, sequences).items())

    @settings(max_examples=60, deadline=None)
    @given(_labelled_graph())
    def test_extraction_bit_identical(self, case):
        graph, sequences = case
        got = extract_communities(graph, sequences, step=0.01)
        want = oracle.extract_communities(graph, sequences, step=0.01)
        got_fields, want_fields = oracle.comparable(got), oracle.comparable(want)
        assert got_fields[:2] == want_fields[:2]  # edges, weights
        assert (got.tau1, got.tau2) == (want.tau1, want.tau2)
        assert got.entropy == want.entropy
        assert got.entropy_curve == want.entropy_curve
        assert got.cover.communities == want.cover.communities
        assert got.num_attached_vertices == want.num_attached_vertices
        assert got_fields == want_fields

    @settings(max_examples=60, deadline=None)
    @given(
        _labelled_graph(),
        st.one_of(st.none(), st.floats(0.0, 1.0)),
        st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_pinned_extraction_bit_identical(self, case, tau1, tau2):
        """With τ1 pinned the entropy is a sum over the strong components:
        the library adds them in ascending order of their smallest id, the
        oracle in ``graph.vertices()`` order, so the oracle gets the graph
        with its vertices inserted in ascending order."""
        graph, sequences = case
        got = extract_communities(graph, sequences, step=0.01, tau1=tau1, tau2=tau2)
        want = oracle.extract_communities(
            _canonical(graph), sequences, step=0.01, tau1=tau1, tau2=tau2
        )
        assert oracle.comparable(got) == oracle.comparable(want)

    @settings(max_examples=100, deadline=None)
    @given(_labelled_graph(), st.data())
    def test_table_rows_in_any_order(self, case, data):
        """The kernel takes its table rows in any order: swapped, shuffled
        and repeated ``(a, b)`` pairs, self pairs included, each count
        ``sequence_similarity``'s integer numerator."""
        _graph, sequences = case
        ids = np.array(sorted(sequences), dtype=np.int64)
        codes, num_labels, _lengths, _ = postprocess._label_codes(sequences, ids)
        row = st.integers(0, len(ids) - 1)
        pairs = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=40))
        pairs = data.draw(st.permutations(pairs + [(b, a) for a, b in pairs] + pairs))
        a, b = np.array(pairs, dtype=np.int64).T
        hits = postprocess._collision_counts(codes, num_labels, a, b)
        for (i, j), got in zip(pairs, hits.tolist()):
            seq_i, seq_j = sequences[ids[i]], sequences[ids[j]]
            size = len(seq_i) * len(seq_j)
            assert got == round(sequence_similarity(seq_i, seq_j) * size)
            assert got / size == sequence_similarity(seq_i, seq_j)

    def test_rslpa_sequences(self, sparse_random):
        propagator = ReferencePropagator(sparse_random, seed=5)
        propagator.propagate(30)
        labels = propagator.state.labels
        got = edge_weights(sparse_random, labels)
        assert _items(got) == list(_oracle_weights(sparse_random, labels).items())

    @pytest.mark.parametrize(
        "n, p, labels, lengths",
        [(1200, 0.008, 1200, (10, 11)), (2000, 0.01, 4, (100, 151))],
        ids=["many_labels_row_chunks", "few_labels_edge_chunks"],
    )
    def test_chunked_tables(self, n, p, labels, lengths):
        """Graphs big enough that the count table is built in many chunks,
        bounded by rows (many distinct labels) or by edges (long rows of few
        labels, unequal lengths), equal the oracle's weights."""
        graph = erdos_renyi(n, p, seed=3)
        rng = np.random.default_rng(4)
        sequences = {
            v: rng.integers(0, labels, size=rng.integers(*lengths)).tolist()
            for v in graph.vertices()
        }
        got = edge_weights(graph, sequences)
        assert _items(got) == list(oracle.edge_weights(graph, sequences).items())
        # The same counts with each edge's table row drawn at random and
        # the edges shuffled, so the chunks hold rows in no order.
        codes, num_labels, lengths, _ = postprocess._label_codes(sequences, got.ids)
        flip = rng.random(got.u.size) < 0.5
        order = rng.permutation(got.u.size)
        table = np.where(flip, got.v, got.u)[order]
        other = np.where(flip, got.u, got.v)[order]
        shuffled = postprocess._collision_counts(codes, num_labels, table, other)
        size = lengths[got.u] * lengths[got.v]
        assert (shuffled / size[order]).tolist() == got.weights[order].tolist()


def _webgraph(n, seed):
    return generate_webgraph(WebGraphParams(n=n, avg_out_degree=6.0), seed=seed).graph


def _lfr(n, seed):
    return generate_lfr(
        LFRParams(n=n, avg_degree=10, max_degree=24, mu=0.2,
                  overlap_fraction=0.1, overlap_membership=2),
        seed=seed,
    ).graph


def _sparse_ids(graph):
    """``graph`` under the id map ``v -> 3v - 500`` (gaps, negative ids)."""
    return Graph.from_edges(
        ((3 * u - 500, 3 * v - 500) for u, v in graph.edges()),
        vertices=(3 * v - 500 for v in graph.vertices()),
    )


class TestRSLPAOracle:
    """rSLPA states on webgraph, LFR and sparse-id graphs: the array
    pipeline, fed the live :class:`ArrayLabelState`, equals the oracle fed
    the state's sequences, with τ1/τ2 free and pinned."""

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: _webgraph(400, 1),
            lambda: _webgraph(300, 2),
            lambda: _lfr(300, 3),
            lambda: _sparse_ids(_webgraph(250, 4)),
            lambda: _sparse_ids(_lfr(250, 5)),
        ],
        ids=["webgraph_400", "webgraph_300", "lfr_300", "sparse_webgraph", "sparse_lfr"],
    )
    def test_bit_identical(self, make_graph):
        graph = make_graph()
        fast = FastPropagator(graph, seed=9)
        fast.propagate(25)
        state = fast.to_array_state()
        sequences = state.sequences_dict()
        for tau1, tau2 in ((None, None), (0.05, None), (None, 0.2), (0.03, 0.01)):
            got = extract_communities(graph, state, step=0.002, tau1=tau1, tau2=tau2)
            want = oracle.extract_communities(
                _canonical(graph), sequences, step=0.002, tau1=tau1, tau2=tau2
            )
            assert oracle.comparable(got) == oracle.comparable(want), (tau1, tau2)


@st.composite
def _two_insertion_orders(draw):
    """The same graph and label sequences, built once with sorted vertices
    and edges and once with the vertices reversed and the edges shuffled
    (each drawn either way round): a random labelled graph or a small
    webgraph with rSLPA sequences."""
    if draw(st.booleans()):
        graph, sequences = draw(_labelled_graph())
    else:
        graph = _webgraph(draw(st.integers(60, 120)), draw(st.integers(0, 10**6)))
        fast = FastPropagator(graph, seed=draw(st.integers(0, 2**31 - 1)))
        fast.propagate(20)
        sequences = fast.to_array_state().sequences_dict()
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    shuffled = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    first = Graph.from_edges(edges, vertices=vertices)
    second = Graph.from_edges(
        [(v, u) if flip else (u, v) for (u, v), flip in zip(shuffled, flips)],
        vertices=vertices[::-1],
    )
    return first, second, sequences


class TestContentOnly:
    @settings(max_examples=40, deadline=None)
    @given(_two_insertion_orders())
    def test_insertion_order_does_not_matter(self, case):
        """The whole result depends only on the graph's content."""
        first, second, sequences = case
        a = extract_communities(first, sequences, step=0.005)
        b = extract_communities(second, sequences, step=0.005)
        assert a.entropy_curve == b.entropy_curve
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.weights, b.weights)
        assert (a.tau1, a.tau2, a.entropy) == (b.tau1, b.tau2, b.entropy)
        assert a.cover.communities == b.cover.communities
        assert (a.num_strong_communities, a.num_attached_vertices) == (
            b.num_strong_communities, b.num_attached_vertices
        )


class TestWeakThreshold:
    def test_tau2_is_min_of_max(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        weights = {(0, 1): 0.9, (1, 2): 0.2}
        # max per vertex: 0 -> .9, 1 -> .9, 2 -> .2; min = .2
        got = weak_threshold(_weighted(g, weights))
        assert got == pytest.approx(0.2)
        assert got == oracle.weak_threshold(g, weights)

    def test_ignores_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], vertices=[9])
        got = weak_threshold(_weighted(g, {(0, 1): 0.7}))
        assert got == pytest.approx(0.7)
        assert got == oracle.weak_threshold(g, {(0, 1): 0.7})

    def test_edgeless_graph(self):
        g = Graph.from_edges((), vertices=[0])
        assert weak_threshold(_weighted(g, {})) == 0.0
        assert oracle.weak_threshold(g, {}) == 0.0


class TestDisjointSetEntropy:
    def test_singletons_have_zero_entropy(self):
        dsu = DisjointSetEntropy(range(6))
        assert dsu.entropy == 0.0

    def test_entropy_updates_on_union(self):
        dsu = DisjointSetEntropy(range(4))
        dsu.union(0, 1)
        expected = -(2 / 4) * math.log(2 / 4)
        assert dsu.entropy == pytest.approx(expected)

    def test_union_idempotent(self):
        dsu = DisjointSetEntropy(range(4))
        assert dsu.union(0, 1) is True
        assert dsu.union(1, 0) is False
        assert dsu.num_components == 3

    def test_matches_direct_computation(self):
        dsu, ref = DisjointSetEntropy(range(10)), oracle.DisjointSetEntropy(range(10))
        for u, v in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]:
            dsu.union(u, v)
            ref.union(u, v)
        sizes = [len(c) for c in ref.components(min_size=2)]
        direct = -sum((s / 10) * math.log(s / 10) for s in sizes)
        assert dsu.entropy == pytest.approx(direct)
        assert dsu.entropy == ref.entropy

    def test_replay_equals_oracle_unions(self):
        """``replay`` gives the oracle's entropy after every union bit for
        bit; the sizes alternate so the term table is rebuilt each time."""
        rng = np.random.default_rng(8)
        for n in (40, 97, 40, 97, 2):
            pairs = rng.integers(0, n, size=(3 * n, 2)).tolist()
            dsu, ref = DisjointSetEntropy(range(n)), oracle.DisjointSetEntropy(range(n))
            half = len(pairs) // 2
            got = dsu.replay([u for u, _ in pairs[:half]], [v for _, v in pairs[:half]])
            got += dsu.replay([u for u, _ in pairs[half:]],
                              [v for _, v in pairs[half:]])[1:]
            want = [ref.entropy]
            for u, v in pairs:
                ref.union(u, v)
                want.append(ref.entropy)
            assert got == want
            assert dsu.num_components == ref.num_components

    def test_rows_must_be_a_range(self):
        with pytest.raises(ValueError, match="range"):
            DisjointSetEntropy([0, 1, 2])
        with pytest.raises(ValueError, match="range"):
            DisjointSetEntropy(range(1, 4))

    def test_components_min_size_filter(self):
        """The oracle's DSU keeps ``components`` for its strong pass."""
        dsu = oracle.DisjointSetEntropy(range(5))
        dsu.union(0, 1)
        assert len(dsu.components(min_size=2)) == 1
        assert len(dsu.components(min_size=1)) == 4


class TestSweepTau1:
    def test_finds_clique_separating_threshold(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(40)
        labels = propagator.state.labels
        weights = edge_weights(cliques_ring, labels)
        tau2 = weak_threshold(weights)
        tau1, entropy, curve = sweep_tau1(weights, tau2, step=0.005)
        assert entropy > 0
        assert tau2 <= tau1 <= weights.weights.max() + 1e-9
        assert len(curve) > 1
        want = oracle.edge_weights(cliques_ring, labels)
        assert tau2 == oracle.weak_threshold(cliques_ring, want)
        assert (tau1, entropy, curve) == oracle.sweep_tau1(
            cliques_ring, want, tau2, step=0.005
        )

    def test_curve_thresholds_descend(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(30)
        labels = propagator.state.labels
        weights = edge_weights(cliques_ring, labels)
        _, _, curve = sweep_tau1(weights, 0.0, step=0.01)
        taus = [tau for tau, _ in curve]
        assert taus == sorted(taus, reverse=True)
        want = oracle.edge_weights(cliques_ring, labels)
        assert curve == oracle.sweep_tau1(cliques_ring, want, 0.0, step=0.01)[2]

    def test_empty_weights(self):
        g = Graph.from_edges((), vertices=[0, 1])
        assert sweep_tau1(_weighted(g, {}), 0.0) == (0.0, 0.0, [])
        assert oracle.sweep_tau1(g, {}, 0.0) == (0.0, 0.0, [])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 300),
        st.lists(st.integers(0, 300), max_size=80),
    )
    def test_integer_order_is_the_weight_order(self, length, draws):
        """With one sequence length the radix order of the counts is the
        stable descending order of the float weights, ties included."""
        hits = np.array([h % (length * length + 1) for h in draws], dtype=np.int64)
        n = len(hits) + 1
        edges = WeightedEdges(
            np.arange(n), np.zeros(len(hits), dtype=np.int64),
            np.arange(1, n), hits / (length * length), hits,
        )
        want = np.argsort(-edges.weights, kind="stable")
        assert edges._descending_order().tolist() == want.tolist()

    def test_replays_only_the_spanning_forest(self, cliques_ring):
        """The forest's unions, in its order, are exactly the unions that
        succeed when every edge is added in the stable descending order."""
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(30)
        weights = edge_weights(cliques_ring, propagator.state.labels)
        dsu = DisjointSetEntropy(range(weights.num_vertices))
        order = np.argsort(-weights.weights, kind="stable")
        kept = [e for e in order.tolist()
                if dsu.union(int(weights.u[e]), int(weights.v[e]))]
        assert weights.forest.tolist() == kept
        assert len(kept) == weights.num_vertices - 1  # the ring is connected


class TestExtractCommunities:
    def test_ring_of_cliques_recovered(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(60)
        result = extract_communities(
            cliques_ring, propagator.state.labels, step=0.005
        )
        found = sorted(sorted(c) for c in result.cover)
        expected = sorted(
            sorted(range(c * 6, (c + 1) * 6)) for c in range(5)
        )
        assert found == expected

    def test_pinned_thresholds_respected(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(30)
        result = extract_communities(
            cliques_ring, propagator.state.labels, tau1=0.99, tau2=0.99
        )
        assert result.tau1 == 0.99
        # Near-impossible threshold: hardly any strong communities.
        assert result.num_strong_communities <= 2

    def test_overlap_via_weak_attachment(self):
        """A vertex weakly tied to two cliques joins both (overlap source)."""
        edges = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j))
        hub = 10
        edges += [(hub, 0), (hub, 5)]  # one link into each clique
        g = Graph.from_edges(edges)
        propagator = ReferencePropagator(g, seed=21)
        propagator.propagate(80)
        result = extract_communities(g, propagator.state.labels, step=0.005)
        memberships = [c for c in result.cover if hub in c]
        # The hub either joins both cliques (overlap) or at least one.
        assert 1 <= len(memberships) <= 2
        assert result.num_attached_vertices >= 1

    def test_isolated_vertex_stays_out(self):
        g = ring_of_cliques(2, 4)
        g.add_vertex(100)
        propagator = ReferencePropagator(g, seed=2)
        propagator.propagate(40)
        result = extract_communities(g, propagator.state.labels, step=0.01)
        assert all(100 not in c for c in result.cover)

    def test_result_metadata_consistent(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(40)
        labels = propagator.state.labels
        result = extract_communities(cliques_ring, labels, step=0.01)
        assert result.num_strong_communities >= 1
        assert [tuple(e) for e in result.edges.tolist()] == sorted(cliques_ring.edges())
        assert len(result.weights) == len(result.edges)
        assert result.tau2 <= result.tau1 + 1e-9
        assert oracle.comparable(result) == oracle.comparable(
            oracle.extract_communities(cliques_ring, labels, step=0.01)
        )

    def test_empty_graph(self):
        """No vertices: an empty cover, as for a graph without edges."""
        for tau1 in (None, 0.5):
            result = extract_communities(Graph(), {}, tau1=tau1)
            assert len(result.cover) == 0
            assert (result.tau2, result.entropy, result.entropy_curve) == (0.0, 0.0, [])
            assert result.tau1 == (0.0 if tau1 is None else tau1)
            assert result.edges.shape == (0, 2) and result.weights.size == 0


def _spy_collision_counts(monkeypatch):
    """Record the number of edges each ``_collision_counts`` call counts."""
    counted = []
    real = postprocess._collision_counts

    def spy(codes, num_labels, u, v):
        counted.append(u.size)
        return real(codes, num_labels, u, v)

    monkeypatch.setattr(postprocess, "_collision_counts", spy)
    return counted


#: Vertex id of dense vertex ``v`` per id layout (sparse never hits -1).
LAYOUTS = {"dense": lambda v: v, "sparse": lambda v: 5 * v - 37}
STREAM_N = 16

_stream_edge = st.tuples(
    st.integers(0, STREAM_N - 1), st.integers(0, STREAM_N - 1)
).filter(lambda e: e[0] < e[1])


@st.composite
def _edit_streams(draw):
    """A start graph, random edit batches, and where in the stream a vertex
    is removed (then re-inserted a batch later) and two vertices are born,
    the second below the largest id."""
    initial = draw(st.sets(_stream_edge, min_size=8, max_size=40))
    edits = draw(st.lists(
        st.tuples(st.sets(_stream_edge, max_size=5), st.sets(_stream_edge, max_size=5)),
        min_size=3, max_size=8,
    ))
    victim = draw(st.integers(0, STREAM_N - 1))
    removal_at = draw(st.integers(0, len(edits)))
    birth_at = draw(st.integers(0, len(edits)))
    return initial, edits, victim, removal_at, birth_at


def _stream_batches(detector, plan, vid):
    """Yield after each update of ``detector`` along ``plan``."""
    _initial, edits, victim, removal_at, birth_at = plan
    for i, (inserts, deletes) in enumerate(edits + [(set(), set())]):
        if i == removal_at and detector.graph_caps().num_vertices > 4:
            anchors = sorted(detector.graph.neighbors_view(vid(victim)))[:2]
            detector.remove_vertex(vid(victim))
            yield
            anchors = anchors or sorted(detector.graph.vertices())[:2]
            detector.update(EditBatch.build(
                insertions=[(vid(victim), a) for a in anchors]
            ))
            yield
        if i == birth_at:
            top = max(detector.graph.vertices())
            anchors = sorted(detector.graph.vertices())[:2]
            for new in (top + 5, top + 2):  # the second below the largest
                detector.update(EditBatch.build(insertions=[(new, a) for a in anchors]))
                yield
        graph = detector.graph
        ins = {(vid(u), vid(v)) for u, v in inserts}
        ins = {e for e in ins if e[0] in graph and e[1] in graph and not graph.has_edge(*e)}
        dels = {(vid(u), vid(v)) for u, v in deletes}
        dels = {e for e in dels if graph.has_edge(*e) and e not in ins}
        if ins or dels:
            detector.update(EditBatch(insertions=frozenset(ins), deletions=frozenset(dels)))
            yield


class TestCarriedCounts:
    """A fast detector carries its collision counts over from one extraction
    to the next (:class:`CountsRecord`): only the edges whose ends' labels
    changed since are counted again, and the result stays bit-identical."""

    def test_one_edit_recounts_under_half_the_edges(self, monkeypatch):
        """Guard: a K=1 service's refresh after a 1-edit batch counts fewer
        than half of the edges afresh, and still equals a fresh extraction."""
        graph = generate_webgraph(WebGraphParams(n=400, avg_out_degree=6.0), seed=1).graph
        service = CommunityService(graph, seed=3, iterations=30, staleness_batches=1)
        service.start()
        counted = _spy_collision_counts(monkeypatch)
        for batch in EditStream(graph, batch_size=1, seed=2).take(3):
            service.apply(batch)
            service.communities_of(0)  # K=1: the query refreshes
            state = service.detector.array_state
            num_edges = service.detector.graph_caps().num_edges
            assert counted and counted[-1] < num_edges / 2
            fresh = extract_communities(service.graph, state)
            assert oracle.comparable(service.detector.postprocess()) == (
                oracle.comparable(fresh)
            )
        service.close()

    def test_table_rows_are_the_changed_rows(self, monkeypatch):
        """A K=1 refresh after a 1-edit batch builds count tables only for
        the rows whose codes changed and the ends of inserted edges."""
        graph = generate_webgraph(WebGraphParams(n=400, avg_out_degree=6.0), seed=1).graph
        service = CommunityService(graph, seed=3, iterations=30, staleness_batches=1)
        service.start()
        tables = []
        real = postprocess._collision_counts

        def spy(codes, num_labels, u, v):
            tables.append(set(u.tolist()))
            return real(codes, num_labels, u, v)

        monkeypatch.setattr(postprocess, "_collision_counts", spy)
        record, counted = service.detector._counts_record, 0
        for batch in EditStream(graph, batch_size=1, seed=2).take(6):
            old_ids, old_codes = record.ids.copy(), record.codes.copy()
            tables.clear()
            service.apply(batch)
            service.communities_of(0)  # K=1: the query refreshes
            assert np.array_equal(record.ids, old_ids)
            changed = set(np.flatnonzero((record.codes != old_codes).any(axis=1)).tolist())
            inserted = set(np.searchsorted(
                record.ids, np.array(sorted(batch.insertions), dtype=np.int64)
            ).ravel().tolist())
            assert len(tables) <= 1
            assert all(rows <= changed | inserted for rows in tables)
            counted += len(tables)
        assert counted
        service.close()

    def test_births_and_removals_keep_the_carried_counts(self, monkeypatch):
        """Guard: a vertex birth above the largest id, a removal and a
        rebirth below the largest id each change the row ids, yet the next
        extraction counts fewer than half of the edges afresh and equals a
        fresh one."""
        graph = generate_webgraph(WebGraphParams(n=400, avg_out_degree=6.0), seed=1).graph
        detector = RSLPADetector(graph, seed=3, iterations=20).fit()
        detector.postprocess()
        counted = _spy_collision_counts(monkeypatch)
        top = max(detector.graph.vertices())
        for step in (
            lambda: detector.update(EditBatch.build(insertions=[(top + 1, 0), (top + 1, 1)])),
            lambda: detector.remove_vertex(5),
            lambda: detector.update(EditBatch.build(insertions=[(5, 2), (5, 3)])),
        ):
            counted.clear()
            step()
            got = detector.postprocess()
            assert 0 < sum(counted) < detector.graph_caps().num_edges / 2
            fresh = extract_communities(detector.graph, detector.array_state)
            assert oracle.comparable(got) == oracle.comparable(fresh)

    def test_refit_drops_the_record(self, monkeypatch):
        detector = RSLPADetector(ring_of_cliques(6, 5), seed=4, iterations=20).fit()
        detector.postprocess()
        counted = _spy_collision_counts(monkeypatch)
        detector.fit()
        detector.postprocess()
        assert counted == [detector.graph_caps().num_edges]

    @settings(max_examples=20, deadline=None)
    @given(_edit_streams(), st.sampled_from([1, 3]), st.integers(0, 3))
    def test_carried_counts_equal_fresh_and_oracle(self, plan, staleness, seed):
        """Random edit streams with a vertex removed and re-inserted and a
        birth below the largest id, extracted every K batches, on dense and
        sparse ids: each extraction with the carried-over counts equals a
        fresh one without them and the oracle's."""
        for layout, vid in sorted(LAYOUTS.items()):
            graph = Graph.from_edges(
                ((vid(u), vid(v)) for u, v in plan[0]),
                vertices=map(vid, range(STREAM_N)),
            )
            detector = RSLPADetector(graph, seed=seed, iterations=12).fit()
            detector.postprocess()
            for applied, _ in enumerate(_stream_batches(detector, plan, vid), start=1):
                if applied % staleness:
                    continue
                got = detector.postprocess()
                state = detector.array_state
                live = detector.graph
                fresh = extract_communities(live, state)
                want = oracle.extract_communities(
                    _canonical(live), state.sequences_dict()
                )
                assert oracle.comparable(got) == oracle.comparable(fresh), layout
                assert oracle.comparable(got) == oracle.comparable(want), layout
