"""Tests for the post-processing stage (Section III-B)."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.postprocess as postprocess
from repro.core.postprocess import (
    DisjointSetEntropy,
    edge_weights,
    extract_communities,
    sequence_similarity,
    sweep_tau1,
    weak_threshold,
)
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.generators import ring_of_cliques


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


class TestEdgeWeights:
    def test_weights_for_all_edges(self, two_cliques_bridge):
        sequences = {v: [v % 3] for v in two_cliques_bridge.vertices()}
        weights = edge_weights(two_cliques_bridge, sequences)
        assert set(weights) == set(two_cliques_bridge.edges())

    def test_intra_clique_weights_exceed_bridge(self, two_cliques_bridge):
        propagator = ReferencePropagator(two_cliques_bridge, seed=3)
        propagator.propagate(40)
        weights = edge_weights(two_cliques_bridge, propagator.state.labels)
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
        assert edge_weights(Graph.from_edges((), vertices=[4]), {4: [1]}) == {}


def _oracle_weights(graph, sequences):
    """One ``sequence_similarity`` per edge, in ``graph.edges()`` order."""
    return {
        (u, v): sequence_similarity(sequences[u], sequences[v])
        for u, v in graph.edges()
    }


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
    """The collision-count kernel equals the per-edge ``Counter`` join."""

    @settings(max_examples=200, deadline=None)
    @given(_labelled_graph())
    def test_equals_sequence_similarity_in_edge_order(self, case):
        graph, sequences = case
        got = edge_weights(graph, sequences)
        assert list(got.items()) == list(_oracle_weights(graph, sequences).items())

    @settings(max_examples=60, deadline=None)
    @given(_labelled_graph())
    def test_extraction_bit_identical(self, case):
        graph, sequences = case
        got = extract_communities(graph, sequences, step=0.01)
        with mock.patch.object(postprocess, "edge_weights", _oracle_weights):
            want = extract_communities(graph, sequences, step=0.01)
        assert list(got.weights.items()) == list(want.weights.items())
        assert (got.tau1, got.tau2) == (want.tau1, want.tau2)
        assert got.entropy == want.entropy
        assert got.entropy_curve == want.entropy_curve
        assert got.cover.communities == want.cover.communities
        assert got.num_attached_vertices == want.num_attached_vertices

    def test_rslpa_sequences(self, sparse_random):
        propagator = ReferencePropagator(sparse_random, seed=5)
        propagator.propagate(30)
        labels = propagator.state.labels
        got = edge_weights(sparse_random, labels)
        assert list(got.items()) == list(_oracle_weights(sparse_random, labels).items())


class TestWeakThreshold:
    def test_tau2_is_min_of_max(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        weights = {(0, 1): 0.9, (1, 2): 0.2}
        # max per vertex: 0 -> .9, 1 -> .9, 2 -> .2; min = .2
        assert weak_threshold(g, weights) == pytest.approx(0.2)

    def test_ignores_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)], vertices=[9])
        assert weak_threshold(g, {(0, 1): 0.7}) == pytest.approx(0.7)

    def test_edgeless_graph(self):
        assert weak_threshold(Graph.from_edges((), vertices=[0]), {}) == 0.0


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
        dsu = DisjointSetEntropy(range(10))
        for u, v in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]:
            dsu.union(u, v)
        sizes = [len(c) for c in dsu.components(min_size=2)]
        direct = -sum((s / 10) * math.log(s / 10) for s in sizes)
        assert dsu.entropy == pytest.approx(direct)

    def test_components_min_size_filter(self):
        dsu = DisjointSetEntropy(range(5))
        dsu.union(0, 1)
        assert len(dsu.components(min_size=2)) == 1
        assert len(dsu.components(min_size=1)) == 4


class TestSweepTau1:
    def test_finds_clique_separating_threshold(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(40)
        weights = edge_weights(cliques_ring, propagator.state.labels)
        tau2 = weak_threshold(cliques_ring, weights)
        tau1, entropy, curve = sweep_tau1(cliques_ring, weights, tau2, step=0.005)
        assert entropy > 0
        assert tau2 <= tau1 <= max(weights.values()) + 1e-9
        assert len(curve) > 1

    def test_curve_thresholds_descend(self, cliques_ring):
        propagator = ReferencePropagator(cliques_ring, seed=11)
        propagator.propagate(30)
        weights = edge_weights(cliques_ring, propagator.state.labels)
        _, _, curve = sweep_tau1(cliques_ring, weights, 0.0, step=0.01)
        taus = [tau for tau, _ in curve]
        assert taus == sorted(taus, reverse=True)

    def test_empty_weights(self):
        g = Graph.from_edges((), vertices=[0, 1])
        assert sweep_tau1(g, {}, 0.0) == (0.0, 0.0, [])


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
        result = extract_communities(cliques_ring, propagator.state.labels, step=0.01)
        assert result.num_strong_communities >= 1
        assert set(result.weights) == set(cliques_ring.edges())
        assert result.tau2 <= result.tau1 + 1e-9
