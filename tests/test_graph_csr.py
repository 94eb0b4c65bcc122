"""Tests for repro.graph.csr — the shared CSR compute substrate."""

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, build_csr_arrays
from repro.graph.edits import apply_batch
from repro.graph.generators import erdos_renyi, planted_partition, ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner, slice_csr
from repro.workloads.dynamic import random_edit_batch


def graphs_under_test():
    """A spread of shapes: empty, edgeless, isolated vertices, dense-ish."""
    return [
        Graph(),
        Graph.from_edges((), vertices=range(7)),
        Graph.from_edges([(0, 1)], vertices=[2, 3]),
        ring_of_cliques(4, 5),
        erdos_renyi(60, 0.06, seed=17),     # contains isolated vertices
        planted_partition(4, 10, 0.7, 0.05, seed=3),
    ]


class TestConstruction:
    @pytest.mark.parametrize("graph", graphs_under_test())
    def test_rows_are_sorted_neighbour_lists(self, graph):
        csr = CSRGraph.from_graph(graph)
        for v in graph.vertices():
            assert csr.neighbors(v).tolist() == sorted(graph.neighbors_view(v))

    @pytest.mark.parametrize("graph", graphs_under_test())
    def test_matches_legacy_builder_contract(self, graph):
        """The vectorised builder reproduces the per-vertex fill loop it
        replaced: ``indptr`` is the degree prefix sum and row ``v`` holds
        the ascending neighbours of ``v``."""
        indptr, indices = build_csr_arrays(graph)
        expected_indptr, expected_indices = [0], []
        for v in range(graph.num_vertices):
            expected_indices.extend(sorted(graph.neighbors_view(v)))
            expected_indptr.append(len(expected_indices))
        assert indptr.tolist() == expected_indptr
        assert indices.tolist() == expected_indices

    @pytest.mark.parametrize("graph", graphs_under_test())
    def test_invariants_hold(self, graph):
        CSRGraph.from_graph(graph).check_invariants()

    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            CSRGraph.from_graph(Graph.from_edges([(0, 5)]))

    def test_from_edges_normalises_and_deduplicates(self):
        csr = CSRGraph.from_edges([(1, 0), (0, 1), (2, 1)])
        assert csr.num_edges == 2
        assert csr.neighbors(1).tolist() == [0, 2]

    def test_from_edges_keeps_trailing_isolated_vertices(self):
        csr = CSRGraph.from_edges([(0, 1)], num_vertices=4)
        assert csr.num_vertices == 4
        assert csr.isolated_vertices() == [2, 3]

    def test_counts(self, cliques_ring):
        csr = CSRGraph.from_graph(cliques_ring)
        assert csr.num_vertices == cliques_ring.num_vertices
        assert csr.num_edges == cliques_ring.num_edges
        assert csr.degrees.tolist() == [
            cliques_ring.degree(v) for v in range(cliques_ring.num_vertices)
        ]


class TestRoundTrip:
    @pytest.mark.parametrize("graph", graphs_under_test())
    def test_graph_csr_graph_is_identity(self, graph):
        assert CSRGraph.from_graph(graph).to_graph() == graph

    def test_edges_enumerated_once_in_canonical_form(self, cliques_ring):
        csr = CSRGraph.from_graph(cliques_ring)
        edges = list(csr.edges())
        assert len(edges) == cliques_ring.num_edges
        assert len(set(edges)) == len(edges)
        assert all(u < v for u, v in edges)
        assert set(edges) == set(cliques_ring.edges())


class TestSliceCSR:
    @pytest.mark.parametrize("partitioner_factory", [
        lambda n: HashPartitioner(3),
        lambda n: ContiguousPartitioner(3, n),
        lambda n: HashPartitioner(1),
    ])
    @pytest.mark.parametrize("graph", [
        Graph.from_edges((), vertices=range(6)),
        ring_of_cliques(4, 5),
        erdos_renyi(60, 0.06, seed=17),
    ])
    def test_shards_cover_all_edge_endpoints_exactly_once(
        self, graph, partitioner_factory
    ):
        csr = CSRGraph.from_graph(graph)
        part = partitioner_factory(max(graph.num_vertices, 1))
        shards = slice_csr(csr, part)
        seen_vertices = []
        seen_endpoints = []
        for local_ids, indptr, indices in shards:
            seen_vertices.extend(local_ids.tolist())
            for r, v in enumerate(local_ids.tolist()):
                row = indices[indptr[r] : indptr[r + 1]].tolist()
                assert row == sorted(graph.neighbors_view(v))
                seen_endpoints.extend((v, u) for u in row)
        # Every vertex (isolated ones included) is owned exactly once...
        assert sorted(seen_vertices) == sorted(graph.vertices())
        # ...and every directed edge endpoint appears exactly once overall.
        assert len(seen_endpoints) == 2 * graph.num_edges
        assert len(set(seen_endpoints)) == len(seen_endpoints)

    def test_post_edit_snapshot_shards_cover_new_edges(self):
        graph = erdos_renyi(40, 0.1, seed=1)
        batch = random_edit_batch(graph, size=10, seed=2)
        edited = apply_batch(graph.copy(), batch)
        snapshot = CSRGraph.from_graph(edited)
        shards = slice_csr(snapshot, HashPartitioner(4))
        covered = set()
        for local_ids, indptr, indices in shards:
            for r, v in enumerate(local_ids.tolist()):
                for u in indices[indptr[r] : indptr[r + 1]].tolist():
                    if v < u:
                        covered.add((v, u))
        assert covered == set(edited.edges())


class TestEngineIntegration:
    def test_fast_propagator_accepts_csr_snapshot(self, cliques_ring):
        from repro.core.fast import FastPropagator

        via_graph = FastPropagator(cliques_ring, seed=4)
        via_graph.propagate(20)
        via_csr = FastPropagator(CSRGraph.from_graph(cliques_ring), seed=4)
        via_csr.propagate(20)
        assert np.array_equal(via_graph.labels, via_csr.labels)

    def test_fast_slpa_accepts_csr_snapshot(self, cliques_ring):
        from repro.baselines.slpa_fast import FastSLPA

        via_graph = FastSLPA(cliques_ring, seed=4, iterations=12)
        via_graph.propagate()
        via_csr = FastSLPA(CSRGraph.from_graph(cliques_ring), seed=4, iterations=12)
        via_csr.propagate()
        assert np.array_equal(via_graph.memory, via_csr.memory)
