"""Tests for distributed connected components (hash-to-min)."""

import math

import pytest

from oracles.tuple_plane import HashToMinProgram, run_programs
from repro.distributed.components import (
    _filtered_adjacency,
    distributed_connected_components,
)
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import HashPartitioner


def components_of(graph, **kwargs):
    comps, stats = distributed_connected_components(graph, **kwargs)
    return sorted(sorted(c) for c in comps), stats


class TestCorrectness:
    def test_matches_bfs_on_random_graph(self, sparse_random):
        found, _ = components_of(sparse_random, num_workers=3)
        expected = sorted(sorted(c) for c in sparse_random.connected_components())
        assert found == expected

    def test_single_component(self, cliques_ring):
        found, _ = components_of(cliques_ring, num_workers=4)
        assert found == [sorted(cliques_ring.vertices())]

    def test_isolated_vertices_are_singletons(self):
        g = Graph.from_edges([(0, 1)], vertices=[7, 8])
        found, _ = components_of(g, num_workers=2)
        assert found == [[0, 1], [7], [8]]

    def test_worker_count_does_not_change_result(self, sparse_random):
        one, _ = components_of(sparse_random, num_workers=1)
        five, _ = components_of(sparse_random, num_workers=5)
        assert one == five

    def test_long_path(self):
        n = 64
        g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
        found, stats = components_of(g, num_workers=4)
        assert found == [list(range(n))]
        # Hash-to-min converges much faster than the diameter.
        assert stats.supersteps <= 3 * int(math.log2(n)) + 4


class TestWeightFiltering:
    def test_threshold_splits_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        weights = {(0, 1): 0.9, (1, 2): 0.1, (2, 3): 0.9}
        found, _ = components_of(g, num_workers=2, weights=weights, tau=0.5)
        assert found == [[0, 1], [2, 3]]

    def test_threshold_zero_keeps_everything(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        weights = {(0, 1): 0.2, (1, 2): 0.3}
        found, _ = components_of(g, num_workers=2, weights=weights, tau=0.0)
        assert found == [[0, 1, 2]]

    def test_filtered_vertices_remain_as_singletons(self):
        g = Graph.from_edges([(0, 1)])
        weights = {(0, 1): 0.1}
        found, _ = components_of(g, num_workers=2, weights=weights, tau=0.9)
        assert found == [[0], [1]]


class TestEfficiency:
    def test_rounds_grow_slowly_with_size(self):
        """Rounds stay logarithmic-ish across a 16x size increase."""
        small = Graph.from_edges([(i, i + 1) for i in range(15)])
        large = Graph.from_edges([(i, i + 1) for i in range(255)])
        _, s_small = components_of(small, num_workers=3)
        _, s_large = components_of(large, num_workers=3)
        assert s_large.supersteps <= s_small.supersteps + 8


def _path(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


#: Every graph the tests above run, plus a non-contiguous-id graph:
#: (graph factory, workers, weights, tau).
ORACLE_CASES = {
    "sparse_random": (lambda: erdos_renyi(60, 0.06, seed=17), 3, None, None),
    "sparse_random_1": (lambda: erdos_renyi(60, 0.06, seed=17), 1, None, None),
    "sparse_random_5": (lambda: erdos_renyi(60, 0.06, seed=17), 5, None, None),
    "cliques_ring": (lambda: ring_of_cliques(5, 6), 4, None, None),
    "isolated": (lambda: Graph.from_edges([(0, 1)], vertices=[7, 8]), 2, None, None),
    "long_path": (lambda: _path(64), 4, None, None),
    "path_16": (lambda: _path(16), 3, None, None),
    "path_256": (lambda: _path(256), 3, None, None),
    "threshold_split": (
        lambda: Graph.from_edges([(0, 1), (1, 2), (2, 3)]), 2,
        {(0, 1): 0.9, (1, 2): 0.1, (2, 3): 0.9}, 0.5,
    ),
    "threshold_zero": (
        lambda: Graph.from_edges([(0, 1), (1, 2)]), 2,
        {(0, 1): 0.2, (1, 2): 0.3}, 0.0,
    ),
    "threshold_all": (lambda: Graph.from_edges([(0, 1)]), 2, {(0, 1): 0.1}, 0.9),
    "sparse_ids": (
        lambda: Graph.from_edges(
            [(3 * u + 7, 3 * v + 7) for u, v in ring_of_cliques(4, 5).edges()]
            + [(1000, 1003), (1003, 1009)],
            vertices=[2, 500],
        ),
        3, None, None,
    ),
}


class TestTupleOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_components_in_same_supersteps(self, case):
        """The one-row-per-member protocol finds the tuple plane's
        components in the same number of supersteps."""
        make_graph, workers, weights, tau = ORACLE_CASES[case]
        graph = make_graph()
        found, stats = components_of(
            graph, num_workers=workers, weights=weights, tau=tau
        )
        part = HashPartitioner(workers)
        shards = build_csr_shards(_filtered_adjacency(graph, weights, tau), part)
        representative, oracle_stats = run_programs(HashToMinProgram, shards, part)
        groups = {}
        for v, rep in representative.items():
            groups.setdefault(rep, []).append(v)
        assert found == sorted(sorted(c) for c in groups.values())
        assert stats.supersteps == oracle_stats.supersteps
