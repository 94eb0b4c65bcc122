"""Tests for the high-level distributed wrappers (cluster.py)."""

import numpy as np
import pytest

from repro.core.detector import RSLPADetector
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import extract_communities
from repro.core.randomness import NO_SOURCE
from repro.core.rslpa import ReferencePropagator
from repro.distributed import cluster
from repro.distributed.cluster import (
    run_distributed_postprocess,
    run_distributed_rslpa,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import ring_of_cliques
from repro.graph.partition import ContiguousPartitioner


class TestDistributedPostprocess:
    def test_matches_sequential_extraction(self, cliques_ring):
        """Distributed CC + thresholds == sequential extract_communities."""
        state, _ = run_distributed_rslpa(
            cliques_ring, seed=11, iterations=60, num_workers=3
        )
        dist_cover, stats = run_distributed_postprocess(
            cliques_ring, state, num_workers=3, step=0.005
        )
        seq_result = extract_communities(
            cliques_ring, state.sequences_dict(), step=0.005
        )
        assert dist_cover == seq_result.cover
        assert stats.supersteps >= 1

    def test_recovers_ring_of_cliques(self, cliques_ring):
        state, _ = run_distributed_rslpa(
            cliques_ring, seed=11, iterations=60, num_workers=4
        )
        cover, _ = run_distributed_postprocess(
            cliques_ring, state, num_workers=4, step=0.005
        )
        found = sorted(sorted(c) for c in cover)
        assert found == [sorted(range(c * 6, (c + 1) * 6)) for c in range(5)]

    def test_worker_count_invariant(self, cliques_ring):
        state, _ = run_distributed_rslpa(
            cliques_ring, seed=2, iterations=40, num_workers=2
        )
        one, _ = run_distributed_postprocess(cliques_ring, state, num_workers=1)
        five, _ = run_distributed_postprocess(cliques_ring, state, num_workers=5)
        assert one == five

    def test_isolated_vertices_excluded(self):
        g = ring_of_cliques(2, 4)
        g.add_vertex(99)
        state, _ = run_distributed_rslpa(g, seed=1, iterations=30, num_workers=2)
        cover, _ = run_distributed_postprocess(g, state, num_workers=2)
        assert all(99 not in c for c in cover)



def _state(sequences):
    """A hand-made :class:`ArrayLabelState` holding ``sequences`` (equal
    lengths, no provenance)."""
    ids = sorted(sequences)
    labels = np.array([sequences[v] for v in ids]).T
    return ArrayLabelState.from_matrices(
        labels, np.full_like(labels, NO_SOURCE), np.zeros_like(labels), ids=ids
    )


#: (edges, label sequences, components Hash-to-Min finds, cover).
FILTER_CASES = {
    # Weights 1, 0, 1: τ1 = 1 drops the middle edge.
    "split": (
        [(0, 1), (1, 2), (2, 3)], {0: [1], 1: [1], 2: [2], 3: [2]},
        [[0, 1], [2, 3]], [[0, 1], [2, 3]],
    ),
    # Weights 1, 1, 1: τ1 = 1 keeps the edges of weight exactly τ1.
    "keeps_ties": (
        [(0, 1), (1, 2), (2, 3)], {v: [1] for v in range(4)},
        [[0, 1, 2, 3]], [[0, 1, 2, 3]],
    ),
    # Weights 1, 0.5: τ1 = 0.5, the lightest weight, keeps every edge.
    "keeps_everything": (
        [(0, 1), (2, 3)], {0: [1, 1], 1: [1, 1], 2: [2, 3], 3: [2, 3]},
        [[0, 1], [2, 3]], [[0, 1], [2, 3]],
    ),
    # Two paths of weight 0.5 joined by a 0.25 bridge, and a 0.25 pair:
    # τ1 = 0.5 drops the bridge and the pair, whose ends stay singletons
    # and, being each other's only neighbours, are attached nowhere.
    "filtered_singletons": (
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)],
        {0: [1, 2], 1: [1, 2], 2: [1, 2], 3: [1, 3], 4: [1, 3], 5: [1, 3],
         6: [6, 7], 7: [6, 8]},
        [[0, 1, 2], [3, 4, 5], [6], [7]], [[0, 1, 2], [3, 4, 5]],
    ),
}


class TestStrongFilter:
    """Hash-to-Min runs on the τ1-filtered graph: every vertex, and only
    the edges of weight >= τ1."""

    @pytest.mark.parametrize("case", sorted(FILTER_CASES))
    def test_components_and_cover(self, case, monkeypatch):
        edges, sequences, want_components, want_cover = FILTER_CASES[case]
        graph = Graph.from_edges(edges)
        found = []

        def spy(filtered, **kwargs):
            components, stats = cc(filtered, **kwargs)
            found.extend(sorted(c) for c in components)
            return components, stats

        cc = cluster.distributed_connected_components
        monkeypatch.setattr(cluster, "distributed_connected_components", spy)
        cover, _ = run_distributed_postprocess(graph, _state(sequences), num_workers=2)
        assert found == want_components
        assert sorted(sorted(c) for c in cover) == want_cover
        assert cover == extract_communities(graph, sequences).cover

class TestCustomPartitioner:
    def test_contiguous_partitioner_accepted(self, cliques_ring):
        part = ContiguousPartitioner(5, num_vertices=30)
        state, stats = run_distributed_rslpa(
            cliques_ring, seed=3, iterations=20,
            num_workers=5, partitioner=part,
        )
        ref = ReferencePropagator(cliques_ring.copy(), seed=3)
        ref.propagate(20)
        assert state.sequences_dict() == ref.state.labels
        # Clique-aligned blocks keep many fetches worker-local.
        assert stats.total_remote_messages < stats.total_messages


class TestEndToEndAgainstDetector:
    def test_cluster_pipeline_matches_detector(self, cliques_ring):
        """Cluster run == RSLPADetector (reference engine) end to end."""
        detector = RSLPADetector(
            cliques_ring, seed=9, iterations=50, backend="reference",
            tau_step=0.005,
        ).fit()
        state, _ = run_distributed_rslpa(
            cliques_ring, seed=9, iterations=50, num_workers=3
        )
        cover, _ = run_distributed_postprocess(
            cliques_ring, state, num_workers=3, step=0.005
        )
        assert cover == detector.communities()
