"""Tests for the high-level distributed wrappers (cluster.py)."""


from repro.core.detector import RSLPADetector
from repro.core.postprocess import extract_communities
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    run_distributed_postprocess,
    run_distributed_rslpa,
)
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
