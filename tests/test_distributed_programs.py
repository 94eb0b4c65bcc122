"""Tests for the distributed vertex programs vs their sequential twins."""

import pytest

from repro.baselines.slpa import SLPA
from repro.core.incremental import CorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.workloads.dynamic import random_edit_batch


class TestDistributedRSLPA:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_bit_identical_to_sequential(self, workers, cliques_ring):
        state, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=3, iterations=25, num_workers=workers
        )
        ref = ReferencePropagator(cliques_ring.copy(), seed=3)
        ref.propagate(25)
        state = state.to_label_state()
        assert state.labels == ref.state.labels
        assert state.srcs == ref.state.srcs
        assert state.receivers == ref.state.receivers

    def test_partitioning_does_not_change_result(self, cliques_ring):
        hash_state, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=4, iterations=20,
            partitioner=HashPartitioner(3), num_workers=3,
        )
        range_state, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=4, iterations=20,
            partitioner=ContiguousPartitioner(3, 30), num_workers=3,
        )
        assert (hash_state.labels == range_state.labels).all()

    def test_message_volume_is_two_per_vertex_per_iteration(self, cliques_ring):
        _, stats = run_distributed_rslpa(
            cliques_ring.copy(), seed=1, iterations=10, num_workers=3
        )
        # All 30 vertices have degree > 0: one request + one reply each.
        assert stats.total_messages == 2 * 30 * 10
        assert stats.supersteps == 2 * 10

    def test_state_valid_and_usable(self, cliques_ring):
        state, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=2, iterations=15, num_workers=2
        )
        state.validate(cliques_ring)

    def test_degree_zero_vertices_padded(self):
        g = Graph.from_edges([(0, 1)], vertices=[2])
        state, _ = run_distributed_rslpa(g, seed=0, iterations=8, num_workers=2)
        assert state.sequences_dict()[2] == [2] * 9
        state.validate(g)


class TestDistributedSLPA:
    def test_memories_match_baseline(self, cliques_ring):
        memories, _ = run_distributed_slpa(
            cliques_ring.copy(), seed=5, iterations=20, num_workers=3
        )
        ref = SLPA(cliques_ring.copy(), seed=5, iterations=20)
        ref.propagate()
        assert memories == ref.memories

    def test_message_volume_is_two_per_edge_per_iteration(self, cliques_ring):
        _, stats = run_distributed_slpa(
            cliques_ring.copy(), seed=1, iterations=10, num_workers=3
        )
        assert stats.total_messages == 2 * cliques_ring.num_edges * 10
        assert stats.supersteps == 10

    def test_rslpa_sends_fewer_labels_than_slpa(self, cliques_ring):
        """The Section III-A communication claim, measured."""
        _, rslpa_stats = run_distributed_rslpa(
            cliques_ring.copy(), seed=1, iterations=10, num_workers=3
        )
        _, slpa_stats = run_distributed_slpa(
            cliques_ring.copy(), seed=1, iterations=10, num_workers=3
        )
        # |E| = 80 > |V| = 30, so 2|E| > 2|V| per iteration.
        assert rslpa_stats.total_messages < slpa_stats.total_messages


class TestDistributedCorrection:
    def _sequential_twin(self, graph, seed, iterations, batch):
        g = graph.copy()
        ref = ReferencePropagator(g, seed=seed)
        ref.propagate(iterations)
        corrector = CorrectionPropagator(ref)
        corrector.apply_batch(batch)
        return corrector.state, g

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fixpoint_matches_sequential(self, workers, cliques_ring):
        batch = random_edit_batch(cliques_ring, 8, seed=2)
        seq_state, seq_graph = self._sequential_twin(cliques_ring, 7, 25, batch)

        g = cliques_ring.copy()
        ref = ReferencePropagator(g, seed=7)
        ref.propagate(25)
        _, dist_state, stats = run_distributed_update(
            g, ArrayLabelState.from_label_state(ref.state), batch, seed=7,
            batch_epoch=1, num_workers=workers,
        )
        dist_state.validate(g)
        dist_state = dist_state.to_label_state()
        assert dist_state.labels == seq_state.labels
        assert dist_state.srcs == seq_state.srcs
        assert dist_state.poss == seq_state.poss
        assert stats.total_messages > 0 or workers == 1

    def test_repeated_batches_match_sequential(self, sparse_random):
        seq_graph = sparse_random.copy()
        ref_seq = ReferencePropagator(seq_graph, seed=3)
        ref_seq.propagate(20)
        seq_corrector = CorrectionPropagator(ref_seq)

        dist_graph = sparse_random.copy()
        ref_dist = ReferencePropagator(dist_graph, seed=3)
        ref_dist.propagate(20)
        dist_state = ArrayLabelState.from_label_state(ref_dist.state)

        for epoch in range(1, 4):
            batch = random_edit_batch(seq_graph, 6, seed=epoch)
            seq_corrector.apply_batch(batch)
            _, dist_state, _ = run_distributed_update(
                dist_graph, dist_state, batch, seed=3,
                batch_epoch=epoch, num_workers=3,
            )
            assert dist_state.to_label_state().labels == seq_corrector.state.labels

    def test_new_vertex_through_distributed_update(self, cliques_ring):
        batch = EditBatch.build(insertions=[(100, 0), (100, 7)])
        seq_state, _ = self._sequential_twin(cliques_ring, 5, 20, batch)

        g = cliques_ring.copy()
        ref = ReferencePropagator(g, seed=5)
        ref.propagate(20)
        _, dist_state, _ = run_distributed_update(
            g, ArrayLabelState.from_label_state(ref.state), batch, seed=5,
            batch_epoch=1, num_workers=3,
        )
        assert dist_state.to_label_state().labels[100] == seq_state.labels[100]

    def test_message_volume_scales_with_batch_size(self, cliques_ring):
        def volume(batch_size):
            g = cliques_ring.copy()
            ref = ReferencePropagator(g, seed=11)
            ref.propagate(25)
            batch = random_edit_batch(g, batch_size, seed=1)
            _, _, stats = run_distributed_update(
                g, ArrayLabelState.from_label_state(ref.state), batch,
                seed=11, batch_epoch=1, num_workers=3,
            )
            return stats.total_messages

        assert volume(16) > volume(2)
