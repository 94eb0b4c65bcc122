"""Stress and regression tests for the distributed correction program.

The distributed cascade is unsynchronised: two corrections for one slot can
arrive in the same superstep, and the engine sorts inboxes by message value,
not causal order.  A version-gating mechanism (see
``CorrectionPropagationProgram``) prevents an older value from overwriting a
newer one; these tests hammer that machinery with long random batch
sequences across worker counts, asserting exact equality with the
sequential fixpoint after *every* batch — the scenario that originally
exposed the ordering bug (a stale correction beating a repick value at the
third batch of a specific seed).
"""

import pytest

from repro.core.incremental import CorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import run_distributed_update
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.workloads.dynamic import random_edit_batch


def paired_setup(graph, seed, iterations):
    seq_graph = graph.copy()
    ref_seq = ReferencePropagator(seq_graph, seed=seed)
    ref_seq.propagate(iterations)
    corrector = CorrectionPropagator(ref_seq)

    dist_graph = graph.copy()
    ref_dist = ReferencePropagator(dist_graph, seed=seed)
    ref_dist.propagate(iterations)
    return corrector, seq_graph, dist_graph, ArrayLabelState.from_label_state(
        ref_dist.state
    )


class TestLongBatchSequences:
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_eight_batches_stay_exactly_equal(self, workers):
        """The original bug reproduced at epoch 3, seed 3, 3 workers on the
        sparse fixture; run well past that point for several worker counts."""
        graph = erdos_renyi(60, 0.06, seed=17)
        corrector, seq_graph, dist_graph, dist_state = paired_setup(
            graph, seed=3, iterations=20
        )
        for epoch in range(1, 9):
            batch = random_edit_batch(seq_graph, 6, seed=epoch)
            corrector.apply_batch(batch)
            _, dist_state, _ = run_distributed_update(
                dist_graph, dist_state, batch, seed=3,
                batch_epoch=epoch, num_workers=workers,
            )
            exported = dist_state.to_label_state()
            assert exported.labels == corrector.state.labels, (
                f"diverged at epoch {epoch} with {workers} workers"
            )
            assert exported.epochs == corrector.state.epochs
        dist_state.validate(dist_graph)

    def test_large_batches_on_dense_structure(self):
        """Big batches maximise same-superstep correction collisions."""
        graph = ring_of_cliques(6, 6)
        corrector, seq_graph, dist_graph, dist_state = paired_setup(
            graph, seed=13, iterations=25
        )
        for epoch in range(1, 4):
            batch = random_edit_batch(seq_graph, 24, seed=50 + epoch)
            corrector.apply_batch(batch)
            _, dist_state, _ = run_distributed_update(
                dist_graph, dist_state, batch, seed=13,
                batch_epoch=epoch, num_workers=3,
            )
            assert dist_state.to_label_state().labels == corrector.state.labels
        assert dist_state.to_label_state().receivers == corrector.state.receivers

    def test_alternating_grow_shrink(self):
        """Insert-heavy then delete-heavy batches exercise both category-3
        lottery paths and the repick-to-isolation fallback."""
        from repro.workloads.dynamic import random_deletions, random_insertions

        graph = erdos_renyi(40, 0.08, seed=2)
        corrector, seq_graph, dist_graph, dist_state = paired_setup(
            graph, seed=7, iterations=15
        )
        for epoch in range(1, 7):
            if epoch % 2:
                batch = random_insertions(seq_graph, 10, seed=epoch)
            else:
                batch = random_deletions(seq_graph, 10, seed=epoch)
            corrector.apply_batch(batch)
            _, dist_state, _ = run_distributed_update(
                dist_graph, dist_state, batch, seed=7,
                batch_epoch=epoch, num_workers=4,
            )
            assert dist_state.to_label_state().labels == corrector.state.labels
            dist_state.validate(dist_graph)
