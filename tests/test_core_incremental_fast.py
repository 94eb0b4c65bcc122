"""Tests for the vectorised Correction Propagation engine.

The headline contract, mirroring PR 1's static-engine guarantee:
:class:`FastCorrectionPropagator` is **bit-identical** to the reference
:class:`CorrectionPropagator` — labels, provenance, positions, epochs, and
every :class:`UpdateReport` number — for any seed, batch, and batch epoch.
Scenario coverage here; arbitrary edit streams in
``test_property_incremental_fast.py``.
"""

import numpy as np
import pytest

from repro.core.fast import FastPropagator
from repro.core.incremental import CorrectionPropagator, UpdateReport
from repro.core.incremental_fast import FastCorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques
from repro.workloads.dynamic import random_edit_batch

REPORT_FIELDS = (
    "batch_size",
    "num_inserted",
    "num_deleted",
    "repicked",
    "keep_lotteries",
    "lottery_switches",
    "cascade_corrections",
    "value_changes",
)


def make_pair(graph: Graph, seed: int = 0, iterations: int = 25):
    """The same propagated start under both correctors (separate graphs)."""
    g_ref, g_fast = graph.copy(), graph.copy()
    ref = ReferencePropagator(g_ref, seed=seed)
    ref.propagate(iterations)
    fast_static = FastPropagator(CSRGraph.from_graph(g_fast), seed=seed)
    fast_static.propagate(iterations)
    reference = CorrectionPropagator(ref)
    fast = FastCorrectionPropagator.from_fast_propagator(fast_static, g_fast)
    return reference, fast


def assert_bit_identical(reference: CorrectionPropagator, fast: FastCorrectionPropagator):
    back = fast.state.to_label_state()
    state = reference.state
    assert back.labels == state.labels
    assert back.srcs == state.srcs
    assert back.poss == state.poss
    assert back.epochs == state.epochs
    assert back.receivers == state.receivers
    assert reference.graph == fast.graph


def assert_reports_equal(a: UpdateReport, b: UpdateReport):
    for name in REPORT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.touched_slots == b.touched_slots
    assert a.touched_labels == b.touched_labels


def apply_both(reference, fast, batch):
    r_ref = reference.apply_batch(batch)
    r_fast = fast.apply_batch(batch)
    assert_reports_equal(r_ref, r_fast)
    assert_bit_identical(reference, fast)
    return r_ref, r_fast


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_insertions(self, cliques_ring, seed):
        reference, fast = make_pair(cliques_ring, seed=seed)
        apply_both(reference, fast, EditBatch.build(insertions=[(0, 12), (3, 20)]))
        fast.state.validate(fast.graph)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_deletions(self, cliques_ring, seed):
        reference, fast = make_pair(cliques_ring, seed=seed)
        apply_both(reference, fast, EditBatch.build(deletions=[(0, 1), (6, 7)]))
        fast.state.validate(fast.graph)

    def test_mixed_batches_in_sequence(self, sparse_random):
        reference, fast = make_pair(sparse_random, seed=2, iterations=20)
        for step in range(8):
            batch = random_edit_batch(reference.graph, 8, seed=step)
            apply_both(reference, fast, batch)
        fast.state.validate(fast.graph)

    def test_batch_epochs_redraw_lotteries(self, cliques_ring):
        # Apply a batch and its inverse repeatedly: the batch epoch must
        # advance identically, so every redraw agrees.
        reference, fast = make_pair(cliques_ring, seed=5)
        batch = EditBatch.build(insertions=[(0, 12)])
        for _ in range(3):
            apply_both(reference, fast, batch)
            apply_both(reference, fast, batch.inverse())
        assert fast.batch_epoch == reference.batch_epoch == 6

    def test_vertex_birth(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=3)
        batch = EditBatch.build(insertions=[(30, 0), (30, 31), (5, 31)])
        apply_both(reference, fast, batch)
        fast.state.validate(fast.graph)
        assert fast.state.has_vertex(31)

    def test_isolation_falls_back_to_own_label(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        reference, fast = make_pair(g, seed=7, iterations=15)
        apply_both(reference, fast, EditBatch.build(deletions=[(2, 3)]))
        assert (fast.state.labels[:, 3] == 3).all()
        fast.state.validate(fast.graph)

    def test_remove_vertex(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=4)
        r_ref = reference.remove_vertex(7)
        r_fast = fast.remove_vertex(7)
        assert_reports_equal(r_ref, r_fast)
        assert_bit_identical(reference, fast)
        assert not fast.state.has_vertex(7)
        fast.state.validate(fast.graph)

    def test_removed_vertex_can_be_reborn(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=4)
        reference.remove_vertex(7)
        fast.remove_vertex(7)
        batch = EditBatch.build(insertions=[(7, 0), (7, 12)])
        apply_both(reference, fast, batch)
        fast.state.validate(fast.graph)

    def test_forced_reindex_mid_stream(self, sparse_random, monkeypatch):
        # Shrink the overlay budget so the stream crosses several rebuilds.
        monkeypatch.setattr(
            ArrayLabelState,
            "needs_reindex",
            lambda self: (self._extra_count + self._dead_static) > 8,
        )
        reference, fast = make_pair(sparse_random, seed=6, iterations=15)
        for step in range(12):
            batch = random_edit_batch(reference.graph, 6, seed=100 + step)
            apply_both(reference, fast, batch)
        fast.state.validate(fast.graph)


class TestContract:
    def test_rejects_sentinel_id_before_mutating(self, cliques_ring):
        _, fast = make_pair(cliques_ring, seed=1)
        snapshot = fast.graph.copy()
        labels = fast.state.labels.copy()
        with pytest.raises(ValueError, match="NO_SOURCE"):
            fast.apply_batch(EditBatch.build(insertions=[(0, 99), (-1, 3)]))
        assert fast.graph == snapshot  # clean failure, nothing mutated
        assert np.array_equal(fast.state.labels, labels)
        assert fast.state.num_columns == cliques_ring.num_vertices

    def test_far_apart_ids_match_reference(self):
        """Ids too far apart for one combined sort key still sort by id."""
        from repro.core.detector import RSLPADetector

        big = 1 << 62
        g = Graph.from_edges([(-big, -5), (-5, 3), (3, big), (big, -big)])
        fast = RSLPADetector(g, seed=2, iterations=12, backend="fast").fit()
        ref = RSLPADetector(g, seed=2, iterations=12, backend="reference").fit()
        batch = EditBatch.build(insertions=[(-big, 3), (big - 1, -5)])
        assert_reports_equal(ref.update(batch), fast.update(batch))
        assert fast.label_state.labels == ref.label_state.labels
        assert fast.label_state.receivers == ref.label_state.receivers
        fast.array_state.validate(fast.graph)

    def test_rejects_invalid_batch_before_mutating(self, cliques_ring):
        _, fast = make_pair(cliques_ring, seed=1)
        snapshot = fast.graph.copy()
        with pytest.raises(ValueError):
            fast.apply_batch(EditBatch.build(deletions=[(0, 29)]))
        assert fast.graph == snapshot

    def test_state_graph_mismatch_rejected(self, cliques_ring):
        fast_static = FastPropagator(CSRGraph.from_graph(cliques_ring), seed=0)
        fast_static.propagate(5)
        other = ring_of_cliques(4, 5)
        with pytest.raises(ValueError, match="match"):
            FastCorrectionPropagator(other, fast_static.to_array_state(), 0)

    def test_empty_batch_is_a_noop(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=1)
        before = fast.state.labels.copy()
        apply_both(reference, fast, EditBatch.empty())
        assert np.array_equal(fast.state.labels, before)


class TestTrackSlots:
    def test_counting_mode_matches_set_mode(self, sparse_random):
        g_set, g_count = sparse_random.copy(), sparse_random.copy()
        set_pair = make_pair(g_set, seed=2, iterations=15)[1]
        count_static = FastPropagator(CSRGraph.from_graph(g_count), seed=2)
        count_static.propagate(15)
        counting = FastCorrectionPropagator.from_fast_propagator(
            count_static, g_count, track_slots=False
        )
        for step in range(5):
            batch = random_edit_batch(set_pair.graph, 7, seed=step)
            r_set = set_pair.apply_batch(batch)
            r_count = counting.apply_batch(batch)
            assert r_count.touched_slots == set()
            assert r_count.touched_labels == r_set.touched_labels

    def test_reference_counting_mode_matches_too(self, sparse_random):
        tracked = CorrectionPropagator(
            ReferencePropagator(sparse_random.copy(), seed=3)
        )
        tracked.propagator.propagate(15)
        counting = CorrectionPropagator(
            ReferencePropagator(sparse_random.copy(), seed=3), track_slots=False
        )
        counting.propagator.propagate(15)
        for step in range(5):
            batch = random_edit_batch(tracked.graph, 7, seed=40 + step)
            r_tracked = tracked.apply_batch(batch)
            r_counting = counting.apply_batch(batch)
            assert r_counting.touched_slots == set()
            assert r_counting.touched_labels == r_tracked.touched_labels


class TestDetectorIntegration:
    def test_fast_backend_updates_bit_identical_to_reference(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        fast = RSLPADetector(cliques_ring, seed=3, iterations=25, backend="fast").fit()
        ref = RSLPADetector(
            cliques_ring, seed=3, iterations=25, backend="reference"
        ).fit()
        assert isinstance(fast._corrector, FastCorrectionPropagator)
        assert isinstance(ref._corrector, CorrectionPropagator)
        for step in range(4):
            batch = random_edit_batch(fast.graph, 6, seed=step)
            r_fast = fast.update(batch)
            r_ref = ref.update(batch)
            assert_reports_equal(r_ref, r_fast)
            assert fast.label_state.labels == ref.label_state.labels
            assert fast.label_state.epochs == ref.label_state.epochs
        assert fast.communities() == ref.communities()

    def test_array_state_exposed_on_fast_path_only(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        fast = RSLPADetector(cliques_ring, seed=1, iterations=10, backend="fast").fit()
        ref = RSLPADetector(
            cliques_ring, seed=1, iterations=10, backend="reference"
        ).fit()
        assert isinstance(fast.array_state, ArrayLabelState)
        assert ref.array_state is None

    def test_auto_backend_stays_fast_on_gap_ids(self, cliques_ring):
        """A batch creating a vertex with a gap id (or a negative one)
        appends a column: auto keeps the array corrector, bit-identical to
        a pure-reference detector."""
        from repro.core.detector import RSLPADetector

        auto = RSLPADetector(cliques_ring, seed=3, iterations=20, backend="auto").fit()
        ref = RSLPADetector(
            cliques_ring, seed=3, iterations=20, backend="reference"
        ).fit()
        batches = [
            EditBatch.build(insertions=[(0, 12)]),
            EditBatch.build(insertions=[(5, 100)]),         # gap id
            EditBatch.build(deletions=[(0, 1)], insertions=[(100, 7), (-8, 2)]),
        ]
        for batch in batches:
            r_auto = auto.update(batch)
            r_ref = ref.update(batch)
            assert_reports_equal(r_ref, r_auto)
            assert auto.label_state.labels == ref.label_state.labels
            assert auto.label_state.epochs == ref.label_state.epochs
            assert auto.label_state.receivers == ref.label_state.receivers
        assert isinstance(auto._corrector, FastCorrectionPropagator)
        auto.array_state.validate(auto.graph)

    def test_fast_backend_accepts_gap_ids(self, cliques_ring):
        """backend='fast' takes a gap id like any other new vertex; the one
        id it still refuses, before mutating anything, is -1 (NO_SOURCE)."""
        from repro.core.detector import RSLPADetector

        fast = RSLPADetector(cliques_ring, seed=3, iterations=10, backend="fast").fit()
        ref = RSLPADetector(
            cliques_ring, seed=3, iterations=10, backend="reference"
        ).fit()
        batch = EditBatch.build(insertions=[(5, 100)])
        assert_reports_equal(ref.update(batch), fast.update(batch))
        assert fast.label_state.labels == ref.label_state.labels
        assert fast.label_state.receivers == ref.label_state.receivers
        assert isinstance(fast._corrector, FastCorrectionPropagator)
        snapshot = fast.graph.copy()
        labels = fast.array_state.labels.copy()
        with pytest.raises(ValueError, match="NO_SOURCE"):
            fast.update(EditBatch.build(insertions=[(-1, 3)]))
        assert fast.graph == snapshot
        assert np.array_equal(fast.array_state.labels, labels)
