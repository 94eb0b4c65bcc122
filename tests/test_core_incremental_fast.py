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
    fast = FastCorrectionPropagator.from_fast_propagator(fast_static)
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

    def test_forced_compaction_mid_stream(self, sparse_random, monkeypatch):
        # Shrink the overlay budget so the stream crosses several merges.
        compactions = []
        monkeypatch.setattr(
            ArrayLabelState,
            "needs_compaction",
            lambda self: self.has_records
            and len(self._overlay) + self._static.dead > 8,
        )
        original = ArrayLabelState.compact

        def counted(self):
            compactions.append(len(self._overlay) + self._static.dead)
            original(self)

        monkeypatch.setattr(ArrayLabelState, "compact", counted)
        reference, fast = make_pair(sparse_random, seed=6, iterations=15)
        for step in range(12):
            batch = random_edit_batch(reference.graph, 6, seed=100 + step)
            apply_both(reference, fast, batch)
            fast.state.validate(fast.graph)
        assert len(compactions) >= 8

    def test_first_repair_builds_the_records(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=2)
        assert not fast.state.has_records
        apply_both(reference, fast, EditBatch.build(insertions=[(0, 12)]))
        assert fast.state.has_records
        fast.state.validate(fast.graph)

    def test_slot_repicked_in_consecutive_batches(self, cliques_ring):
        """Overlay -> overlay detach: a slot whose record the first batch
        registered in the overlay run is repicked again by the second."""
        reference, fast = make_pair(cliques_ring, seed=8)
        apply_both(reference, fast, EditBatch.build(insertions=[(0, 12), (5, 20)]))
        state = fast.state
        # A repicked slot that fetched from a neighbour: its record is in
        # the overlay run, and deleting its source edge repicks it again.
        ts, vs = np.nonzero(state._rec_pos <= -2)
        v, t = int(vs[0]), int(ts[0])
        src = int(state.srcs[t, v])
        first = -2 - int(state._rec_pos[t, v])  # its overlay record
        assert state.epochs[t, v] == 1
        apply_both(reference, fast, EditBatch.build(deletions=[(v, src)]))
        assert state.epochs[t, v] == 2  # repicked in both batches
        assert not state._overlay.alive[first]  # tombstoned in the overlay
        assert -2 - int(state._rec_pos[t, v]) > first  # a newer record
        state.validate(fast.graph)

    def test_remove_vertex_with_overlay_records(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=4)
        apply_both(
            reference, fast, EditBatch.build(insertions=[(7, 14), (7, 21), (7, 27)])
        )
        state = fast.state
        col = int(state.columns([7])[0])
        assert (state._rec_pos[:, col] <= -2).any()  # 7's own slots
        r_ref = reference.remove_vertex(7)
        r_fast = fast.remove_vertex(7)
        assert_reports_equal(r_ref, r_fast)
        assert_bit_identical(reference, fast)
        assert not state.has_vertex(7)
        assert (state._rec_pos[:, col] == -1).all()
        state.validate(fast.graph)


    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_born_vertex_reached_by_a_later_cascade(self, cliques_ring, layout):
        """A vertex born after the records were built has its column past
        the static slot index; a later batch's cascade still reaches its
        slots, through the overlay, exactly as the reference's does."""
        vid = (lambda v: v) if layout == "dense" else (lambda v: 3 * v - 41)
        graph = Graph.from_edges(
            ((vid(u), vid(v)) for u, v in cliques_ring.edges()),
            vertices=map(vid, cliques_ring.vertices()),
        )
        ref = ReferencePropagator(graph.copy(), seed=5)
        ref.propagate(25)
        reference = CorrectionPropagator(ref)
        static = FastPropagator(graph, seed=5)
        static.propagate(25)
        fast = FastCorrectionPropagator(graph, static.to_array_state(), 5)
        apply_both(reference, fast, EditBatch.build(insertions=[(vid(0), vid(12))]))
        born = 30 if layout == "dense" else vid(5) + 1  # a gap id below the max
        apply_both(
            reference,
            fast,
            EditBatch.build(insertions=[(born, vid(2)), (born, vid(3))]),
        )
        col = int(fast.state.columns([born])[0])
        assert len(fast.state._static.indptr) - 1 <= col * 26  # past the index
        reached = 0
        for step in range(6):
            batch = random_edit_batch(fast.graph, 8, seed=40 + step)
            batch = EditBatch(
                insertions=frozenset(e for e in batch.insertions if born not in e),
                deletions=frozenset(e for e in batch.deletions if born not in e),
            )
            _, report = apply_both(reference, fast, batch)
            reached += any(v == born for v, _ in report.touched_slots)
        assert reached  # some cascade arrived at the born vertex's slots
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

    def test_validation_is_reused_only_by_its_batch_until_a_merge(self, cliques_ring):
        reference, fast = make_pair(cliques_ring, seed=1)
        batch = EditBatch.build(insertions=[(0, 12)])
        fast.validate_batch(batch)
        apply_both(reference, fast, EditBatch.build(deletions=[(0, 1)]))
        fast.validate_batch(batch)
        apply_both(reference, fast, batch)  # reuses its own validation
        snapshot = fast.graph.copy()
        with pytest.raises(ValueError, match="already present"):
            fast.apply_batch(batch)  # merged since: searched again
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


class TestReportSlots:
    def test_touched_count_is_the_slot_set_size(self, sparse_random):
        reference, fast = make_pair(sparse_random, seed=2, iterations=15)
        for step in range(5):
            batch = random_edit_batch(reference.graph, 7, seed=step)
            r_ref, r_fast = apply_both(reference, fast, batch)
            for report in (r_ref, r_fast):
                assert report.touched_labels == len(report.touched_slots)
                assert report.touched_labels >= report.repicked

    def test_touched_slots_are_built_when_read(self):
        report = UpdateReport()
        assert report.touched_slots == set() and report.touched_labels == 0
        report.note_touched(np.array([4, -9]), np.array([1, 3]))
        report.note_touched([7], 2)  # one level for every slot
        assert report.touched_labels == 3
        assert report.touched_slots == {(4, 1), (-9, 3), (7, 2)}
        assert report.touched_slots == report.touched_slots  # a fresh set

    def test_equality_compares_counters_and_touched_slots(self):
        def report(slots, **counts):
            r = UpdateReport(**counts)
            for v, t in slots:
                r.note_touched([v], t)
            return r

        a = report([(4, 1), (7, 2)], repicked=1)
        assert a == report([(7, 2), (4, 1)], repicked=1)  # a set: any order
        assert a != report([(4, 1), (7, 3)], repicked=1)  # same count, other slot
        assert a != report([(4, 1), (7, 2)], repicked=2)
        assert a != (4, 1)


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
