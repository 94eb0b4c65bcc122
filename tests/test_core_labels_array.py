"""Tests for the array-backed label state (the incremental fast substrate).

The central contract: :class:`ArrayLabelState` and :class:`LabelState` are
the same mathematical object in two layouts, and every mutation primitive
(detach, register, vertex lifecycle, reindex, compact) preserves the
record/provenance bijection that :meth:`validate` asserts.  The reverse
records live in two runs with tombstones and ``_rec_pos`` handles — a
static run behind a dense slot index, and an overlay run searched by its
sorted keys and filtered by a mark per slot key — and stay unbuilt until
a repair or a query needs them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fast import FastPropagator
from repro.core.labels import NO_SOURCE, LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi


def propagated_state(graph, seed=11, iterations=25) -> LabelState:
    propagator = ReferencePropagator(graph, seed=seed)
    propagator.propagate(iterations)
    return propagator.state


def record_set(array_state: ArrayLabelState):
    """The live reverse records of both runs as ``(key, tar, k)`` triples."""
    static = array_state._static
    live = static.alive
    records = set(
        zip(
            static.keys()[live].tolist(),
            static.tar[live].tolist(),
            static.k[live].tolist(),
        )
    )
    records.update(zip(*(column.tolist() for column in array_state._overlay.live())))
    return records


def first_sourced_slot(array_state: ArrayLabelState):
    return next(
        (v, t)
        for v in range(30)
        for t in range(1, 26)
        if array_state.srcs[t, v] != NO_SOURCE
    )


def assert_states_identical(dict_state: LabelState, array_state: ArrayLabelState):
    back = array_state.to_label_state()
    assert back.labels == dict_state.labels
    assert back.srcs == dict_state.srcs
    assert back.poss == dict_state.poss
    assert back.epochs == dict_state.epochs
    assert back.receivers == dict_state.receivers
    assert back.num_iterations == dict_state.num_iterations


class TestRoundTrip:
    def test_label_state_round_trip_exact(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        assert_states_identical(state, array_state)
        array_state.validate(cliques_ring)

    def test_round_trip_with_isolated_vertices(self):
        g = erdos_renyi(40, 0.04, seed=7)  # sparse: isolated vertices likely
        state = propagated_state(g, seed=2, iterations=15)
        array_state = ArrayLabelState.from_label_state(state)
        assert_states_identical(state, array_state)
        array_state.validate(g)

    def test_round_trip_from_fast_propagator(self, cliques_ring):
        fast = FastPropagator(cliques_ring, seed=11)
        fast.propagate(25)
        array_state = fast.to_array_state()
        assert_states_identical(propagated_state(cliques_ring), array_state)

    def test_non_contiguous_ids_round_trip(self):
        g = Graph.from_edges([(0, 5), (5, -3), (-3, 0), (5, 40)], vertices=[17])
        state = propagated_state(g, iterations=8)
        array_state = ArrayLabelState.from_label_state(state)
        assert array_state.ids.tolist() == [-3, 0, 5, 17, 40]  # id order
        assert_states_identical(state, array_state)
        assert array_state.sequences_dict() == state.labels
        for v in g.vertices():
            for t in range(9):
                assert array_state.receivers_of(v, t) == state.receivers_of(v, t)
        array_state.validate(g)

    def test_empty_state_round_trips(self):
        array_state = ArrayLabelState.from_label_state(LabelState())
        assert array_state.num_vertices == 0
        assert array_state.to_label_state().num_vertices == 0

    def test_sequences_dict_matches_label_lists(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        assert array_state.sequences_dict() == state.labels


class TestReverseRecords:
    def test_receivers_of_matches_dict_state(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        for v in cliques_ring.vertices():
            for t in range(state.num_iterations + 1):
                assert array_state.receivers_of(v, t) == state.receivers_of(v, t)

    def test_batched_query_finds_every_receiver(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        keys = np.array(
            [array_state.slot_key(v, 3) for v in range(10)], dtype=np.int64
        )
        tar, k = array_state.receivers_query(keys[::-1])  # any key order
        expected = set().union(*(state.receivers_of(v, 3) for v in range(10)))
        assert sorted(zip(tar.tolist(), k.tolist())) == sorted(expected)

    def test_detach_then_register_round_trip(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        # Find a slot with a real source, detach it, re-register the same
        # provenance; the state must validate throughout.
        v, t = next(
            (v, t)
            for v in range(30)
            for t in range(1, 26)
            if array_state.srcs[t, v] != NO_SOURCE
        )
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        array_state.detach_slots(np.array([v]), np.array([t]))
        assert (v, t) not in array_state.receivers_of(src, pos)
        assert array_state.srcs[t, v] == NO_SOURCE
        array_state.srcs[t, v] = src
        array_state.poss[t, v] = pos
        array_state.register_slots(
            np.array([src]), np.array([pos]), np.array([v]), t
        )
        assert (v, t) in array_state.receivers_of(src, pos)
        array_state.validate(cliques_ring)

    def test_reindex_preserves_everything(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        array_state.reindex()
        # Churn a record into the overlay run, then force a rebuild.
        v, t = first_sourced_slot(array_state)
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        array_state.detach_slots(np.array([v]), np.array([t]))
        array_state.srcs[t, v] = src
        array_state.poss[t, v] = pos
        array_state.register_slots(np.array([src]), np.array([pos]), np.array([v]), t)
        assert len(array_state._overlay) == 1
        assert array_state._rec_pos[t, v] == -2  # overlay index 0
        assert array_state._static.dead == 1
        array_state.reindex()
        assert len(array_state._overlay) == 0
        assert array_state._static.dead == 0
        assert_states_identical(state, array_state)
        array_state.validate(cliques_ring)

    def test_validate_catches_spurious_record(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        # Register a second record for a slot that already owns one.
        v, t = first_sourced_slot(array_state)
        array_state.register_slots(
            np.array([array_state.srcs[t, v]]),
            np.array([array_state.poss[t, v]]),
            np.array([v]),
            t,
        )
        with pytest.raises(AssertionError, match="duplicate live record"):
            array_state.validate()

    def test_validate_catches_killed_static_record(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        static = array_state._static
        flat = int(np.flatnonzero(static.alive)[0])
        static.kill(np.array([flat]))  # record lost, provenance kept
        array_state._rec_pos[static.k[flat], static.tar[flat]] = -1
        with pytest.raises(AssertionError, match="missing"):
            array_state.validate()

    def test_validate_catches_killed_overlay_record(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        v, t = first_sourced_slot(array_state)
        src, pos = array_state.srcs[t, v], array_state.poss[t, v]
        array_state.detach_slots(np.array([v]), np.array([t]))
        array_state.srcs[t, v], array_state.poss[t, v] = src, pos
        array_state.register_slots(np.array([src]), np.array([pos]), np.array([v]), t)
        array_state.validate()
        array_state._overlay.kill(np.array([0]))
        array_state._rec_pos[t, v] = -1
        with pytest.raises(AssertionError, match="missing"):
            array_state.validate()

    def test_validate_catches_a_wrong_handle(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        v, t = first_sourced_slot(array_state)
        array_state._rec_pos[t, v] += 1
        with pytest.raises(AssertionError, match="rec_pos"):
            array_state.validate()

    def test_merge_compaction_equals_a_fresh_build(self, sparse_random):
        from repro.core.incremental_fast import FastCorrectionPropagator
        from repro.workloads.dynamic import random_edit_batch

        graph = sparse_random.copy()
        fast = FastPropagator(graph, seed=5)
        fast.propagate(15)
        corrector = FastCorrectionPropagator(graph, fast.to_array_state(), 5)
        for step in range(4):
            corrector.apply_batch(random_edit_batch(corrector.graph, 6, seed=20 + step))
        state = corrector.state
        # Both runs hold live records, and both hold tombstones.
        assert len(state._overlay) and state._static.dead
        before = record_set(state)
        fresh = ArrayLabelState(
            state.labels, state.srcs, state.poss, state.epochs,
            alive=state.alive, ids=state.ids,
        )
        fresh.reindex()
        assert record_set(fresh) == before
        state.compact()
        assert len(state._overlay) == 0 and state._static.dead == 0
        assert record_set(state) == before
        assert np.array_equal(state._static.indptr, fresh._static.indptr)
        state.validate(corrector.graph)


class TestSlotIndex:
    """The static run's dense slot index and the overlay's marks."""

    @pytest.mark.parametrize("shift", ["one record", "past the next"])
    def test_validate_catches_a_shifted_index_entry(self, cliques_ring, shift):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        indptr = array_state._static.indptr
        # A boundary between two non-empty ranges: moving it by one hands a
        # record to the key below; moving it past the next one breaks order.
        j = next(
            j
            for j in range(1, len(indptr) - 1)
            if indptr[j - 1] < indptr[j] < indptr[j + 1]
        )
        indptr[j] = indptr[j] + 1 if shift == "one record" else indptr[j + 1] + 1
        message = "mismatched=\\[\\(" if shift == "one record" else "static index"
        with pytest.raises(AssertionError, match=message):
            array_state.validate()

    def test_validate_catches_a_cleared_mark(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        v, t = first_sourced_slot(array_state)
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        array_state.detach_slots(np.array([v]), np.array([t]))
        array_state.srcs[t, v], array_state.poss[t, v] = src, pos
        array_state.register_slots(np.array([src]), np.array([pos]), np.array([v]), t)
        array_state.validate()
        array_state._overlay.marks[array_state.slot_key(src, pos)] = False
        with pytest.raises(AssertionError, match="no mark"):
            array_state.validate()

    def test_keys_past_the_index_have_no_records(self):
        """A key past the index (a column born since the build) has no
        static records, even when the last indexed key has some."""
        from repro.core.labels_array import _Static

        static = _Static.build(
            4, np.array([3, 1, 3]), np.array([7, 8, 9]), np.array([2, 2, 2])
        )
        assert static.indptr.tolist() == [0, 0, 1, 1, 3]
        assert sorted(static.hits(np.array([3])).tolist()) == [1, 2]
        assert static.hits(np.array([4, 5, 40])).size == 0
        assert sorted(static.hits(np.array([40, 1, 3])).tolist()) == [0, 1, 2]

    def test_a_born_column_lies_past_the_index(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        array_state.add_vertices([30])
        assert len(array_state._static.indptr) - 1 == 30 * array_state._stride
        assert len(array_state._overlay.marks) == array_state.labels.size
        keys = 30 * array_state._stride + np.arange(array_state._stride)
        assert array_state.receivers_query(keys)[0].size == 0
        array_state.validate()


def scan_receivers(state: ArrayLabelState, keys: np.ndarray):
    """Every live slot whose source slot key is in ``keys``, found by a
    scan of the provenance matrices (``(column, level)`` pairs, sorted)."""
    k, tar = np.nonzero(state.srcs != NO_SOURCE)
    live = (k > 0) & state.alive[tar]
    k, tar = k[live], tar[live]
    source = state.srcs[k, tar] * (state.num_iterations + 1) + state.poss[k, tar]
    hit = np.isin(source, keys)
    return sorted(zip(tar[hit].tolist(), k[hit].tolist()))


@settings(max_examples=25, deadline=None)
@given(
    layout=st.sampled_from(["dense", "sparse"]),
    plan=st.lists(
        st.tuples(st.integers(0, 2**31), st.booleans(), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    query_seed=st.integers(0, 2**31),
)
def test_lookup_equals_a_scan_of_the_provenance(layout, plan, query_seed):
    """After random batches, compactions and births whose columns lie past
    the static index, every slot key's receivers are what a scan of
    ``srcs``/``poss`` finds, queried in random order and random groups."""
    from repro.core.incremental_fast import FastCorrectionPropagator
    from repro.graph.edits import EditBatch
    from repro.workloads.dynamic import random_edit_batch

    vid = (lambda v: v) if layout == "dense" else (lambda v: 4 * v - 50)
    base = erdos_renyi(24, 0.2, seed=5)
    graph = Graph.from_edges(
        ((vid(u), vid(v)) for u, v in base.edges()), vertices=map(vid, base.vertices())
    )
    fast = FastPropagator(graph, seed=9)
    fast.propagate(8)
    corrector = FastCorrectionPropagator(graph, fast.to_array_state(), 9)
    rng = np.random.default_rng(query_seed)
    born = 24
    for batch_seed, birth, compact in plan:
        batch = random_edit_batch(corrector.graph, 6, seed=batch_seed)
        if birth:  # a new id linked to two live vertices: a new column
            ends = rng.choice(sorted(corrector.state.vertices()), 2, replace=False)
            # Dense: past the largest id; sparse: a gap id below it.
            new = born if layout == "dense" else 4 * (born - 24) - 49
            born += 1
            batch = batch.merged_with(
                EditBatch.build(insertions=[(new, int(u)) for u in ends])
            )
        corrector.apply_batch(batch)
        state = corrector.state
        if compact:
            state.compact()
        keys = rng.permutation(state.labels.size)
        for group in np.array_split(keys, rng.integers(1, 8)):
            tar, k = state.receivers_query(group)
            got = sorted(zip(tar.tolist(), k.tolist()))
            assert got == scan_receivers(state, group)
        state.validate(corrector.graph)


class TestLazyRecords:
    def test_new_state_has_no_records(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        assert not array_state.has_records
        assert "unbuilt" in repr(array_state)
        assert not array_state.needs_compaction()

    def test_validate_leaves_records_unbuilt(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.validate(cliques_ring)
        assert not array_state.has_records

    def test_validate_without_records_still_checks_provenance(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        v, t = first_sourced_slot(array_state)
        array_state.poss[t, v] = t  # a source at the slot's own level
        with pytest.raises(AssertionError):
            array_state.validate(cliques_ring)

    def test_query_builds_records(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        assert array_state.receivers_of(0, 3) == state.receivers_of(0, 3)
        assert array_state.has_records
        array_state.validate(cliques_ring)

    def test_detach_and_register_without_records_write_matrices(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        v, t = first_sourced_slot(array_state)
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        array_state.detach_slots(np.array([v]), np.array([t]))
        assert array_state.srcs[t, v] == NO_SOURCE
        assert not array_state.has_records
        array_state.srcs[t, v], array_state.poss[t, v] = src, pos
        array_state.register_slots(np.array([src]), np.array([pos]), np.array([v]), t)
        assert not array_state.has_records
        assert_states_identical(state, array_state)
        array_state.validate(cliques_ring)

    def test_fit_export_has_no_records(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        fast = FastPropagator(cliques_ring, seed=11)
        fast.propagate(10)
        assert not fast.to_array_state().has_records
        detector = RSLPADetector(cliques_ring, seed=11, iterations=10).fit()
        assert not detector.array_state.has_records

    def test_distributed_fit_has_no_records(self, cliques_ring):
        from repro.distributed import run_distributed_rslpa

        state, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=3, iterations=8, num_workers=2
        )
        assert not state.has_records
        state.validate(cliques_ring)

    def test_checkpoint_load_has_no_records(self, cliques_ring, tmp_path):
        from repro.service.durability import CheckpointStore

        fast = FastPropagator(cliques_ring, seed=11)
        fast.propagate(10)
        state = fast.to_array_state()
        state.reindex()
        store = CheckpointStore(tmp_path)
        edges = np.array(sorted(cliques_ring.edges()), dtype=np.int64)
        store.write_checkpoint(state, edges, seed=11, batch_epoch=0)
        loaded = store.load_checkpoint().state
        assert not loaded.has_records
        assert np.array_equal(loaded.srcs, state.srcs)
        store.close()

    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_distributed_update_write_back(self, sparse_random, prebuilt):
        """The write-back keeps an unbuilt state unbuilt, and keeps a
        built one consistent."""
        from repro.distributed import run_distributed_update
        from repro.workloads.dynamic import random_edit_batch

        graph = sparse_random.copy()
        fast = FastPropagator(graph, seed=4)
        fast.propagate(12)
        state = fast.to_array_state()
        if prebuilt:
            state.reindex()
        for epoch in range(1, 4):
            batch = random_edit_batch(graph, 6, seed=epoch)
            graph, state, _ = run_distributed_update(
                graph, state, batch, seed=4, batch_epoch=epoch, num_workers=2
            )
            assert state.has_records == prebuilt
            state.validate(graph)


class TestVertexLifecycle:
    def test_add_vertices_extends_range(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.add_vertices([30, 31])
        assert array_state.has_vertex(31)
        col = array_state.labels[:, 30]
        assert (col == 30).all()
        assert (array_state.srcs[:, 31] == NO_SOURCE).all()
        array_state.validate()

    def test_add_vertices_appends_gap_ids(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.add_vertices([40, -3])
        assert array_state.ids.tolist() == list(range(30)) + [-3, 40]
        assert array_state.has_vertex(40) and array_state.has_vertex(-3)
        assert not array_state.has_vertex(35)
        assert (array_state.labels[:, 31] == 40).all()
        assert (array_state.srcs[:, 30] == NO_SOURCE).all()
        array_state.validate()
        with pytest.raises(ValueError, match="NO_SOURCE"):
            array_state.add_vertices([-1])

    def test_add_existing_vertex_rejected(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        with pytest.raises(ValueError, match="already"):
            array_state.add_vertices([3])

    def test_drop_requires_detached_sources(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        with pytest.raises(ValueError):
            array_state.drop_vertex(0)  # slots still hold sources/receivers

    def test_drop_and_resurrect(self):
        # A 2-vertex graph propagated 0 iterations: no records at all, so
        # vertex 1 can be dropped immediately and then resurrected.
        g = Graph.from_edges([(0, 1)])
        state = propagated_state(g, iterations=0)
        array_state = ArrayLabelState.from_label_state(state)
        array_state.drop_vertex(1)
        assert not array_state.has_vertex(1)
        assert sorted(array_state.vertices()) == [0]
        array_state.add_vertices([1])
        assert array_state.has_vertex(1)
        assert array_state.num_columns == 2  # resurrected, not re-allocated
        array_state.validate()

    def test_needs_compaction_flips_with_churn(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        assert not array_state.needs_compaction()
        # Simulate heavy churn via the static tombstone count.
        array_state._static.dead = len(array_state._static) + 1
        assert array_state.needs_compaction()

    def test_needs_compaction_counts_overlay_copies(self, cliques_ring):
        """Each append copies the overlay once more; once the copies pass
        the static run's length, a compaction pays for itself."""
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        array_state.reindex()
        v, t = first_sourced_slot(array_state)
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        static = len(array_state._static)
        appends = 0
        while not array_state.needs_compaction():
            array_state.detach_slots(np.array([v]), np.array([t]))
            array_state.srcs[t, v], array_state.poss[t, v] = src, pos
            array_state.register_slots(
                np.array([src]), np.array([pos]), np.array([v]), t
            )
            appends += 1
        # Append i copies i - 1 entries: the flip comes after ~sqrt(2 S).
        assert appends * (appends - 1) // 2 + 1 > static
        assert (appends - 1) * (appends - 2) // 2 + 1 <= static
        array_state.validate()
        array_state.compact()
        assert not array_state.needs_compaction()
        array_state.validate()
