"""Tests for the array-backed label state (the incremental fast substrate).

The central contract: :class:`ArrayLabelState` and :class:`LabelState` are
the same mathematical object in two layouts, and every mutation primitive
(detach, register, vertex lifecycle, reindex) preserves the record/
provenance bijection that :meth:`validate` asserts.
"""

import numpy as np
import pytest

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

    def test_batched_query_groups_by_owner(self, cliques_ring):
        state = propagated_state(cliques_ring)
        array_state = ArrayLabelState.from_label_state(state)
        keys = np.array(
            [array_state.slot_key(v, 3) for v in range(10)], dtype=np.int64
        )
        owner, tar, k = array_state.receivers_query(keys)
        for i in range(10):
            got = {(int(a), int(b)) for a, b in zip(tar[owner == i], k[owner == i])}
            assert got == state.receivers_of(i, 3)

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
        # Churn some records into the extras overlay, then force a rebuild.
        v, t = next(
            (v, t)
            for v in range(30)
            for t in range(1, 26)
            if array_state.srcs[t, v] != NO_SOURCE
        )
        src, pos = int(array_state.srcs[t, v]), int(array_state.poss[t, v])
        array_state.detach_slots(np.array([v]), np.array([t]))
        array_state.srcs[t, v] = src
        array_state.poss[t, v] = pos
        array_state.register_slots(np.array([src]), np.array([pos]), np.array([v]), t)
        array_state.reindex()
        assert array_state._extra_count == 0
        assert_states_identical(state, array_state)
        array_state.validate(cliques_ring)

    def test_validate_catches_spurious_record(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        # Register a second record for a slot that already owns one.
        v, t = next(
            (v, t)
            for v in range(30)
            for t in range(1, 26)
            if array_state.srcs[t, v] != NO_SOURCE
        )
        array_state.register_slots(
            np.array([array_state.srcs[t, v]]),
            np.array([array_state.poss[t, v]]),
            np.array([v]),
            t,
        )
        with pytest.raises(AssertionError, match="both statically and in extras"):
            array_state.validate()

    def test_validate_catches_killed_record(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        flat = int(np.nonzero(array_state._rev_alive)[0][0])
        array_state._rev_alive[flat] = False  # record lost, provenance kept
        array_state._rec_pos[
            array_state._rev_k[flat], array_state._rev_tar[flat]
        ] = -1
        with pytest.raises(AssertionError, match="missing"):
            array_state.validate()


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

    def test_needs_reindex_flips_with_churn(self, cliques_ring):
        array_state = ArrayLabelState.from_label_state(propagated_state(cliques_ring))
        assert not array_state.needs_reindex()
        # The policy is debt-based; simulate heavy churn via the counters
        # (past both the static-fraction and the absolute floor).
        array_state._extra_count = 1025 + len(array_state._rev_key)
        assert array_state.needs_reindex()
