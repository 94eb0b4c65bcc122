"""Tests for the query-plane membership index and stable-id assignment."""

import pickle
import random
from unittest import mock

import numpy as np
import pytest

import repro.core.communities as communities_module
from oracles import tracking as oracle
from repro.api.config import ServicePlanConfig
from repro.core.communities import Cover, tuples_by_vertex
from repro.core.detector import RSLPADetector
from repro.core.tracking import assign_stable_ids
from repro.graph.generators import ring_of_cliques
from repro.service import CommunityService
from repro.service.index import MembershipIndex
from repro.service.replication import ServiceSupervisor
from repro.workloads.dynamic import EditStream
from repro.workloads.webgraph import WebGraphParams, generate_webgraph


class TestAssignStableIds:
    def test_first_assignment_is_positional(self):
        new = Cover([{0, 1, 2}, {3, 4}])
        ids, next_id, _ = assign_stable_ids(Cover([]), (), new, 0)
        assert ids == (0, 1)
        assert next_id == 2

    def test_survivors_keep_ids(self):
        old = Cover([{0, 1, 2, 3}, {6, 7, 8}])
        new = Cover([{0, 1, 2, 3, 4}, {6, 7, 8}])
        ids, next_id, _ = assign_stable_ids(old, (5, 9), new, 10)
        # Cover orders by size: new[0]={0..4} matches old[0] (id 5).
        assert set(ids) == {5, 9}
        assert next_id == 10

    def test_birth_draws_fresh_id(self):
        old = Cover([{0, 1, 2}])
        new = Cover([{0, 1, 2}, {7, 8, 9}])
        ids, next_id, _ = assign_stable_ids(old, (0,), new, 1)
        assert 0 in ids and 1 in ids
        assert next_id == 2

    def test_death_retires_id(self):
        old = Cover([{0, 1, 2}, {7, 8, 9}])
        new = Cover([{0, 1, 2}])
        ids, next_id, _ = assign_stable_ids(old, (0, 1), new, 2)
        assert ids == (0,)
        assert next_id == 2  # id 1 retired, never reassigned

    def test_split_keeps_id_on_closest_child(self):
        old = Cover([{0, 1, 2, 3, 4, 5}])
        new = Cover([{0, 1, 2, 3}, {4, 5}])
        ids, next_id, report = assign_stable_ids(old, (7,), new, 8)
        assert report.of_kind("split")
        assert ids[0] == 7      # the larger child continues the identity
        assert ids[1] == 8
        assert next_id == 9

    def test_merge_inherits_from_closest_constituent(self):
        old = Cover([{0, 1, 2, 3}, {5, 6}])
        new = Cover([{0, 1, 2, 3, 5, 6}])
        ids, next_id, report = assign_stable_ids(old, (3, 4), new, 9)
        assert report.of_kind("merged")
        assert ids == (3,)      # closest constituent is the bigger one
        assert next_id == 9

    def test_mismatched_ids_length_rejected(self):
        with pytest.raises(ValueError, match="old_ids"):
            assign_stable_ids(Cover([{0, 1}]), (), Cover([{0, 1}]), 0)


class TestMembershipIndex:
    def test_first_update_returns_none(self):
        index = MembershipIndex()
        assert index.update(Cover([{0, 1, 2}])) is None
        assert index.generation == 1

    def test_queries(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2}, {2, 3}]))
        assert index.communities_of(2) == (0, 1)
        assert index.communities_of(99) == ()
        assert index.members(0) == frozenset({0, 1, 2})
        assert index.overlap(0, 2) == (0,)
        assert index.overlap(0, 3) == ()
        assert index.community_ids() == (0, 1)
        assert len(index) == 2

    def test_unknown_cid_raises(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2}]))
        with pytest.raises(KeyError, match="stable id"):
            index.members(42)

    def test_ids_stable_under_drift(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2, 3}, {7, 8, 9}]))
        before = index.communities_of(7)
        report = index.update(Cover([{0, 1, 2, 3, 4}, {7, 8}]))
        assert report is not None
        assert index.communities_of(7) == before
        assert index.members(before[0]) == frozenset({7, 8})

    def test_dead_id_is_not_reused(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2}, {5, 6, 7}]))
        dead = index.communities_of(5)[0]
        index.update(Cover([{0, 1, 2}]))
        with pytest.raises(KeyError):
            index.members(dead)
        index.update(Cover([{0, 1, 2}, {10, 11, 12}]))
        born = index.communities_of(10)[0]
        assert born != dead

    def test_snapshot_is_a_copy(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2}]))
        snap = index.snapshot()
        snap[99] = frozenset()
        assert 99 not in index.snapshot()

    def test_last_transition_tracks_events(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2, 3}]))
        assert index.last_transition is None
        index.update(Cover([{0, 1, 2, 3, 4, 5}]))
        assert index.last_transition.of_kind("grown")

    def test_export_ships_the_cover_as_arrays(self):
        index = MembershipIndex()
        index.update(Cover([{0, 1, 2}, {2, 3}]))
        index.update(Cover([{0, 1, 2, 5}, {2, 3}, {8, 9}]))
        payload = pickle.dumps(index.export_state())
        assert b"frozenset" not in payload
        clone = MembershipIndex()
        clone.install_state(pickle.loads(payload))
        assert clone.snapshot() == index.snapshot()
        assert clone.communities_of(2) == index.communities_of(2)
        later = Cover([{0, 1, 2, 5, 6}, {8, 9, 10}])
        assert clone.update(later).events == index.update(later).events
        assert clone.snapshot() == index.snapshot()

    def test_install_accepts_frozenset_covers(self):
        index = MembershipIndex()
        index.install_state(
            {"cover": [frozenset({2, 3}), frozenset({0, 1, 2})],
             "ids": (4, 7), "next_id": 8, "generation": 3}
        )
        assert index.communities_of(2) == (4, 7)
        assert index.members(4) == frozenset({0, 1, 2})


def _random_cover(rng, universe=30):
    """Up to 8 random communities over ``0..universe-1``, overlapping."""
    return Cover(
        set(rng.sample(range(universe), rng.randint(2, 9)))
        for _ in range(rng.randint(1, 8))
    )


def _eager_tuples(index):
    """The vertex -> sorted stable ids map, built eagerly from the index's
    cover and ids."""
    vertices, offsets, communities = index.cover.by_vertex()
    ids = np.asarray(index.export_state()["ids"], dtype=np.int64)[communities]
    eager = tuples_by_vertex(vertices, offsets, ids)
    return {v: tuple(sorted(cids)) for v, cids in eager.items()}


class TestLazyTuples:
    """The index builds a vertex's tuple of stable ids on its first read
    in a generation, not in :meth:`MembershipIndex.update`."""

    def test_reads_equal_an_eager_map(self):
        rng = random.Random(11)
        index = MembershipIndex()
        for step in range(12):
            if step == 8:
                clone = MembershipIndex()
                clone.install_state(pickle.loads(pickle.dumps(index.export_state())))
                index = clone
            else:
                index.update(_random_cover(rng))
            eager = _eager_tuples(index)
            probes = list(range(-2, 33))
            rng.shuffle(probes)
            for u in probes:  # overlap first, so its reads miss too
                v = rng.choice(probes)
                want = tuple(c for c in eager.get(u, ()) if c in eager.get(v, ()))
                assert index.overlap(u, v) == want
                assert index.communities_of(u) == eager.get(u, ())
                assert index.communities_of(u) == eager.get(u, ())  # memoised
            ids = index.export_state()["ids"]
            assert index.snapshot() == dict(zip(ids, index.cover.communities))
            for cid, members in zip(ids, index.cover.communities):
                assert index.members(cid) == members

    def test_update_builds_no_tuples(self):
        index = MembershipIndex()
        covers = [Cover([{0, 1, 2, 3}, {3, 4, 5}, {5, 6, 3}]),
                  Cover([{0, 1, 2, 3, 9}, {3, 4, 5}, {5, 6, 3, 4}])]
        with mock.patch.object(
            communities_module, "tuples_by_vertex", side_effect=tuples_by_vertex
        ) as tuples, mock.patch.object(np, "lexsort", side_effect=np.lexsort) as lexsort:
            for cover in covers:
                index.update(cover)
        tuples.assert_not_called()
        lexsort.assert_not_called()
        assert index.communities_of(3) == tuple(sorted(index.communities_of(3)))
        assert len(index.communities_of(3)) == 3


# ----------------------------------------------------------------------
# Matcher thresholds are checked when the index is built, before any fit
# ----------------------------------------------------------------------
BAD_THRESHOLDS = [
    ({"match_threshold": 1.5}, "match_threshold"),
    ({"match_threshold": 0.0}, "match_threshold"),
    ({"drift_tolerance": 1.0}, "drift_tolerance"),
]


class TestMatcherThresholds:
    @pytest.mark.parametrize("bad,name", BAD_THRESHOLDS)
    def test_index_rejects(self, bad, name):
        with pytest.raises(ValueError, match=name):
            MembershipIndex(**bad)

    @pytest.mark.parametrize("bad,name", BAD_THRESHOLDS)
    def test_plan_config_rejects(self, bad, name):
        with pytest.raises(ValueError, match=name):
            ServicePlanConfig(**bad)

    @pytest.mark.parametrize("bad,name", BAD_THRESHOLDS)
    def test_service_rejects_before_any_fit(self, bad, name):
        with mock.patch.object(RSLPADetector, "fit") as fit:
            with pytest.raises(ValueError, match=name):
                CommunityService(ring_of_cliques(3, 4), seed=1, iterations=5, **bad)
        fit.assert_not_called()

    def test_supervisor_rejects_before_any_child(self, tmp_path):
        # Before, this surfaced only as a dead primary child.
        with pytest.raises(ValueError, match="match_threshold"):
            ServiceSupervisor(
                ring_of_cliques(3, 4), str(tmp_path), replicas=1,
                match_threshold=1.5,
            )


# ----------------------------------------------------------------------
# The array index against the retired frozenset index, over a stream
# ----------------------------------------------------------------------
def _assert_same_index(got, want, vertices, rng):
    assert got.export_state()["ids"] == want.export_state()["ids"]
    assert got.export_state()["next_id"] == want.export_state()["next_id"]
    assert got.generation == want.generation
    assert got.community_ids() == want.community_ids()
    assert len(got) == len(want)
    assert got.snapshot() == want.snapshot()
    absent = max(vertices) + 1
    for v in vertices + [absent]:
        assert got.communities_of(v) == want.communities_of(v)
    for cid in want.community_ids():
        assert got.members(cid) == want.members(cid)
    for _ in range(50):
        u, v = rng.choice(vertices), rng.choice(vertices + [absent])
        assert got.overlap(u, v) == want.overlap(u, v)


def _stream_graph(name, small_lfr):
    if name == "webgraph":
        return generate_webgraph(WebGraphParams(n=300, avg_out_degree=6.0), seed=7).graph
    return small_lfr.graph


class TestIndexAgainstOracle:
    @pytest.mark.parametrize("name", ["webgraph", "small_lfr"])
    def test_stream_of_refreshes_equals_oracle_index(self, name, small_lfr):
        graph = _stream_graph(name, small_lfr)
        service = CommunityService(
            graph, seed=3, iterations=20, staleness_batches=1
        ).start()
        want = oracle.MembershipIndex()
        rng = random.Random(name)
        clone = None
        for batch in [None] + EditStream(graph, batch_size=20, seed=5).take(30):
            if batch is not None:
                service.apply(batch)
                service.communities_of(0)  # K=1: this query refreshes
            got = service.index
            cover = oracle.Cover(got.cover.communities)
            assert cover.communities == got.cover.communities
            report = want.update(cover)
            if report is None:
                assert got.last_transition is None
            else:
                assert got.last_transition.events == report.events
            vertices = sorted(service.graph.vertices())
            _assert_same_index(got, want, vertices, rng)
            if clone is not None:
                # The previous round's round trip continues the trajectory.
                clone.update(got.cover)
                _assert_same_index(clone, want, vertices, rng)
            clone = MembershipIndex()
            clone.install_state(pickle.loads(pickle.dumps(got.export_state())))
            _assert_same_index(clone, want, vertices, rng)
        assert service.extractions == 31
