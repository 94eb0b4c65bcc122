"""Tests for community evolution tracking."""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tracking as oracle
from repro.core.communities import Cover
from repro.core.detector import RSLPADetector
from repro.core.tracking import (
    CommunityEvent,
    CommunityTracker,
    TransitionReport,
    assign_stable_ids,
    match_covers,
)
from repro.graph.edits import EditBatch
from repro.graph.generators import ring_of_cliques


class TestMatchCovers:
    def test_identical_covers_all_continued(self):
        cover = Cover([{0, 1, 2}, {3, 4, 5}])
        report = match_covers(cover, cover)
        assert len(report.of_kind("continued")) == 2
        assert report.continuity() == pytest.approx(1.0)

    def test_birth(self):
        old = Cover([{0, 1, 2}])
        new = Cover([{0, 1, 2}, {7, 8, 9}])
        report = match_covers(old, new)
        assert report.num_born == 1
        assert report.num_died == 0

    def test_death(self):
        old = Cover([{0, 1, 2}, {7, 8, 9}])
        new = Cover([{0, 1, 2}])
        report = match_covers(old, new)
        assert report.num_died == 1

    def test_growth_and_shrinkage(self):
        old = Cover([{0, 1, 2, 3}, {10, 11, 12, 13}])
        new = Cover([{0, 1, 2, 3, 4, 5}, {10, 11}])
        report = match_covers(old, new, drift_tolerance=0.1)
        assert len(report.of_kind("grown")) == 1
        assert len(report.of_kind("shrunk")) == 1

    def test_split(self):
        old = Cover([set(range(10))])
        new = Cover([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}])
        report = match_covers(old, new)
        splits = report.of_kind("split")
        assert len(splits) == 1
        assert len(splits[0].after) == 2

    def test_merge(self):
        old = Cover([{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}])
        new = Cover([set(range(10))])
        report = match_covers(old, new)
        merges = report.of_kind("merged")
        assert len(merges) == 1
        assert len(merges[0].before) == 2

    def test_unrelated_covers_all_born_and_died(self):
        old = Cover([{0, 1, 2}])
        new = Cover([{10, 11, 12}])
        report = match_covers(old, new)
        assert report.num_born == 1
        assert report.num_died == 1
        assert report.continuity() == 0.0

    def test_threshold_gates_matching(self):
        old = Cover([{0, 1, 2, 3, 4, 5, 6, 7}])
        new = Cover([{0, 10, 11, 12, 13, 14, 15, 16}])  # jaccard = 1/15
        strict = match_covers(old, new, match_threshold=0.3)
        assert strict.num_born == 1 and strict.num_died == 1
        loose = match_covers(old, new, match_threshold=0.05)
        assert loose.num_born == 0

    def test_summary_format(self):
        report = match_covers(Cover([{0, 1}]), Cover([{0, 1}]))
        assert report.summary() == "continued=1"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            match_covers(Cover([]), Cover([]), match_threshold=0.0)

    def test_rejects_bad_drift(self):
        with pytest.raises(ValueError):
            match_covers(Cover([]), Cover([]), drift_tolerance=1.0)


class TestCommunityTracker:
    def test_first_observation_returns_none(self):
        tracker = CommunityTracker()
        assert tracker.observe(Cover([{0, 1}])) is None
        assert tracker.current == Cover([{0, 1}])

    def test_reports_accumulate(self):
        tracker = CommunityTracker()
        tracker.observe(Cover([{0, 1}]))
        tracker.observe(Cover([{0, 1}]))
        tracker.observe(Cover([{0, 1, 2}]))
        assert len(tracker.reports) == 2
        assert tracker.reports[0].summary() == "continued=1"

    def test_lifetime_of_vertex(self):
        tracker = CommunityTracker()
        tracker.observe(Cover([{0, 1}]))
        tracker.observe(Cover([{0, 1}, {0, 2}]))
        tracker.observe(Cover([{1, 2}]))
        assert tracker.lifetime_of(0) == [(0, 1), (1, 2), (2, 0)]

    def test_end_to_end_with_detector(self):
        """Merging two cliques shows up as a merge event."""
        graph = ring_of_cliques(3, 5)
        detector = RSLPADetector(graph, seed=4, iterations=80, tau_step=0.005)
        detector.fit()
        tracker = CommunityTracker(match_threshold=0.2)
        tracker.observe(detector.communities())
        cross = [
            (u, v)
            for u in range(5)
            for v in range(5, 10)
            if not detector.graph.has_edge(u, v)
        ]
        detector.update(EditBatch.build(insertions=cross))
        report = tracker.observe(detector.communities())
        kinds = {e.kind for e in report.events}
        assert "merged" in kinds or "grown" in kinds or "died" in kinds


# ----------------------------------------------------------------------
# Oracle: the all-pairs best-match scan, kept as it was before matching
# went through the inverted vertex -> community map.
# ----------------------------------------------------------------------
def _jaccard(a, b) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _oracle_match_covers(old, new, match_threshold=0.3, drift_tolerance=0.1):
    report = TransitionReport()

    def best_match(community, candidates) -> Tuple[int, float]:
        best_idx, best_sim = -1, 0.0
        for idx, candidate in enumerate(candidates):
            sim = _jaccard(community, candidate)
            if sim > best_sim:
                best_idx, best_sim = idx, sim
        return (best_idx, best_sim) if best_sim >= match_threshold else (-1, 0.0)

    fwd: Dict[int, Tuple[int, float]] = {}
    for i, old_c in enumerate(old):
        j, sim = best_match(old_c, list(new))
        if j >= 0:
            fwd[i] = (j, sim)
    bwd: Dict[int, Tuple[int, float]] = {}
    for j, new_c in enumerate(new):
        i, sim = best_match(new_c, list(old))
        if i >= 0:
            bwd[j] = (i, sim)

    consumed_old: set = set()
    consumed_new: set = set()
    merge_groups: Dict[int, List[int]] = {}
    for i, (j, _sim) in fwd.items():
        merge_groups.setdefault(j, []).append(i)
    for j, olds in sorted(merge_groups.items()):
        if len(olds) > 1:
            sim = max(fwd[i][1] for i in olds)
            report.events.append(
                CommunityEvent("merged", tuple(sorted(olds)), (j,), sim)
            )
            consumed_old.update(olds)
            consumed_new.add(j)
    split_groups: Dict[int, List[int]] = {}
    for j, (i, _sim) in bwd.items():
        if j not in consumed_new:
            split_groups.setdefault(i, []).append(j)
    for i, news in sorted(split_groups.items()):
        if i in consumed_old:
            continue
        if len(news) > 1:
            sim = max(bwd[j][1] for j in news)
            report.events.append(
                CommunityEvent("split", (i,), tuple(sorted(news)), sim)
            )
            consumed_old.add(i)
            consumed_new.update(news)
    for i, (j, sim) in sorted(fwd.items()):
        if i in consumed_old or j in consumed_new:
            continue
        old_size, new_size = len(old[i]), len(new[j])
        if new_size > old_size * (1 + drift_tolerance):
            kind = "grown"
        elif new_size < old_size * (1 - drift_tolerance):
            kind = "shrunk"
        else:
            kind = "continued"
        report.events.append(CommunityEvent(kind, (i,), (j,), sim))
        consumed_old.add(i)
        consumed_new.add(j)
    for i in range(len(old)):
        if i not in consumed_old:
            report.events.append(CommunityEvent("died", (i,), ()))
    for j in range(len(new)):
        if j not in consumed_new:
            report.events.append(CommunityEvent("born", (), (j,)))
    return report


@st.composite
def _cover_pair(draw):
    """Two lists of communities over at most 30 vertices, drawn so that
    equal-Jaccard ties, identical communities (within and across covers)
    and empty covers all occur.  Half the draws build communities from
    equal-sized blocks of vertices, where Jaccard values are ratios of
    block counts and tie often.
    """
    block = draw(st.sampled_from([1, 1, 2, 3]))
    universe = draw(st.integers(1, 30 // block))
    community = st.builds(
        lambda blocks: frozenset(b * block + r for b in blocks for r in range(block)),
        st.frozensets(st.integers(0, universe - 1), min_size=1, max_size=universe),
    )
    pool = draw(st.lists(community, min_size=1, max_size=6))
    pick = st.one_of(st.sampled_from(pool), community)
    old = draw(st.lists(pick, max_size=12))
    new = draw(st.lists(pick, max_size=12))
    return old, new


_thresholds = st.sampled_from([0.05, 0.2, 0.3, 0.5, 0.99])
_drifts = st.sampled_from([0.0, 0.1, 0.5])


def _oracle_events(old, new, threshold=0.3, drift=0.1):
    return oracle.match_covers(
        oracle.Cover(old), oracle.Cover(new), threshold, drift
    ).events


class TestMatchCoversOracle:
    """The membership join equals the retired Counter matcher, and both
    the all-pairs scan, exactly."""

    @settings(max_examples=300, deadline=None)
    @given(_cover_pair(), _thresholds, _drifts, st.data())
    def test_events_and_stable_ids_equal_oracle(
        self, communities, threshold, drift, data
    ):
        old, new = communities
        n_old = len(oracle.Cover(old))
        old_ids = data.draw(
            st.lists(st.integers(0, 99), min_size=n_old, max_size=n_old,
                     unique=True)
        )
        got = assign_stable_ids(
            Cover(old), old_ids, Cover(new), 100, threshold, drift
        )
        want = oracle.assign_stable_ids(
            oracle.Cover(old), old_ids, oracle.Cover(new), 100, threshold, drift
        )
        assert got[2].events == want[2].events
        assert got[:2] == want[:2]
        assert (
            match_covers(Cover(old), Cover(new), threshold, drift).events
            == want[2].events
            == _oracle_match_covers(Cover(old), Cover(new), threshold, drift).events
        )

    def test_forward_tie_goes_to_the_lowest_index(self):
        # Old {0, 1, 2} has Jaccard 1/4 with both new communities.  The
        # larger one (index 0) holds only vertices that come after vertex 0,
        # which is in index 1, so the scan order must not pick the winner:
        # the lower index wins and old 0 grows instead of merging with old 1.
        old = [{0, 1, 2}, {0, 9}]
        new = [{1, 2, 10, 11, 12, 13, 14}, {0, 9}]
        report = match_covers(Cover(old), Cover(new), match_threshold=0.2)
        assert report.events == _oracle_events(old, new, 0.2)
        assert report.events == _oracle_match_covers(Cover(old), Cover(new), 0.2).events
        assert report.events == [
            CommunityEvent("grown", (0,), (0,), 0.25),
            CommunityEvent("continued", (1,), (1,), 1.0),
        ]

    def test_backward_tie_goes_to_the_lowest_index(self):
        # {0, 1, 4, 5} has Jaccard 1/3 with both old communities; its best
        # old match is the lower index, which makes old 0 the one that split.
        old = [{0, 1, 2, 3}, {4, 5, 6, 7}]
        new = [{0, 1, 4, 5}, {2, 3}, {6, 7}]
        report = match_covers(Cover(old), Cover(new), match_threshold=0.3)
        assert report.events == _oracle_events(old, new, 0.3)
        assert report.events == _oracle_match_covers(Cover(old), Cover(new), 0.3).events
        assert [(e.kind, e.before, e.after) for e in report.events] == [
            ("split", (0,), (0, 1)),
            ("shrunk", (1,), (2,)),
        ]
