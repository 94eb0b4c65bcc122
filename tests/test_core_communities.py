"""Tests for the Cover datatype."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tracking as oracle
from repro.core.communities import Cover


class TestConstruction:
    def test_drops_empty_communities(self):
        cover = Cover([{0, 1}, set(), {2}])
        assert len(cover) == 2

    def test_canonical_order_by_size(self):
        cover = Cover([{5}, {0, 1, 2}, {3, 4}])
        assert [len(c) for c in cover] == [3, 2, 1]

    def test_bool(self):
        assert not Cover([])
        assert Cover([{1, 2}])

    @pytest.mark.parametrize("community", [{1.5, 2}, {"a"}, {2**63}, {2**70}])
    def test_refuses_ids_an_int64_cast_would_change(self, community):
        with pytest.raises(TypeError, match="vertex ids"):
            Cover([{0, 1}, community])


class TestMembership:
    def test_memberships_of(self):
        cover = Cover([{0, 1, 2}, {2, 3}])
        assert len(cover.memberships_of(2)) == 2
        assert cover.memberships_of(99) == ()

    def test_overlapping_vertices(self):
        cover = Cover([{0, 1, 2}, {2, 3}, {3, 4}])
        assert cover.overlapping_vertices() == frozenset({2, 3})

    def test_covered_vertices(self):
        cover = Cover([{0, 1}, {5}])
        assert cover.covered_vertices() == frozenset({0, 1, 5})

    def test_membership_counts(self):
        cover = Cover([{0, 1}, {1, 2}])
        assert cover.membership_counts() == {0: 1, 1: 2, 2: 1}


class TestDerived:
    def test_sizes(self):
        assert Cover([{0, 1, 2}, {3, 4}]).sizes() == [3, 2]

    def test_size_entropy_delegates(self):
        import math

        cover = Cover([{0, 1}, {2, 3}])
        assert cover.size_entropy(4) == pytest.approx(math.log(2))

    def test_equality_as_multiset(self):
        a = Cover([{0, 1}, {2, 3}])
        b = Cover([{3, 2}, {1, 0}])
        assert a == b
        c = Cover([{0, 1}, {2, 3}, {2, 3}])
        assert a != c

    def test_getitem_and_iter(self):
        cover = Cover([{0, 1}])
        assert cover[0] == frozenset({0, 1})
        assert list(cover) == [frozenset({0, 1})]


class TestTransforms:
    def test_from_membership(self):
        cover = Cover.from_membership({0: [10], 1: [10, 20], 2: [20]})
        assert cover == Cover([{0, 1}, {1, 2}])

    def test_restricted_to(self):
        cover = Cover([{0, 1, 2}, {3, 4}])
        restricted = cover.restricted_to({0, 1, 3})
        assert restricted == Cover([{0, 1}, {3}])

    def test_restriction_drops_emptied(self):
        cover = Cover([{0, 1}, {5, 6}])
        assert len(cover.restricted_to({0, 1})) == 1

    def test_without_smaller_than(self):
        cover = Cover([{0, 1, 2}, {3}, {4, 5}])
        assert len(cover.without_smaller_than(2)) == 2

    def test_as_sets_returns_mutable_copies(self):
        cover = Cover([{0, 1}])
        sets = cover.as_sets()
        sets[0].add(9)
        assert cover[0] == frozenset({0, 1})


# ----------------------------------------------------------------------
# The array cover against the retired frozenset cover
# ----------------------------------------------------------------------
_layouts = st.sampled_from([
    lambda v: v,
    lambda v: 3 * v + 7,
    lambda v: 2**40 + v,
    lambda v: -1 - v,
    lambda v: (v - 8) * 2**59,  # too wide for one int64 pair key
])


@st.composite
def _communities(draw):
    """Lists of communities over a drawn id layout, with duplicates, empty
    communities, repeated members, and equal-size communities that share
    their smallest members (a shared prefix plus a drawn tail)."""
    layout = draw(_layouts)
    universe = draw(st.integers(1, 16))
    vertex = st.integers(0, universe - 1).map(layout)
    plain = st.lists(vertex, max_size=universe + 2)
    prefix = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
    tails = st.lists(vertex, min_size=1, max_size=3).map(lambda t: prefix + t)
    pool = draw(st.lists(st.one_of(plain, tails), min_size=1, max_size=8))
    picks = st.one_of(st.sampled_from(pool), plain, tails, st.just([]))
    return draw(st.lists(picks, max_size=14)), layout, universe


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_communities())
    def test_views_equal_the_frozenset_cover(self, drawn):
        communities, layout, universe = drawn
        got, want = Cover(communities), oracle.Cover(communities)
        assert got.communities == want.communities
        assert list(got) == list(want) and len(got) == len(want)
        assert got.sizes() == want.sizes()
        for v in [layout(u) for u in range(universe + 1)]:
            assert got.memberships_of(v) == want.memberships_of(v)
        assert got.overlapping_vertices() == want.overlapping_vertices()
        assert got.covered_vertices() == want.covered_vertices()
        assert got.membership_counts() == want.membership_counts()
        reordered = Cover(list(reversed(communities)))
        assert (got == reordered) is True
        assert (got == Cover(communities + [[layout(universe)]])) is False
        assert pickle.loads(pickle.dumps(got)).communities == want.communities
        assert Cover(got) == got

    @settings(max_examples=100, deadline=None)
    @given(_communities(), _communities())
    def test_equality_matches_the_oracle(self, first, second):
        a, b = first[0], second[0]
        assert (Cover(a) == Cover(b)) == (oracle.Cover(a) == oracle.Cover(b))

    def test_from_pairs_is_order_free(self):
        labels = np.array([5, 5, 9, 9, 9, 5, 2])
        vertices = np.array([4, 1, 8, 1, 3, 4, 6])
        cover = Cover.from_pairs(labels, vertices)
        assert cover.communities == (
            frozenset({1, 3, 8}), frozenset({1, 4}), frozenset({6})
        )
        assert cover == Cover.from_pairs(labels[::-1], vertices[::-1])

    def test_arrays_are_canonical_and_read_only(self):
        cover = Cover([{9, 2}, {7, 3, 5}, {2, 1}])
        assert cover.indptr.tolist() == [0, 3, 5, 7]
        assert cover.member_ids.tolist() == [3, 5, 7, 1, 2, 2, 9]
        vertices, offsets, cids = cover.by_vertex()
        assert vertices.tolist() == [1, 2, 3, 5, 7, 9]
        assert offsets.tolist() == [0, 1, 3, 4, 5, 6, 7]
        assert cids.tolist() == [1, 1, 2, 0, 0, 0, 2]
        with pytest.raises(ValueError):
            cover.member_ids[0] = 0
