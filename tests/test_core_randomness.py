"""Tests for the counter-based slot randomness (scalar vs vectorised)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.randomness import (
    draw_keep_uniform,
    draw_keep_uniform_array,
    draw_position,
    draw_position_array,
    draw_src_index,
    draw_src_index_array,
    keep_lottery_uniform,
    mix64,
    mix64_array,
    repick_draw,
    slot_hash,
    slot_hash_array,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        flips = bin(mix64(0) ^ mix64(1)).count("1")
        assert 16 <= flips <= 48

    def test_output_is_64_bit(self):
        for x in [0, 1, 2**63, 2**64 - 1]:
            assert 0 <= mix64(x) < 2**64


class TestSlotHash:
    def test_distinct_fields_distinct_hashes(self):
        base = slot_hash(1, 2, 3, 0)
        assert base != slot_hash(2, 2, 3, 0)
        assert base != slot_hash(1, 3, 3, 0)
        assert base != slot_hash(1, 2, 4, 0)
        assert base != slot_hash(1, 2, 3, 1)

    def test_epoch_gives_fresh_draws(self):
        h0 = slot_hash(7, 5, 10, 0)
        h1 = slot_hash(7, 5, 10, 1)
        assert draw_src_index(h0, 100) != draw_src_index(h1, 100) or draw_position(
            h0, 10
        ) != draw_position(h1, 10)


class TestScalarDraws:
    def test_src_index_in_range(self):
        for deg in (1, 2, 7, 100):
            for v in range(20):
                h = slot_hash(0, v, 1, 0)
                assert 0 <= draw_src_index(h, deg) < deg

    def test_position_in_range(self):
        for t in (1, 2, 9, 50):
            for v in range(20):
                h = slot_hash(0, v, t, 0)
                assert 0 <= draw_position(h, t) < t

    def test_keep_uniform_in_unit_interval(self):
        values = [draw_keep_uniform(slot_hash(0, v, 1, 0)) for v in range(300)]
        assert all(0.0 <= u < 1.0 for u in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.06

    def test_rejects_degenerate_ranges(self):
        with pytest.raises(ValueError):
            draw_src_index(1, 0)
        with pytest.raises(ValueError):
            draw_position(1, 0)

    def test_repick_draw_convenience(self):
        idx, pos = repick_draw(3, 4, 5, 0, 7)
        h = slot_hash(3, 4, 5, 0)
        assert idx == draw_src_index(h, 7)
        assert pos == draw_position(h, 5)


class TestVectorisedEquality:
    """The heart of the backend-equivalence guarantee."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**63 - 1),
        st.integers(1, 500),
        st.integers(1, 300),
        st.integers(0, 5),
    )
    def test_slot_hash_matches(self, seed, n, t, epoch):
        vertices = np.arange(n, dtype=np.int64)
        vectorised = slot_hash_array(seed, vertices, t, epoch)
        scalar = [slot_hash(seed, v, t, epoch) for v in range(n)]
        assert vectorised.tolist() == scalar
        # Per-element iterations and epochs (the repair's repicks).
        levels = 1 + (vertices * 7 + t) % 300
        epochs = (vertices + epoch) % 6
        vectorised = slot_hash_array(seed, vertices, levels, epochs)
        scalar = [
            slot_hash(seed, v, int(levels[v]), int(epochs[v])) for v in range(n)
        ]
        assert vectorised.tolist() == scalar

    def test_src_index_matches(self):
        vertices = np.arange(200, dtype=np.int64)
        degrees = (vertices % 9) + 1
        h = slot_hash_array(42, vertices, 3, 0)
        vectorised = draw_src_index_array(h, degrees)
        for v in range(200):
            assert vectorised[v] == draw_src_index(
                slot_hash(42, v, 3, 0), int(degrees[v])
            )

    def test_position_matches(self):
        vertices = np.arange(200, dtype=np.int64)
        h = slot_hash_array(42, vertices, 17, 0)
        vectorised = draw_position_array(h, 17)
        for v in range(200):
            assert vectorised[v] == draw_position(slot_hash(42, v, 17, 0), 17)
        # Per-element iterations.
        levels = 1 + vertices % 23
        h = slot_hash_array(42, vertices, levels, 0)
        vectorised = draw_position_array(h, levels)
        for v in range(200):
            t = int(levels[v])
            assert vectorised[v] == draw_position(slot_hash(42, v, t, 0), t)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_mix64_array_matches_over_the_whole_range(self, values):
        x = np.array(values, dtype=np.uint64)
        before = x.copy()
        assert mix64_array(x).tolist() == [mix64(v) for v in values]
        assert np.array_equal(x, before)  # the kernel never writes its input

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(
            st.tuples(
                st.integers(-(2**63), 2**63 - 1).filter(lambda v: v != -1),
                st.integers(1, 300),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 2**32),
    )
    def test_chained_keep_lottery_matches(self, seed, slots, batch_epoch):
        v = np.array([vertex for vertex, _ in slots], dtype=np.int64)
        t = np.array([level for _, level in slots], dtype=np.int64)
        v_before, t_before = v.copy(), t.copy()
        base = slot_hash_array(seed, v, t, 0)
        base_before = base.copy()
        draws = draw_keep_uniform_array(slot_hash_array(base, v, t, batch_epoch))
        assert draws.tolist() == [
            keep_lottery_uniform(seed, vertex, level, batch_epoch)
            for vertex, level in slots
        ]
        assert np.array_equal(v, v_before) and np.array_equal(t, t_before)
        assert np.array_equal(base, base_before)

    def test_position_array_rejects_zero_iteration(self):
        with pytest.raises(ValueError):
            draw_position_array(np.zeros(3, dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            draw_position_array(
                np.zeros(3, dtype=np.uint64), np.array([2, 0, 1], dtype=np.int64)
            )


class TestUniformity:
    def test_src_index_uniform_over_small_range(self):
        """Chi-square-style bound on a 5-way draw across 5000 slots."""
        counts = [0] * 5
        for v in range(5000):
            counts[draw_src_index(slot_hash(9, v, 2, 0), 5)] += 1
        expected = 1000
        for count in counts:
            assert abs(count - expected) < 120

    def test_position_uniform(self):
        counts = [0] * 10
        for v in range(5000):
            counts[draw_position(slot_hash(9, v, 10, 0), 10)] += 1
        for count in counts:
            assert abs(count - 500) < 90
