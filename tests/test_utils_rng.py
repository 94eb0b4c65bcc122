"""Tests for repro.utils.rng — deterministic stream derivation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_differs_across_keys(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1) != derive_seed(2)

    def test_no_positional_collision(self):
        # (1, 23) must not collide with (12, 3) even though the digits match.
        assert derive_seed(1, 23) != derive_seed(12, 3)

    def test_string_int_disambiguation(self):
        assert derive_seed("1") != derive_seed(1)

    def test_bool_int_disambiguation(self):
        assert derive_seed(True) != derive_seed(1)

    def test_bytes_supported(self):
        assert isinstance(derive_seed(b"xyz"), int)

    def test_float_supported(self):
        assert derive_seed(0.5) != derive_seed(0.25)

    def test_none_supported(self):
        assert isinstance(derive_seed(None), int)

    def test_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="unsupported RNG key"):
            derive_seed([1, 2])

    def test_result_is_64_bit(self):
        for key in range(50):
            assert 0 <= derive_seed(key) < 2**64

    @given(st.integers(), st.integers())
    def test_negative_ints_are_stable(self, a, b):
        assert derive_seed(a, b) == derive_seed(a, b)


class TestDeriveRng:
    def test_same_key_same_stream(self):
        r1 = derive_rng(9, "x")
        r2 = derive_rng(9, "x")
        assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]

    def test_different_keys_diverge(self):
        r1 = derive_rng(9, "x")
        r2 = derive_rng(9, "y")
        assert [r1.random() for _ in range(5)] != [r2.random() for _ in range(5)]

    def test_returns_random_instance(self):
        assert isinstance(derive_rng(0), random.Random)

    def test_seeded_by_derive_seed(self):
        rng = derive_rng(7, "k", 1)
        twin = random.Random(derive_seed(7, "k", 1))
        assert [rng.random() for _ in range(5)] == [
            twin.random() for _ in range(5)
        ]

    def test_indexed_streams_are_independent(self):
        """One stream per index, as the workloads and generators draw them."""
        values = [derive_rng(1, "s", i).random() for i in range(10)]
        assert len(set(values)) == 10


class TestUniformity:
    def test_derived_streams_cover_range(self):
        """Means of many derived streams concentrate near 0.5."""
        values = [derive_rng(0, i).random() for i in range(2000)]
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.03
