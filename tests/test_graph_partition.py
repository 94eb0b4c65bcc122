"""Tests for repro.graph.partition."""

import numpy as np
import pytest

from repro.graph.partition import (
    ContiguousPartitioner,
    HashPartitioner,
    Partitioner,
    partition_counts,
)


class TestHashPartitioner:
    def test_owner_in_range(self):
        part = HashPartitioner(7)
        assert all(0 <= part.owner(v) < 7 for v in range(500))

    def test_deterministic(self):
        a = HashPartitioner(5)
        b = HashPartitioner(5)
        assert [a.owner(v) for v in range(100)] == [b.owner(v) for v in range(100)]

    def test_salt_changes_assignment(self):
        a = HashPartitioner(5, salt=0)
        b = HashPartitioner(5, salt=1)
        assert [a.owner(v) for v in range(100)] != [b.owner(v) for v in range(100)]

    def test_roughly_balanced(self):
        part = HashPartitioner(4)
        counts = partition_counts(part, range(4000))
        assert min(counts) > 800  # perfect balance would be 1000

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            HashPartitioner(2.5)


class TestOwnerArray:
    """The vectorised owner gather must match the scalar owner() exactly."""

    def test_hash_partitioner_matches_scalar(self):
        part = HashPartitioner(5, salt=3)
        ids = np.arange(2000, dtype=np.int64)
        assert part.owner_array(ids).tolist() == [
            part.owner(v) for v in range(2000)
        ]

    def test_contiguous_partitioner_matches_scalar(self):
        part = ContiguousPartitioner(4, num_vertices=100)
        ids = np.arange(100, dtype=np.int64)
        assert part.owner_array(ids).tolist() == [
            part.owner(v) for v in range(100)
        ]

    def test_contiguous_out_of_range_fallback_matches_scalar(self):
        part = ContiguousPartitioner(3, num_vertices=10)
        ids = np.array([0, 5, 9, 10, 1_000_000], dtype=np.int64)
        assert part.owner_array(ids).tolist() == [
            part.owner(int(v)) for v in ids
        ]

    def test_base_class_fallback(self):
        class OddEven(Partitioner):
            def owner(self, vertex):
                return vertex % 2

        part = OddEven(2)
        ids = np.arange(10, dtype=np.int64)
        assert part.owner_array(ids).tolist() == [v % 2 for v in range(10)]

    def test_empty_input(self):
        part = HashPartitioner(3)
        assert part.owner_array(np.empty(0, dtype=np.int64)).tolist() == []


class TestContiguousPartitioner:
    def test_blocks_are_contiguous(self):
        part = ContiguousPartitioner(3, num_vertices=9)
        assert [part.owner(v) for v in range(9)] == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_uneven_division(self):
        part = ContiguousPartitioner(3, num_vertices=10)
        owners = [part.owner(v) for v in range(10)]
        assert owners == sorted(owners)
        assert set(owners) == {0, 1, 2}

    def test_out_of_range_falls_back_to_hash(self):
        part = ContiguousPartitioner(3, num_vertices=10)
        assert 0 <= part.owner(1_000_000) < 3

    def test_partition_groups_cover_all(self):
        part = ContiguousPartitioner(4, num_vertices=20)
        groups = part.partition(range(20))
        assert sorted(v for vs in groups.values() for v in vs) == list(range(20))
        assert set(groups) == {0, 1, 2, 3}
