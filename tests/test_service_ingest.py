"""Tests for the ingest-plane micro-batcher."""

import pytest

from repro.service.ingest import INSERT, EditQueue


class TestOfferCoalescing:
    def test_offer_enqueues(self):
        queue = EditQueue(batch_size=4)
        assert queue.offer_insert(1, 2) is True
        assert queue.pending == 1

    def test_edges_are_normalised(self):
        queue = EditQueue(batch_size=4)
        queue.offer_insert(2, 1)
        assert queue.offer_insert(1, 2) is False  # same edge, duplicate
        assert queue.pending == 1
        assert queue.duplicates == 1

    def test_opposite_ops_cancel(self):
        queue = EditQueue(batch_size=4)
        queue.offer_insert(1, 2)
        assert queue.offer_delete(1, 2) is False
        assert queue.pending == 0
        assert queue.cancelled_pairs == 1

    def test_delete_then_insert_cancels_too(self):
        queue = EditQueue(batch_size=4)
        queue.offer_delete(3, 4)
        queue.offer_insert(4, 3)
        assert queue.pending == 0
        assert queue.cancelled_pairs == 1

    def test_cancel_then_reoffer_is_pending_again(self):
        queue = EditQueue(batch_size=4)
        queue.offer_insert(1, 2)
        queue.offer_delete(1, 2)
        assert queue.offer_delete(1, 2) is True
        assert queue.pending == 1
        batch = queue.drain()
        assert batch.deletions == frozenset({(1, 2)})

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="op"):
            EditQueue(batch_size=2).offer("x", 1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EditQueue(batch_size=2).offer_insert(3, 3)

    def test_offer_has_no_depth_bound(self):
        """The facade drains every window it fills, so the queue itself
        accepts any number of distinct edits past ``batch_size``."""
        queue = EditQueue(batch_size=2)
        assert all(queue.offer_insert(0, v) for v in range(1, 51))
        assert queue.pending == 50
        assert queue.ready

    def test_coalescing_on_a_ready_window(self):
        queue = EditQueue(batch_size=2)
        queue.offer_insert(1, 2)
        queue.offer_insert(2, 3)
        assert queue.ready
        assert queue.offer_insert(1, 2) is False     # duplicate
        assert queue.offer_delete(1, 2) is False     # cancellation
        assert queue.pending == 1
        assert not queue.ready
        assert (queue.duplicates, queue.cancelled_pairs) == (1, 1)


class TestFlushPolicy:
    def test_ready_at_batch_size(self):
        queue = EditQueue(batch_size=2)
        queue.offer_insert(1, 2)
        assert not queue.ready
        queue.offer_insert(2, 3)
        assert queue.ready

    def test_cancellation_can_unready(self):
        queue = EditQueue(batch_size=2)
        queue.offer_insert(1, 2)
        queue.offer_insert(2, 3)
        assert queue.ready
        queue.offer_delete(1, 2)
        assert not queue.ready

    def test_drain_returns_net_batch(self):
        queue = EditQueue(batch_size=8)
        queue.offer_insert(1, 2)
        queue.offer_delete(3, 4)
        queue.offer_insert(5, 6)
        queue.offer_delete(5, 6)  # cancels
        batch = queue.drain()
        assert batch.insertions == frozenset({(1, 2)})
        assert batch.deletions == frozenset({(3, 4)})
        assert queue.pending == 0

    def test_drain_takes_the_whole_window(self):
        queue = EditQueue(batch_size=2)
        queue.offer_insert(1, 2)
        queue.offer_delete(3, 4)
        queue.offer_insert(5, 6)       # past the window's size
        batch = queue.drain()
        assert batch.insertions == frozenset({(1, 2), (5, 6)})
        assert batch.deletions == frozenset({(3, 4)})
        assert queue.pending == 0 and not queue.ready
        assert not queue.drain()
        assert (queue.drained_batches, queue.drained_edits) == (1, 3)

    def test_drain_makes_room_for_the_next_window(self):
        queue = EditQueue(batch_size=2)
        queue.offer_insert(1, 2)
        queue.offer_insert(2, 3)
        queue.drain()
        assert queue.offer_insert(1, 2) is True   # pending again, not a duplicate
        assert not queue.ready
        queue.offer_insert(3, 4)
        assert queue.ready
        assert queue.drain().insertions == frozenset({(1, 2), (3, 4)})
        assert (queue.drained_batches, queue.drained_edits) == (2, 4)

    def test_drain_empty_is_empty_batch(self):
        queue = EditQueue(batch_size=2)
        batch = queue.drain()
        assert not batch
        assert queue.drained_batches == 0

    def test_counters(self):
        queue = EditQueue(batch_size=8)
        queue.offer_insert(1, 2)
        queue.offer_insert(1, 2)
        queue.offer_delete(1, 2)
        queue.offer_insert(3, 4)
        queue.drain()
        stats = queue.stats()
        assert stats["offered"] == 4
        assert stats["duplicates"] == 1
        assert stats["cancelled_pairs"] == 1
        assert stats["drained_batches"] == 1
        assert stats["drained_edits"] == 1

    def test_coalesce_ratio(self):
        queue = EditQueue(batch_size=8)
        assert queue.coalesce_ratio == 0.0        # nothing offered yet
        queue.offer_insert(1, 2)
        queue.offer_insert(1, 2)                  # duplicate
        queue.offer_insert(3, 4)
        queue.offer_delete(3, 4)                  # cancels (3, 4)
        queue.offer_insert(5, 6)
        # One duplicate plus both halves of one pair, of five offers.
        assert queue.coalesce_ratio == pytest.approx(3 / 5)
        assert queue.stats()["coalesce_ratio"] == queue.coalesce_ratio

    def test_stats_keys(self):
        assert set(EditQueue(batch_size=2).stats()) == {
            "pending", "offered", "duplicates", "cancelled_pairs",
            "drained_batches", "drained_edits", "coalesce_ratio",
        }


class TestBackpressure:
    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            EditQueue(batch_size=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: EditQueue(batch_size=8, max_pending=16),
            lambda: EditQueue(batch_size=2).offer(INSERT, 1, 2, timeout=0.1),
            lambda: EditQueue(batch_size=2).drain(limit=1),
        ],
        ids=["max_pending", "offer-timeout", "drain-limit"],
    )
    def test_no_bound_wait_or_partial_drain(self, call):
        """Ingest is synchronous: the queue has no depth bound to wait on
        and drains whole windows only."""
        with pytest.raises(TypeError):
            call()
