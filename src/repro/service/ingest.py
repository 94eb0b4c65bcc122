"""Ingest plane: a coalescing micro-batcher for single-edit streams.

A production monitor does not receive :class:`~repro.graph.edits.EditBatch`
objects — it receives a stream of individual "edge appeared" / "edge
vanished" events (the operating mode of Section V-B3, and the explicit
shape of the streaming systems in the related work).  :class:`EditQueue`
sits between that stream and ``detector.update``:

* **Coalescing** — a pending insert and a later delete of the same edge
  (or vice versa) cancel each other before ever reaching the detector, and
  duplicate events for an already-pending edge are absorbed.  What drains
  is the *net* batch of the window, which is exactly the batch whose apply
  cost Correction Propagation pays.
* **Flush policy** — the queue reports :attr:`ready` once ``batch_size``
  net edits are pending; the service flushes there, or earlier on demand.

Ingest is synchronous: the ``submit`` that fills a window drains and
applies it before returning, so the queue never holds more than
``batch_size - 1`` edits and needs no bound of its own.

The queue is graph-agnostic: validation against the live graph happens at
apply time (in the service, before the WAL append), so the queue itself
stays O(1) per offer.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.graph.adjacency import normalize_edge
from repro.graph.edits import EditBatch
from repro.utils.validation import check_positive, check_type

__all__ = ["EditQueue", "INSERT", "DELETE"]

#: The two edit kinds, spelled like the CLI edit-file prefixes.
INSERT = "+"
DELETE = "-"

Edge = Tuple[int, int]


class EditQueue:
    """Coalesce single edge edits into net :class:`EditBatch` windows.

    >>> queue = EditQueue(batch_size=2)
    >>> queue.offer_insert(1, 2)
    True
    >>> queue.offer_delete(2, 1)   # cancels the pending insert
    False
    >>> queue.pending
    0
    """

    def __init__(self, batch_size: int = 256):
        check_type(batch_size, int, "batch_size")
        check_positive(batch_size, "batch_size")
        self.batch_size = batch_size
        # Net pending edge -> op.
        self._pending: Dict[Edge, str] = {}
        self.offered = 0
        self.cancelled_pairs = 0
        self.duplicates = 0
        self.drained_batches = 0
        self.drained_edits = 0

    # ------------------------------------------------------------------
    # Offering
    # ------------------------------------------------------------------
    def offer(self, op: str, u: int, v: int) -> bool:
        """Enqueue one edit; returns True iff the edit is now pending.

        False means it coalesced away — a duplicate of an identical pending
        edit, or the cancellation of the opposite pending edit.
        """
        if op not in (INSERT, DELETE):
            raise ValueError(f"op must be '+' or '-', got {op!r}")
        edge = normalize_edge(u, v)
        self.offered += 1
        pending_op = self._pending.get(edge)
        if pending_op == op:
            self.duplicates += 1
            return False
        if pending_op is not None:  # opposite op: the pair annihilates
            del self._pending[edge]
            self.cancelled_pairs += 1
            return False
        self._pending[edge] = op
        return True

    def offer_insert(self, u: int, v: int) -> bool:
        return self.offer(INSERT, u, v)

    def offer_delete(self, u: int, v: int) -> bool:
        return self.offer(DELETE, u, v)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Net edits currently queued."""
        return len(self._pending)

    @property
    def ready(self) -> bool:
        """Whether a full ``batch_size`` window is pending."""
        return len(self._pending) >= self.batch_size

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of offered edits absorbed before reaching the detector.

        Duplicates and both halves of every cancelled insert/delete pair
        never cost the repair engine anything; this is the ingest plane's
        headline efficiency number (0.0 until anything is offered).
        """
        if not self.offered:
            return 0.0
        return (self.duplicates + 2 * self.cancelled_pairs) / self.offered

    def drain(self) -> EditBatch:
        """Remove every pending edit as one net batch (the window)."""
        taken = self._pending
        self._pending = {}
        insertions = frozenset(e for e, op in taken.items() if op == INSERT)
        deletions = frozenset(e for e, op in taken.items() if op == DELETE)
        batch = EditBatch(insertions=insertions, deletions=deletions)
        if batch:
            self.drained_batches += 1
            self.drained_edits += batch.size
        return batch

    def stats(self) -> Dict[str, Union[int, float]]:
        return {
            "pending": self.pending,
            "offered": self.offered,
            "duplicates": self.duplicates,
            "cancelled_pairs": self.cancelled_pairs,
            "drained_batches": self.drained_batches,
            "drained_edits": self.drained_edits,
            "coalesce_ratio": self.coalesce_ratio,
        }

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return f"EditQueue(pending={self.pending}, batch_size={self.batch_size})"
