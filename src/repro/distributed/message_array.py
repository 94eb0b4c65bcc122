"""Columnar message plane: typed schemas, array buffers, vectorised routing.

Each message *kind* has a :class:`MessageSchema` fixing its integer payload
fields, senders accumulate messages as struct-of-arrays ``int64`` columns
(:class:`ArrayMessageContext`), and the superstep barrier
(:func:`route_columns`) routes a whole outbox with a handful of numpy
passes — one :meth:`~repro.graph.partition.Partitioner.owner_array` gather
over the destination column, ``np.bincount`` for the per-worker split, and
one lexsort per kind for deterministic inbox order.

Two contracts make runs reproducible and comparable across partitioners,
transports and worker processes:

* **accounting** — a kind's wire size is fixed by its schema: an 8-byte
  vertex address, the kind tag's UTF-8 bytes, and 8 bytes per field
  (``req`` 35, ``lab`` 43, ``spk`` 27, ``unreg``/``fetch`` 37,
  ``fval``/``corr`` 52, ``set`` 19), so per-superstep
  :class:`~repro.distributed.metrics.SuperstepStats` are counter-exact;
* **ordering** — within a kind, inbox rows are lexicographically sorted by
  ``(dst, fields...)``, whatever the order the senders emitted them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.metrics import SuperstepStats
from repro.graph.partition import Partitioner

__all__ = [
    "MessageSchema",
    "SCHEMAS",
    "register_schema",
    "ArrayMessageContext",
    "ArrayInbox",
    "ArrayOutbox",
    "route_columns",
    "packed_nbytes",
    "pack_columns",
    "unpack_columns",
]

@dataclass(frozen=True)
class MessageSchema:
    """Fixed layout of one message kind: named int64 payload fields."""

    kind: str
    fields: Tuple[str, ...]

    @property
    def width(self) -> int:
        """Number of payload columns (the destination column is implicit)."""
        return len(self.fields)

    @property
    def message_bytes(self) -> int:
        """Wire size of one message of this kind: an 8-byte vertex
        address, the kind tag's UTF-8 bytes, and 8 bytes per field."""
        return 8 + len(self.kind.encode("utf-8")) + 8 * self.width


#: Registry of every message kind the built-in programs exchange.
SCHEMAS: Dict[str, MessageSchema] = {}


def register_schema(kind: str, fields: Sequence[str]) -> MessageSchema:
    """Register (or re-register, identically) a message kind's schema."""
    schema = MessageSchema(kind, tuple(fields))
    existing = SCHEMAS.get(kind)
    if existing is not None and existing != schema:
        raise ValueError(
            f"message kind {kind!r} already registered with fields "
            f"{existing.fields}, cannot re-register with {schema.fields}"
        )
    SCHEMAS[kind] = schema
    return schema


# Algorithm 1 (rSLPA fetch protocol).
register_schema("req", ("pos", "requester", "t"))
register_schema("lab", ("label", "src", "pos", "t"))
# SLPA baseline (push protocol).
register_schema("spk", ("label", "t"))
# Algorithm 2 (Correction Propagation).
register_schema("unreg", ("pos", "tar", "k"))
register_schema("fetch", ("pos", "tar", "k"))
register_schema("fval", ("label", "k", "src", "pos", "version"))
register_schema("corr", ("label", "k", "src", "pos", "version"))
# Hash-to-Min connected components (post-processing).
register_schema("set", ("member",))


class _ColumnBuffer:
    """One kind's growing struct-of-arrays store: dst plus payload columns."""

    __slots__ = ("schema", "size", "_cols")

    def __init__(self, schema: MessageSchema, capacity: int = 16):
        self.schema = schema
        self.size = 0
        self._cols = [
            np.empty(capacity, dtype=np.int64) for _ in range(schema.width + 1)
        ]

    def _grow_to(self, need: int) -> None:
        capacity = self._cols[0].shape[0]
        if need <= capacity:
            return
        new_capacity = max(capacity * 2, need)
        for i, col in enumerate(self._cols):
            grown = np.empty(new_capacity, dtype=np.int64)
            grown[: self.size] = col[: self.size]
            self._cols[i] = grown

    def append_columns(self, dst: np.ndarray, cols: Sequence[np.ndarray]) -> None:
        if len(cols) != self.schema.width:
            raise ValueError(
                f"kind {self.schema.kind!r} takes {self.schema.width} payload "
                f"columns {self.schema.fields}, got {len(cols)}"
            )
        m = len(dst)
        if m == 0:
            return
        end = self.size + m
        self._grow_to(end)
        self._cols[0][self.size : end] = dst
        for i, col in enumerate(cols, start=1):
            if len(col) != m:
                raise ValueError(
                    f"column length mismatch for kind {self.schema.kind!r}: "
                    f"dst has {m} rows, field "
                    f"{self.schema.fields[i - 1]!r} has {len(col)}"
                )
            self._cols[i][self.size : end] = col
        self.size = end

    def append_row(self, dst: int, values: Sequence[int]) -> None:
        if len(values) != self.schema.width:
            raise ValueError(
                f"kind {self.schema.kind!r} takes {self.schema.width} payload "
                f"fields {self.schema.fields}, got {len(values)}"
            )
        end = self.size + 1
        self._grow_to(end)
        self._cols[0][self.size] = dst
        for i, value in enumerate(values, start=1):
            self._cols[i][self.size] = value
        self.size = end

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The filled ``(dst, field...)`` column views."""
        return tuple(col[: self.size] for col in self._cols)


#: A finalized outbox: kind -> (dst column, payload columns...).
ArrayOutbox = Dict[str, Tuple[np.ndarray, ...]]


class ArrayMessageContext:
    """Collects one worker's sends as per-kind growing int64 columns.

    Vectorised programs emit whole column batches via :meth:`send_columns`;
    sparse ones (the Correction Propagation cascade) send one
    ``(kind, *ints)`` row at a time with :meth:`send`.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: Dict[str, _ColumnBuffer] = {}

    def _buffer(self, kind: str) -> _ColumnBuffer:
        buffer = self._buffers.get(kind)
        if buffer is None:
            schema = SCHEMAS.get(kind)
            if schema is None:
                raise KeyError(
                    f"unknown message kind {kind!r}; register_schema() it "
                    "before sending on the array plane"
                )
            buffer = self._buffers[kind] = _ColumnBuffer(schema)
        return buffer

    def send_columns(
        self, kind: str, dst: np.ndarray, *cols: np.ndarray
    ) -> None:
        """Queue one message per row of ``dst`` with the given field columns."""
        self._buffer(kind).append_columns(dst, cols)

    def send(self, dst_vertex: int, payload: tuple) -> None:
        """Queue one message; ``payload`` is ``(kind, *fields)``."""
        self._buffer(payload[0]).append_row(int(dst_vertex), payload[1:])

    @property
    def total_messages(self) -> int:
        return sum(buffer.size for buffer in self._buffers.values())

    def finalize(self) -> ArrayOutbox:
        """The accumulated outbox as per-kind column tuples."""
        return {
            kind: buffer.columns()
            for kind, buffer in self._buffers.items()
            if buffer.size
        }


class ArrayInbox:
    """One worker's per-superstep inbox in columnar form.

    Per kind, rows are sorted lexicographically by ``(dst, fields...)``.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Optional[ArrayOutbox] = None):
        self._columns: ArrayOutbox = columns or {}

    def kinds(self) -> List[str]:
        return sorted(self._columns)

    def columns(self, kind: str) -> Optional[Tuple[np.ndarray, ...]]:
        """``(dst, field...)`` columns of ``kind``, or ``None`` if absent."""
        return self._columns.get(kind)

    @property
    def total_messages(self) -> int:
        return sum(len(cols[0]) for cols in self._columns.values())

    def __bool__(self) -> bool:
        return bool(self._columns)

    def materialize(self) -> "ArrayInbox":
        """An inbox whose columns are owned copies.

        Transport-delivered inboxes may be views into shared memory that
        a later superstep rewrites (see :mod:`repro.distributed.transport`);
        a program that wants to keep columns beyond the superstep that
        delivered them copies here first.
        """
        return ArrayInbox(
            {
                kind: tuple(np.array(col) for col in cols)
                for kind, cols in self._columns.items()
            }
        )


def route_columns(
    outboxes: Dict[int, ArrayOutbox],
    partitioner: Partitioner,
    num_partitions: int,
    superstep: int,
) -> Tuple[Dict[int, ArrayOutbox], SuperstepStats]:
    """The vectorised synchronisation barrier.

    Takes every worker's finalized outbox, returns per-worker inbox columns
    plus the superstep's communication counters.  Per kind: concatenate
    across senders, one ``owner_array`` gather over the dst column, schema
    byte accounting (no per-message size calls), a remote/local split from
    one vector compare, then ``lexsort + bincount + cumsum`` to emit
    per-worker groups in deterministic ``(dst, fields...)`` order.
    """
    step_stats = SuperstepStats(superstep=superstep)
    inboxes: Dict[int, ArrayOutbox] = {p: {} for p in range(num_partitions)}
    kinds = sorted({kind for outbox in outboxes.values() for kind in outbox})
    for kind in kinds:
        schema = SCHEMAS[kind]
        chunks = [
            (sender, outbox[kind])
            for sender, outbox in sorted(outboxes.items())
            if kind in outbox and len(outbox[kind][0])
        ]
        if not chunks:
            continue
        width = schema.width
        dst = np.concatenate([cols[0] for _, cols in chunks])
        fields = [
            np.concatenate([cols[i] for _, cols in chunks])
            for i in range(1, width + 1)
        ]
        senders = np.concatenate(
            [
                np.full(len(cols[0]), sender, dtype=np.int64)
                for sender, cols in chunks
            ]
        )
        owners = partitioner.owner_array(dst)
        if int(owners.min()) < 0 or int(owners.max()) >= num_partitions:
            # A partitioner bug must not silently drop messages.
            bad = dst[(owners < 0) | (owners >= num_partitions)]
            raise ValueError(
                f"partitioner assigned owners outside 0..{num_partitions - 1} "
                f"for destinations {bad[:5].tolist()}"
            )

        m = int(dst.shape[0])
        step_stats.messages += m
        step_stats.bytes += m * schema.message_bytes
        remote = int(np.count_nonzero(owners != senders))
        step_stats.remote_messages += remote
        step_stats.remote_bytes += remote * schema.message_bytes

        # Owner-major, then (dst, fields...) lexicographic within an owner.
        order = np.lexsort(tuple(fields[::-1]) + (dst, owners))
        counts = np.bincount(owners, minlength=num_partitions)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        dst_sorted = dst[order]
        fields_sorted = [field[order] for field in fields]
        for p in range(num_partitions):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            if lo == hi:
                continue
            inboxes[p][kind] = (dst_sorted[lo:hi],) + tuple(
                field[lo:hi] for field in fields_sorted
            )
    return inboxes, step_stats


# ----------------------------------------------------------------------
# Flat buffer packing (the transport wire/shared-memory format)
# ----------------------------------------------------------------------
# An ArrayOutbox flattens into one contiguous int64 region with a purely
# structural index: kinds in ascending name order, each kind's columns in
# (dst, fields...) order, each column ``rows * 8`` bytes.  The layout
# tuple ``((kind, rows), ...)`` plus the schema registry fully determine
# every offset, so the index exchanged between processes stays a few
# dozen bytes regardless of payload size.  Both sides must register the
# same schemas (module import does this for the built-in kinds; plugins
# must register theirs before the engine spawns workers).

def packed_nbytes(columns: ArrayOutbox) -> int:
    """Bytes needed to pack ``columns`` with :func:`pack_columns`."""
    total = 0
    for kind, cols in columns.items():
        total += len(cols) * int(cols[0].shape[0]) * 8
    return total


def pack_columns(columns: ArrayOutbox, buf) -> Tuple[Tuple[str, int], ...]:
    """Write ``columns`` into ``buf`` (a writable buffer); returns the layout."""
    layout = []
    offset = 0
    for kind in sorted(columns):
        cols = columns[kind]
        rows = int(cols[0].shape[0])
        layout.append((kind, rows))
        for col in cols:
            target = np.frombuffer(buf, dtype=np.int64, count=rows, offset=offset)
            target[:] = col
            offset += rows * 8
    return tuple(layout)


def unpack_columns(buf, layout: Sequence[Tuple[str, int]]) -> ArrayOutbox:
    """Read-only column views over ``buf`` for a :func:`pack_columns` layout.

    The views alias ``buf`` (zero copy); they stay valid only as long as
    the underlying buffer does — transports document the exact lifetime.
    """
    out: ArrayOutbox = {}
    offset = 0
    for kind, rows in layout:
        width = SCHEMAS[kind].width + 1
        cols = []
        for _ in range(width):
            view = np.frombuffer(buf, dtype=np.int64, count=rows, offset=offset)
            view.flags.writeable = False
            cols.append(view)
            offset += rows * 8
        out[kind] = tuple(cols)
    return out
