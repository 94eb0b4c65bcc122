"""The retired lexsort barrier, kept as the columnar barrier's oracle.

:func:`repro.distributed.message_array.route_columns` orders each kind's
rows with one sort of a packed ``uint64`` key.  Before it, the barrier
sorted every kind with one ``np.lexsort`` over the owner, ``dst`` and
every field column.  That is an independent second implementation of the
same inbox order and byte accounting, so the tests keep it here to pin the
packed barrier: same inbox columns (values, order, dtype) and the same
:class:`~repro.distributed.metrics.SuperstepStats`.  Everything below is
the retired function moved verbatim.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.distributed.message_array import SCHEMAS, ArrayOutbox
from repro.distributed.metrics import SuperstepStats
from repro.graph.partition import Partitioner


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
