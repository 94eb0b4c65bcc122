"""The shared-memory wire of the multiprocess BSP engine.

:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine` talks to
each worker over one :mod:`repro.runtime` wire, which carries the command
verbs (``start``/``step``/``collect``/``stop``, the recovery verbs) and
the superstep payloads — the per-kind int64 column inboxes and outboxes
of the columnar message plane — alike.  The engine resolves its
``transport`` name to a wire class through
:data:`repro.api.registry.TRANSPORTS`:

``pipe``
    :class:`~repro.runtime.PipeWire`: every message, columns included, is
    pickled onto the worker's ``multiprocessing.Pipe``.
``shm``
    :class:`SharedMemoryTransport` (this module): a ``PipeWire`` whose
    array payloads travel through shared memory.  Each direction of each
    worker owns a double-buffered ring of ``multiprocessing.shared_memory``
    segments; the writer packs its arrays in place (one memcpy), the pipe
    carries only an index header ``(segment name, ((name, shape), ...))``
    in the payload's place, and the reader maps the arrays back as
    read-only numpy views — payload arrays are never pickled.  The
    barrier becomes an index exchange plus
    :func:`~repro.distributed.message_array.route_columns` over views.
    A worker's ``collect()`` reply travels through its outbox ring the
    same way, and the driver copies it out once, so the results it hands
    back are its caller's own arrays.
``tcp``
    :class:`~repro.runtime.TcpWire`: pickles over a localhost socket each
    worker dials, so worker groups exchange supersteps exactly as two
    hosts would.  Every column array travels out of band: its raw bytes
    are sent from and received into its own memory, not copied through
    the pickle.

Every transport preserves bit-identical results and per-superstep
:class:`~repro.distributed.metrics.CommStats`: routing, ordering, and
byte accounting all happen in :func:`route_columns` on the driver, before
any wire touches the columns.

Lifetime contract: inbox columns delivered by the ``shm`` transport are
views into a ring slot that is rewritten two supersteps later, so
programs must consume (or copy, see
:meth:`~repro.distributed.message_array.ArrayInbox.materialize`) their
inbox within the superstep that delivered it — the contract the built-in
array programs already satisfy.  Collect replies are never views: no
array the driver returns outlives its segment.

Crash safety: a worker that dies mid-superstep can never hang the driver.
Every wire's receives poll worker liveness and raise
:class:`WorkerCrashedError` naming the dead worker.  Shared-memory
segments are closed and unlinked on every exit path, including after
``terminate()``; the driver reaps a dead worker's outbox segments when it
detaches the worker.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.distributed.message_array import (
    pack_columns,
    packed_nbytes,
    unpack_columns,
)
from repro.runtime import TIMEOUT, ChildCrashedError, PipeWire, WorkerCrashedError

__all__ = ["WorkerCrashedError", "SharedMemoryTransport"]

#: Verbs whose reply is the worker's outbox.
_STEPPED = ("start", "step")

#: Slots per ring (writer) and mappings per cache (reader).
_RING_DEPTH = 2


def _packable(reply) -> bool:
    """Whether a ``collect()`` reply can cross the ring: named int64
    arrays (anything else is pickled onto the pipe)."""
    return isinstance(reply, dict) and all(
        isinstance(value, np.ndarray) and value.dtype == np.int64
        for value in reply.values()
    )


def _unlink_quiet(segment) -> None:
    """Unlink a segment, tolerating the peer having unlinked it first."""
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def _close_quiet(segment) -> None:
    """Close a mapping; tolerate still-exported views (process is exiting)."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a program retained views
        pass


class _SegmentRing:
    """Writer half of one direction: a double-buffered ring of segments.

    ``pack`` alternates between :data:`_RING_DEPTH` slots, so the reader's
    views of superstep ``s`` stay valid while superstep ``s+1`` is written
    — the lock-step barrier guarantees nothing older is still referenced.
    A slot grows geometrically when a payload outgrows it (the header
    names the segment, so the reader re-attaches transparently).
    """

    def __init__(self, min_bytes: int = 1 << 20):
        self._min_bytes = min_bytes
        self._slots: List[Optional[object]] = [None] * _RING_DEPTH
        self._seq = 0
        self.grows = 0  # slot (re)allocations; read by the traced driver

    def pack(self, payload) -> Tuple[Optional[str], tuple]:
        """Write ``payload`` into the next slot; returns the index header."""
        from multiprocessing import shared_memory

        if not payload:
            return (None, ())
        slot = self._seq % _RING_DEPTH
        self._seq += 1
        need = packed_nbytes(payload)
        segment = self._slots[slot]
        if segment is None or segment.size < need:
            self.grows += 1
            size = max(need, self._min_bytes)
            if segment is not None:
                size = max(size, 2 * segment.size)
                _close_quiet(segment)
                _unlink_quiet(segment)
            segment = shared_memory.SharedMemory(create=True, size=size)
            self._slots[slot] = segment
        layout = pack_columns(payload, segment.buf)
        return (segment.name, layout)

    def close(self) -> None:
        for i, segment in enumerate(self._slots):
            if segment is not None:
                _close_quiet(segment)
                _unlink_quiet(segment)
                self._slots[i] = None


class _SegmentCache:
    """Reader half: attaches segments by name and keeps the
    :data:`_RING_DEPTH` most recently named mappings — the writer's live
    slots.  An older name is a segment its writer unlinked when the slot
    grew, and the lock-step barrier left no view of it alive."""

    def __init__(self):
        self._segments: "OrderedDict[str, object]" = OrderedDict()

    def unpack(self, header: Tuple[Optional[str], tuple]) -> Dict[str, np.ndarray]:
        from multiprocessing import shared_memory

        name, layout = header
        if name is None:
            return {}
        segment = self._segments.get(name)
        if segment is not None:
            self._segments.move_to_end(name)
        else:
            # Attaching registers with the resource tracker a second time;
            # that's a harmless set-add — the tracker daemon is shared with
            # the process that created the segment (fork and spawn both
            # hand children the parent's tracker), and the one explicit
            # unlink in whichever process reaps the segment removes the
            # name exactly once.
            segment = shared_memory.SharedMemory(name=name)
            self._segments[name] = segment
            if len(self._segments) > _RING_DEPTH:
                _close_quiet(self._segments.popitem(last=False)[1])
        return unpack_columns(segment.buf, layout)

    def close(self, unlink: bool = False) -> None:
        """Detach everything; ``unlink=True`` also reaps segments whose
        owner died before it could (missing files are fine)."""
        for segment in self._segments.values():
            _close_quiet(segment)
            if unlink:
                _unlink_quiet(segment)
        self._segments.clear()


class SharedMemoryTransport(PipeWire):
    """A :class:`~repro.runtime.PipeWire` whose array payloads travel
    through double-buffered shared-memory rings.

    The driver owns one :class:`_SegmentRing` per worker for inboxes; each
    worker owns one for its outboxes and its ``collect()`` reply.  The
    ``step`` verb's inbox, every outbox and every collect reply of named
    int64 arrays cross the pipe as their ``(segment name, layout)``
    header — the index exchange.  Each side maps the peer's columns as
    read-only views, so no payload bytes are ever pickled; the driver
    copies a collect reply out of the ring once, so its caller owns it.
    """

    def __init__(self, crash_error: type = ChildCrashedError):
        super().__init__(crash_error)
        self._inbox_rings: Dict[int, _SegmentRing] = {}
        self._outbox_caches: Dict[int, _SegmentCache] = {}
        self._collecting: Set[int] = set()  # workers owing a collect reply

    @property
    def segment_grows(self) -> int:
        """Inbox ring slot (re)allocations so far, over every worker."""
        return sum(ring.grows for ring in self._inbox_rings.values())

    def bind(self) -> None:
        # Start the resource-tracker daemon BEFORE the workers fork, so
        # driver and workers share one tracker.  Then create/unlink pairs
        # balance exactly: attaching re-adds a name the creator already
        # registered (a set no-op) and the single unlink removes it —
        # whereas per-process trackers would try to reap each other's
        # live segments at exit.
        try:  # pragma: no cover - tracker is POSIX-only
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError):
            pass
        super().bind()

    def _endpoint(self, cid: int) -> "SharedMemoryEndpoint":
        # A respawned worker keeps the driver-owned inbox ring: it
        # re-attaches the same segments by name on its first step.
        self._inbox_rings.setdefault(cid, _SegmentRing())
        self._outbox_caches.setdefault(cid, _SegmentCache())
        return SharedMemoryEndpoint(super()._endpoint(cid))

    def send(self, cid: int, message) -> None:
        # Pack first (never blocks), then the verb: the worker attaches
        # only after seeing the header, so the data is already in place.
        if message[0] == "step":
            _verb, superstep, columns = message
            message = ("step", superstep, self._inbox_rings[cid].pack(columns))
        super().send(cid, message)
        if message[0] == "collect":
            self._collecting.add(cid)

    def recv(self, cid: int, timeout: Optional[float] = None):
        message = super().recv(cid, timeout)
        if message is TIMEOUT:
            return message
        # A worker answers a collect verb before anything else.
        collecting = cid in self._collecting
        self._collecting.discard(cid)
        # A header is the only 2-tuple a worker sends (control replies are
        # longer tuples, a collect reply of other objects a dict).
        if isinstance(message, tuple) and len(message) == 2:
            blocks = self._outbox_caches[cid].unpack(message)
            if collecting:
                # One copy out of the ring: the caller keeps its results
                # past the slot's next rewrite and past shutdown.
                return {name: np.array(block) for name, block in blocks.items()}
            return {kind: tuple(block) for kind, block in blocks.items()}
        return message

    def detach(self, cid: int) -> None:
        # Reap the dead worker's outbox segments now (its own close never
        # ran); its replacement's endpoint starts a fresh cache.
        super().detach(cid)
        self._collecting.discard(cid)
        cache = self._outbox_caches.pop(cid, None)
        if cache is not None:
            cache.close(unlink=True)

    def close(self) -> None:
        super().close()
        for ring in self._inbox_rings.values():
            ring.close()
        for cache in self._outbox_caches.values():
            # Reap worker-owned segments too: after a crash (or terminate)
            # the worker's own close never ran.
            cache.close(unlink=True)
        self._inbox_rings.clear()
        self._outbox_caches.clear()
        self._collecting.clear()


class SharedMemoryEndpoint:
    """Worker half: wraps the pipe endpoint, owns the outbox ring and maps
    the driver's inbox segments."""

    def __init__(self, pipe):
        self._pipe = pipe
        self._ring: Optional[_SegmentRing] = None
        self._cache: Optional[_SegmentCache] = None
        self._due: Optional[str] = None  # the verb the next send answers

    def open(self) -> None:
        self._pipe.open()
        self._ring = _SegmentRing()
        self._cache = _SegmentCache()

    def recv(self):
        message = self._pipe.recv()
        # The worker answers a stepped verb with its outbox, and a collect
        # verb with its results, before anything else.
        self._due = message[0]
        if message[0] == "step":
            _verb, superstep, header = message
            blocks = self._cache.unpack(header)
            message = ("step", superstep, {
                kind: tuple(block) for kind, block in blocks.items()
            })
        return message

    def send(self, message) -> None:
        due, self._due = self._due, None
        if due in _STEPPED or (due == "collect" and _packable(message)):
            message = self._ring.pack(message)
        self._pipe.send(message)

    def close(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        if self._cache is not None:
            # The driver owns (and unlinks) the inbox segments.
            self._cache.close(unlink=False)
            self._cache = None
        self._pipe.close()
