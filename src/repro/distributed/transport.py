"""Data-plane transports for the multiprocess BSP engine.

:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine` separates
*control* from *data*: tiny command verbs (``start``/``step``/``collect``/
``stop``) always travel over a per-worker ``multiprocessing.Pipe``, while
the superstep payloads — the per-kind int64 column outboxes and inboxes of
the columnar message plane — go through a pluggable :class:`Transport`.
Three built-ins register in :data:`repro.api.registry.TRANSPORTS`:

``pipe``
    The reference data plane: payloads piggyback on the control pipe as
    pickles (exactly the pre-transport behaviour).
``shm``
    Zero-copy shared memory.  Each direction of each worker owns a
    double-buffered ring of ``multiprocessing.shared_memory`` segments;
    the writer packs its columns in place (one memcpy), the control pipe
    carries only an index header ``(segment name, (kind, rows), ...)``,
    and the reader maps the columns back as read-only numpy views —
    payload arrays are never pickled.  The barrier becomes an
    index-exchange plus :func:`~repro.distributed.message_array.
    route_columns` over views.
``tcp``
    The same framed columns over localhost TCP sockets, so driver-spawned
    worker groups exchange supersteps exactly as two hosts would: a
    length-prefixed layout header followed by the raw column bytes
    (``sendall``/``recv_into``, no payload pickling).  The control pipe
    still sequences the supersteps — its acks double as the liveness
    signal.

Every transport preserves bit-identical results and per-superstep
:class:`~repro.distributed.metrics.CommStats`: routing, ordering, and
byte accounting all happen in :func:`route_columns` on the driver, before
any transport touches the columns.

Lifetime contract: inbox columns delivered by the ``shm`` transport are
views into a ring slot that is rewritten two supersteps later, so
programs must consume (or copy, see
:meth:`~repro.distributed.message_array.ArrayInbox.materialize`) their
inbox within the superstep that delivered it — the contract the built-in
array programs already satisfy.

Crash safety: a worker that dies mid-superstep can never hang the driver.
The control pipes and the tcp sockets are :mod:`repro.runtime` wires,
whose receives poll worker liveness and raise :class:`WorkerCrashedError`
naming the dead worker.  Shared-memory segments and sockets are closed
(and segments unlinked) on every exit path, including after
``terminate()``.

Observability: the engine sets :attr:`Transport.obs` (a
:class:`repro.obs.Obs`) when the run is traced, and each transport
records driver-side metrics under ``transport.<name>.*`` — pipe send/recv
counts, shm payload bytes and segment growth, tcp payload bytes and
send/recv stall seconds.  With ``obs`` left ``None`` (the default) no
transport path touches :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.message_array import (
    SCHEMAS,
    ArrayOutbox,
    pack_columns,
    packed_nbytes,
    unpack_columns,
)
from repro.runtime import POLL_S, SocketPeer, TcpWire, WorkerCrashedError

__all__ = [
    "WorkerCrashedError",
    "Transport",
    "WorkerEndpoint",
    "PipeTransport",
    "SharedMemoryTransport",
    "SocketTransport",
]


# ----------------------------------------------------------------------
# Transport interface
# ----------------------------------------------------------------------
class Transport:
    """Driver-side data plane: one instance per engine, all workers.

    The engine calls, in order: :meth:`bind` (before spawning),
    :meth:`worker_endpoint` per worker (the picklable child half),
    :meth:`attach` per started process, then per superstep
    :meth:`send_inbox` / :meth:`recv_outbox`, and finally :meth:`close`
    (idempotent, called on every exit path).
    """

    name = "base"
    #: Observability context (:class:`repro.obs.Obs`) the engine attaches
    #: when the run is traced; ``None`` keeps every data-plane path free
    #: of metric calls.
    obs = None

    def bind(self, worker_ids: Sequence[int], mp_context) -> None:
        """Allocate driver-side resources before any worker starts."""

    def worker_endpoint(self, worker_id: int) -> "WorkerEndpoint":
        """The picklable worker half handed to the child process."""
        raise NotImplementedError

    def attach(self, worker_id: int, process) -> None:
        """Complete the per-worker handshake after ``process`` started."""

    def send_inbox(
        self, worker_id: int, payload, send_command: Callable[[object], None]
    ) -> None:
        """Ship one inbox; ``send_command(header)`` emits the pipe verb.

        Transports control the command/payload ordering themselves: the
        pipe command must precede any blocking payload push, or a worker
        still waiting on its verb could deadlock the driver.
        """
        raise NotImplementedError

    def recv_outbox(self, worker_id: int, recv_header: Callable[[], object]):
        """Receive one outbox; ``recv_header()`` is the crash-aware pipe
        read the engine supplies."""
        raise NotImplementedError

    def detach(self, worker_id: int) -> None:
        """Release one worker's per-connection state after its process died.

        Called by supervised recovery before respawning, so the
        replacement's :meth:`attach` starts clean; the default has no
        per-worker state to release.
        """

    def drain_stale(self, worker_id: int, header) -> None:
        """Discard the payload a stale outbox ``header`` refers to.

        During recovery the driver drains leftover pipe messages from the
        interrupted barrier; a transport whose header is followed by an
        out-of-band payload (tcp) must consume that payload here or the
        connection desynchronises.  The default (pipe/shm: the header *is*
        or *indexes* the payload) does nothing.
        """

    def close(self) -> None:
        """Release every driver-side resource (idempotent)."""


class WorkerEndpoint:
    """Worker-side data plane, constructed in the driver, used in the child."""

    def open(self) -> None:
        """Connect/allocate inside the worker process (before first verb)."""

    def recv_inbox(self, header):
        """Decode one inbox from the ``step`` verb's ``header``."""
        raise NotImplementedError

    def send_outbox(self, payload, send_header: Callable[[object], None]) -> None:
        """Ship one outbox; ``send_header`` emits the pipe reply.

        The pipe reply must precede any blocking payload push (mirror of
        :meth:`Transport.send_inbox`): the driver only starts draining a
        worker's payload after seeing its header.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker-side resources (idempotent; runs on every exit)."""


# ----------------------------------------------------------------------
# Pipe (reference) transport
# ----------------------------------------------------------------------
class PipeTransport(Transport):
    """Payloads piggyback on the control pipe as pickles (the baseline)."""

    name = "pipe"

    def worker_endpoint(self, worker_id: int) -> "PipeWorkerEndpoint":
        return PipeWorkerEndpoint()

    def send_inbox(self, worker_id, payload, send_command) -> None:
        if self.obs is not None:
            # Payloads ride the pipe as pickles, so byte accounting would
            # mean pickling twice; count shipments instead (CommStats
            # already owns the logical byte totals).
            self.obs.metrics.counter("transport.pipe.inbox_sends").inc()
        send_command(payload)

    def recv_outbox(self, worker_id, recv_header):
        if self.obs is not None:
            self.obs.metrics.counter("transport.pipe.outbox_recvs").inc()
        return recv_header()


class PipeWorkerEndpoint(WorkerEndpoint):
    def recv_inbox(self, header):
        return header

    def send_outbox(self, payload, send_header) -> None:
        send_header(payload)


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
def _columns_nbytes(columns) -> int:
    """Total payload bytes of a per-kind column outbox (0 when empty)."""
    if not columns:
        return 0
    return sum(col.nbytes for cols in columns.values() for col in cols)


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

    ``pack`` alternates between ``depth`` slots, so the reader's views of
    superstep ``s`` stay valid while superstep ``s+1`` is written — the
    lock-step barrier guarantees nothing older is still referenced.  A
    slot grows geometrically when an outbox outgrows it (the header names
    the segment, so the reader re-attaches transparently).
    """

    def __init__(self, depth: int = 2, min_bytes: int = 1 << 20):
        self._depth = depth
        self._min_bytes = min_bytes
        self._slots: List[Optional[object]] = [None] * depth
        self._seq = 0
        self.grows = 0  # slot (re)allocations; read by the traced driver

    def pack(self, columns: ArrayOutbox) -> Tuple[Optional[str], tuple]:
        """Write ``columns`` into the next slot; returns the index header."""
        from multiprocessing import shared_memory

        if not columns:
            return (None, ())
        slot = self._seq % self._depth
        self._seq += 1
        need = packed_nbytes(columns)
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
        layout = pack_columns(columns, segment.buf)
        return (segment.name, layout)

    def close(self) -> None:
        for i, segment in enumerate(self._slots):
            if segment is not None:
                _close_quiet(segment)
                _unlink_quiet(segment)
                self._slots[i] = None


class _SegmentCache:
    """Reader half: attaches segments by name, caches the mappings."""

    def __init__(self):
        self._segments: Dict[str, object] = {}

    def unpack(self, header: Tuple[Optional[str], tuple]) -> ArrayOutbox:
        from multiprocessing import shared_memory

        name, layout = header
        if name is None:
            return {}
        segment = self._segments.get(name)
        if segment is None:
            # Attaching registers with the resource tracker a second time;
            # that's a harmless set-add — the tracker daemon is shared with
            # the process that created the segment (fork and spawn both
            # hand children the parent's tracker), and the one explicit
            # unlink in whichever process reaps the segment removes the
            # name exactly once.
            segment = shared_memory.SharedMemory(name=name)
            self._segments[name] = segment
        return unpack_columns(segment.buf, layout)

    def close(self, unlink: bool = False) -> None:
        """Detach everything; ``unlink=True`` also reaps segments whose
        owner died before it could (missing files are fine)."""
        for segment in self._segments.values():
            _close_quiet(segment)
            if unlink:
                _unlink_quiet(segment)
        self._segments.clear()


class SharedMemoryTransport(Transport):
    """Zero-copy column exchange through double-buffered shm rings.

    The driver owns one :class:`_SegmentRing` per worker for inboxes; each
    worker owns one for its outboxes.  The control pipe carries only the
    ``(segment name, layout)`` headers — the index exchange — and each
    side maps the peer's columns as read-only views, so no payload bytes
    are ever pickled or re-copied on receive.
    """

    name = "shm"

    def __init__(self):
        self._inbox_rings: Dict[int, _SegmentRing] = {}
        self._outbox_caches: Dict[int, _SegmentCache] = {}

    def bind(self, worker_ids, mp_context) -> None:
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
        for wid in worker_ids:
            self._inbox_rings[wid] = _SegmentRing()
            self._outbox_caches[wid] = _SegmentCache()

    def worker_endpoint(self, worker_id: int) -> "SharedMemoryWorkerEndpoint":
        return SharedMemoryWorkerEndpoint()

    def send_inbox(self, worker_id, payload, send_command) -> None:
        # Pack first (never blocks), then the verb: the worker attaches
        # only after seeing the header, so the data is already in place.
        obs = self.obs
        ring = self._inbox_rings[worker_id]
        grows_before = ring.grows if obs is not None else 0
        send_command(ring.pack(payload))
        if obs is not None:
            obs.metrics.histogram("transport.shm.inbox_bytes").observe(
                _columns_nbytes(payload)
            )
            if ring.grows != grows_before:
                obs.metrics.counter("transport.shm.segment_grows").inc(
                    ring.grows - grows_before
                )

    def recv_outbox(self, worker_id, recv_header) -> ArrayOutbox:
        outbox = self._outbox_caches[worker_id].unpack(recv_header())
        if self.obs is not None:
            self.obs.metrics.histogram("transport.shm.outbox_bytes").observe(
                _columns_nbytes(outbox)
            )
        return outbox

    def detach(self, worker_id) -> None:
        # Reap the dead worker's outbox segments now (its own close never
        # ran) and start a fresh cache for the replacement's ring.  The
        # driver-owned inbox ring stays: the replacement re-attaches the
        # same segments by name on its first step.
        cache = self._outbox_caches.get(worker_id)
        if cache is not None:
            cache.close(unlink=True)
        self._outbox_caches[worker_id] = _SegmentCache()

    def close(self) -> None:
        for ring in self._inbox_rings.values():
            ring.close()
        for cache in self._outbox_caches.values():
            # Reap worker-owned segments too: after a crash (or terminate)
            # the worker's own close never ran.
            cache.close(unlink=True)
        self._inbox_rings.clear()
        self._outbox_caches.clear()


class SharedMemoryWorkerEndpoint(WorkerEndpoint):
    """Worker half: owns the outbox ring, attaches the driver's inboxes."""

    def __init__(self):
        self._ring: Optional[_SegmentRing] = None
        self._cache: Optional[_SegmentCache] = None

    def open(self) -> None:
        self._ring = _SegmentRing()
        self._cache = _SegmentCache()

    def recv_inbox(self, header) -> ArrayOutbox:
        return self._cache.unpack(header)

    def send_outbox(self, payload, send_header) -> None:
        send_header(self._ring.pack(payload))

    def close(self) -> None:
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        if self._cache is not None:
            # The driver owns (and unlinks) the inbox segments.
            self._cache.close(unlink=False)
            self._cache = None


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
def _send_frame(peer: SocketPeer, columns: ArrayOutbox, on_stall=None) -> None:
    """One superstep payload: the pickled layout as one message, then the
    raw column bytes."""
    kinds = sorted(columns)
    peer.send(
        tuple((kind, int(columns[kind][0].shape[0])) for kind in kinds),
        on_stall,
    )
    for kind in kinds:
        for col in columns[kind]:
            col = np.ascontiguousarray(col, dtype=np.int64)
            peer.send_all(col.view(np.uint8).data, on_stall)


def _recv_frame(peer: SocketPeer, on_stall=None) -> ArrayOutbox:
    out: ArrayOutbox = {}
    for kind, rows in peer.recv(on_stall):
        cols = []
        for _ in range(SCHEMAS[kind].width + 1):
            col = np.empty(rows, dtype=np.int64)
            peer.recv_into(col.view(np.uint8).data, on_stall)
            col.flags.writeable = False
            cols.append(col)
        out[kind] = tuple(cols)
    return out


class SocketTransport(Transport):
    """Framed columns over localhost TCP: the two-"host" data plane.

    The connections are a :class:`~repro.runtime.TcpWire`: the driver
    listens on an ephemeral port of ``host``, and every worker process
    dials in and authenticates with the per-engine cookie, making each
    worker group an independent "host" whose only shared state is the
    wire.  Payloads are length-framed raw column bytes — the same layout
    the shm transport packs — so promoting a worker group to a genuinely
    remote machine is a matter of the address, not the format.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1"):
        self._wire = TcpWire(host, crash_error=WorkerCrashedError)

    def bind(self, worker_ids, mp_context) -> None:
        self._wire.bind(mp_context)

    def worker_endpoint(self, worker_id: int) -> "SocketWorkerEndpoint":
        return SocketWorkerEndpoint(self._wire.child_endpoint(worker_id))

    def attach(self, worker_id: int, process) -> None:
        self._wire.attach(worker_id, process)

    def _stall_hook(self, direction: str):
        """Per-poll stall hook charging ``POLL_S`` to a counter (traced
        runs only; ``None`` — the fast path — when tracing is off)."""
        if self.obs is None:
            return None
        counter = self.obs.metrics.counter(
            f"transport.tcp.{direction}_stall_seconds"
        )
        return lambda: counter.inc(POLL_S)

    def send_inbox(self, worker_id, payload, send_command) -> None:
        # Verb first: the worker must be draining the socket before a
        # larger-than-buffer frame is pushed, or the send would deadlock.
        send_command(None)
        with self._wire.peer(worker_id) as peer:
            _send_frame(peer, payload, self._stall_hook("send"))
        if self.obs is not None:
            self.obs.metrics.histogram("transport.tcp.inbox_bytes").observe(
                _columns_nbytes(payload)
            )

    def recv_outbox(self, worker_id, recv_header) -> ArrayOutbox:
        recv_header()  # pipe ack: sequencing + crash detection
        with self._wire.peer(worker_id) as peer:
            outbox = _recv_frame(peer, self._stall_hook("recv"))
        if self.obs is not None:
            self.obs.metrics.histogram("transport.tcp.outbox_bytes").observe(
                _columns_nbytes(outbox)
            )
        return outbox

    def detach(self, worker_id) -> None:
        self._wire.detach(worker_id)

    def drain_stale(self, worker_id, header) -> None:
        # A ``None`` header is an outbox ack: a frame is in (or still
        # entering) the socket.  Drain it so the survivor unblocks and the
        # stream realigns; any other stale message (a collect dict, a
        # control reply) carries no out-of-band payload.
        if header is None:
            with self._wire.peer(worker_id) as peer:
                _recv_frame(peer)

    def close(self) -> None:
        self._wire.close()


class SocketWorkerEndpoint(WorkerEndpoint):
    """Worker half: the :class:`~repro.runtime.TcpWire` child endpoint
    carrying column frames."""

    def __init__(self, peer):
        self._peer = peer

    def open(self) -> None:
        self._peer.open()

    def recv_inbox(self, header) -> ArrayOutbox:
        return _recv_frame(self._peer)

    def send_outbox(self, payload, send_header) -> None:
        # Ack first (mirror of send_inbox): the driver reads the ack, then
        # drains the frame, so a big frame never wedges both ends.
        send_header(None)
        _send_frame(self._peer, payload)

    def close(self) -> None:
        self._peer.close()
