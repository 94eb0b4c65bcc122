"""Child-process runtime shared by the BSP engine and the replicated service.

Two supervisors run their work in child processes:
:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine` (one worker
per partition) and :class:`~repro.service.replication.ServiceSupervisor`
(a primary plus read replicas).  Both talk to each child over one wire,
must never hang on a child that died, and must stop every child at
shutdown.  This module is the one copy of that machinery:

* :class:`Wire` — the supervisor's channel to its children, keyed by
  child id, and its one table of child processes; one wire carries every
  message to and from a child, command verbs and payloads alike.
  :class:`PipeWire` sends pickles over one ``multiprocessing.Pipe`` per
  child; :class:`TcpWire` sends them over localhost sockets, where each
  child dials in (jittered exponential redial) and says a 24-byte hello:
  the per-wire cookie plus its int64 child id.  ``recv`` polls the
  child's liveness every :data:`POLL_S`, so a dead child raises instead
  of hanging, and returns :data:`TIMEOUT` when an explicit timeout
  lapses; ``await_reply`` drops stale replies until the awaited one.
  The wire alone creates, joins and signals processes: ``start`` /
  ``attach`` bring a child up, ``dead`` names the children whose process
  exited, ``restart`` replaces one, and ``stop`` ends them all — stop
  message, then SIGTERM, then SIGKILL; a process that survives SIGKILL
  is returned and logged, never silently abandoned.
* :class:`SocketPeer` — one end of a message socket: liveness-polled
  ``send_all`` / ``recv_into`` loops (with a first-byte deadline) and
  protocol-5 pickles on top, whose contiguous buffers (numpy column
  arrays) travel out of band, straight from and into their own memory.
* :class:`ChildCrashedError` — a child died; :class:`WorkerCrashedError`
  is the BSP engine's subclass (it names the ``worker_id``), so
  ``except ChildCrashedError`` catches a crash from either supervisor.
* :func:`fire_faults` — the one place a child acts out a scripted
  :class:`~repro.distributed.faults.FaultPlan`: both child loops call it
  at the ``recv`` and ``reply`` seams of every stepped verb.

The bytes on the wires are the wire format: pickles over pipes; over tcp
the hello, then per message a ``<QQ`` header (pickle length, buffer
count), one ``<Q`` length per out-of-band buffer, the pickle, and the
buffers' raw bytes.  Both tcp ends set ``TCP_NODELAY``: a message is
several writes, and none of them may wait out Nagle and a delayed ACK.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing as mp
import os
import pickle
import select
import signal
import socket
import struct
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.utils.backoff import JitteredBackoff

__all__ = [
    "POLL_S",
    "TIMEOUT",
    "ChildCrashedError",
    "WorkerCrashedError",
    "Wire",
    "PipeWire",
    "TcpWire",
    "SocketPeer",
    "fire_faults",
]

logger = logging.getLogger(__name__)

#: Seconds between liveness polls while a supervisor waits on a child.
POLL_S = 0.05

#: Sentinel :meth:`Wire.recv` returns when its timeout lapses first
#: (distinct from any picklable payload).
TIMEOUT = object()

#: Child-side redial budget: exponential backoff from _CONNECT_DELAY_S.  A
#: failed dial is retried before the child gives up on its supervisor.
_CONNECT_ATTEMPTS = 6
_CONNECT_DELAY_S = 0.05

#: Seconds :meth:`Wire.detach` waits for a dropped child to exit, and
#: then after each of SIGTERM and SIGKILL.
_DETACH_JOIN_S = 1.0

_HEAD = struct.Struct("<QQ")  #: message head: pickle length, buffer count
_LENGTH = struct.Struct("<Q")  #: one out-of-band buffer's length
_CHILD_ID = struct.Struct("<q")  #: child id in the hello, after the cookie
_COOKIE_BYTES = 16

#: Set on both ends of every tcp connection (see the module docstring).
_NODELAY = (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ChildCrashedError(RuntimeError):
    """A child process died while its supervisor waited on it.

    Carries the child's id and exit code so a supervisor can act on
    *which* child was lost instead of hanging on a silent ``recv``.
    """

    noun = "child"

    def __init__(self, child_id: int, exitcode: Optional[int] = None,
                 detail: str = ""):
        self.child_id = child_id
        self.exitcode = exitcode
        message = f"{self.noun} {child_id} died"
        if exitcode is not None:
            message += f" with exit code {exitcode}"
        if detail:
            message += f" {detail}"
        super().__init__(message)


class WorkerCrashedError(ChildCrashedError):
    """A BSP worker process died while the driver waited on it."""

    noun = "worker"

    @property
    def worker_id(self) -> int:
        return self.child_id


# ----------------------------------------------------------------------
# Wires
# ----------------------------------------------------------------------
class Wire:
    """A supervisor's channel to its children, and its one table of them.

    The supervisor calls :meth:`bind` once, then per child :meth:`start`
    and :meth:`attach`.  The endpoint :meth:`start` hands the child is
    the picklable half it calls ``open()`` on, then ``send`` / ``recv`` /
    ``close``.  Messages are arbitrary pickles.  :meth:`send` and
    :meth:`recv` raise ``crash_error`` (a :class:`ChildCrashedError`
    class) when the child is gone; :meth:`recv` returns :data:`TIMEOUT`
    when an explicit ``timeout`` lapses first.  No supervisor touches a
    process: :meth:`dead`, :meth:`restart`, :meth:`detach` and
    :meth:`stop` do.
    """

    def __init__(self, crash_error: type = ChildCrashedError):
        self._crash_error = crash_error
        self._ctx = mp.get_context()
        self._processes: Dict[int, object] = {}
        self._leaked: List[int] = []

    def bind(self) -> None:
        """Allocate supervisor-side resources before any child starts."""

    def _endpoint(self, cid: int):
        raise NotImplementedError

    def start(self, cid: int, target: Callable, *args) -> None:
        """Run ``target(endpoint, *args)`` in a daemon process, child ``cid``.

        The endpoint is built and its process started in one step, so
        every endpoint handed out so far belongs to a started child.
        """
        process = self._ctx.Process(
            target=target, args=(self._endpoint(cid),) + args, daemon=True
        )
        process.start()
        self._processes[cid] = process

    def attach(self, cid: int) -> None:
        """Complete the per-child handshake after :meth:`start`."""

    def restart(self, cid: int, target: Callable, *args) -> None:
        """:meth:`detach` child ``cid`` (if any), then start and attach
        ``target(endpoint, *args)`` in its place."""
        self.detach(cid)
        self.start(cid, target, *args)
        self.attach(cid)

    def send(self, cid: int, message) -> None:
        raise NotImplementedError

    def recv(self, cid: int, timeout: Optional[float] = None):
        raise NotImplementedError

    def poll(self, cid: int) -> bool:
        """Whether a message from ``cid`` is already waiting."""
        raise NotImplementedError

    def await_reply(self, cid: int, match: Callable[[object], bool],
                    timeout: Optional[float] = None,
                    limit: Optional[int] = None):
        """Child ``cid``'s first message ``match`` accepts, dropping the
        stale ones before it (``match`` sees each); :data:`TIMEOUT` once
        ``timeout`` seconds lapse, ``RuntimeError`` after ``limit``
        messages without a match."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for _ in itertools.count() if limit is None else range(limit):
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            message = self.recv(cid, remaining)
            if message is TIMEOUT or match(message):
                return message
        raise RuntimeError(  # pragma: no cover - protocol violation
            f"child {cid} sent {limit} messages without the awaited reply"
        )

    def dead(self, grace_s: float) -> List[int]:
        """Ids of the children whose process exited, ascending.

        A pipe EOF can be observed microseconds before waitpid() sees the
        exit (the kernel closes fds before the zombie transition), so this
        waits up to ``grace_s`` seconds for a death to become reapable.
        """
        deadline = time.monotonic() + grace_s
        while True:
            dead = sorted(
                cid for cid, process in self._processes.items()
                if not process.is_alive()
            )
            if dead or time.monotonic() >= deadline:
                return dead
            time.sleep(POLL_S)

    def detach(self, cid: int) -> None:
        """Reap child ``cid``'s process; subclasses release its connection
        first, which ends a live child's loop.  One still alive after
        :data:`_DETACH_JOIN_S` gets SIGTERM, then SIGKILL."""
        process = self._processes.pop(cid, None)
        if process is not None:
            self._reap([process], _DETACH_JOIN_S, _DETACH_JOIN_S)

    def stop(self, join_s: float, kill_join_s: float) -> List[int]:
        """Stop every child, then :meth:`close`.

        Each child gets a ``("stop",)`` message and ``join_s`` seconds to
        exit, then SIGTERM and SIGKILL with ``kill_join_s`` seconds after
        each.  Returns the pids of processes that survived even SIGKILL
        (uninterruptible sleep), here or in a :meth:`detach`, each logged
        instead of silently abandoned.
        """
        try:
            for cid in self._processes:
                try:
                    self.send(cid, ("stop",))
                except (ChildCrashedError, KeyError, OSError):
                    pass  # already gone
            self._reap(list(self._processes.values()), join_s, kill_join_s)
        finally:
            self.close()
        return list(self._leaked)

    def _reap(self, processes: List[object], join_s: float,
              kill_join_s: float) -> None:
        try:
            for process in processes:
                process.join(timeout=join_s)
        finally:
            for process in processes:
                if process.is_alive():  # pragma: no cover - stuck child
                    process.terminate()
                    process.join(timeout=kill_join_s)
            for process in processes:
                if process.is_alive():  # pragma: no cover - ignored SIGTERM
                    process.kill()
                    process.join(timeout=kill_join_s)
            for process in processes:
                if process.is_alive():
                    logger.error(
                        "child process pid=%d survived the SIGKILL "
                        "escalation; leaking it", process.pid,
                    )
                    self._leaked.append(process.pid)

    def close(self) -> None:
        """Release every supervisor-side resource (idempotent); the
        children are forgotten, not reaped (:meth:`stop` reaps)."""
        self._processes.clear()

    def crashed(self, cid: int, detail: str = "") -> ChildCrashedError:
        """The crash error for child ``cid``, with its exit code if known."""
        process = self._processes.get(cid)
        return self._crash_error(cid, getattr(process, "exitcode", None), detail)


class PipeWire(Wire):
    """One ``multiprocessing.Pipe`` per child (the local default)."""

    def __init__(self, crash_error: type = ChildCrashedError):
        super().__init__(crash_error)
        self._conns: Dict[int, object] = {}
        self._child_conns: Dict[int, object] = {}

    def _endpoint(self, cid: int) -> "PipeChildEndpoint":
        # start() starts each child as soon as its endpoint exists, so the
        # child halves handed out so far belong to started children: drop
        # them before this child forks, or it would inherit them and a
        # dead sibling's pipe would never report EOF or a broken pipe.
        # This lets a supervisor start all its children before it
        # attaches the first.
        self._release_child_halves()
        parent_conn, child_conn = self._ctx.Pipe()
        self._conns[cid] = parent_conn
        self._child_conns[cid] = child_conn
        return PipeChildEndpoint(child_conn)

    def attach(self, cid: int) -> None:
        # Drop the supervisor's reference to the child half so an EOF is
        # unambiguous: only the child holds that end now.
        self._release_child_halves()

    def _release_child_halves(self) -> None:
        for conn in self._child_conns.values():
            conn.close()
        self._child_conns.clear()

    def send(self, cid: int, message) -> None:
        try:
            self._conns[cid].send(message)
            return
        except OSError:
            # Raised below, outside the handler: the failed send's frames
            # (and the pickle buffer exported from its BytesIO) die here,
            # not in a garbage cycle whose finalizer raises BufferError.
            pass
        raise self.crashed(cid, "(pipe closed)")

    def recv(self, cid: int, timeout: Optional[float] = None):
        conn = self._conns[cid]
        process = self._processes.get(cid)
        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.poll(POLL_S):
            if process is not None and not process.is_alive():
                # One final poll: the child may have replied just before
                # dying and the message still sits in the pipe buffer.
                if conn.poll(POLL_S):
                    break
                raise self.crashed(cid)
            if deadline is not None and time.monotonic() >= deadline:
                return TIMEOUT
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError):
            raise self.crashed(cid, "(pipe truncated)")

    def poll(self, cid: int) -> bool:
        try:
            return self._conns[cid].poll(0)
        except (OSError, EOFError):  # pragma: no cover - racing a close
            return False

    def detach(self, cid: int) -> None:
        conn = self._conns.pop(cid, None)
        if conn is not None:
            conn.close()
        super().detach(cid)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        self._release_child_halves()
        super().close()


class PipeChildEndpoint:
    """Child half of :class:`PipeWire`."""

    def __init__(self, conn):
        self._conn = conn

    def open(self) -> None:
        """Nothing to connect: the pipe exists before the child starts."""

    def recv(self):
        return self._conn.recv()

    def send(self, message) -> None:
        self._conn.send(message)

    def close(self) -> None:
        self._conn.close()


class SocketPeer:
    """One end of a message socket: raw byte views and pickled messages.

    The socket carries a :data:`POLL_S` timeout, so a blocked read or
    write wakes up every poll to ask ``alive()`` whether the other side
    still exists (``None``: never asked — a child whose supervisor died
    sees the socket close instead).  A lost peer raises
    :class:`ConnectionError`.
    """

    def __init__(self, sock: Optional[socket.socket] = None,
                 who: str = "supervisor",
                 alive: Optional[Callable[[], bool]] = None):
        self.sock = sock
        self.who = who
        self.alive = alive

    def send_all(self, view) -> None:
        """Push the byte view ``view`` down the socket.

        ``sock.sendall`` forgets how much it wrote when it times out, so a
        message larger than the kernel buffer is pushed ``send`` by
        ``send`` — the peer may legitimately be busy draining another
        child's message for much longer than one poll.
        """
        sent = 0
        while sent < len(view):
            try:
                sent += self.sock.send(view[sent:])
            except socket.timeout:
                if self.alive is not None and not self.alive():
                    raise ConnectionError(f"{self.who} died mid-message")

    def recv_into(self, view, deadline: Optional[float] = None) -> bool:
        """Fill the byte view ``view``; ``False`` only if ``deadline``
        (monotonic) lapses before the first byte arrived.

        Once a byte arrived the read commits: a mid-message timeout would
        desynchronise the stream.
        """
        got = 0
        while got < len(view):
            try:
                n = self.sock.recv_into(view[got:])
            except socket.timeout:
                if self.alive is not None and not self.alive():
                    raise ConnectionError(f"{self.who} died mid-message")
                if (got == 0 and deadline is not None
                        and time.monotonic() >= deadline):
                    return False
                continue
            if n == 0:
                raise ConnectionError(
                    f"{self.who} closed the connection mid-message"
                )
            got += n
        return True

    def send(self, message) -> None:
        """One protocol-5 pickle, its contiguous buffers out of band.

        The head, the buffer lengths and the pickle go in one write; each
        buffer's bytes are then sent from its own memory, uncopied.
        """
        buffers = []
        blob = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
        views = [buffer.raw() for buffer in buffers]
        head = _HEAD.pack(len(blob), len(views)) + b"".join(
            _LENGTH.pack(view.nbytes) for view in views
        )
        self.send_all(memoryview(head + blob))
        for view in views:
            self.send_all(view)

    def recv(self, deadline: Optional[float] = None):
        """One message, or :data:`TIMEOUT` if ``deadline`` lapses first.

        Each out-of-band buffer is received into its own bytearray, which
        the unpickled arrays then share instead of copying.
        """
        head = bytearray(_HEAD.size)
        if not self.recv_into(memoryview(head), deadline):
            return TIMEOUT
        size, count = _HEAD.unpack(head)
        body = memoryview(bytearray(_LENGTH.size * count + size))
        self.recv_into(body)
        lengths, blob = body[:_LENGTH.size * count], body[_LENGTH.size * count:]
        buffers = []
        for (length,) in _LENGTH.iter_unpack(lengths):
            buffers.append(bytearray(length))
            self.recv_into(memoryview(buffers[-1]))
        return pickle.loads(blob, buffers=buffers)

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover
                pass
            self.sock = None


class TcpWire(Wire):
    """Pickles over localhost TCP with cookie auth.

    The supervisor listens on an ephemeral port of ``host``; every child
    dials in and authenticates with the per-wire cookie, so each child is
    an independent "host" whose only shared state is the wire — moving
    it to another machine is an address change, not a format one.
    """

    def __init__(self, host: str = "127.0.0.1",
                 crash_error: type = ChildCrashedError):
        super().__init__(crash_error)
        self._host = host
        self._listener: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._cookie = b""
        self._peers: Dict[int, SocketPeer] = {}

    def bind(self) -> None:
        self._listener = socket.create_server((self._host, 0))
        self._listener.settimeout(POLL_S)
        self._port = self._listener.getsockname()[1]
        self._cookie = os.urandom(_COOKIE_BYTES)

    def _endpoint(self, cid: int) -> "TcpChildEndpoint":
        return TcpChildEndpoint(self._host, self._port, cid, self._cookie)

    def attach(self, cid: int) -> None:
        process = self._processes[cid]
        while cid not in self._peers:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                if not process.is_alive():
                    raise self.crashed(cid, "before connecting")
                continue
            hello = bytearray(_COOKIE_BYTES + _CHILD_ID.size)
            SocketPeer(sock, "connecting child").recv_into(memoryview(hello))
            if bytes(hello[:_COOKIE_BYTES]) != self._cookie:
                sock.close()  # not ours: refuse cross-supervisor traffic
                continue
            (dialled,) = _CHILD_ID.unpack(hello[_COOKIE_BYTES:])
            sock.setsockopt(*_NODELAY)
            sock.settimeout(POLL_S)
            self._peers[dialled] = SocketPeer(
                sock, f"child {dialled}", lambda c=dialled: self._alive(c)
            )

    def _alive(self, cid: int) -> bool:
        process = self._processes.get(cid)
        return process is None or process.is_alive()

    @contextmanager
    def _peer(self, cid: int) -> Iterator[SocketPeer]:
        """Child ``cid``'s socket; a lost connection inside the block
        raises the crash error."""
        try:
            yield self._peers[cid]
        except OSError as exc:  # ConnectionError included
            raise self.crashed(cid, "(socket closed)") from exc

    def send(self, cid: int, message) -> None:
        with self._peer(cid) as peer:
            peer.send(message)

    def recv(self, cid: int, timeout: Optional[float] = None):
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._peer(cid) as peer:
            return peer.recv(deadline)

    def poll(self, cid: int) -> bool:
        peer = self._peers.get(cid)
        if peer is None:
            return False
        readable, _, _ = select.select([peer.sock], [], [], 0)
        return bool(readable)

    def detach(self, cid: int) -> None:
        peer = self._peers.pop(cid, None)
        if peer is not None:
            peer.close()
        super().detach(cid)

    def close(self) -> None:
        for peer in self._peers.values():
            peer.close()
        self._peers.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        super().close()


class TcpChildEndpoint(SocketPeer):
    """Child half of :class:`TcpWire`: dials in from inside the child."""

    def __init__(self, host: str, port: int, cid: int, cookie: bytes):
        super().__init__()
        self._address = (host, port)
        self._cid = cid
        self._cookie = cookie

    def open(self) -> None:
        # Jittered so simultaneously respawned children spread their
        # redials instead of hammering the listener in lock-step; keying
        # the jitter by (cookie, child id) keeps each child's delays
        # reproducible run over run.
        backoff = JitteredBackoff(
            _CONNECT_DELAY_S,
            attempts=_CONNECT_ATTEMPTS,
            key=(self._cookie, self._cid, "reconnect"),
        )

        def dial():
            self.sock = socket.create_connection(self._address)

        backoff.retry(dial, exceptions=(OSError,))
        self.sock.setsockopt(*_NODELAY)
        self.sock.sendall(self._cookie + _CHILD_ID.pack(self._cid))
        self.sock.settimeout(POLL_S)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def fire_faults(plan, child: int, step: int, phase: str) -> None:
    """Act out ``plan``'s events for ``child`` at one seam of a child loop.

    ``plan`` is a :class:`~repro.distributed.faults.FaultPlan`, ``step``
    the stepped verb's superstep or WAL sequence number and ``phase``
    ``"recv"`` or ``"reply"``.  A kill SIGKILLs this process on the
    spot; a stall sleeps its seconds.  The empty plan returns at once.
    """
    for event in plan.at(child, step, phase):
        if event.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif event.action == "stall":
            time.sleep(event.seconds)
