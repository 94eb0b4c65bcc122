"""Tests for the child-process runtime both supervisors share.

The wires, crash errors and shutdown escalation are exercised end to end
by the engine and service suites; these tests pin what neither reaches:
the child table of every wire class on its own (a killed child found by
``dead()``, replaced by ``restart()``, and nothing left by ``stop()``),
the tcp handshake refusing a foreign cookie, ``TCP_NODELAY`` on both
ends of a tcp connection, a pipe to a dead child breaking when every
child started before the first attach, a failed pipe send keeping none
of its frames (and so no exported pickle buffer) alive, and the
crash-error hierarchy the two supervisors' callers rely on.
"""

import os
import signal
import socket
import threading

import pytest

from repro.distributed.transport import SharedMemoryTransport
from repro.runtime import ChildCrashedError, PipeWire, TcpWire, WorkerCrashedError


def _echo_loop_child(endpoint):
    endpoint.open()
    try:
        while True:
            message = endpoint.recv()
            if message[0] == "stop":
                break
            # Three fields: the shm wire reads a 2-tuple as an outbox header.
            endpoint.send(("echo", os.getpid(), message))
    finally:
        endpoint.close()


@pytest.mark.parametrize("wire_class", [PipeWire, SharedMemoryTransport, TcpWire])
def test_wire_restarts_a_killed_child_and_stops_all(wire_class):
    wire = wire_class()
    wire.bind()
    processes = []
    try:
        for cid in (0, 1):
            wire.start(cid, _echo_loop_child)
        for cid in (0, 1):
            wire.attach(cid)
        victim = wire._processes[1]
        processes += wire._processes.values()
        os.kill(victim.pid, signal.SIGKILL)
        assert wire.dead(grace_s=10) == [1]
        wire.restart(1, _echo_loop_child)
        replacement = wire._processes[1]
        processes.append(replacement)
        assert replacement is not victim and wire.dead(grace_s=0) == []
        for cid in (0, 1):
            wire.send(cid, ("ping", cid))
            assert wire.recv(cid, timeout=10) == (
                "echo", wire._processes[cid].pid, ("ping", cid)
            )
    finally:
        leaked = wire.stop(join_s=10, kill_join_s=5)
    assert leaked == []
    assert not any(process.is_alive() for process in processes)
    assert wire._processes == {}


def _echo_child(endpoint):
    endpoint.open()
    try:
        endpoint.send(("echo", endpoint.recv()))
    finally:
        endpoint.close()


def test_tcp_wire_refuses_foreign_cookie():
    wire = TcpWire()
    wire.bind()
    # A foreign client dials first with the right id but a wrong cookie.
    foreign = socket.create_connection((wire._host, wire._port))
    process = None
    try:
        foreign.sendall(b"\0" * 16 + (7).to_bytes(8, "little"))
        wire.start(7, _echo_child)
        process = wire._processes[7]
        wire.attach(7)
        foreign.settimeout(10)
        assert foreign.recv(1) == b""  # refused: the wire closed it
        wire.send(7, {"ping": [1, 2]})
        assert wire.recv(7, timeout=10) == ("echo", {"ping": [1, 2]})
        process.join(timeout=10)
        assert not process.is_alive()
    finally:
        foreign.close()
        wire.close()
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=10)


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _report_nodelay_child(endpoint):
    endpoint.open()
    try:
        endpoint.recv()
        endpoint.send(bool(_nodelay(endpoint.sock)))
    finally:
        endpoint.close()


def test_tcp_wire_sets_nodelay_on_both_ends():
    # A message is several writes (head, then each out-of-band buffer);
    # with Nagle on, each would wait for the previous one's delayed ACK.
    wire = TcpWire()
    wire.bind()
    wire.start(0, _report_nodelay_child)
    process = wire._processes[0]
    try:
        wire.attach(0)
        assert _nodelay(wire._peers[0].sock)
        wire.send(0, "report")
        assert wire.recv(0, timeout=10) is True
        process.join(timeout=10)
    finally:
        wire.close()
        if process.is_alive():
            process.kill()
            process.join(timeout=10)


def _idle_child(endpoint):
    endpoint.open()
    endpoint.recv()


def test_pipe_to_dead_child_breaks_when_all_children_start_first():
    # The BSP engine starts every worker before it attaches the first.  A
    # sibling forked later must not inherit an earlier child's pipe half,
    # or a send larger than the pipe buffer to that child, once dead,
    # would block forever instead of raising.
    wire = PipeWire()
    wire.bind()
    processes = {}
    outcome = []

    def push():
        try:
            wire.send(0, b"\0" * (8 << 20))
        except ChildCrashedError:
            outcome.append("crashed")

    try:
        for cid in (0, 1):
            wire.start(cid, _idle_child)
            processes[cid] = wire._processes[cid]
        for cid in processes:
            wire.attach(cid)
        processes[0].kill()
        processes[0].join(timeout=10)
        sender = threading.Thread(target=push, daemon=True)
        sender.start()
        sender.join(timeout=10)
        assert outcome == ["crashed"]
    finally:
        for process in processes.values():  # unblocks a stuck sender too
            process.kill()
            process.join(timeout=10)
        wire.close()


def test_failed_pipe_send_keeps_no_frame_of_the_send():
    # multiprocessing pickles a message into a BytesIO and writes a view
    # of it.  A crash error chained to the failed write would keep those
    # frames alive, so the BytesIO would wait for the garbage collector,
    # whose finalizer closes it while still exported: a BufferError that
    # dev mode (``-X dev``) reports as an unraisable exception.
    wire = PipeWire()
    wire.bind()
    try:
        wire.start(0, _idle_child)
        wire.attach(0)
        wire._processes[0].kill()
        wire._processes[0].join(timeout=10)
        with pytest.raises(ChildCrashedError) as excinfo:
            wire.send(0, ("payload", b"\0" * 4096))
    finally:
        wire.close()
    assert excinfo.value.__context__ is None


def test_worker_crash_is_a_child_crash():
    from repro.distributed import WorkerCrashedError as distributed_error
    from repro.distributed.transport import WorkerCrashedError as transport_error
    from repro.service import ChildCrashedError as service_error

    assert distributed_error is transport_error is WorkerCrashedError
    assert service_error is ChildCrashedError
    with pytest.raises(ChildCrashedError) as excinfo:
        raise WorkerCrashedError(3, -9, "(pipe truncated)")
    assert excinfo.value.worker_id == excinfo.value.child_id == 3
    assert str(excinfo.value) == "worker 3 died with exit code -9 (pipe truncated)"
    assert str(ChildCrashedError(0, -9)) == "child 0 died with exit code -9"
