"""Tests for the child-process runtime both supervisors share.

The wires, crash errors and shutdown escalation are exercised end to end
by the engine and service suites; these tests pin what neither reaches:
the tcp handshake refusing a foreign cookie, ``TCP_NODELAY`` on both
ends of a tcp connection, a pipe to a dead child breaking when every
child started before the first attach, and the crash-error hierarchy the
two supervisors' callers rely on.
"""

import multiprocessing as mp
import socket
import threading

import pytest

from repro.runtime import ChildCrashedError, PipeWire, TcpWire, WorkerCrashedError


def _echo_child(endpoint):
    endpoint.open()
    try:
        endpoint.send(("echo", endpoint.recv()))
    finally:
        endpoint.close()


def test_tcp_wire_refuses_foreign_cookie():
    ctx = mp.get_context()
    wire = TcpWire()
    wire.bind(ctx)
    endpoint = wire.child_endpoint(7)
    # A foreign client dials first with the right id but a wrong cookie.
    foreign = socket.create_connection(endpoint._address)
    process = None
    try:
        foreign.sendall(b"\0" * 16 + (7).to_bytes(8, "little"))
        process = ctx.Process(target=_echo_child, args=(endpoint,), daemon=True)
        process.start()
        wire.attach(7, process)
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
    ctx = mp.get_context()
    wire = TcpWire()
    wire.bind(ctx)
    process = ctx.Process(
        target=_report_nodelay_child, args=(wire.child_endpoint(0),),
        daemon=True,
    )
    try:
        process.start()
        wire.attach(0, process)
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
    ctx = mp.get_context()
    wire = PipeWire()
    wire.bind(ctx)
    processes = {}
    outcome = []

    def push():
        try:
            wire.send(0, b"\0" * (8 << 20))
        except ChildCrashedError:
            outcome.append("crashed")

    try:
        for cid in (0, 1):
            processes[cid] = ctx.Process(
                target=_idle_child, args=(wire.child_endpoint(cid),),
                daemon=True,
            )
            processes[cid].start()
        for cid, process in processes.items():
            wire.attach(cid, process)
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
