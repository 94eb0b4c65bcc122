"""Tests for the child-process runtime both supervisors share.

The wires, crash errors and shutdown escalation are exercised end to end
by the engine and service suites; these tests pin what neither reaches:
the tcp handshake refusing a foreign cookie, and the crash-error
hierarchy the two supervisors' callers rely on.
"""

import multiprocessing as mp
import socket

import pytest

from repro.runtime import ChildCrashedError, TcpWire, WorkerCrashedError


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
