"""Shutdown idempotence: close/stop twice is a no-op, never an error.

Durability teardown paths (context managers plus explicit ``close`` in
``finally`` blocks) routinely double-close; each layer must make that
safe rather than every caller guarding it.
"""

from __future__ import annotations

from repro.concurrent.procs import ProcClient
from repro.concurrent.server import WireServer
from tests.support.concurrency import corpus_functions


def test_proc_client_close_is_idempotent():
    client = ProcClient(corpus_functions(2), workers=2, capacity=4)
    client.close()
    client.close()  # second close must be a silent no-op


def test_proc_client_context_manager_then_close():
    with ProcClient(corpus_functions(2), workers=2, capacity=4) as client:
        pass
    client.close()  # __exit__ already closed; this must not raise


def test_proc_client_close_joins_every_reader_thread():
    # A reader left running after close() could read from a later
    # client's pipe that reuses its file descriptor number.
    for _ in range(10):
        client = ProcClient(corpus_functions(2), workers=2, capacity=4)
        client.close()
        assert not any(link.reader.is_alive() for link in client._links)


def test_wire_server_stop_is_idempotent():
    server = WireServer(lambda payload: payload, workers=2)
    server.start()
    assert server.stop() == 0
    assert server.stop() == 0  # already stopped: report zero survivors


def test_wire_server_stop_without_start():
    assert WireServer(lambda payload: payload).stop() == 0


def test_wire_server_context_manager_then_stop():
    with WireServer(lambda payload: payload, workers=1) as server:
        pass
    assert server.stop() == 0
