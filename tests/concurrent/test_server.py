"""Tests for the wire-level serve loop (work queue + worker pool)."""

import json
import random

import pytest

from repro.api.client import CompilerClient
from repro.api.protocol import (
    LivenessQuery,
    decode_response,
    encode_request,
)
from repro.concurrent import ShardedClient, WireServer, serve_loop

from .test_sharded import make_module


def make_payloads(module, count, seed=3):
    rng = random.Random(seed)
    functions = list(module)
    payloads = []
    for _ in range(count):
        function = rng.choice(functions)
        payloads.append(
            encode_request(
                LivenessQuery(
                    function=function.name,
                    kind=rng.choice(("in", "out")),
                    variable=rng.choice(function.variables()).name,
                    block=rng.choice([block.name for block in function]).strip(),
                )
            )
        )
    return payloads


class TestServeLoop:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_responses_in_request_order_and_serial_parity(self, workers):
        module = make_module(6, seed=17)
        serial = CompilerClient(module)
        sharded = ShardedClient(module, shards=4)
        payloads = make_payloads(module, 120)
        expected = [serial.dispatch_json(payload) for payload in payloads]
        answered = serve_loop(sharded.dispatch_json, payloads, workers=workers)
        assert answered == expected

    def test_malformed_payloads_become_structured_errors(self):
        sharded = ShardedClient(make_module(2), shards=2)
        payloads = [
            "this is not json {",
            json.dumps({"api": 99, "type": "liveness_query", "body": {}}),
            json.dumps({"api": 1, "type": "nope", "body": {}}),
            42,
        ]
        responses = serve_loop(sharded.dispatch_json, payloads, workers=3)
        for envelope in responses:
            assert envelope["type"] == "error"
            response = decode_response(envelope)
            assert response.error is not None
            assert response.error.code == "invalid_request"

    def test_serve_loop_with_broken_dispatcher_answers_internal(self):
        def broken(payload):
            raise RuntimeError("boom")

        responses = serve_loop(broken, [{"x": 1}, {"x": 2}], workers=2)
        for envelope in responses:
            response = decode_response(envelope)
            assert response.error is not None
            assert response.error.code == "internal"
            assert "boom" in response.error.detail


class TestWireServer:
    def test_lifecycle_and_served_counter(self):
        module = make_module(3, seed=23)
        sharded = ShardedClient(module, shards=2)
        payloads = make_payloads(module, 25)
        server = WireServer(sharded.dispatch_json, workers=2)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(payloads[0])
        with server:
            pendings = [server.submit(payload) for payload in payloads]
            responses = [pending.result(30.0) for pending in pendings]
        assert all(pending.done() for pending in pendings)
        assert server.served == len(payloads)
        serial = CompilerClient(module)
        assert responses == [serial.dispatch_json(p) for p in payloads]

    def test_start_is_idempotent_and_stop_without_start_is_noop(self):
        server = WireServer(lambda payload: payload, workers=1)
        server.stop()  # never started: no-op
        server.start()
        server.start()
        pending = server.submit({"echo": True})
        assert pending.result(10.0) == {"echo": True}
        server.stop()
        server.stop()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            WireServer(lambda payload: payload, workers=0)

    def test_pending_timeout(self):
        import threading

        gate = threading.Event()

        def slow(payload):
            gate.wait(10.0)
            return payload

        server = WireServer(slow, workers=1).start()
        try:
            pending = server.submit({"slow": True})
            with pytest.raises(TimeoutError):
                pending.result(0.05)
        finally:
            gate.set()
            server.stop()

    def test_submit_many_accepts_generator(self):
        """Regression: submit_many pre-charged the depth gauge with
        ``len(payloads)``, which raises ``TypeError`` on a generator."""
        module = make_module(3, seed=29)
        sharded = ShardedClient(module, shards=2)
        payloads = make_payloads(module, 40)
        with WireServer(sharded.dispatch_json, workers=2) as server:
            pendings = server.submit_many(payload for payload in payloads)
            assert len(pendings) == len(payloads)
            responses = [pending.result(30.0) for pending in pendings]
        serial = CompilerClient(module)
        assert responses == [serial.dispatch_json(p) for p in payloads]

    @pytest.mark.expects_deadline
    def test_stop_shares_one_deadline_across_wedged_workers(self, caplog):
        """Regression: stop() passed the full timeout to *each* join
        (worst case ``workers × timeout``) and returned silently even
        when workers survived the drain."""
        import logging
        import threading
        import time

        gate = threading.Event()
        entered = threading.Semaphore(0)

        def wedged(payload):
            entered.release()
            gate.wait(60.0)
            return payload

        server = WireServer(wedged, workers=6).start()
        try:
            server.submit_many([{"i": i} for i in range(6)])
            for _ in range(6):  # every worker is parked in the dispatcher
                assert entered.acquire(timeout=30.0)
            start = time.monotonic()
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                survivors = server.stop(timeout=0.5)
            elapsed = time.monotonic() - start
        finally:
            gate.set()
        assert survivors == 6
        # One shared deadline: ~0.5s total, nowhere near 6 x 0.5s.
        assert elapsed < 2.0, f"stop took {elapsed:.2f}s (per-join timeouts?)"
        assert any(
            "still running" in record.getMessage()
            and record.name == "repro.obs"
            for record in caplog.records
        )
