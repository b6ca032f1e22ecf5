"""Tests for the multi-process coordinator (`repro.concurrent.procs`).

The contract under test is the ShardedClient contract, one level up:
same protocol, same structured errors, same linearizability — but every
shard is a worker *process*, so the suite also covers what only
processes can do: hard crashes answered with structured ``INTERNAL``
errors, deterministic state rebuild on auto-restart, and wire streams
relayed byte-for-byte through the fleet.
"""

import json
import logging
import threading
import time

import pytest

from repro.api.codec import StringInterner, encode_request_bin2
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    PROTOCOL_VERSION,
    BatchLiveness,
    CompileSourceRequest,
    DestructRequest,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
    StatsRequest,
    dumps_compact,
    encode_request,
)
from repro.concurrent import ShardedClient
from repro.concurrent.procs import DEFAULT_WORKERS, ProcClient, is_worker_failure
from tests.support.concurrency import (
    canonical_response,
    corpus_functions,
    fn_info,
)

pytestmark = pytest.mark.timeout(120)

#: Workers per client in this suite — enough for cross-worker traffic,
#: small enough that spawning stays cheap on a 1-CPU container.
WORKERS = 2


@pytest.fixture
def corpus():
    return corpus_functions(6, base_seed=3)


@pytest.fixture
def client(corpus):
    with ProcClient(corpus, workers=WORKERS, capacity=8) as proc_client:
        yield proc_client


def serial_twin(corpus_size=6, base_seed=3, capacity=8):
    """The replay target: a fresh in-process client, same partition."""
    return ShardedClient(
        corpus_functions(corpus_size, base_seed=base_seed),
        shards=WORKERS,
        capacity=capacity,
    )


def mixed_requests(corpus):
    infos = [fn_info(function) for function in corpus]
    first = infos[0]
    requests = []
    for info in infos:
        handle = FunctionHandle(info.name, revision=0)
        requests.append(
            LivenessQuery(
                function=handle,
                kind="in",
                variable=info.variables[1],
                block=info.blocks[1],
            )
        )
        requests.append(
            LiveSetRequest(function=handle, kind="out", block=info.blocks[0])
        )
    requests.append(
        BatchLiveness(
            queries=tuple(
                LivenessQuery(
                    function=FunctionHandle(info.name, 0),
                    kind="out",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
                for info in infos[:4]
            )
        )
    )
    requests.append(BatchLiveness(queries=()))
    requests.append(
        BatchLiveness(
            queries=(
                LivenessQuery(
                    function=FunctionHandle(first.name, 0),
                    kind="in",
                    variable="no_such_var",
                    block=first.blocks[0],
                ),
                LivenessQuery(
                    function=FunctionHandle("ghost", 0),
                    kind="in",
                    variable="x",
                    block="b",
                ),
            )
        )
    )
    requests.append(NotifyRequest(function=FunctionHandle(first.name), kind="cfg"))
    requests.append(EvictRequest(function=FunctionHandle(infos[1].name)))
    requests.append(
        LivenessQuery(
            function=FunctionHandle(first.name, revision=0),  # now stale
            kind="in",
            variable=first.variables[0],
            block=first.blocks[0],
        )
    )
    requests.append(DestructRequest(function=FunctionHandle(infos[2].name)))
    requests.append(
        LivenessQuery(
            function=FunctionHandle("missing", None), kind="in", variable="x", block="b"
        )
    )
    return requests


class TestTypedParity:
    def test_mixed_traffic_matches_serial_shard_client(self, corpus, client):
        serial = serial_twin()
        for index, request in enumerate(mixed_requests(corpus)):
            concurrent = canonical_response(client.dispatch(request))
            replayed = canonical_response(serial.dispatch(request))
            assert concurrent == replayed, (
                f"request {index} ({type(request).__name__}) diverged:\n"
                f"  procs:  {concurrent}\n  serial: {replayed}"
            )

    def test_routing_matches_sharded_partition(self, corpus, client):
        from repro.concurrent.sharded import shard_of

        for function in corpus:
            assert client.worker_of(function.name) == shard_of(
                function.name, WORKERS
            )

    def test_compile_source_registers_on_workers(self, client):
        handles = client.compile("func probe(a) { return a; }")
        assert [handle.name for handle in handles] == ["probe"]
        assert handles[0].revision == 0
        response = client.dispatch(
            LiveSetRequest(
                function=FunctionHandle("probe", 0), kind="in", block="entry"
            )
        )
        assert response.error is None
        # Duplicate registration fails with the serial client's error.
        duplicate = client.dispatch(
            CompileSourceRequest(source="func probe(a) { return a; }")
        )
        assert duplicate.error is not None
        assert duplicate.error.code == "duplicate_function"
        assert "probe" in duplicate.error.detail

    def test_unsupported_request_type(self, client):
        response = client.dispatch(object())
        assert response.error is not None
        assert response.error.code == "invalid_request"
        assert "object" in response.error.detail

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ProcClient(workers=0)

    def test_default_worker_count(self):
        assert DEFAULT_WORKERS == 4


class TestStats:
    def test_aggregated_snapshot_carries_worker_labels(self, corpus, client):
        info = fn_info(corpus[0])
        for _ in range(3):
            client.dispatch(
                LivenessQuery(
                    function=FunctionHandle(info.name),
                    kind="in",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
            )
        response = client.dispatch(StatsRequest())
        assert response.error is None
        labelled = [
            key
            for key in response.snapshot["counters"]
            if "worker=" in key
        ]
        assert labelled, "worker snapshots were not merged into the scrape"
        # The roll-up sums per-worker service counters like ShardedService.
        assert response.stats["queries"] >= 3
        assert 0.0 <= response.stats["hit_rate"] <= 1.0

    def test_stats_reset(self, corpus, client):
        info = fn_info(corpus[0])
        client.dispatch(
            LivenessQuery(
                function=FunctionHandle(info.name),
                kind="in",
                variable=info.variables[0],
                block=info.blocks[0],
            )
        )
        client.dispatch(StatsRequest(reset=True))
        response = client.dispatch(StatsRequest())
        assert response.stats["queries"] == 0


class TestCrashRecovery:
    def test_crash_answers_structured_internal_then_restarts(
        self, corpus, client, caplog
    ):
        info = fn_info(corpus[0])
        worker = client.worker_of(info.name)
        query = LivenessQuery(
            function=FunctionHandle(info.name, 0),
            kind="in",
            variable=info.variables[0],
            block=info.blocks[0],
        )
        baseline = canonical_response(client.dispatch(query))
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            client.inject_crash(worker)
            response = client.dispatch(query)
            if response.error is not None:
                # The query raced the crash: it must be the structured
                # worker-failure marker, never a raw exception or a hang.
                assert is_worker_failure(response.error)
                response = client.dispatch(query)
        # The restarted worker rebuilt its registry: same answer as before.
        assert canonical_response(response) == baseline
        assert client.ping(worker)["pid"] is not None

    def test_restart_replays_confirmed_mutations(self, corpus, client):
        """Revisions bumped before a crash survive the restart."""
        info = fn_info(corpus[0])
        worker = client.worker_of(info.name)
        notify = client.dispatch(
            NotifyRequest(function=FunctionHandle(info.name), kind="cfg")
        )
        assert notify.error is None  # confirmed: in the rebuild log
        client.inject_crash(worker)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            response = client.dispatch(
                LivenessQuery(
                    function=FunctionHandle(info.name, revision=0),
                    kind="in",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
            )
            if not is_worker_failure(response.error):
                break
        # Revision 0 went stale before the crash and stays stale after:
        # the restarted worker replayed the confirmed notify.
        assert response.error is not None
        assert response.error.code == "stale_handle"

    def test_is_worker_failure_only_matches_the_markers(self):
        from repro.api.errors import ApiError, ErrorCode

        assert is_worker_failure(
            ApiError(ErrorCode.INTERNAL, "worker 3 crashed; the request ...")
        )
        assert is_worker_failure(
            ApiError(ErrorCode.INTERNAL, "worker 0 did not answer within 5s")
        )
        assert not is_worker_failure(None)
        assert not is_worker_failure(ApiError(ErrorCode.INTERNAL, "boom"))
        assert not is_worker_failure(
            ApiError(ErrorCode.UNKNOWN_FUNCTION, "worker 1 crashed")
        )

    def test_ping_and_close_are_clean(self, corpus):
        client = ProcClient(corpus, workers=WORKERS, capacity=8)
        pids = {client.ping(index)["pid"] for index in range(WORKERS)}
        assert len(pids) == WORKERS  # genuinely separate processes
        client.close()
        # Idempotent: a second close is a no-op, not an error.
        client.close()

    def test_close_during_restart_drains_the_respawned_worker(
        self, corpus, caplog, monkeypatch
    ):
        """``close()`` racing a crash-restart must drain the fresh worker.

        The respawn is held until ``close()`` has begun and (if it is
        going to) has sent its drain controls; only then is the fresh
        worker installed.  ``close()`` must neither sit out its deadline
        on that worker nor return while it keeps running undrained.
        """
        from repro.concurrent import procs

        drain_sent = threading.Event()
        pack_control = procs._pack_control

        def spying_pack_control(header, payload=b""):
            if header.get("op") == "drain":
                drain_sent.set()
            return pack_control(header, payload)

        monkeypatch.setattr(procs, "_pack_control", spying_pack_control)
        client = ProcClient(corpus, workers=WORKERS, capacity=8)
        respawning = threading.Event()
        respawned = threading.Event()
        spawn = client._spawn

        def gated_spawn(link):
            respawning.set()
            deadline = time.monotonic() + 10.0
            while not client._closing and time.monotonic() < deadline:
                time.sleep(0.005)
            drain_sent.wait(0.5)
            try:
                spawn(link)
            finally:
                respawned.set()

        client._spawn = gated_spawn
        closer = threading.Thread(target=client.close)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                client.inject_crash(0)
                assert respawning.wait(30.0)
                started = time.monotonic()
                closer.start()
                closer.join(30.0)
                elapsed = time.monotonic() - started
                assert respawned.wait(10.0)
            assert not closer.is_alive()
            assert elapsed < 2.5, f"close() took {elapsed:.2f}s"
            assert not [
                r for r in caplog.records if "did not drain" in r.getMessage()
            ]
            for link in client._links:
                link.proc.join(1.0)
                assert not link.proc.is_alive(), f"worker {link.index} left running"
        finally:
            for link in client._links:
                if link.proc.is_alive():
                    link.proc.kill()


class TestWireServe:
    def hello(self):
        return dumps_compact(
            {"api": PROTOCOL_VERSION, "type": "hello", "codecs": ["json", "bin2"]}
        ).encode()

    def bin2_stream(self, corpus):
        interner = StringInterner()
        frames = [
            encode_request_bin2(request, interner)
            for request in mixed_requests(corpus)
        ]
        frames.append(b"\x00\x01 not a frame")
        frames.append(self.hello())
        fresh = StringInterner()  # the hello reset the connection table
        frames.extend(
            encode_request_bin2(request, fresh)
            for request in mixed_requests(corpus)[:6]
        )
        return frames

    def json_stream(self, corpus):
        payloads = [
            dumps_compact(encode_request(request)).encode()
            for request in mixed_requests(corpus)
        ]
        payloads.append(b"{not json")
        payloads.append(self.hello())
        payloads.extend(
            dumps_compact(encode_request(request)).encode()
            for request in mixed_requests(corpus)[:6]
        )
        return payloads

    @pytest.mark.parametrize("codec", ["bin2", "json"])
    def test_serve_is_bit_identical_to_single_process_session(
        self, corpus, client, codec
    ):
        stream = (
            self.bin2_stream(corpus) if codec == "bin2" else self.json_stream(corpus)
        )
        answered = client.serve(stream)
        session = serial_twin().bytes_session()
        expected = [session.dispatch_frame(payload) for payload in stream]
        assert len(answered) == len(expected)
        for index, (got, want) in enumerate(zip(answered, expected)):
            assert got == want, f"frame {index} diverged"

    def test_serve_crash_mid_stream_answers_internal_in_framing(self, corpus):
        info = fn_info(corpus[0])
        interner = StringInterner()
        query = LivenessQuery(
            function=FunctionHandle(info.name, 0),
            kind="in",
            variable=info.variables[0],
            block=info.blocks[0],
        )
        frames = [encode_request_bin2(query, interner) for _ in range(50)]
        with ProcClient(corpus, workers=WORKERS, capacity=8) as client:
            client.inject_crash(client.worker_of(info.name))
            answered = client.serve(frames, timeout=30.0)
        from repro.api.codec import decode_response_bin2

        saw_failure = saw_success = False
        for raw in answered:
            response = decode_response_bin2(raw)
            if response.error is None:
                saw_success = True
            else:
                assert is_worker_failure(response.error)
                saw_failure = True
        # The stream straddled the crash: some frames died with the
        # worker (structured, in-framing), the rest were answered by the
        # restarted one.  Neither side may hang or leak raw exceptions.
        assert saw_failure or saw_success

    def test_serve_json_relay_answers_match_dispatch_json(self, corpus, client):
        info = fn_info(corpus[0])
        payload = {
            "api": PROTOCOL_VERSION,
            "type": "liveness_query",
            "body": {
                "function": {"name": info.name, "revision": 0},
                "kind": "in",
                "variable": info.variables[0],
                "block": info.blocks[0],
            },
        }
        [answered] = client.serve([dumps_compact(payload).encode()])
        assert json.loads(answered) == serial_twin().dispatch_json(payload)
