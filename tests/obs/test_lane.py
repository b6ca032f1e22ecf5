"""The liveness lane: one path for every single-variable query.

Typed ``dispatch(LivenessQuery)``, JSON frames and bin2 frames all
answer through the client's ``query_liveness`` lane, observed or not.
Pinned here:

* every request lands in ``dispatch.seconds`` exactly once, whichever
  caller sent it and whether it succeeded or failed;
* an observer sees the same ``(request, response)`` sequence — each
  request exactly once, failures included — from all three callers, and
  a ``Durability``-attached client writes the same WAL records;
* free-running threads on bin2 connections replay serially, and
  bin2 frames read by the lane — any varint width — get the generic
  decoder's exact bytes back;
* a traced query keeps its span tree on every caller, spans read no
  clock when idle, and an exception inside a span or a shard-lock block
  restores the active span and releases every lock.
"""

import json
import random
import threading

import pytest

from repro.api.client import CompilerClient
from repro.api.codec import (
    BytesServerSession,
    StringInterner,
    decode_response_bin2,
    encode_request_bin2,
    encode_request_json,
)
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    LivenessQuery,
    NotifyRequest,
    decode_response,
)
from repro.concurrent.client import ShardedClient
from repro.concurrent.sharded import ShardedService
from repro.obs import Observability, Tracer, current_span
from repro.persist.durability import Durability
from repro.persist.wal import encode_wal_record, read_wal
from tests.support.concurrency import (
    TraceRecorder,
    canonical_response,
    corpus_functions,
    fn_info,
    random_traces,
    replay_trace,
    run_free,
)

CLIENTS = [CompilerClient, ShardedClient]
CALLERS = ["typed", "json", "bin2"]


class CountingClock:
    """A fake monotonic clock counting its reads."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return float(self.reads)


def make_client(cls, observer=None):
    functions = corpus_functions(4)
    if cls is ShardedClient:
        return ShardedClient(functions, shards=2, capacity=4, observer=observer)
    assert observer is None
    return CompilerClient(functions, capacity=4)


def caller(client, kind):
    """``request -> response`` through one of the three front doors."""
    if kind == "typed":
        return client.dispatch
    session = client.bytes_session()
    if kind == "json":
        return lambda request: decode_response(
            session.dispatch_frame(encode_request_json(request))
        )
    interner = StringInterner()
    return lambda request: decode_response_bin2(
        session.dispatch_frame(encode_request_bin2(request, interner))
    )


def mixed_stream(client):
    """Hits on every function, a write, then each of the four failures."""
    infos = [fn_info(client.service.function(name)) for name in client.service.functions()]
    stream = []
    for index, info in enumerate(infos):
        for position, variable in enumerate(info.variables[:3]):
            block = info.blocks[(index + position) % len(info.blocks)]
            kind = "in" if position % 2 == 0 else "out"
            stream.append(
                LivenessQuery(function=info.name, kind=kind, variable=variable, block=block)
            )
    first = infos[0]
    pinned = FunctionHandle(first.name, 0)
    stream += [
        LivenessQuery(function=pinned, kind="in", variable=first.variables[0], block=first.blocks[0]),
        NotifyRequest(function=first.name, kind="instructions"),
        LivenessQuery(function=pinned, kind="in", variable=first.variables[0], block=first.blocks[0]),
        LivenessQuery(function="no_such_fn", kind="in", variable="v", block="b"),
        LivenessQuery(function=first.name, kind="out", variable="no_such_var", block=first.blocks[0]),
        LivenessQuery(function=first.name, kind="in", variable=first.variables[0], block="no_such_block"),
        LivenessQuery(
            function=FunctionHandle(first.name, 1),
            kind="out",
            variable=first.variables[-1],
            block=first.blocks[-1],
        ),
    ]
    return stream


class Recorder:
    def __init__(self) -> None:
        self.entries = []

    def __call__(self, request, response) -> None:
        self.entries.append((request, canonical_response(response)))


class TestDispatchSecondsOncePerRequest:
    @pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
    def test_every_caller_records_each_request_once(self, cls):
        client = make_client(cls)
        histogram = client.obs.histogram("dispatch.seconds")
        info = fn_info(client.service.function(client.service.functions()[0]))
        queries = [
            LivenessQuery(function=info.name, kind="in", variable=var, block=info.blocks[0])
            for var in info.variables[:4]
        ]
        # Four hits and one failure per caller.
        queries.append(LivenessQuery(function=info.name, kind="in", variable="zz", block="bb"))
        for kind in CALLERS:
            send = caller(client, kind)
            before = histogram.count
            responses = [send(query) for query in queries]
            assert [response.ok for response in responses] == [True] * 4 + [False]
            assert histogram.count - before == len(queries), kind

    def test_observed_sharded_lane_records_each_request_once(self):
        client = make_client(ShardedClient, observer=Recorder())
        histogram = client.obs.histogram("dispatch.seconds")
        stream = mixed_stream(client)
        for kind in CALLERS:
            send = caller(client, kind)
            before = histogram.count
            for request in stream:
                send(request)
            assert histogram.count - before == len(stream), kind


class TestObserverParity:
    def run(self, kind):
        recorder = Recorder()
        client = make_client(ShardedClient, observer=recorder)
        send = caller(client, kind)
        stream = mixed_stream(client)
        responses = [canonical_response(send(request)) for request in stream]
        return stream, responses, recorder.entries

    def test_typed_json_and_bin2_are_observed_identically(self):
        stream, typed_responses, typed = self.run("typed")
        # Each request exactly once, in order, with the answer it got.
        assert [request for request, _ in typed] == stream
        assert [response for _, response in typed] == typed_responses
        bodies = [json.loads(response)["body"] for _, response in typed]
        errors = {body["error"]["code"] for body in bodies if body["error"] is not None}
        assert errors == {
            "stale_handle",
            "unknown_function",
            "unknown_variable",
            "unknown_block",
        }
        for kind in ("json", "bin2"):
            _stream, responses, entries = self.run(kind)
            assert responses == typed_responses, kind
            assert entries == typed, kind

    def test_durability_logs_the_same_records_from_every_caller(self, tmp_path):
        logs = []
        for kind in CALLERS:
            directory = str(tmp_path / kind)
            durability = Durability(directory, fsync="never")
            client = make_client(ShardedClient, observer=durability.observer)
            durability.attach(client)
            send = caller(client, kind)
            for request in mixed_stream(client):
                send(request)
            durability.close()
            entries = read_wal(directory).entries
            logs.append([encode_wal_record(seq, request) for seq, request in entries])
        assert logs[0], "the stream's write was not logged"
        assert logs[0] == logs[1] == logs[2]


def test_threaded_bin2_lane_replays_bit_identically():
    """Free-running threads, one bin2 connection each, edits mixed in:
    the observed order must replay serially to the same responses."""
    functions = corpus_functions(8)
    infos = [fn_info(function) for function in functions]
    recorder = TraceRecorder()
    client = ShardedClient(functions, shards=4, capacity=6, observer=recorder)
    local = threading.local()

    def dispatch(request):
        if not hasattr(local, "session"):
            local.session = client.bytes_session()
            local.interner = StringInterner()
        frame = encode_request_bin2(request, local.interner)
        return decode_response_bin2(local.session.dispatch_frame(frame))

    traces = random_traces(random.Random(7), infos, 6, 60, edit_rate=0.1)
    run_free(dispatch, traces, timeout=120.0)
    assert len(recorder.entries) == 6 * 60
    fresh = ShardedClient(corpus_functions(8), shards=4, capacity=6)
    assert replay_trace(recorder.entries, fresh.dispatch) == []


def test_lane_read_liveness_frames_match_the_generic_decoder():
    """Every well-formed liveness frame — long names, wide revisions,
    more than 127 interned strings — is read by the bin2 lane, and every
    frame, well-formed or corrupted, gets the same bytes back as from a
    session without the lane (generic decoder, typed dispatch)."""
    client = make_client(ShardedClient)
    info = fn_info(client.service.function(client.service.functions()[0]))
    # 130 unknown names interned first push every later string ref past
    # one varint byte.
    requests = [
        LivenessQuery(function=f"pad{i}", kind="in", variable="v", block="b")
        for i in range(130)
    ] + [
        LivenessQuery(
            function=FunctionHandle(name, revision), kind=kind, variable=variable, block=block
        )
        for name in (info.name, "f" * 130, "no_such_fn")
        for revision in (None, 0, 1, 63, 64, 300, -1, -65)
        for kind in ("in", "out")
        for variable in (info.variables[0], "v" * 140, "é" * 3)
        for block in (info.blocks[-1], "b" * 129)
    ]
    interner = StringInterner()
    frames = [encode_request_bin2(request, interner) for request in requests]
    rng = random.Random(11)
    corrupted = []
    for frame in rng.sample(frames, 40):
        payload = bytearray(frame[4:])
        body = len(payload) - rng.randrange(1, min(len(payload) - 4, 12))
        cut = bytes(payload[:body])
        corrupted.append(len(cut).to_bytes(4, "little") + cut)
        flipped = bytearray(payload)
        flipped[rng.randrange(body, len(payload))] ^= 1 << rng.randrange(8)
        corrupted.append(len(flipped).to_bytes(4, "little") + bytes(flipped))
    lane_calls = []

    def lane_liveness(*args):
        lane_calls.append(args)
        return client.query_liveness(*args)

    lane = BytesServerSession(client.dispatch, obs=client.obs, liveness=lane_liveness)
    generic = BytesServerSession(client.dispatch, obs=client.obs)
    for frame in frames:
        assert lane.dispatch_frame(frame) == generic.dispatch_frame(frame), frame.hex()
    assert len(interner) > 127  # string refs of two varint bytes were read
    assert lane_calls == [
        (
            request.function.name,
            request.function.revision,
            request.kind.value == "in",
            request.variable,
            request.block,
        )
        for request in requests
    ]
    for frame in corrupted:
        assert lane.dispatch_frame(frame) == generic.dispatch_frame(frame), frame.hex()


class TestSpanTrees:
    @pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("kind", CALLERS)
    def test_traced_query_keeps_its_span_tree(self, cls, kind):
        client = make_client(cls)
        info = fn_info(client.service.function(client.service.functions()[0]))
        query = LivenessQuery(
            function=info.name, kind="out", variable=info.variables[0], block=info.blocks[0]
        )
        send = caller(client, kind)
        send(query)  # warm the checker: no build span below
        with client.obs.request_trace("request") as root:
            assert send(query).ok
        (dispatch,) = root.children
        assert dispatch.name == "dispatch"
        assert dispatch.attributes == {"request": "LivenessQuery"}
        expected = ["checker_lookup", "kernel_query"]
        if cls is ShardedClient:
            expected.insert(0, "shard_lock")
        assert [child.name for child in dispatch.children] == expected
        assert all(span.end is not None for span in root.walk())
        assert current_span() is None


class TestIdleTracing:
    def test_untraced_span_is_one_shared_object_and_reads_no_clock(self):
        clock = CountingClock()
        tracer = Tracer(clock)
        first = tracer.span("dispatch", request="LivenessQuery")
        second = tracer.span("kernel_query")
        assert first is second
        with first as span:
            assert span is None
        assert clock.reads == 0

    def test_disabled_request_trace_is_the_same_shared_object(self):
        clock = CountingClock()
        obs = Observability(clock=clock, tracing=False)
        assert obs.request_trace("request") is obs.span("dispatch")
        assert clock.reads == 0


class TestExceptionsRestoreState:
    def test_exception_inside_a_span_restores_the_active_span(self):
        tracer = Tracer(CountingClock())
        with tracer.request_trace("request") as root:
            with pytest.raises(RuntimeError):
                with tracer.span("outer") as outer:
                    with tracer.span("inner"):
                        raise RuntimeError("boom")
            assert current_span() is root
        assert current_span() is None
        assert all(span.end is not None for span in root.walk())
        assert [child.name for child in outer.children] == ["inner"]

    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    def test_exception_inside_a_lock_block_releases_every_lock(self, write):
        service = ShardedService(corpus_functions(6), shards=3)
        names = service.functions()
        assert len({service.shard_of(name) for name in names}) > 1
        locked = service.write_locked if write else service.read_locked
        locks = [shard.lock for shard in service._shards]
        with service.obs.request_trace("request") as root:
            with pytest.raises(RuntimeError):
                with locked(names):
                    assert current_span() is root
                    if write:
                        assert any(lock.writer_active for lock in locks)
                    else:
                        assert any(lock.readers for lock in locks)
                    raise RuntimeError("boom")
            assert current_span() is root
        assert all(lock.readers == 0 and not lock.writer_active for lock in locks)
        assert [child.name for child in root.children] == ["shard_lock"]
        # Every shard is writable again.
        with service.write_locked(names):
            pass
