"""Binary wire codec v2: fixpoints, robustness, negotiation, JSON parity.

Four properties anchor the codec layer:

1. **Fixpoints, both encodings.**  For every protocol message type,
   ``encode(decode(encode(x)))`` is bit-identical to ``encode(x)`` —
   hypothesis-driven, exactly as the JSON suite proved for PR 4.
2. **The boundary holds on bytes.**  Garbage, truncated and
   mid-frame-corrupted binary input produces a structured error in the
   caller's own framing — never an exception — through
   ``BytesServerSession``, ``serve_loop`` and both clients.
3. **Negotiation degrades, never strands.**  Older servers, unknown
   codec names and JSON-only peers all land on the JSON fallback; a
   reconnect (new ``hello``) resets the server's string table.
4. **JSON ≡ bin2.**  The same request stream answered through both
   encodings yields canonically identical responses, on the PR-5
   differential corpus, through ``CompilerClient`` and
   ``ShardedClient`` alike.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.client import CompilerClient
from repro.api.codec import (
    CODEC_BIN2,
    CODEC_JSON,
    CODECS,
    BytesClient,
    StringInterner,
    StringTable,
    choose_codec,
    decode_request_bin2,
    decode_response_bin2,
    encode_request_bin2,
    encode_request_json,
    encode_response_bin2,
    encode_response_json,
    hello_frame,
    is_bin2_frame,
    parse_hello_reply,
)
from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    AllocateResponse,
    AllocationSummary,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    DestructResponse,
    DestructStats,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyRequest,
    NotifyResponse,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode_request,
)
from repro.concurrent.client import ShardedClient
from repro.core.incremental import CfgDelta
from repro.concurrent.server import serve_loop
from tests.support.concurrency import (
    canonical_response,
    corpus_functions,
    fn_info,
    random_request,
)

# ----------------------------------------------------------------------
# Hypothesis strategies: one per protocol message type
# ----------------------------------------------------------------------

# Names exercise the string table with real unicode, not just ASCII.
names = st.text(min_size=1, max_size=16).filter(lambda s: s == s.strip())
revisions = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))
handles = st.builds(FunctionHandle, name=names, revision=revisions)
errors = st.one_of(
    st.none(),
    st.builds(
        ApiError,
        st.sampled_from(list(ErrorCode)),
        st.text(max_size=60),
    ),
)

liveness_queries = st.builds(
    LivenessQuery,
    function=handles,
    kind=st.sampled_from(("in", "out")),
    variable=names,
    block=names,
)

# CFG-edit deltas riding on notify frames (string nodes: wire-safe).
edge_lists = st.lists(st.tuples(names, names), max_size=3).map(tuple)
cfg_deltas = st.builds(
    CfgDelta,
    added_edges=edge_lists,
    removed_edges=edge_lists,
    added_blocks=st.lists(names, max_size=2).map(tuple),
    removed_blocks=st.lists(names, max_size=2).map(tuple),
)

requests = st.one_of(
    liveness_queries,
    st.builds(BatchLiveness, queries=st.lists(liveness_queries, max_size=6)),
    st.builds(
        LiveSetRequest,
        function=handles,
        block=names,
        kind=st.sampled_from(("in", "out")),
    ),
    st.builds(
        DestructRequest,
        function=handles,
        engine=st.sampled_from(("fast", "dataflow")),
        verify=st.booleans(),
    ),
    st.builds(
        AllocateRequest,
        function=handles,
        num_registers=st.one_of(st.none(), st.integers(0, 64)),
        engine=st.sampled_from(("fast", "dataflow")),
        destruct=st.booleans(),
    ),
    st.builds(
        NotifyRequest,
        function=handles,
        kind=st.sampled_from(("cfg", "instructions")),
        delta=st.one_of(st.none(), cfg_deltas),
    ),
    st.builds(EvictRequest, function=handles),
    st.builds(
        CompileSourceRequest,
        source=st.text(max_size=120),
        module_name=names,
    ),
    st.builds(StatsRequest, reset=st.booleans()),
)

destruct_stats = st.builds(
    DestructStats,
    engine=st.sampled_from(("fast", "dataflow")),
    critical_edges_split=st.integers(0, 999),
    phis_isolated=st.integers(0, 999),
    parallel_copies=st.integers(0, 999),
    pairs_inserted=st.integers(0, 999),
    pairs_coalesced=st.integers(0, 999),
    classes_merged=st.integers(0, 999),
    interference_tests=st.integers(0, 10**9),
    liveness_queries=st.integers(0, 10**9),
    copies_emitted=st.integers(0, 999),
    temps_inserted=st.integers(0, 999),
    phis_removed=st.integers(0, 999),
)

allocation_summaries = st.builds(
    AllocationSummary,
    registers=st.dictionaries(names, st.integers(0, 63), max_size=5),
    spill_slots=st.dictionaries(names, st.integers(0, 63), max_size=3),
    registers_used=st.integers(0, 64),
    max_live=st.integers(0, 64),
    max_live_before_spill=st.integers(0, 64),
    spilled=st.lists(names, max_size=4).map(tuple),
    reconstructed_ssa=st.booleans(),
)

# JSON-safe snapshot payloads (what StatsResponse actually carries).
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**31), 2**31), st.text(max_size=12)
)
json_dicts = st.dictionaries(
    st.text(max_size=8), json_scalars, max_size=4
)

responses = st.one_of(
    st.builds(
        LivenessResponse,
        value=st.one_of(st.none(), st.booleans()),
        error=errors,
    ),
    st.builds(
        BatchLivenessResponse,
        values=st.one_of(st.none(), st.lists(st.booleans(), max_size=40)),
        error=errors,
    ),
    st.builds(
        LiveSetResponse,
        variables=st.one_of(st.none(), st.lists(names, max_size=6)),
        error=errors,
    ),
    st.builds(
        DestructResponse,
        function=st.one_of(st.none(), handles),
        stats=st.one_of(st.none(), destruct_stats),
        error=errors,
    ),
    st.builds(
        AllocateResponse,
        function=st.one_of(st.none(), handles),
        allocation=st.one_of(st.none(), allocation_summaries),
        error=errors,
    ),
    st.builds(
        NotifyResponse, function=st.one_of(st.none(), handles), error=errors
    ),
    st.builds(
        EvictResponse, function=st.one_of(st.none(), handles), error=errors
    ),
    st.builds(
        CompileSourceResponse,
        functions=st.one_of(st.none(), st.lists(handles, max_size=4)),
        error=errors,
    ),
    st.builds(
        StatsResponse,
        snapshot=st.one_of(st.none(), json_dicts),
        stats=st.one_of(st.none(), json_dicts),
        error=errors,
    ),
    st.builds(ErrorResponse, error=errors),
)


# Arbitrary JSON values, including the ones bin2 cannot carry: floats,
# integers beyond 64 bits and a lone surrogate.
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
        st.just("\ud800"),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=6,
)


def mutate(data, value):
    """``value`` with some parts, at any depth, replaced or dropped."""
    if data.draw(st.integers(0, 7)) == 0:
        return data.draw(json_values)
    if isinstance(value, dict):
        return {
            key: mutate(data, item)
            for key, item in value.items()
            if data.draw(st.integers(0, 9))
        }
    if isinstance(value, list):
        return [mutate(data, item) for item in value]
    return value


# ----------------------------------------------------------------------
# 1. Codec fixpoints
# ----------------------------------------------------------------------
class TestBin2Fixpoints:
    @settings(max_examples=200, deadline=None)
    @given(requests)
    def test_request_roundtrip_is_fixpoint(self, request):
        frame = encode_request_bin2(request)
        decoded = decode_request_bin2(frame)
        assert decoded == request
        assert encode_request_bin2(decoded) == frame

    @settings(max_examples=200, deadline=None)
    @given(responses)
    def test_response_roundtrip_is_fixpoint(self, response):
        frame = encode_response_bin2(response)
        decoded = decode_response_bin2(frame)
        assert decoded == response
        assert encode_response_bin2(decoded) == frame

    @settings(max_examples=100, deadline=None)
    @given(requests)
    def test_json_codec_roundtrip_is_fixpoint(self, request):
        # The registered JSON codec (text bytes) is a fixpoint too.
        codec = CODECS[CODEC_JSON]
        data = codec.encode_request(request)
        decoded = codec.decode_request(data)
        assert decoded == request
        assert codec.encode_request(decoded) == data

    @settings(max_examples=100, deadline=None)
    @given(responses)
    def test_json_codec_response_fixpoint(self, response):
        codec = CODECS[CODEC_JSON]
        data = codec.encode_response(response)
        decoded = codec.decode_response(data)
        assert decoded == response
        assert codec.encode_response(decoded) == data

    @settings(max_examples=300, deadline=None)
    @given(requests, st.data())
    def test_json_bodies_that_decode_also_bin2_roundtrip(self, request, data):
        # The WAL logs JSON-submitted requests as bin2 frames, so every
        # body the JSON decoder accepts must survive that trip.
        envelope = encode_request(request)
        envelope["body"] = mutate(data, envelope["body"])
        try:
            decoded = decode_request(json.loads(json.dumps(envelope)))
        except ProtocolError:
            return
        assert decode_request_bin2(encode_request_bin2(decoded)) == decoded

    @settings(max_examples=100, deadline=None)
    @given(st.lists(requests, min_size=1, max_size=6))
    def test_interned_stream_roundtrip(self, stream):
        # A connection's frames share one interner/table pair; later
        # frames reference names defined by earlier ones and still
        # decode to equal requests.
        interner = StringInterner()
        table = StringTable()
        for request in stream:
            frame = encode_request_bin2(request, interner)
            assert decode_request_bin2(frame, table) == request

    def test_interning_shrinks_repeat_frames(self):
        interner = StringInterner()
        query = LivenessQuery(
            function=FunctionHandle("a_rather_long_function_name", 3),
            kind="in",
            variable="x",
            block="entry",
        )
        first = encode_request_bin2(query, interner)
        second = encode_request_bin2(query, interner)
        assert len(second) < len(first)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(requests.map(lambda r: ("req", r)),
                     responses.map(lambda r: ("resp", r))))
    def test_bin2_smaller_than_compact_json(self, tagged):
        kind, message = tagged
        if kind == "req":
            binary = encode_request_bin2(message)
            text = encode_request_json(message)
        else:
            binary = encode_response_bin2(message)
            text = encode_response_json(message)
        assert len(binary) < len(text)


# ----------------------------------------------------------------------
# 2. The never-raise boundary on byte input
# ----------------------------------------------------------------------
def _structured(raw: bytes):
    """Decode a reply in whichever framing it came back in; must parse."""
    if is_bin2_frame(raw):
        return decode_response_bin2(raw)
    return decode_response(raw)


class TestByteRobustness:
    @pytest.fixture()
    def session(self):
        client = CompilerClient()
        client.compile("func f(a) { return a; }")
        return client.bytes_session()

    def test_truncated_frames_answer_structured(self, session):
        frame = encode_request_bin2(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry")
        )
        for cut in range(len(frame)):
            raw = session.dispatch_frame(frame[:cut])
            assert isinstance(raw, bytes)
            _structured(raw)  # decodable, never raises

    def test_random_garbage_answers_structured(self, session):
        rng = random.Random(0xB2)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            _structured(session.dispatch_frame(blob))

    def test_bit_flipped_frames_answer_structured(self, session):
        frame = encode_request_bin2(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry")
        )
        for index in range(len(frame)):
            for bit in (0x01, 0x40, 0x80):
                corrupted = bytearray(frame)
                corrupted[index] ^= bit
                _structured(session.dispatch_frame(bytes(corrupted)))

    def test_version_mismatch_is_invalid_request(self, session):
        frame = bytearray(
            encode_request_bin2(StatsRequest())
        )
        frame[5] = 99  # protocol version byte
        response = _structured(session.dispatch_frame(bytes(frame)))
        assert response.error is not None
        assert response.error.code is ErrorCode.INVALID_REQUEST
        assert "version" in response.error.detail

    def test_garbage_through_serve_loop_and_both_clients(self):
        rng = random.Random(7)
        blobs = [
            bytes(rng.randrange(256) for _ in range(rng.randrange(48)))
            for _ in range(60)
        ]
        serial = CompilerClient()
        sharded = ShardedClient()
        for raw in blobs:
            _structured(serial.dispatch_bytes(raw))
            _structured(sharded.dispatch_bytes(raw))
        session = sharded.bytes_session()
        for raw in serve_loop(
            sharded.dispatch_json, blobs, workers=3, bytes_session=session
        ):
            _structured(raw)

    def test_unknown_opcode_is_invalid_request(self, session):
        frame = bytearray(encode_request_bin2(StatsRequest()))
        frame[6] = 0x77  # no such request opcode
        response = _structured(session.dispatch_frame(bytes(frame)))
        assert response.error is not None
        assert response.error.code is ErrorCode.INVALID_REQUEST

    def test_undefined_string_ref_is_structured(self, session):
        # An interned frame sent without its defining frame (e.g. after
        # a server-side reset) must fail structurally, not crash.
        interner = StringInterner()
        encode_request_bin2(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry"), interner
        )
        second = encode_request_bin2(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry"), interner
        )
        with pytest.raises(ProtocolError, match="undefined string ref"):
            decode_request_bin2(second, StringTable())
        response = _structured(session.dispatch_frame(second))
        assert response.error is not None


# ----------------------------------------------------------------------
# 3. Negotiation edge cases
# ----------------------------------------------------------------------
class TestNegotiation:
    def _server(self):
        client = CompilerClient()
        client.compile("func f(a) { return a; }")
        return client

    def test_modern_server_selects_bin2(self):
        session = self._server().bytes_session()
        peer = BytesClient(session.dispatch_frame)
        assert peer.codec == CODEC_BIN2
        answer = peer.dispatch(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry")
        )
        assert answer.error is None

    def test_older_server_falls_back_to_json(self):
        # A pre-codec server answers the unknown "hello" type with a
        # structured error envelope — that rejection is the signal.
        client = self._server()

        def legacy_transport(data: bytes) -> bytes:
            return json.dumps(client.dispatch_json(data)).encode("utf-8")

        peer = BytesClient(legacy_transport)
        assert peer.codec == CODEC_JSON
        answer = peer.dispatch(
            LivenessQuery(FunctionHandle("f"), "in", "a", "entry")
        )
        assert answer.error is None

    def test_unknown_codec_offer_gets_json(self):
        session = self._server().bytes_session()
        peer = BytesClient(session.dispatch_frame, offer=("zstd9", "cbor"))
        assert peer.codec == CODEC_JSON
        assert choose_codec(["zstd9", "cbor"]) == CODEC_JSON
        assert choose_codec(["zstd9", CODEC_BIN2]) == CODEC_BIN2
        assert choose_codec("not-a-list") == CODEC_JSON
        assert choose_codec(None) == CODEC_JSON

    def test_hello_reply_parsing_rejects_legacy_answers(self):
        assert parse_hello_reply(b"not json at all") is None
        assert parse_hello_reply(b'{"type":"error"}') is None
        assert (
            parse_hello_reply(b'{"type":"hello","codec":"martian"}') is None
        )

    def test_json_client_unmodified_against_binary_server(self):
        # A peer that never heard of bin2 keeps sending JSON text and
        # keeps getting JSON text back — byte-for-byte the old contract.
        client = self._server()
        session = client.bytes_session()
        payload = json.dumps(
            encode_request(LivenessQuery(FunctionHandle("f"), "in", "a", "entry"))
        ).encode("utf-8")
        raw = session.dispatch_frame(payload)
        assert not is_bin2_frame(raw)
        envelope = json.loads(raw.decode("utf-8"))
        assert envelope == client.dispatch_json(payload)

    def test_hello_resets_string_table_on_reconnect(self):
        client = self._server()
        session = client.bytes_session()
        first_life = BytesClient(session.dispatch_frame)
        query = LivenessQuery(FunctionHandle("f"), "in", "a", "entry")
        assert first_life.dispatch(query).error is None
        # A second client negotiating on the same transport models a
        # reconnect: its fresh interner re-defines ref 0, which must not
        # collide with the previous life's table.
        second_life = BytesClient(session.dispatch_frame)
        assert second_life.codec == CODEC_BIN2
        assert second_life.dispatch(query).error is None
        # The first life's interned refs are now undefined server-side:
        # stale frames answer structurally instead of crashing.
        interner = StringInterner()
        encode_request_bin2(query, interner)  # defines ref 0 client-side
        hello = hello_frame((CODEC_BIN2,))
        session.dispatch_frame(hello)  # third life: table reset again
        stale = encode_request_bin2(query, interner)  # ref-only frame
        response = _structured(session.dispatch_frame(stale))
        assert response.error is not None
        assert "string ref" in response.error.detail

    def test_broken_transport_falls_back_to_json(self):
        def broken(data: bytes) -> bytes:
            raise OSError("connection refused")

        peer = BytesClient(broken)
        assert peer.codec == CODEC_JSON
        # Dispatch over the still-broken transport answers structurally.
        answer = peer.dispatch(StatsRequest())
        assert answer.error is not None
        assert answer.error.code is ErrorCode.INTERNAL


# ----------------------------------------------------------------------
# 4. JSON ≡ bin2 on the differential corpus
# ----------------------------------------------------------------------
def _mirrored_clients(make_client):
    functions_a = corpus_functions(8, base_seed=2026)
    functions_b = corpus_functions(8, base_seed=2026)
    return make_client(functions_a), make_client(functions_b)


def _differential(make_client, seed: int) -> None:
    json_client, bin_client = _mirrored_clients(make_client)
    rng = random.Random(seed)
    infos = [fn_info(fn) for fn in corpus_functions(8, base_seed=2026)]
    json_peer = BytesClient(
        json_client.bytes_session().dispatch_frame, offer=(CODEC_JSON,)
    )
    bin_peer = BytesClient(bin_client.bytes_session().dispatch_frame)
    assert json_peer.codec == CODEC_JSON
    assert bin_peer.codec == CODEC_BIN2
    for index in range(120):
        request = random_request(rng, infos)
        expected = canonical_response(json_peer.dispatch(request))
        actual = canonical_response(bin_peer.dispatch(request))
        assert actual == expected, (
            f"request[{index}] {type(request).__name__} diverged between "
            f"codecs:\n  json: {expected}\n  bin2: {actual}"
        )


def test_json_equals_bin2_through_compiler_client():
    _differential(lambda fns: CompilerClient(fns), seed=11)


def test_json_equals_bin2_through_sharded_client():
    _differential(lambda fns: ShardedClient(fns, shards=4), seed=23)


def test_wire_loop_parity_between_codecs():
    """The same stream through serve_loop in both framings agrees."""
    functions = corpus_functions(6, base_seed=404)
    client_a = ShardedClient(corpus_functions(6, base_seed=404), shards=4)
    client_b = ShardedClient(corpus_functions(6, base_seed=404), shards=4)
    rng = random.Random(5)
    infos = [fn_info(fn) for fn in functions]
    stream = [
        random_request(rng, infos, edit_rate=0.1) for _ in range(200)
    ]
    interner = StringInterner()
    bin_frames = [encode_request_bin2(r, interner) for r in stream]
    json_frames = [encode_request_json(r) for r in stream]
    bin_out = serve_loop(
        client_a.dispatch_json,
        bin_frames,
        workers=1,
        bytes_session=client_a.bytes_session(),
    )
    json_out = serve_loop(
        client_b.dispatch_json,
        json_frames,
        workers=1,
        bytes_session=client_b.bytes_session(),
    )
    for index, (raw_b, raw_j) in enumerate(zip(bin_out, json_out)):
        response_b = canonical_response(decode_response_bin2(raw_b))
        response_j = canonical_response(decode_response(raw_j))
        assert response_b == response_j, (
            f"stream[{index}] {type(stream[index]).__name__} diverged"
        )


def test_per_codec_wire_metrics_are_visible():
    client = CompilerClient()
    client.compile("func f(a) { return a; }")
    session = client.bytes_session()
    peer = BytesClient(session.dispatch_frame)
    peer.dispatch(LivenessQuery(FunctionHandle("f"), "in", "a", "entry"))
    stats = peer.dispatch(StatsRequest())
    counters = stats.snapshot["counters"]
    assert counters["wire.bytes_in{codec=bin2}"] > 0
    assert counters["wire.bytes_out{codec=bin2}"] > 0
    assert counters["wire.bytes_in{codec=json}"] > 0  # the hello
    histograms = stats.snapshot["histograms"]
    assert histograms["wire.decode_seconds{codec=bin2}"]["count"] > 0
    assert histograms["wire.encode_seconds{codec=bin2}"]["count"] > 0
