"""Property tests for the protocol's error paths across the wire boundary.

Two guarantees are pinned here:

* every :class:`ApiError` code the dispatcher can produce round-trips
  through JSON encode/decode losslessly (code *and* detail), inside
  every response type that can carry it;
* no payload — malformed, truncated, mistyped, wrong version — makes
  ``dispatch_json`` raise: garbage in, structured ``invalid_request``
  envelope out, on the serial client, the sharded client, and through
  the worker-pool serve loop alike.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.client import CompilerClient
from repro.api.errors import ApiError, ErrorCode
from repro.api.protocol import (
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    DestructRequest,
    EvictRequest,
    LivenessQuery,
    NotifyRequest,
    StatsRequest,
    decode_response,
    encode_request,
    encode_response,
)
from repro.concurrent import ShardedClient, serve_loop
from repro.concurrent.procs import ProcClient
from tests.support.concurrency import corpus_functions

#: Unicode text without surrogates (json round-trips them unequally).
DETAILS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
)


def assert_invalid_request_envelope(envelope):
    assert envelope["type"] == "error"
    response = decode_response(envelope)
    assert response.error is not None
    assert response.error.code is ErrorCode.INVALID_REQUEST


class TestApiErrorRoundTrip:
    @pytest.mark.parametrize("code", list(ErrorCode))
    def test_every_code_roundtrips_alone(self, code):
        error = ApiError(code, f"detail for {code.value}")
        assert ApiError.from_json(json.loads(json.dumps(error.to_json()))) == error

    @settings(max_examples=50, deadline=None)
    @given(code=st.sampled_from(list(ErrorCode)), detail=DETAILS)
    def test_every_code_and_detail_roundtrips(self, code, detail):
        error = ApiError(code, detail)
        assert ApiError.from_json(json.loads(json.dumps(error.to_json()))) == error

    @pytest.mark.parametrize("code", list(ErrorCode))
    @pytest.mark.parametrize("tag", sorted(RESPONSE_TYPES))
    def test_every_code_in_every_response_type(self, code, tag):
        response_cls = RESPONSE_TYPES[tag]
        response = response_cls(error=ApiError(code, f"{tag}/{code.value}"))
        envelope = json.loads(json.dumps(encode_response(response)))
        decoded = decode_response(envelope)
        assert decoded == response
        assert decoded.error.code is code
        assert not decoded.ok


class TestEveryReachableErrorCodeRoundTrips:
    """Drive dispatch_json into *every* ErrorCode, then wire-round-trip it."""

    def provoke_all_codes(self, client):
        functions = client.service.functions()
        name = functions[0]
        fn = (
            client.service.function(name)
            if hasattr(client.service, "function")
            else None
        )
        block = next(iter(fn)).name
        variable = fn.variables()[0].name
        provocations = {
            ErrorCode.INVALID_REQUEST: {"api": PROTOCOL_VERSION, "type": "??", "body": {}},
            ErrorCode.UNKNOWN_FUNCTION: encode_request(
                LivenessQuery(function="ghost", kind="in", variable="x", block="b")
            ),
            ErrorCode.UNKNOWN_ENGINE: encode_request(
                DestructRequest(function=name, engine="warp-drive")
            ),
            ErrorCode.UNKNOWN_VARIABLE: encode_request(
                LivenessQuery(function=name, kind="in", variable="ghost", block=block)
            ),
            ErrorCode.UNKNOWN_BLOCK: encode_request(
                LivenessQuery(function=name, kind="in", variable=variable, block="ghost")
            ),
            ErrorCode.STALE_HANDLE: None,  # built below, needs an edit first
            ErrorCode.COMPILE_ERROR: {
                "api": PROTOCOL_VERSION,
                "type": "compile_source",
                "body": {"source": "func ("},
            },
            ErrorCode.DUPLICATE_FUNCTION: {
                "api": PROTOCOL_VERSION,
                "type": "compile_source",
                "body": {"source": f"func {name}(a) {{ return a; }}"},
            },
        }
        # Stale handle: bump the revision, then query at the old one.
        old = client.dispatch(NotifyRequest(function=name, kind="instructions"))
        provocations[ErrorCode.STALE_HANDLE] = encode_request(
            LivenessQuery(
                function=old.function.__class__(name, revision=0),
                kind="in",
                variable=variable,
                block=block,
            )
        )
        return provocations

    @pytest.mark.parametrize("client_kind", ["serial", "sharded"])
    def test_provoked_errors_roundtrip_losslessly(self, client_kind):
        functions = corpus_functions(2, base_seed=3)
        client = (
            CompilerClient(functions)
            if client_kind == "serial"
            else ShardedClient(functions, shards=2)
        )
        for code, payload in self.provoke_all_codes(client).items():
            envelope = client.dispatch_json(payload)
            response = decode_response(envelope)
            assert response.error is not None, code
            assert response.error.code is code
            # The error must survive another wire hop unchanged.
            hop = json.loads(json.dumps(envelope))
            assert decode_response(hop) == response
            assert encode_response(decode_response(hop)) == envelope

    def test_internal_and_unsupported_are_rendered_identically(self):
        # UNSUPPORTED and INTERNAL come from deeper machinery; pin their
        # wire forms directly (every other code is provoked end-to-end).
        for code in (ErrorCode.UNSUPPORTED, ErrorCode.INTERNAL):
            for tag, response_cls in RESPONSE_TYPES.items():
                response = response_cls(error=ApiError(code, "x"))
                assert decode_response(encode_response(response)) == response


class TestMalformedPayloadsNeverRaise:
    def clients(self):
        functions = corpus_functions(1, base_seed=4)
        return [
            CompilerClient(functions),
            ShardedClient(corpus_functions(1, base_seed=4), shards=2),
        ]

    @settings(max_examples=80, deadline=None)
    @given(garbage=st.text(max_size=120))
    def test_arbitrary_text(self, garbage):
        client = CompilerClient(corpus_functions(1, base_seed=4))
        assert_invalid_request_envelope(client.dispatch_json(garbage))

    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=10),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=8), children, max_size=3),
            max_leaves=10,
        )
    )
    def test_arbitrary_json_values(self, payload):
        client = CompilerClient(corpus_functions(1, base_seed=4))
        envelope = client.dispatch_json(payload)
        assert_invalid_request_envelope(envelope)

    @pytest.mark.parametrize("tag", sorted(REQUEST_TYPES))
    def test_truncated_valid_envelopes(self, tag):
        """Every prefix of a real request's JSON is answered structurally."""
        samples = {
            "liveness_query": LivenessQuery(
                function="f", kind="in", variable="v", block="b"
            ),
            "batch_liveness": None,
            "live_set": None,
            "destruct": DestructRequest(function="f"),
            "allocate": None,
            "notify": NotifyRequest(function="f", kind="cfg"),
            "evict": EvictRequest(function="f"),
            "compile_source": None,
        }
        request = samples.get(tag)
        if request is None:
            pytest.skip("covered via other tags (same envelope machinery)")
        text = json.dumps(encode_request(request))
        for client in self.clients():
            for cut in range(len(text)):  # every strict prefix is invalid JSON
                envelope = client.dispatch_json(text[:cut])
                assert_invalid_request_envelope(envelope)

    def test_body_field_removal_is_structured(self):
        """Dropping any required body field yields invalid_request, not a crash."""
        request = LivenessQuery(function="f", kind="in", variable="v", block="b")
        envelope = encode_request(request)
        for field in list(envelope["body"]):
            broken = json.loads(json.dumps(envelope))
            del broken["body"][field]
            for client in self.clients():
                answered = client.dispatch_json(broken)
                if field == "kind":
                    # kind defaults nowhere for queries; still structured.
                    assert decode_response(answered).error is not None
                else:
                    assert_invalid_request_envelope(answered)

    def test_wrong_version_and_missing_fields(self):
        for client in self.clients():
            for payload in (
                {},
                {"api": PROTOCOL_VERSION},
                {"api": PROTOCOL_VERSION + 1, "type": "evict", "body": {}},
                {"api": None, "type": "evict", "body": {}},
                {"api": PROTOCOL_VERSION, "type": "evict"},
                {"api": PROTOCOL_VERSION, "type": "evict", "body": []},
            ):
                assert_invalid_request_envelope(client.dispatch_json(payload))

    def test_malformed_payloads_through_serve_loop(self):
        """The worker pool preserves the structured-error contract."""
        client = ShardedClient(corpus_functions(1, base_seed=4), shards=2)
        payloads = ["{broken", {}, {"api": 0}, [1, 2], None, "x" * 50]
        for envelope in serve_loop(client.dispatch_json, payloads, workers=3):
            assert_invalid_request_envelope(envelope)


# ----------------------------------------------------------------------
# Ill-typed JSON fields are rejected before dispatch, on every placement
# ----------------------------------------------------------------------
SOURCE = "func f(a, b) { x = a; while (x < b) { x = x + 1; } return x; }"

#: case → (tag, body).  Each field has the right name and the wrong JSON
#: type; every one must come back ``invalid_request`` with no effect.
ILL_TYPED = {
    "allocate_float_registers": (
        "allocate", {"function": {"name": "f"}, "num_registers": 2.5}
    ),
    "allocate_string_registers": (
        "allocate", {"function": {"name": "f"}, "num_registers": "2"}
    ),
    "destruct_string_verify": (
        "destruct", {"function": {"name": "f"}, "verify": "no"}
    ),
    "stats_string_reset": ("stats", {"reset": "false"}),
    "liveness_list_block": (
        "liveness_query",
        {"function": {"name": "f"}, "kind": "in", "variable": "a", "block": ["bb0"]},
    ),
    "compile_int_source": ("compile_source", {"source": 5}),
}


def _placement(cls):
    client = cls(workers=2) if cls is ProcClient else cls()
    client.compile(SOURCE)
    return client


def _send_json(client, payload: dict) -> dict:
    frame = json.dumps(payload).encode("utf-8")
    if isinstance(client, ProcClient):
        raw = client.serve([frame])[0]
    else:
        raw = client.bytes_session().dispatch_frame(frame)
    return json.loads(raw)


@pytest.mark.parametrize(
    "cls", [CompilerClient, ShardedClient, ProcClient], ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_ill_typed_json_fields_are_invalid_requests(cls, case):
    tag, body = ILL_TYPED[case]
    client = _placement(cls)
    try:
        # Give the instruments something a reset would zero.
        client.dispatch(LivenessQuery(function="f", kind="in", variable="a", block="bb0"))
        # Eviction answers with the current handle and bumps nothing.
        before = client.dispatch(EvictRequest(function="f")).function
        envelope = _send_json(
            client, {"api": PROTOCOL_VERSION, "type": tag, "body": body}
        )
        assert_invalid_request_envelope(envelope)
        assert "malformed" in envelope["body"]["error"]["detail"]
        assert client.dispatch(EvictRequest(function="f")).function == before
        counters = client.dispatch(StatsRequest()).snapshot["counters"]
        assert counters["wire.bytes_in{codec=json}"] > 0
    finally:
        if cls is ProcClient:
            client.close()
