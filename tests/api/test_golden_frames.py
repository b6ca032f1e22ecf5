"""Golden wire bytes for the four ways a liveness query can fail.

The bin2 error frames and JSON error envelopes below were recorded from
the serving stack before its liveness queries were routed through one
lean lane; they pin the exact bytes every front door must keep sending
back for a stale handle, an unknown function, an unknown variable and
an unknown block — through the serial and the sharded client alike.
"""

import pytest

from repro.api.client import CompilerClient
from repro.api.codec import StringInterner, encode_request_bin2, encode_request_json
from repro.api.handles import FunctionHandle
from repro.api.protocol import LivenessQuery, NotifyRequest
from repro.concurrent.client import ShardedClient

SOURCE = "func f(a, b) { x = a; while (x < b) { x = x + 1; } return x; }"

#: The failing queries, asked after one instruction edit (revision 1).
FAILURES = {
    "stale_handle": LivenessQuery(
        function=FunctionHandle("f", 0), kind="in", variable="x.2", block="bb0"
    ),
    "unknown_function": LivenessQuery(
        function="nope", kind="in", variable="x.2", block="bb0"
    ),
    "unknown_variable": LivenessQuery(
        function="f", kind="out", variable="zz", block="bb0"
    ),
    "unknown_block": LivenessQuery(
        function="f", kind="in", variable="x.2", block="bb9"
    ),
}

#: failure → (bin2 error frame, JSON error envelope), both as hex.
GOLDEN = {
    "stale_handle": (
        "47000000b201810002010c7374616c655f68616e646c653368616e646c652066"
        "407230206973207374616c653a2066756e6374696f6e20276627206973206174"
        "207265766973696f6e2031",
        "7b22617069223a312c2274797065223a226c6976656e6573735f717565727922"
        "2c22626f6479223a7b2276616c7565223a6e756c6c2c226572726f72223a7b22"
        "636f6465223a227374616c655f68616e646c65222c2264657461696c223a2268"
        "616e646c652066407230206973207374616c653a2066756e6374696f6e202766"
        "27206973206174207265766973696f6e2031227d7d7d",
    ),
    "unknown_function": (
        "3e000000b2018100020110756e6b6e6f776e5f66756e6374696f6e266e6f2066"
        "756e6374696f6e206e616d656420276e6f706527206973207265676973746572"
        "6564",
        "7b22617069223a312c2274797065223a226c6976656e6573735f717565727922"
        "2c22626f6479223a7b2276616c7565223a6e756c6c2c226572726f72223a7b22"
        "636f6465223a22756e6b6e6f776e5f66756e6374696f6e222c2264657461696c"
        "223a226e6f2066756e6374696f6e206e616d656420276e6f7065272069732072"
        "656769737465726564227d7d7d",
    ),
    "unknown_variable": (
        "39000000b2018100020110756e6b6e6f776e5f7661726961626c652166756e63"
        "74696f6e2027662720686173206e6f207661726961626c6520277a7a27",
        "7b22617069223a312c2274797065223a226c6976656e6573735f717565727922"
        "2c22626f6479223a7b2276616c7565223a6e756c6c2c226572726f72223a7b22"
        "636f6465223a22756e6b6e6f776e5f7661726961626c65222c2264657461696c"
        "223a2266756e6374696f6e2027662720686173206e6f207661726961626c6520"
        "277a7a27227d7d7d",
    ),
    "unknown_block": (
        "34000000b201810002010d756e6b6e6f776e5f626c6f636b1f66756e6374696f"
        "6e2027662720686173206e6f20626c6f636b202762623927",
        "7b22617069223a312c2274797065223a226c6976656e6573735f717565727922"
        "2c22626f6479223a7b2276616c7565223a6e756c6c2c226572726f72223a7b22"
        "636f6465223a22756e6b6e6f776e5f626c6f636b222c2264657461696c223a22"
        "66756e6374696f6e2027662720686173206e6f20626c6f636b20276262392722"
        "7d7d7d",
    ),
}


CLIENTS = [CompilerClient, ShardedClient]


def edited_client(cls):
    client = cls()
    client.compile(SOURCE)
    client.dispatch(NotifyRequest(function="f", kind="instructions"))
    return client


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_bin2_error_frames_are_byte_identical(cls, failure):
    session = edited_client(cls).bytes_session()
    frame = encode_request_bin2(FAILURES[failure], StringInterner())
    assert session.dispatch_frame(frame).hex() == GOLDEN[failure][0]


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_json_error_envelopes_are_byte_identical(cls, failure):
    session = edited_client(cls).bytes_session()
    reply = session.dispatch_frame(encode_request_json(FAILURES[failure]))
    assert reply.hex() == GOLDEN[failure][1]
