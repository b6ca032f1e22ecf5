"""Golden wire bytes for every request type, over bin2 and JSON.

The four liveness failures (stale handle, unknown function, variable,
block) were recorded from the serving stack before its liveness queries
were routed through one lean lane; every other message type — batch,
live set, destruct, allocate, notify, evict, compile, and the
duplicate-function, compile-error and unknown-engine failures — was
recorded from the thread-sharded client before the three placements
shared one router.  Each frame is asserted byte for byte through the
serial, the thread-sharded and the multi-process client.
``StatsRequest`` is left out: its snapshot carries clock readings.
"""

import pytest

from repro.api.client import CompilerClient
from repro.api.codec import StringInterner, encode_request_bin2, encode_request_json
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    BatchLiveness,
    CompileSourceRequest,
    DestructRequest,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
)
from repro.concurrent.client import ShardedClient
from repro.concurrent.procs import ProcClient

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

#: One request of every other type, each asked of a fresh client after
#: the same edit.
MESSAGES = {
    "batch": BatchLiveness(
        queries=(
            LivenessQuery(function="f", kind="in", variable="x.2", block="bb1"),
            LivenessQuery(function="f", kind="out", variable="b", block="bb0"),
            LivenessQuery(function="f", kind="out", variable="x.3", block="bb2"),
            LivenessQuery(function="f", kind="in", variable="a", block="entry"),
        )
    ),
    "live_set": LiveSetRequest(function="f", block="bb1", kind="in"),
    "destruct": DestructRequest(function="f"),
    "allocate": AllocateRequest(function="f", num_registers=2),
    "notify": NotifyRequest(function="f", kind="cfg"),
    "evict": EvictRequest(function="f"),
    "compile": CompileSourceRequest(source="func g(a) { return a + 1; }"),
    "duplicate_function": CompileSourceRequest(source=SOURCE),
    "compile_error": CompileSourceRequest(source="func g( { return; }"),
    "unknown_engine": DestructRequest(function="f", engine="nope"),
}

#: request → (bin2 answer frame, JSON answer envelope), both as hex.
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
    "batch": (
        "08000000b201820001040300",
        "7b22617069223a312c2274797065223a2262617463685f6c6976656e65737322"
        "2c22626f6479223a7b2276616c756573223a5b747275652c747275652c66616c"
        "73652c66616c73655d2c226572726f72223a6e756c6c7d7d",
    ),
    "live_set": (
        "0d000000b20183000102016203782e3200",
        "7b22617069223a312c2274797065223a226c6976655f736574222c22626f6479"
        "223a7b227661726961626c6573223a5b2262222c22782e32225d2c226572726f"
        "72223a6e756c6c7d7d",
    ),
    "destruct": (
        "1b000000b20184000101660104010466617374000206060606181800000200",
        "7b22617069223a312c2274797065223a226465737472756374222c22626f6479"
        "223a7b2266756e6374696f6e223a7b226e616d65223a2266222c227265766973"
        "696f6e223a327d2c227374617473223a7b22656e67696e65223a226661737422"
        "2c22637269746963616c5f65646765735f73706c6974223a302c22706869735f"
        "69736f6c61746564223a312c22706172616c6c656c5f636f70696573223a332c"
        "2270616972735f696e736572746564223a332c2270616972735f636f616c6573"
        "636564223a332c22636c61737365735f6d6572676564223a332c22696e746572"
        "666572656e63655f7465737473223a31322c226c6976656e6573735f71756572"
        "696573223a31322c22636f706965735f656d6974746564223a302c2274656d70"
        "735f696e736572746564223a302c22706869735f72656d6f766564223a317d2c"
        "226572726f72223a6e756c6c7d7d",
    ),
    "allocate": (
        "43000000b20185000101660106010901610001620203782e310003782e320009"
        "622e72656c6f6164300202743002027431020274320003782e33000101620004"
        "04060101620000",
        "7b22617069223a312c2274797065223a22616c6c6f63617465222c22626f6479"
        "223a7b2266756e6374696f6e223a7b226e616d65223a2266222c227265766973"
        "696f6e223a337d2c22616c6c6f636174696f6e223a7b22726567697374657273"
        "223a7b2261223a302c2262223a312c22782e31223a302c22782e32223a302c22"
        "622e72656c6f616430223a312c227430223a312c227431223a312c227432223a"
        "302c22782e33223a307d2c227370696c6c5f736c6f7473223a7b2262223a307d"
        "2c227265676973746572735f75736564223a322c226d61785f6c697665223a32"
        "2c226d61785f6c6976655f6265666f72655f7370696c6c223a332c227370696c"
        "6c6564223a5b2262225d2c227265636f6e73747275637465645f737361223a66"
        "616c73657d2c226572726f72223a6e756c6c7d7d",
    ),
    "notify": (
        "0a000000b2018600010166010400",
        "7b22617069223a312c2274797065223a226e6f74696679222c22626f6479223a"
        "7b2266756e6374696f6e223a7b226e616d65223a2266222c227265766973696f"
        "6e223a327d2c226572726f72223a6e756c6c7d7d",
    ),
    "evict": (
        "0a000000b2018700010166010200",
        "7b22617069223a312c2274797065223a226576696374222c22626f6479223a7b"
        "2266756e6374696f6e223a7b226e616d65223a2266222c227265766973696f6e"
        "223a317d2c226572726f72223a6e756c6c7d7d",
    ),
    "compile": (
        "0c000000b20188000101010167010000",
        "7b22617069223a312c2274797065223a22636f6d70696c655f736f7572636522"
        "2c22626f6479223a7b2266756e6374696f6e73223a5b7b226e616d65223a2267"
        "222c227265766973696f6e223a307d5d2c226572726f72223a6e756c6c7d7d",
    ),
    "duplicate_function": (
        "35000000b20188000001126475706c69636174655f66756e6374696f6e1b6475"
        "706c69636174652066756e6374696f6e206e616d6520276627",
        "7b22617069223a312c2274797065223a22636f6d70696c655f736f7572636522"
        "2c22626f6479223a7b2266756e6374696f6e73223a6e756c6c2c226572726f72"
        "223a7b22636f6465223a226475706c69636174655f66756e6374696f6e222c22"
        "64657461696c223a226475706c69636174652066756e6374696f6e206e616d65"
        "20276627227d7d7d",
    ),
    "compile_error": (
        "3d000000b201880000010d636f6d70696c655f6572726f722865787065637465"
        "64206964656e7469666965722062757420666f756e6420277b2720617420313a"
        "39",
        "7b22617069223a312c2274797065223a22636f6d70696c655f736f7572636522"
        "2c22626f6479223a7b2266756e6374696f6e73223a6e756c6c2c226572726f72"
        "223a7b22636f6465223a22636f6d70696c655f6572726f72222c226465746169"
        "6c223a226578706563746564206964656e7469666965722062757420666f756e"
        "6420277b2720617420313a39227d7d7d",
    ),
    "unknown_engine": (
        "63000000b20184000000010e756e6b6e6f776e5f656e67696e654c756e6b6e6f"
        "776e20656e67696e6520276e6f7065273b206578706563746564206f6e65206f"
        "6620282766617374272c202773657473272c202764617461666c6f77272c2027"
        "67726170682729",
        "7b22617069223a312c2274797065223a226465737472756374222c22626f6479"
        "223a7b2266756e6374696f6e223a6e756c6c2c227374617473223a6e756c6c2c"
        "226572726f72223a7b22636f6465223a22756e6b6e6f776e5f656e67696e6522"
        "2c2264657461696c223a22756e6b6e6f776e20656e67696e6520276e6f706527"
        "3b206578706563746564206f6e65206f6620282766617374272c202773657473"
        "272c202764617461666c6f77272c202767726170682729227d7d7d",
    ),
}


CLIENTS = [CompilerClient, ShardedClient, ProcClient]


def answer(cls, frame: bytes) -> bytes:
    """``frame``'s answer from a fresh ``cls`` client after one edit."""
    client = cls(workers=2) if cls is ProcClient else cls()
    try:
        client.compile(SOURCE)
        client.dispatch(NotifyRequest(function="f", kind="instructions"))
        if cls is ProcClient:
            return client.serve([frame])[0]
        return client.bytes_session().dispatch_frame(frame)
    finally:
        if cls is ProcClient:
            client.close()


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_bin2_error_frames_are_byte_identical(cls, failure):
    frame = encode_request_bin2(FAILURES[failure], StringInterner())
    assert answer(cls, frame).hex() == GOLDEN[failure][0]


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_json_error_envelopes_are_byte_identical(cls, failure):
    reply = answer(cls, encode_request_json(FAILURES[failure]))
    assert reply.hex() == GOLDEN[failure][1]


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_bin2_message_frames_are_byte_identical(cls, message):
    frame = encode_request_bin2(MESSAGES[message], StringInterner())
    assert answer(cls, frame).hex() == GOLDEN[message][0]


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("message", sorted(MESSAGES))
def test_json_message_envelopes_are_byte_identical(cls, message):
    reply = answer(cls, encode_request_json(MESSAGES[message]))
    assert reply.hex() == GOLDEN[message][1]
