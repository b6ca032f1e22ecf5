"""An edge-split ``NotifyRequest`` end to end: wire, placements and WAL.

The incremental patcher absorbs the edge split ``s -> t => s -> n -> t``
in place, so a split delta sent to a server with a warm checker must be
counted as applied (``cfg_incremental_applied`` rises by one, no
``block-edit`` fallback is recorded) on every placement and through both
codecs, and the answers before and after it must be identical across
placements and equal to a checker over the function actually split.
The target carries no φ, so the split moves no use and the server's
unedited IR answers like the split one on every original block.  A
server recovered from the WAL (with or without a snapshot taken after
the split) must answer the same probes identically.
"""

from __future__ import annotations

import pytest

from repro.api.client import CompilerClient
from repro.api.codec import (
    StringInterner,
    decode_request_bin2,
    decode_request_json,
    decode_response_bin2,
    decode_response_json,
    encode_request_bin2,
    encode_request_json,
)
from repro.api.protocol import LiveSetRequest, LivenessQuery, NotifyRequest, StatsRequest
from repro.concurrent.client import ShardedClient
from repro.concurrent.procs import ProcClient
from repro.core.incremental import CfgDelta
from repro.core.invalidation import TransformationSession
from repro.persist.durability import Durability
from repro.persist.recovery import recover
from tests.support.concurrency import canonical_response, corpus_functions, fn_info

pytestmark = pytest.mark.timeout(120)

CORPUS = 4
FUNCTION = 0

PLACEMENTS = {
    "serial": lambda functions, **kw: CompilerClient(functions, capacity=8, **kw),
    "threads-2": lambda functions, **kw: ShardedClient(
        functions, shards=2, capacity=8, **kw
    ),
    "procs-2": lambda functions, **kw: ProcClient(
        functions, workers=2, capacity=8, timeout=60.0, **kw
    ),
}


def split_site(function):
    """The first edge whose target carries no φ, plus the new block's name."""
    for block in function:
        for target in block.successors():
            if not function.block(target).phis():
                return block.name, target, f"split.{block.name}.{target}"
    raise AssertionError("no φ-free edge target")


def probes(function) -> list:
    """Every live-in/out question and live set on the original blocks."""
    info = fn_info(function)
    requests = []
    for block in info.blocks:
        for kind in ("in", "out"):
            requests.append(LiveSetRequest(function=info.name, block=block, kind=kind))
            requests.extend(
                LivenessQuery(function=info.name, kind=kind, variable=var, block=block)
                for var in info.variables
            )
    return requests


def split_notify(function) -> NotifyRequest:
    source, target, block = split_site(function)
    return NotifyRequest(
        function=function.name,
        kind="cfg",
        delta=CfgDelta.edge_split(source, target, block),
    )


def reference_answers() -> list[str]:
    """Answers of a checker over the function with the edge really split."""
    functions = corpus_functions(CORPUS)
    function = functions[FUNCTION]
    questions = probes(function)  # the original blocks only
    source, target, _block = split_site(function)
    TransformationSession(function, track_dataflow=False).split_edge(source, target)
    client = CompilerClient(functions, capacity=8)
    return [canonical_response(client.dispatch(question)) for question in questions]


def encode(codec: str, requests: list) -> list[bytes]:
    if codec == "json":
        return [encode_request_json(request) for request in requests]
    interner = StringInterner()
    return [encode_request_bin2(request, interner) for request in requests]


def decode(codec: str, frame: bytes):
    return decode_response_json(frame) if codec == "json" else decode_response_bin2(frame)


def run_stream(placement: str, codec: str) -> tuple[list[str], list[str], dict, dict]:
    """Warm probes, the split notify, probes again, then the stats."""
    functions = corpus_functions(CORPUS)
    function = functions[FUNCTION]
    questions = probes(function)
    stream = questions + [split_notify(function)] + questions + [StatsRequest()]
    frames = encode(codec, stream)
    client = PLACEMENTS[placement](functions)
    try:
        if isinstance(client, ProcClient):
            answered = client.serve(frames)
        else:
            session = client.bytes_session()
            answered = [session.dispatch_frame(frame) for frame in frames]
    finally:
        if isinstance(client, ProcClient):
            client.close()
    responses = [decode(codec, frame) for frame in answered]
    assert all(response.error is None for response in responses), [
        response.error for response in responses if response.error is not None
    ]
    count = len(questions)
    before = [canonical_response(r) for r in responses[:count]]
    after = [canonical_response(r) for r in responses[count + 1 : 2 * count + 1]]
    stats = responses[-1]
    return before, after, stats.stats, stats.snapshot["counters"]


@pytest.mark.parametrize("codec", ["json", "bin2"])
def test_split_notify_is_applied_on_every_placement(codec):
    expected = reference_answers()
    seen = {}
    for placement in PLACEMENTS:
        before, after, stats, counters = run_stream(placement, codec)
        assert stats["cfg_incremental_applied"] == 1, (placement, stats)
        assert stats["cfg_incremental_fallbacks"] == 0, (placement, stats)
        fallbacks = [key for key in counters if "incremental_fallbacks" in key]
        assert not fallbacks, (placement, fallbacks)
        assert after == expected, placement
        seen[placement] = (before, after)
    serial = seen["serial"]
    for placement, answers in seen.items():
        assert answers == serial, placement


def test_split_notify_delta_survives_both_codecs_unchanged():
    request = split_notify(corpus_functions(CORPUS)[FUNCTION])
    assert decode_request_json(encode_request_json(request)).delta == request.delta
    frame = encode_request_bin2(request, StringInterner())
    assert decode_request_bin2(frame).delta == request.delta


@pytest.mark.parametrize("snapshot", [False, True], ids=["wal-only", "snapshot"])
@pytest.mark.parametrize("transport", ["threads", "procs"])
def test_wal_recovery_of_a_split_notify(transport, snapshot, tmp_path):
    directory = str(tmp_path)
    functions = corpus_functions(CORPUS)
    function = functions[FUNCTION]
    durability = Durability(directory, fsync="always")
    placement = "threads-2" if transport == "threads" else "procs-2"
    primary = PLACEMENTS[placement](functions, observer=durability.observer)
    durability.attach(primary)
    questions = probes(function)
    try:
        for request in questions:
            primary.dispatch(request)
        assert primary.dispatch(split_notify(function)).error is None
        answers = [canonical_response(primary.dispatch(p)) for p in questions]
        assert answers == reference_answers()
        if snapshot:
            durability.snapshot()
        durability.close()
        recovered, report = recover(directory, transport=transport)
        try:
            assert report.damage == []
            replayed = [canonical_response(recovered.dispatch(p)) for p in questions]
            assert replayed == answers
        finally:
            if transport == "procs":
                recovered.close()
    finally:
        if transport == "procs":
            primary.close()
