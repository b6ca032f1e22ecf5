"""Placement parity: one request stream, four placements, one answer.

The serial :class:`CompilerClient`, the thread-sharded
:class:`ShardedClient` (one shard and four) and the multi-process
:class:`ProcClient` share one router, so a single-threaded stream —
queries, batches, live sets, every mutation, bogus names, stale handles
and a source compiled twice — must get byte-identical canonical
responses from each, and the same ``StatsResponse.stats`` keys.  An
engine name nothing registers is refused the same way everywhere.
"""

import random

import pytest

from repro.api.client import CompilerClient
from repro.api.errors import ErrorCode
from repro.api.protocol import (
    AllocateRequest,
    CompileSourceRequest,
    DestructRequest,
    EvictRequest,
    StatsRequest,
)
from repro.concurrent.client import ShardedClient
from repro.concurrent.procs import ProcClient
from tests.support.concurrency import (
    canonical_response,
    corpus_functions,
    fn_info,
    random_request,
)

SOURCE = "func probe(a, b) { x = a; while (x < b) { x = x + 1; } return x; }"

PLACEMENTS = {
    "serial": lambda functions: CompilerClient(functions, capacity=8),
    "threads-1": lambda functions: ShardedClient(functions, shards=1, capacity=8),
    "threads-4": lambda functions: ShardedClient(functions, shards=4, capacity=8),
    "procs-2": lambda functions: ProcClient(functions, workers=2, capacity=8, timeout=60.0),
}


def request_stream(seed: int, count: int = 150):
    infos = [fn_info(function) for function in corpus_functions(6)]
    rng = random.Random(seed)
    stream = [random_request(rng, infos) for _ in range(count)]
    # The same source compiled twice: the second is a duplicate.
    stream.insert(count // 3, CompileSourceRequest(source=SOURCE))
    stream.insert(2 * count // 3, CompileSourceRequest(source=SOURCE))
    return stream


def answers(placement: str, stream):
    client = PLACEMENTS[placement](corpus_functions(6))
    try:
        responses = [canonical_response(client.dispatch(request)) for request in stream]
        stats = client.dispatch(StatsRequest())
    finally:
        if isinstance(client, ProcClient):
            client.close()
    assert stats.error is None
    return responses, sorted(stats.stats)


@pytest.mark.parametrize("seed", range(6))
def test_every_placement_answers_the_stream_identically(seed):
    stream = request_stream(seed)
    expected, expected_keys = answers("serial", stream)
    first, second = (
        index
        for index, request in enumerate(stream)
        if isinstance(request, CompileSourceRequest)
    )
    assert '"error": null' in expected[first]
    assert "duplicate function name 'probe'" in expected[second]
    for placement in ("threads-1", "threads-4", "procs-2"):
        responses, keys = answers(placement, stream)
        for index, (want, got) in enumerate(zip(expected, responses)):
            assert got == want, (placement, index, stream[index])
        assert len(responses) == len(expected)
        assert keys == expected_keys, placement


@pytest.mark.parametrize("placement", ["serial", "threads-4", "procs-2"])
def test_sets_engine_is_unknown_on_every_placement(placement):
    # ``sets`` is no registered engine: both mutating requests that name
    # an engine are refused before they touch the function.
    functions = corpus_functions(2)
    name = functions[0].name
    client = PLACEMENTS[placement](functions)
    try:
        before = client.dispatch(EvictRequest(function=name)).function
        for request in (
            DestructRequest(function=before, engine="sets"),
            AllocateRequest(function=before, num_registers=4, engine="sets"),
        ):
            response = client.dispatch(request)
            assert response.error is not None, (placement, request)
            assert response.error.code is ErrorCode.UNKNOWN_ENGINE, placement
        assert client.dispatch(EvictRequest(function=name)).function == before
    finally:
        if isinstance(client, ProcClient):
            client.close()
