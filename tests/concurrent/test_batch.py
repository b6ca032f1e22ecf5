"""Cross-shard batches and live sets on the sharded client.

A :class:`BatchLiveness` stream is answered in one pass under every
involved shard's read lock.  It must give exactly the serial
:class:`CompilerClient`'s values — and, when a query fails, the serial
client's error, decided by the *first* failing query even when that one
sits in a later same-shard run.  Live-set requests count one query per
probed variable, as the serial client does.
"""

import random

import pytest

from repro.api.client import CompilerClient
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    BatchLiveness,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
)
from repro.concurrent.client import ShardedClient
from tests.support.concurrency import canonical_response, corpus_functions, fn_info

FUNCTIONS = 6
SHARDS = 3


def clients():
    serial = CompilerClient(corpus_functions(FUNCTIONS), capacity=FUNCTIONS)
    sharded = ShardedClient(
        corpus_functions(FUNCTIONS), shards=SHARDS, capacity=FUNCTIONS
    )
    return serial, sharded


def by_shard(sharded):
    """Function infos grouped by owning shard (every shard populated)."""
    groups = {}
    for name in sharded.service.functions():
        groups.setdefault(sharded.service.shard_of(name), []).append(
            fn_info(sharded.service.function(name))
        )
    assert len(groups) > 1
    return [groups[index] for index in sorted(groups)]


def good(info, index=0, kind="in"):
    return LivenessQuery(
        function=info.name,
        kind=kind,
        variable=info.variables[index % len(info.variables)],
        block=info.blocks[index % len(info.blocks)],
    )


def random_batch(rng, infos, size):
    queries = []
    for _ in range(size):
        info = rng.choice(infos)
        queries.append(
            LivenessQuery(
                function=info.name,
                kind=rng.choice(("in", "out")),
                variable=rng.choice(info.variables),
                block=rng.choice(info.blocks),
            )
        )
    return BatchLiveness(queries=tuple(queries))


@pytest.mark.parametrize("seed", range(8))
def test_successful_batches_match_the_serial_client(seed):
    serial, sharded = clients()
    infos = [info for group in by_shard(sharded) for info in group]
    rng = random.Random(seed)
    for size in (1, 2, 7, 40):
        batch = random_batch(rng, infos, size)
        expected = serial.dispatch(batch)
        assert expected.ok
        assert canonical_response(sharded.dispatch(batch)) == canonical_response(
            expected
        )


FAILURES = {
    "unknown_variable": lambda info: LivenessQuery(
        function=info.name, kind="in", variable="no_such_var", block=info.blocks[0]
    ),
    "unknown_block": lambda info: LivenessQuery(
        function=info.name, kind="out", variable=info.variables[0], block="no_such_block"
    ),
    "unknown_function": lambda info: LivenessQuery(
        function="no_such_fn", kind="in", variable="v", block="b"
    ),
    "stale_handle": lambda info: LivenessQuery(
        function=FunctionHandle(info.name, 0),
        kind="in",
        variable=info.variables[0],
        block=info.blocks[0],
    ),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_first_failure_in_a_later_shard_run_decides_the_error(failure):
    serial, sharded = clients()
    groups = by_shard(sharded)
    first, later = groups[0][0], groups[-1][0]
    for client in (serial, sharded):
        # Bump the later function's revision so a pinned r0 is stale.
        assert client.dispatch(NotifyRequest(function=later.name, kind="cfg")).ok
    queries = (
        good(first, 0),
        good(first, 1, "out"),
        good(later, 0),
        FAILURES[failure](later),
        good(first, 2),
        # A second, different failure: must not win over the first.
        LivenessQuery(function=first.name, kind="in", variable=first.variables[0], block="zz"),
    )
    batch = BatchLiveness(queries=queries)
    expected = serial.dispatch(batch)
    assert expected.error is not None and expected.error.code.value == failure
    assert canonical_response(sharded.dispatch(batch)) == canonical_response(expected)


def test_a_batch_looks_up_each_function_once():
    _serial, sharded = clients()
    groups = by_shard(sharded)
    a, b = groups[0][0], groups[-1][0]
    # Alternating shards: several same-shard runs per function.
    queries = [good(a, 0), good(b, 0), good(a, 1), good(b, 1), good(a, 2)]
    sharded.dispatch(BatchLiveness(queries=tuple(queries)))  # warm
    before = sharded.service.stats
    assert sharded.dispatch(BatchLiveness(queries=tuple(queries))).ok
    after = sharded.service.stats
    assert after.hits - before.hits == 2
    assert after.queries - before.queries == len(queries)


def test_live_set_counts_one_query_per_probed_variable():
    serial, sharded = clients()
    for info in [info for group in by_shard(sharded) for info in group]:
        probed = len(serial.service.checker(info.name).live_variables())
        for block in info.blocks[:3]:
            for kind in ("in", "out"):
                request = LiveSetRequest(function=info.name, block=block, kind=kind)
                answers = []
                for client in (serial, sharded):
                    before = int(client.service.stats.queries)
                    answers.append(canonical_response(client.dispatch(request)))
                    assert int(client.service.stats.queries) - before == probed
                assert answers[0] == answers[1]
