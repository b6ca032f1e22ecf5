"""Crash recovery: the differential guarantee, on both transports.

The acceptance claim of the persistence layer: a server that crashed —
torn WAL tail included — and recovered answers every probe
bit-identically to a server that never crashed (or, when the tear ate a
confirmed mutation, to a fresh server replaying exactly the surviving
log).  The comparison is :func:`canonical_response`, the same identity
the PR-5 differential harness asserts for linearizability.
"""

from __future__ import annotations

import random

import pytest

from repro.api.errors import ErrorCode
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    PROTOCOL_VERSION,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
)
from repro.concurrent.client import ShardedClient
from repro.concurrent.procs import ProcClient
from repro.persist.durability import Durability, live_state_digest
from repro.persist.recovery import recover
from repro.persist.snapshot import list_snapshots
from repro.persist.wal import list_segments, read_wal
from tests.support.concurrency import (
    TraceRecorder,
    canonical_response,
    corpus_functions,
    fn_info,
    random_request,
)

CORPUS = 6
SHARDS = 2
CAPACITY = 4


def compose(*observers):
    def observer(request, response):
        for each in observers:
            each(request, response)

    return observer


def make_primary(directory: str, transport: str, recorder=None):
    """A served corpus with durability armed (baseline covers the ctor)."""
    functions = corpus_functions(CORPUS)
    durability = Durability(directory, fsync="always")
    observer = (
        durability.observer
        if recorder is None
        else compose(recorder, durability.observer)
    )
    if transport == "threads":
        client = ShardedClient(
            functions, shards=SHARDS, capacity=CAPACITY, observer=observer
        )
    else:
        client = ProcClient(
            functions, workers=SHARDS, capacity=CAPACITY, observer=observer
        )
    durability.attach(client)
    return client, durability, [fn_info(fn) for fn in functions]


def drive(client, infos, count: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        client.dispatch(random_request(rng, infos, edit_rate=0.35))


def probe_requests(infos):
    """A deterministic read-only probe corpus over the original names."""
    probes = []
    for info in infos:
        for block in info.blocks[:3]:
            for kind in ("in", "out"):
                probes.append(
                    LiveSetRequest(
                        function=FunctionHandle(info.name),
                        block=block,
                        kind=kind,
                    )
                )
        for variable in info.variables[:3]:
            for block in info.blocks[:2]:
                probes.append(
                    LivenessQuery(
                        function=FunctionHandle(info.name),
                        kind="in",
                        variable=variable,
                        block=block,
                    )
                )
    return probes


def assert_answers_identical(expected_client, actual_client, infos):
    for probe in probe_requests(infos):
        expected = canonical_response(expected_client.dispatch(probe))
        actual = canonical_response(actual_client.dispatch(probe))
        assert expected == actual, f"{probe} diverged:\n{expected}\n{actual}"


def tear_last_record(directory: str, cut: int = 5) -> None:
    """Simulate a crash mid-append: the newest segment loses its tail."""
    # Tear the newest segment that actually holds bytes.
    for _first, path in reversed(list_segments(directory)):
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) > cut:
            with open(path, "wb") as handle:
                handle.write(data[:-cut])
            return
    raise AssertionError("no WAL segment large enough to tear")


# ----------------------------------------------------------------------
# Clean shutdown: recovered server ≡ the primary that never stopped
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["threads", "procs"])
def test_clean_shutdown_differential(transport, tmp_path):
    directory = str(tmp_path)
    recorder = TraceRecorder()
    primary, durability, infos = make_primary(directory, transport, recorder)
    try:
        drive(primary, infos, count=120, seed=9)
        durability.close()
        recovered, report = recover(directory, transport=transport)
        try:
            assert report.functions == CORPUS
            assert report.damage == []
            assert report.replayed == len(read_wal(directory).entries)
            assert live_state_digest(recovered) == live_state_digest(primary)
            assert_answers_identical(primary, recovered, infos)
        finally:
            if transport == "procs":
                recovered.close()
    finally:
        if transport == "procs":
            primary.close()


# ----------------------------------------------------------------------
# Torn tail: recovered ≡ fresh server replaying the surviving log
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["threads", "procs"])
def test_torn_tail_differential(transport, tmp_path):
    directory = str(tmp_path)
    primary, durability, infos = make_primary(directory, transport)
    try:
        drive(primary, infos, count=120, seed=31)
        logged = durability.last_seq
        assert logged > 0, "seed produced no confirmed mutations"
        durability.close()
    finally:
        if transport == "procs":
            primary.close()
    tear_last_record(directory)

    surviving = read_wal(directory)
    assert surviving.damage and surviving.damage[0].kind == "torn"
    assert surviving.last_seq == logged - 1

    # The reference: a server that was *handed* exactly the surviving
    # history — baseline corpus plus the log's clean prefix.
    reference = ShardedClient(
        corpus_functions(CORPUS), shards=SHARDS, capacity=CAPACITY
    )
    for _seq, request in surviving.entries:
        reference.dispatch(request)

    recovered, report = recover(directory, transport=transport)
    try:
        assert any(d.kind == "torn" for d in report.damage)
        assert report.functions == CORPUS
        assert report.replayed == len(surviving.entries)
        assert live_state_digest(recovered) == live_state_digest(reference)
        assert_answers_identical(reference, recovered, infos)
    finally:
        if transport == "procs":
            recovered.close()


@pytest.mark.parametrize("transport", ["threads", "procs"])
def test_ill_typed_json_request_keeps_recovered_equal_to_live(transport, tmp_path):
    """A mistyped JSON field is refused before dispatch, so nothing is
    applied that the WAL (bin2 frames) could then fail to log."""
    directory = str(tmp_path)
    primary, durability, infos = make_primary(directory, transport)
    try:
        drive(primary, infos, count=40, seed=9)
        envelope = primary.dispatch_json(
            {
                "api": PROTOCOL_VERSION,
                "type": "allocate",
                "body": {"function": {"name": infos[0].name}, "num_registers": 2.5},
            }
        )
        assert envelope["body"]["error"]["code"] == ErrorCode.INVALID_REQUEST.value
        durability.close()
        recovered, report = recover(directory, transport=transport)
        try:
            assert report.damage == []
            assert live_state_digest(recovered) == live_state_digest(primary)
            assert_answers_identical(primary, recovered, infos)
        finally:
            if transport == "procs":
                recovered.close()
    finally:
        if transport == "procs":
            primary.close()


def test_recover_with_repair_leaves_a_clean_tail(tmp_path):
    directory = str(tmp_path)
    primary, durability, infos = make_primary(directory, "threads")
    drive(primary, infos, count=80, seed=31)
    durability.close()
    tear_last_record(directory)
    assert read_wal(directory).damage != ()

    # Durability re-armed over the repaired directory extends history
    # (the observer must be wired at construction, so recover forwards it).
    resumed = Durability(directory, fsync="always")
    recovered, report = recover(
        directory, repair=True, observer=resumed.observer
    )
    assert any(d.kind == "torn" for d in report.damage)
    assert read_wal(directory).damage == ()
    resumed.attach(recovered, start_seq=report.last_seq)
    recovered.dispatch(
        NotifyRequest(function=recovered.handle(infos[0].name), kind="cfg")
    )
    assert resumed.last_seq == report.last_seq + 1
    resumed.close()


# ----------------------------------------------------------------------
# Snapshots mid-run: compaction bounds the directory, restore still exact
# ----------------------------------------------------------------------
def test_snapshot_compaction_bounds_the_log(tmp_path):
    directory = str(tmp_path)
    primary, durability, infos = make_primary(directory, "threads")
    for round_ in range(3):
        drive(primary, infos, count=60, seed=100 + round_)
        durability.snapshot()
    drive(primary, infos, count=30, seed=200)
    durability.close()

    # Retention: at most KEEP_SNAPSHOTS snapshots; covered segments were
    # pruned, so the log holds (roughly) only the post-snapshot tail.
    assert len(list_snapshots(directory)) <= 2
    assert len(list_segments(directory)) <= 2

    recovered, report = recover(directory)
    assert report.functions == CORPUS
    assert live_state_digest(recovered) == live_state_digest(primary)
    assert_answers_identical(primary, recovered, infos)


# ----------------------------------------------------------------------
# Cache geometry is unobservable (satellite: eviction invariance)
# ----------------------------------------------------------------------
def warm(client, infos):
    for info in infos:
        if info.variables and info.blocks:
            client.dispatch(
                LivenessQuery(
                    function=FunctionHandle(info.name),
                    kind="in",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
            )


def test_evictions_and_lru_churn_do_not_change_restored_replies(tmp_path):
    quiet_dir = str(tmp_path / "quiet")
    churn_dir = str(tmp_path / "churn")

    quiet, quiet_dur, infos = make_primary(quiet_dir, "threads")
    warm(quiet, infos)
    quiet_dur.snapshot()
    quiet_dur.close()

    churned, churn_dur, _ = make_primary(churn_dir, "threads")
    warm(churned, infos)
    # Heavy LRU churn: evict everything, re-query in a rotated order,
    # evict half again — residency now differs wildly from the twin.
    for info in infos:
        churned.dispatch(EvictRequest(function=FunctionHandle(info.name)))
    warm(churned, list(reversed(infos)))
    for info in infos[::2]:
        churned.dispatch(EvictRequest(function=FunctionHandle(info.name)))
    churn_dur.snapshot()
    churn_dur.close()

    # Evictions are never logged: both WALs must be empty of them.
    assert all(
        not isinstance(request, EvictRequest)
        for _seq, request in read_wal(churn_dir).entries
    )

    restored_quiet, _ = recover(quiet_dir)
    restored_churned, _ = recover(churn_dir)
    assert live_state_digest(restored_quiet) == live_state_digest(
        restored_churned
    )
    assert_answers_identical(restored_quiet, restored_churned, infos)


# ----------------------------------------------------------------------
# Degenerate directories
# ----------------------------------------------------------------------
def test_recover_from_empty_directory_yields_empty_server(tmp_path):
    client, report = recover(str(tmp_path))
    assert report.functions == 0
    assert report.replayed == 0
    response = client.dispatch(
        LivenessQuery(
            function=FunctionHandle("ghost"),
            kind="in",
            variable="v",
            block="b",
        )
    )
    assert response.error.code == ErrorCode.UNKNOWN_FUNCTION


def test_recover_rejects_unknown_transport(tmp_path):
    with pytest.raises(ValueError):
        recover(str(tmp_path), transport="carrier-pigeon")


# ----------------------------------------------------------------------
# Edits straight after restore (regression: restored checkers must take
# notifications before their lazily-built plans/def–use exist)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["threads", "procs"])
def test_edit_notifications_right_after_restore(transport, tmp_path):
    directory = str(tmp_path)
    primary, durability, infos = make_primary(directory, transport)
    try:
        drive(primary, infos, count=60, seed=17)
        durability.snapshot()  # capture warm checkers for the restore path
        durability.close()
        recovered, report = recover(directory, transport=transport)
        try:
            if transport == "threads":
                assert report.checkers_restored > 0
            # First traffic the recovered server sees is an edit wave —
            # instruction notifications hit restored checkers before any
            # query forced them to build plans.
            for info in infos:
                for target in (primary, recovered):
                    target.dispatch(
                        NotifyRequest(
                            function=FunctionHandle(info.name),
                            kind="instructions",
                        )
                    )
            assert_answers_identical(primary, recovered, infos)
        finally:
            if transport == "procs":
                recovered.close()
    finally:
        if transport == "procs":
            primary.close()
