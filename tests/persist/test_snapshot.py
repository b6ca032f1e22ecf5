"""Snapshot format: fixpoints, damage tolerance, retention fallback.

The two headline properties from the format's docstring:

* **Fixpoint** — ``encode → decode → encode`` is byte-identical, and so
  is the full restore cycle: recover a server from a snapshot, capture
  its state again, and the bytes match (precomputation arrays included).
* **All-or-nothing** — any damaged snapshot decodes to structured
  damage, never an exception and never a partial state; the newest
  *valid* snapshot wins even when newer damaged ones exist.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.protocol import LivenessQuery
from repro.concurrent.client import ShardedClient
from repro.persist.durability import capture_state
from repro.persist.recovery import recover, restore_client
from repro.persist.snapshot import (
    FunctionState,
    SnapshotState,
    decode_snapshot,
    encode_snapshot,
    list_snapshots,
    load_newest_snapshot,
    load_snapshot,
    make_snapshot_state,
    state_digest,
    with_last_seq,
    write_snapshot,
)
from tests.support.concurrency import corpus_functions, fn_info


def plain_state(count: int = 3, last_seq: int = 0) -> SnapshotState:
    from repro.ir.printer import print_function

    functions = [
        FunctionState(fn.name, index, print_function(fn))
        for index, fn in enumerate(corpus_functions(count))
    ]
    return make_snapshot_state(
        shards=4, capacity=8, functions=functions, last_seq=last_seq,
    )


def warm_client(count: int = 4) -> ShardedClient:
    """A live client with every checker resident (built by real queries)."""
    functions = corpus_functions(count)
    client = ShardedClient(functions, shards=2, capacity=8)
    for info in map(fn_info, functions):
        if info.variables and info.blocks:
            client.dispatch(
                LivenessQuery(
                    function=client.handle(info.name),
                    kind="in",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
            )
    return client


# ----------------------------------------------------------------------
# Fixpoints
# ----------------------------------------------------------------------
def test_encode_decode_encode_is_byte_identical():
    state = plain_state(3, last_seq=17)
    data = encode_snapshot(state)
    decoded, damage = decode_snapshot(data)
    assert damage is None
    assert decoded == state
    assert encode_snapshot(decoded) == data


def test_capture_of_warm_client_round_trips_with_precomps():
    state = capture_state(warm_client())
    assert state.precomps, "queries should have built checkers"
    data = encode_snapshot(state)
    decoded, damage = decode_snapshot(data)
    assert damage is None
    assert decoded == state
    assert encode_snapshot(decoded) == data


def test_restore_then_recapture_is_byte_identical(tmp_path):
    """The full fixpoint: disk → live server → disk, including precomps."""
    state = capture_state(warm_client())
    write_snapshot(str(tmp_path), state)
    client, report = recover(str(tmp_path))
    assert report.functions == len(state.functions)
    assert report.checkers_restored == len(state.precomps)
    recaptured = capture_state(client)
    assert encode_snapshot(recaptured) == encode_snapshot(state)


def test_digest_ignores_precomps_and_last_seq():
    state = capture_state(warm_client())
    bare = make_snapshot_state(
        shards=state.shards,
        capacity=state.capacity,
        functions=state.functions,
    )
    assert state.digest() == bare.digest()
    assert with_last_seq(state, 999).digest() == state.digest()
    assert state.digest() == state_digest(
        [(f.name, f.revision, f.source) for f in state.functions]
    )


# ----------------------------------------------------------------------
# The one capture path and the one restore path
# ----------------------------------------------------------------------
def test_capture_without_pin_records_seq_zero():
    assert capture_state(warm_client()).last_seq == 0


def test_capture_records_the_pinned_value_once():
    calls = []

    def pin():
        calls.append(None)
        return 42

    assert capture_state(warm_client(), pin=pin).last_seq == 42
    assert len(calls) == 1


def test_restore_without_snapshot_is_an_empty_default_client():
    client, restored = restore_client(None)
    assert restored == 0
    assert client.topology() == ShardedClient().topology()
    assert capture_state(client).functions == ()


def test_restore_reinstates_functions_revisions_and_checkers():
    state = capture_state(warm_client())
    client, restored = restore_client(state)
    assert restored == len(state.precomps) > 0
    assert sorted(client.service.resident()) == sorted(p.name for p in state.precomps)
    assert client.topology() == {"shards": state.shards, "capacity": state.capacity}

    edited = plain_state(3)
    client, restored = restore_client(edited)
    assert restored == 0
    for fn in edited.functions:
        assert client.service.revision(fn.name) == fn.revision
    assert capture_state(client) == edited


def test_explicit_topology_wins_over_the_snapshot():
    state = plain_state(2)
    client, _restored = restore_client(state, shards=2, capacity=4)
    assert client.topology() == {"shards": 2, "capacity": 4}
    assert capture_state(client).functions == state.functions


def test_unknown_transport_is_rejected():
    with pytest.raises(ValueError, match="transport"):
        restore_client(plain_state(1), transport="carrier-pigeon")


def test_precomp_of_an_unregistered_function_is_skipped():
    state = capture_state(warm_client())
    orphan = state.precomps[0].name
    pruned = make_snapshot_state(
        shards=state.shards,
        capacity=state.capacity,
        functions=[f for f in state.functions if f.name != orphan],
        precomps=state.precomps,
    )
    client, restored = restore_client(pruned)
    assert restored == len(state.precomps) - 1
    assert orphan not in client.service.resident()


def test_procs_restore_rebuilds_checkers_on_demand():
    original = warm_client()
    state = capture_state(original)
    client, restored = restore_client(state, transport="procs")
    try:
        assert restored == 0
        assert client.topology() == {"shards": state.shards, "capacity": state.capacity}
        assert capture_state(client).functions == state.functions
        for info in map(fn_info, corpus_functions(4)):
            if info.variables and info.blocks:
                # Revisions were restored verbatim, so the original's
                # handle is current on the restored client too.
                query = LivenessQuery(
                    function=original.handle(info.name),
                    kind="out",
                    variable=info.variables[0],
                    block=info.blocks[0],
                )
                assert client.dispatch(query) == original.dispatch(query)
    finally:
        client.close()


# ----------------------------------------------------------------------
# Damage: all-or-nothing, never raising
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_any_single_byte_corruption_is_structured_damage(data_strategy):
    data = bytearray(encode_snapshot(plain_state(2)))
    pos = data_strategy.draw(st.integers(0, len(data) - 1))
    flip = data_strategy.draw(st.integers(1, 255))
    data[pos] ^= flip
    state, damage = decode_snapshot(bytes(data))
    # Either the corruption was caught (the overwhelmingly common case)
    # or the flip landed somewhere genuinely redundant — but never an
    # exception and never a silently different state.
    if state is not None:
        assert encode_snapshot(state) == bytes(data)
    else:
        assert damage is not None


def test_truncated_snapshot_is_torn():
    data = encode_snapshot(plain_state(2))
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        state, damage = decode_snapshot(data[:cut])
        assert state is None
        assert damage is not None


def test_garbage_file_is_damage(tmp_path):
    path = tmp_path / "snap-0000000000000000.snap"
    path.write_bytes(random.Random(0).randbytes(512))
    state, damage = load_snapshot(str(path))
    assert state is None and damage is not None


def test_missing_file_is_unreadable_damage(tmp_path):
    state, damage = load_snapshot(str(tmp_path / "nope.snap"))
    assert state is None and damage.kind == "unreadable"


def test_tampered_digest_is_rejected():
    """A snapshot whose records are intact but whose END digest lies."""
    from repro.api.codec import write_str, write_uvarint
    from repro.persist.records import encode_record, scan_records
    from repro.persist.snapshot import REC_END

    data = encode_snapshot(plain_state(2))
    scan = scan_records(data)
    end = bytearray()
    write_str(end, "0" * 64)  # wrong digest, right shape
    write_uvarint(end, len(scan.records))
    tampered = (
        data[: scan.records[-1][2]] + encode_record(REC_END, end)
    )
    state, damage = decode_snapshot(tampered)
    assert state is None and damage.kind == "digest"


def test_previous_layout_is_version_damage():
    """Layout 1 still carried a target-set strategy string in HEADER and
    PRECOMP; its records must be refused whole, not misparsed."""
    import struct
    import zlib

    from repro.api.codec import write_str, write_uvarint
    from repro.persist.records import PERSIST_MAGIC, PERSIST_VERSION
    from repro.persist.snapshot import REC_HEADER

    assert PERSIST_VERSION > 1
    header = bytearray()
    for value in (4, 8):
        write_uvarint(header, value)
    write_str(header, "exact")
    for value in (0, 0, 0):
        write_uvarint(header, value)
    payload = bytes((PERSIST_MAGIC, 1, REC_HEADER)) + bytes(header)
    data = struct.pack("<II", len(payload) + 4, zlib.crc32(payload)) + payload
    state, damage = decode_snapshot(data)
    assert state is None and damage.kind == "version"


# ----------------------------------------------------------------------
# Files: atomic writes, newest-valid fallback
# ----------------------------------------------------------------------
def test_write_snapshot_is_atomic_and_listable(tmp_path):
    state = plain_state(2, last_seq=5)
    path = write_snapshot(str(tmp_path), state)
    assert os.path.exists(path)
    assert not os.path.exists(path + ".tmp")
    assert list_snapshots(str(tmp_path)) == [(5, path)]
    loaded, damage = load_snapshot(path)
    assert damage is None and loaded == state


def test_newest_valid_snapshot_wins_over_damaged_newer(tmp_path):
    good = plain_state(2, last_seq=10)
    good_path = write_snapshot(str(tmp_path), good)
    # A newer snapshot that was torn mid-write.
    newer = encode_snapshot(with_last_seq(good, 20))
    torn_path = tmp_path / "snap-0000000000000020.snap"
    torn_path.write_bytes(newer[: len(newer) // 2])
    state, path, damage = load_newest_snapshot(str(tmp_path))
    assert state == good
    assert path == good_path
    assert len(damage) == 1  # the torn candidate was recorded, not fatal


def test_no_valid_snapshot_reports_all_damage(tmp_path):
    (tmp_path / "snap-0000000000000001.snap").write_bytes(b"junk")
    (tmp_path / "snap-0000000000000002.snap").write_bytes(b"more junk")
    state, path, damage = load_newest_snapshot(str(tmp_path))
    assert state is None and path is None
    assert len(damage) == 2


def test_empty_directory_has_no_snapshot(tmp_path):
    assert load_newest_snapshot(str(tmp_path)) == (None, None, [])
    assert list_snapshots(str(tmp_path / "missing")) == []
