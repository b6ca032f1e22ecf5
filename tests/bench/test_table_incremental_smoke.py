"""Cheap smoke coverage of the incremental benchmark table (tier-1 safe)."""

from __future__ import annotations

import json

from repro.bench.table_incremental import (
    IncrementalProfile,
    compute_table_incremental,
    dominated_pairs,
    format_table_incremental,
    generate_profile_functions,
    write_report,
)

_TINY = (
    IncrementalProfile(
        "tiny", functions=2, target_blocks=10, edits=3, probe_trials=8
    ),
)


def test_compute_and_format_tiny_profile():
    rows = compute_table_incremental(profiles=_TINY)
    assert len(rows) == 1
    row = rows[0]
    assert row.functions == 2
    assert row.edits > 0
    # The timed edits are shaped to always apply (bit identity is
    # asserted inside the measurement, against a from-scratch rebuild).
    assert row.applied == row.edits
    assert row.incremental_ms > 0 and row.rebuild_ms > 0
    assert 0.0 <= row.fallback_rate <= 1.0
    # Every chained edge split applies too (compared with the timed rebuild).
    assert row.splits > 0 and row.splits_applied == row.splits
    assert row.split_ms > 0 and row.split_rebuild_ms > 0
    text = format_table_incremental(rows)
    assert "tiny" in text and "patch ms" in text and "rebuild/patch" in text
    assert "split ms" in text and "rebuild/split" in text


def test_fallback_probe_is_exercised():
    rows = compute_table_incremental(profiles=_TINY)
    row = rows[0]
    assert row.probe_trials > 0
    assert row.probe_applied + row.probe_fallbacks == row.probe_trials


def test_generation_is_deterministic():
    first = generate_profile_functions(_TINY[0], seed=5)
    second = generate_profile_functions(_TINY[0], seed=5)
    assert [len(f.blocks) for f in first] == [len(f.blocks) for f in second]


def test_dominated_pairs_are_valid_add_candidates():
    for function in generate_profile_functions(_TINY[0], seed=3):
        graph = function.build_cfg()
        for source, target in dominated_pairs(graph):
            assert target != graph.entry
            assert not graph.has_edge(source, target)


def test_json_report_schema(tmp_path):
    rows = compute_table_incremental(profiles=_TINY)
    path = tmp_path / "incremental.json"
    written = write_report(rows, str(path))
    with open(written, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["bench"] == "table_incremental"
    assert payload["schema"] == 1
    assert payload["baseline"] == "rebuild"
    assert payload["floor"] > 1.0
    (row,) = payload["rows"]
    assert row["profile"] == "tiny"
    assert row["speedup_vs_rebuild"] > 0
    split = row["split"]
    assert split["edits"] > 0 and split["applied"] == split["edits"]
    assert split["speedup_vs_rebuild"] > 0
    probe = row["fallback_probe"]
    assert probe["trials"] == probe["applied"] + probe["fallbacks"]
    assert 0.0 <= probe["fallback_rate"] <= 1.0
