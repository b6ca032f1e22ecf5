"""Cheap smoke coverage of the destruction benchmark table (tier-1 safe)."""

from __future__ import annotations

import json

from repro.bench.table_destruct import (
    DestructProfile,
    compute_table_destruct,
    format_table_destruct,
    generate_profile_functions,
    write_report,
)

_TINY = (DestructProfile("tiny", functions=2, target_blocks=8),)


def test_compute_and_format_tiny_profile():
    rows = compute_table_destruct(profiles=_TINY)
    assert len(rows) == 1
    row = rows[0]
    assert row.functions == 2
    for backend in ("fast", "dataflow", "graph"):
        assert row.millis[backend] > 0
    assert row.pairs >= row.coalesced >= 0
    assert row.queries > 0  # the query-driven backends actually queried
    text = format_table_destruct(rows)
    assert "tiny" in text and "fast ms" in text and "fast/graph" in text


def test_generation_is_deterministic():
    first = generate_profile_functions(_TINY[0], seed=5)
    second = generate_profile_functions(_TINY[0], seed=5)
    assert [len(f.blocks) for f in first] == [len(f.blocks) for f in second]


def test_json_report_schema(tmp_path):
    rows = compute_table_destruct(profiles=_TINY)
    path = tmp_path / "destruct.json"
    written = write_report(rows, str(path))
    with open(written, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["bench"] == "table_destruct"
    assert payload["schema"] == 1
    assert payload["baseline"] == "graph"
    (row,) = payload["rows"]
    assert set(row["speedup_vs_graph"]) == {"fast", "dataflow"}


def test_speedup_handles_absent_backend():
    rows = compute_table_destruct(profiles=_TINY, backends=("fast", "graph"))
    assert rows[0].speedup("absent") == 0.0
