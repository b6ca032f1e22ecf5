"""Cheap smoke coverage of the service benchmark table (tier-1 safe)."""

from __future__ import annotations

import json

from repro.bench.table_service import (
    ServiceProfile,
    compute_table_service,
    format_table_service,
    generate_request_stream,
    generate_service_module,
    write_report,
)

_TINY = (ServiceProfile("tiny", functions=8, target_blocks=6, queries=60),)


def test_compute_and_format_tiny_profile():
    rows = compute_table_service(profiles=_TINY, modes=("service", "rebuild"))
    assert len(rows) == 1
    row = rows[0]
    assert row.functions == 8 and row.queries == 60
    assert row.millis["service"] > 0 and row.millis["rebuild"] > 0
    assert 0.0 <= row.hit_rate["service"] <= 1.0
    text = format_table_service(rows)
    assert "tiny" in text and "service ms" in text and "rb/service" in text


def test_modes_cross_check_each_other():
    # measure_profile asserts every mode answers identically; reaching here
    # with all three modes means the cross-check passed.
    rows = compute_table_service(profiles=_TINY)
    assert set(rows[0].millis) == {"service", "service_lru", "rebuild"}


def test_generation_is_deterministic():
    first = generate_service_module(_TINY[0], seed=4)
    second = generate_service_module(_TINY[0], seed=4)
    assert [fn.name for fn in first] == [fn.name for fn in second]
    assert [len(fn.blocks) for fn in first] == [len(fn.blocks) for fn in second]
    stream_a = generate_request_stream(first, 40, seed=2)
    stream_b = generate_request_stream(second, 40, seed=2)
    assert [(r.function, r.kind, r.block) for r in stream_a] == [
        (r.function, r.kind, r.block) for r in stream_b
    ]


def test_parse_bench_argv():
    import pytest

    from repro.bench.reporting import parse_bench_argv

    assert parse_bench_argv([], "out.json") == (1, False, "out.json")
    assert parse_bench_argv(["3"], "out.json") == (3, False, "out.json")
    assert parse_bench_argv(["--smoke"], "out.json") == (1, True, "out.json")
    assert parse_bench_argv(["--json", "x.json", "--smoke", "2"], "out.json") == (
        2, True, "x.json",
    )
    with pytest.raises(SystemExit, match="--json requires"):
        parse_bench_argv(["--json"], "out.json")
    with pytest.raises(SystemExit, match="--json requires"):
        parse_bench_argv(["--json", "--smoke"], "out.json")
    with pytest.raises(SystemExit, match="usage"):
        parse_bench_argv(["banana"], "out.json")


def test_json_report_schema(tmp_path):
    rows = compute_table_service(profiles=_TINY, modes=("service", "rebuild"))
    path = tmp_path / "BENCH_service.json"
    write_report(rows, str(path))
    payload = json.loads(path.read_text())
    assert payload["bench"] == "table_service"
    assert payload["schema"] == 1
    assert payload["baseline"] == "rebuild"
    (row,) = payload["rows"]
    assert row["profile"] == "tiny"
    assert row["speedup_vs_rebuild"]["service"] > 0


def test_dispatch_overhead_measurement_cross_checks_answers():
    # Tier-1-safe: asserts the measurement machinery (answer equality and
    # report shape), not the timing budget — that is the bench suite's job.
    from repro.bench.table_service import measure_dispatch_overhead

    module = generate_service_module(_TINY[0], seed=5)
    requests = generate_request_stream(module, 50, seed=6)
    overhead = measure_dispatch_overhead(module, requests, repeats=1)
    assert overhead.submit_millis > 0 and overhead.dispatch_millis > 0
    payload = overhead.as_dict()
    assert set(payload) == {"submit_millis", "dispatch_millis", "overhead"}


def test_json_report_includes_dispatch_overhead(tmp_path):
    from repro.bench.table_service import measure_dispatch_overhead

    rows = compute_table_service(profiles=_TINY, modes=("service", "rebuild"))
    module = generate_service_module(_TINY[0])
    requests = generate_request_stream(module, 30)
    overhead = measure_dispatch_overhead(module, requests, repeats=1)
    path = tmp_path / "BENCH_service.json"
    write_report(rows, str(path), dispatch_overhead=overhead)
    payload = json.loads(path.read_text())
    assert payload["dispatch_overhead"]["submit_millis"] > 0
