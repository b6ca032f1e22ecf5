"""Table R — the register allocator as an end-to-end liveness workload.

Regenerates :mod:`repro.bench.table_regalloc` and asserts the headline
property: on the large profile, allocating through the fast checker beats
the recompute-full-dataflow baseline (the conventional engine pays a
whole fixpoint per spill round; the checker only rebuilds def–use
chains).
"""

from __future__ import annotations

import pytest

from repro.bench.table_regalloc import (
    REGALLOC_PROFILES,
    compute_table_regalloc,
    format_table_regalloc,
)


@pytest.fixture(scope="module")
def regalloc_rows():
    return compute_table_regalloc(scale=1, seed=2008)


def test_table_regalloc_report(regalloc_rows, record_table):
    record_table("table_regalloc", format_table_regalloc(regalloc_rows))
    assert {row.profile for row in regalloc_rows} == {
        profile.name for profile in REGALLOC_PROFILES
    }
    for row in regalloc_rows:
        assert row.millis["fast"] > 0
        assert row.millis["dataflow"] > 0


def test_workloads_actually_spill(regalloc_rows):
    for row in regalloc_rows:
        assert row.spills > 0, f"profile {row.profile} never spilled"


def test_fast_backend_beats_dataflow_on_large_profile(regalloc_rows):
    large = next(row for row in regalloc_rows if row.profile == "large")
    assert large.speedup("fast") > 1.0, (
        f"fast backend must beat the recompute-full-dataflow baseline on the "
        f"large profile, got {large.speedup('fast'):.2f}x "
        f"({large.millis['fast']:.0f} ms vs {large.millis['dataflow']:.0f} ms)"
    )

