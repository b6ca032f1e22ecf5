"""Table D — out-of-SSA translation as an end-to-end liveness workload.

Regenerates :mod:`repro.bench.table_destruct` and asserts the headline
property: on the large profile, coalescing driven by on-demand liveness
queries beats building the full interference graph up front.  The
committed ``BENCH_destruct.json`` records the ≥2x full-run figure; the
in-suite gate is set slightly below it to stay robust against shared-CI
timing noise.
"""

from __future__ import annotations

import pytest

from repro.bench.table_destruct import (
    DESTRUCT_PROFILES,
    compute_table_destruct,
    format_table_destruct,
)


@pytest.fixture(scope="module")
def destruct_rows():
    return compute_table_destruct(scale=1, seed=2008)


def test_table_destruct_report(destruct_rows, record_table):
    record_table("table_destruct", format_table_destruct(destruct_rows))
    assert {row.profile for row in destruct_rows} == {
        profile.name for profile in DESTRUCT_PROFILES
    }
    for row in destruct_rows:
        for backend in ("fast", "dataflow", "graph"):
            assert row.millis[backend] > 0


def test_workloads_actually_coalesce(destruct_rows):
    for row in destruct_rows:
        assert row.pairs > 0, f"profile {row.profile} isolated no φs"
        assert row.coalesced > 0, f"profile {row.profile} coalesced nothing"
        assert row.queries > 0, f"profile {row.profile} issued no queries"


def test_query_driven_beats_interference_graph_on_large_profile(destruct_rows):
    large = next(row for row in destruct_rows if row.profile == "large")
    assert large.speedup("fast") > 1.6, (
        f"query-driven coalescing must beat eager interference-graph "
        f"construction on the large profile, got {large.speedup('fast'):.2f}x "
        f"({large.millis['fast']:.0f} ms vs {large.millis['graph']:.0f} ms)"
    )


def test_speedup_grows_with_function_size(destruct_rows):
    """The eager graph pays per (point × live-pair); queries pay per φ.

    The gap must therefore widen from the small to the large profile —
    the same break-even structure the paper reports for tiny procedures.
    """
    small = next(row for row in destruct_rows if row.profile == "small")
    large = next(row for row in destruct_rows if row.profile == "large")
    assert large.speedup("fast") > small.speedup("fast")
