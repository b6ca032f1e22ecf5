"""Table S — the multi-function serving layer as an end-to-end workload.

Regenerates :mod:`repro.bench.table_service` and asserts the headline
property: the cached :class:`repro.service.LivenessService` beats
rebuilding a checker per query by at least 5× on the ≥50-function mixed
profile (the acceptance bar recorded in ``BENCH_service.json``).
"""

from __future__ import annotations

import pytest

from repro.bench.table_service import (
    SERVICE_PROFILES,
    compute_table_service,
    format_table_service,
)


@pytest.fixture(scope="module")
def service_rows():
    return compute_table_service(scale=1, seed=2008)


def test_table_service_report(service_rows, record_table):
    record_table("table_service", format_table_service(service_rows))
    assert {row.profile for row in service_rows} == {
        profile.name for profile in SERVICE_PROFILES
    }
    for row in service_rows:
        assert row.millis["service"] > 0
        assert row.millis["service_lru"] > 0
        assert row.millis["rebuild"] > 0


def test_workloads_are_mixed_many_function(service_rows):
    for row in service_rows:
        assert row.functions >= 50, f"profile {row.profile} is too small"
        assert row.queries >= 1000


def test_warm_cache_hit_rate_is_high(service_rows):
    for row in service_rows:
        # With capacity for every function, everything after the first
        # touch of each function is a hit.
        assert row.hit_rate["service"] > 0.9, row.profile
        # The quarter-capacity configuration must actually be squeezed.
        assert row.hit_rate["service_lru"] < row.hit_rate["service"], row.profile


def test_cached_service_beats_per_query_rebuild_5x(service_rows):
    mixed = next(row for row in service_rows if row.profile == "mixed")
    assert mixed.speedup("service") >= 5.0, (
        f"cached service must beat per-query checker reconstruction by ≥5x "
        f"on the mixed profile, got {mixed.speedup('service'):.2f}x "
        f"({mixed.millis['service']:.0f} ms vs {mixed.millis['rebuild']:.0f} ms)"
    )


def test_dispatch_layer_overhead_is_within_budget():
    """The typed protocol façade must stay thin: CompilerClient.dispatch on
    a BatchLiveness stream may cost at most 10% over calling
    LivenessService.submit directly (the ``--smoke`` bench guard)."""
    from repro.bench.table_service import (
        MAX_DISPATCH_OVERHEAD,
        SMOKE_PROFILES,
        generate_request_stream,
        generate_service_module,
        measure_dispatch_overhead,
    )

    profile = SMOKE_PROFILES[0]
    module = generate_service_module(profile)
    requests = generate_request_stream(module, profile.queries)
    # Best-of-7 on both sides: scheduling noise shrinks the minimum of
    # more repeats, it never inflates it.
    overhead = measure_dispatch_overhead(module, requests, repeats=7)
    assert overhead.overhead < MAX_DISPATCH_OVERHEAD, (
        f"dispatch() adds {overhead.overhead:.1%} over submit() "
        f"({overhead.dispatch_millis:.2f} ms vs {overhead.submit_millis:.2f} ms)"
    )
