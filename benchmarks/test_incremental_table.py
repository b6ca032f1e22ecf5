"""Table I — incremental CfgDelta patching vs full precomputation rebuild.

Regenerates :mod:`repro.bench.table_incremental` and asserts the PR-10
acceptance bar recorded in ``BENCH_incremental.json``: on the large
profile, one guaranteed-shape single-edge patch — and one edge split —
beats one from-scratch :class:`~repro.core.LivenessPrecomputation` by at
least the guarded ``floor`` (bit identity of every patched state is
asserted inside the measurement itself), and the fallback probe reports
an honest rate for unconstrained random edits.
"""

from __future__ import annotations

import pytest

from repro.bench.table_incremental import (
    INCREMENTAL_PROFILES,
    SPEEDUP_FLOOR,
    compute_table_incremental,
    format_table_incremental,
)


@pytest.fixture(scope="module")
def incremental_rows():
    return compute_table_incremental(scale=1, seed=2008)


def test_table_incremental_report(incremental_rows, record_table):
    record_table("table_incremental", format_table_incremental(incremental_rows))
    assert {row.profile for row in incremental_rows} == {
        profile.name for profile in INCREMENTAL_PROFILES
    }
    for row in incremental_rows:
        assert row.edits > 0, row.profile
        assert row.incremental_ms > 0 and row.rebuild_ms > 0, row.profile


def test_guaranteed_shape_edits_all_applied(incremental_rows):
    # The timed edits (back edges whose target dominates the source) are
    # exactly the shape the patcher promises to apply; a fallback here is
    # a kernel regression, not measurement noise.
    for row in incremental_rows:
        assert row.applied == row.edits, (
            f"profile {row.profile}: {row.edits - row.applied} guaranteed "
            f"edits fell back to a rebuild"
        )


def test_patch_beats_rebuild_by_the_guarded_floor(incremental_rows):
    large = next(row for row in incremental_rows if row.profile == "large")
    assert large.speedup >= SPEEDUP_FLOOR, (
        f"incremental patching must beat a full rebuild by ≥{SPEEDUP_FLOOR}x "
        f"on the large profile, got {large.speedup:.2f}x "
        f"({large.incremental_ms:.4f} ms vs {large.rebuild_ms:.4f} ms)"
    )


def test_edge_splits_all_apply_and_beat_rebuild_by_the_guarded_floor(
    incremental_rows,
):
    # An edge split inserts one block: every R/T row gains one bit in
    # place, against the rebuild's whole DFS + dominators + closure.
    for row in incremental_rows:
        assert row.splits > 0 and row.splits_applied == row.splits, row.profile
    large = next(row for row in incremental_rows if row.profile == "large")
    assert large.split_speedup >= SPEEDUP_FLOOR, (
        f"a patched edge split must beat a full rebuild by ≥{SPEEDUP_FLOOR}x "
        f"on the large profile, got {large.split_speedup:.2f}x "
        f"({large.split_ms:.4f} ms vs {large.split_rebuild_ms:.4f} ms)"
    )


def test_speedup_grows_with_function_size(incremental_rows):
    # The patch touches O(affected rows); the rebuild pays the whole
    # quadratic closure — the gap must not shrink as functions grow.
    small = next(row for row in incremental_rows if row.profile == "small")
    large = next(row for row in incremental_rows if row.profile == "large")
    assert large.speedup > small.speedup * 0.8, (
        f"speed-up collapsed with size: small {small.speedup:.2f}x vs "
        f"large {large.speedup:.2f}x"
    )


def test_fallback_probe_is_honest(incremental_rows):
    # Unconstrained random edits *do* hit the fallback path (the probe
    # would be lying if every arbitrary edit appeared patchable), yet a
    # useful fraction still applies incrementally.
    for row in incremental_rows:
        assert row.probe_trials > 0, row.profile
        assert row.probe_applied + row.probe_fallbacks == row.probe_trials
        assert row.probe_fallbacks > 0, (
            f"profile {row.profile}: no random edit ever fell back — the "
            f"probe is not exercising the fallback rule"
        )
        assert row.probe_applied > 0, (
            f"profile {row.profile}: no random edit ever applied — the "
            f"patcher is refusing everything"
        )
