"""Pressure/MaxLive: query-only computation against independent references."""

from __future__ import annotations

import random

import pytest

from repro.core.live_checker import FastLivenessChecker
from repro.liveness.dataflow import DataflowLiveness
from repro.regalloc.pressure import BlockLiveness, compute_pressure, max_live
from repro.regalloc.verify import per_point_live_sets
from repro.synth.random_function import random_ssa_function


def _reference_max_live(function) -> int:
    """MaxLive from first principles: independent per-point live sets."""
    points = per_point_live_sets(function)
    best = 0
    for block in function:
        for index, inst in enumerate(block.instructions):
            if inst.result is None:
                continue
            live = points[block.name][index] | {inst.result}
            best = max(best, len(live))
    return best


@pytest.mark.parametrize("seed", range(25))
def test_max_live_matches_independent_reference(seed):
    rng = random.Random(4100 + seed)
    function = random_ssa_function(
        rng, num_blocks=rng.randrange(4, 14), allow_irreducible=(seed % 2 == 0)
    )
    info = compute_pressure(function, FastLivenessChecker(function))
    assert info.max_live == _reference_max_live(function)
    assert info.max_entry_pressure <= info.max_live
    if info.max_live:
        assert info.max_block is not None
        assert len(info.max_live_set) == info.max_live


@pytest.mark.parametrize("seed", range(10))
def test_batch_and_unbatched_pressure_agree(seed):
    rng = random.Random(4300 + seed)
    function = random_ssa_function(rng, num_blocks=rng.randrange(4, 12))
    # The checker exposes ``batch`` and goes through the batch engine; the
    # data-flow oracle has none and is asked one query per pair.
    batched = compute_pressure(function, FastLivenessChecker(function))
    plain = compute_pressure(function, DataflowLiveness(function))
    assert batched.max_live == plain.max_live
    for name, block in batched.per_block.items():
        other = plain.per_block[name]
        assert (block.entry, block.exit, block.max_def_point) == (
            other.entry,
            other.exit,
            other.max_def_point,
        )


@pytest.mark.parametrize("seed", range(10))
def test_dataflow_oracle_gives_same_pressure(seed):
    rng = random.Random(4500 + seed)
    function = random_ssa_function(rng, num_blocks=rng.randrange(4, 12))
    fast = max_live(function, FastLivenessChecker(function))
    dataflow = max_live(function, DataflowLiveness(function))
    assert fast == dataflow


def test_block_entry_counts_match_dataflow(nested_function):
    oracle = DataflowLiveness(nested_function)
    sets = oracle.live_sets()
    info = compute_pressure(nested_function, FastLivenessChecker(nested_function))
    for name, block in info.per_block.items():
        assert block.entry == len(sets.live_in[name])


def test_block_liveness_edge_uses_attributed_to_predecessors(sum_function):
    liveness = BlockLiveness(sum_function, FastLivenessChecker(sum_function))
    recorded = set()
    for block in sum_function:
        for phi in block.phis():
            for pred, value in phi.incoming.items():
                if value.is_variable():
                    assert value in liveness.edge_uses[pred]
                    recorded.add((pred, value.name))
    assert recorded, "the summation loop must contain loop-carried phis"
