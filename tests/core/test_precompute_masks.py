"""The mask-native ``R``/``T`` construction against the object-level oracle.

:class:`~repro.core.precompute.LivenessPrecomputation` builds ``R_v`` and
``T_v`` straight into flat int masks.  Every array it exposes must be
bit-identical to the literal ``BitSet`` construction kept in
:mod:`tests.support.reference_precompute` — over reducible and
irreducible functions — and ``reach``/``targets`` must keep sharing those
masks after incremental CFG patches.  The reference's §5.2
propagated ``T`` keeps the paper's claim about that shortcut under test:
it only adds targets, and adding them changes no answer.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core.incremental import apply_cfg_delta
from repro.core.live_checker import FastLivenessChecker
from repro.core.precompute import LivenessPrecomputation
from repro.synth.random_function import random_ssa_function
from tests.core.test_incremental import random_delta
from tests.support.bitset_checker import BitsetChecker
from tests.support.genfn import fuzz_function
from tests.support.reference_precompute import reference_arrays

#: ``fuzz_function`` indices: every third one is irreducible.
FUZZ = range(160)
#: Seeds of dedicated ``force_irreducible=True`` functions.
FORCED = range(60)


def _forced(seed: int):
    rng = random.Random(0x1AB + seed)
    return random_ssa_function(
        rng, num_blocks=6 + seed % 14, force_irreducible=True, name=f"irr{seed}"
    )


#: The corpus in its two parts: the fuzz corpus and the forced-irreducible graphs.
PARTS = {
    "fuzz": [(f"fuzz{index}", fuzz_function(index)) for index in FUZZ],
    "forced": [(f"irr{seed}", _forced(seed)) for seed in FORCED],
}
CORPUS = PARTS["fuzz"] + PARTS["forced"]


def assert_matches_reference(pre: LivenessPrecomputation) -> None:
    expected = reference_arrays(pre.graph)
    assert pre.r_masks == expected.r_masks
    assert pre.t_masks == expected.t_masks
    assert pre.is_back_target == expected.is_back_target
    assert pre.maxnums == expected.maxnums
    assert pre.reducible == expected.reducible
    assert pre.storage_bits() == expected.storage_bits


def test_masks_match_object_construction():
    irreducible = 0
    for name, function in CORPUS:
        pre = LivenessPrecomputation(function.build_cfg())
        irreducible += not pre.reducible
        try:
            assert_matches_reference(pre)
        except AssertionError as exc:
            raise AssertionError(f"{name} diverged") from exc
    assert len(CORPUS) >= 200
    assert irreducible >= 60


@pytest.mark.parametrize("part", sorted(PARTS))
def test_propagated_targets_are_a_superset_that_changes_no_answer(part):
    """§5.2: the three-pass ``T`` over-approximates Equation 1, answers unchanged.

    The general candidate loop (no Theorem-2 fast path, which needs the
    exact sets) over the propagated masks must answer every live-in and
    live-out query of every variable and block as the exact build does.
    """
    grown = 0
    for name, function in PARTS[part]:
        checker = FastLivenessChecker(function)
        pre = checker.precomputation
        propagated = copy.copy(pre)
        propagated.t_masks = reference_arrays(pre.graph, propagated=True).t_masks
        for exact_row, row in zip(pre.t_masks, propagated.t_masks):
            assert exact_row & ~row == 0, f"{name}: a propagated T_v lost a target"
            grown += row != exact_row
        exact = BitsetChecker(pre)
        general = BitsetChecker(propagated, reducible_fast_path=False)
        for var in checker.live_variables():
            plan = checker.plans.plan(var)
            for query in range(len(pre.maxnums)):
                args = (plan.def_num, plan.use_mask, query)
                assert general.is_live_in_mask(*args) == exact.is_live_in_mask(*args), (
                    name, var, query,
                )
                assert general.is_live_out_mask(*args) == exact.is_live_out_mask(*args), (
                    name, var, query,
                )
    # Each part must reach rows the shortcut actually grows, or the
    # answer check compares two copies of the same masks.
    assert grown > 0


def test_masks_are_the_only_representation():
    pre = LivenessPrecomputation(fuzz_function(7).build_cfg())
    assert pre.r_masks is pre.reach.masks
    assert pre.t_masks is pre.targets.masks


@pytest.mark.parametrize("sequence", range(40))
def test_views_track_masks_through_cfg_edits(sequence):
    rng = random.Random(0xC0DE + sequence)
    _name, function = CORPUS[(sequence * 7) % len(CORPUS)]
    pre = LivenessPrecomputation(function.build_cfg())
    for _step in range(8):
        delta = random_delta(rng, pre.graph)
        if delta is None:
            break
        if not apply_cfg_delta(pre, delta).applied:
            pre = LivenessPrecomputation(pre.graph)
        assert pre.reach.masks is pre.r_masks
        assert pre.targets.masks is pre.t_masks
        assert_matches_reference(pre)
