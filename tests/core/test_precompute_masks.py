"""The mask-native ``R``/``T`` construction against the object-level oracle.

:class:`~repro.core.precompute.LivenessPrecomputation` builds ``R_v`` and
``T_v`` straight into flat int masks.  Every array it exposes must be
bit-identical to the literal ``BitSet`` construction kept in
:mod:`tests.support.reference_precompute` — over reducible and
irreducible functions and both ``T`` strategies — and the ``BitSet``
views must keep reading the same rows after incremental CFG patches.
"""

from __future__ import annotations

import random

import pytest

from repro.core.incremental import apply_cfg_delta
from repro.core.precompute import LivenessPrecomputation
from repro.synth.random_function import random_ssa_function
from tests.core.test_incremental import random_delta
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


def _corpus():
    for index in FUZZ:
        yield f"fuzz{index}", fuzz_function(index)
    for seed in FORCED:
        yield f"irr{seed}", _forced(seed)


CORPUS = list(_corpus())


def assert_matches_reference(pre: LivenessPrecomputation, strategy: str) -> None:
    expected = reference_arrays(pre.graph, strategy)
    assert pre.r_masks == expected.r_masks
    assert pre.t_masks == expected.t_masks
    assert pre.is_back_target == expected.is_back_target
    assert pre.maxnums == expected.maxnums
    assert pre.reducible == expected.reducible
    assert pre.storage_bits() == expected.storage_bits


@pytest.mark.parametrize("strategy", ["exact", "propagate"])
def test_masks_match_object_construction(strategy):
    irreducible = 0
    for name, function in CORPUS:
        pre = LivenessPrecomputation(function.build_cfg(), strategy=strategy)
        irreducible += not pre.reducible
        try:
            assert_matches_reference(pre, strategy)
        except AssertionError as exc:
            raise AssertionError(f"{name} ({strategy}) diverged") from exc
    assert len(CORPUS) >= 200
    assert irreducible >= 60


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
        for node in pre.graph.nodes():
            number = pre.num(node)
            assert pre.reach.bitset(node).mask == pre.r_masks[number]
            assert pre.targets.bitset(node).mask == pre.t_masks[number]
        assert_matches_reference(pre, "exact")
