"""Every query path of the checker answers the same question the same way.

:class:`FastLivenessChecker` answers liveness through several doors: the
point queries of Algorithm 3, ``query_batch``, ``live_in_set`` /
``live_out_set``, ``live_sets`` and the batch engine's ``live_maps``.
The batch doors share per-variable setups cached on the engine, so a
packing or caching bug shows up as one door disagreeing with the others.
Each test here compares all of them against two independent references
over the same function: the readable Algorithm-1/2 set path
(:class:`~tests.support.set_oracle.SetCheckerOracle`) and the data-flow fixpoint,
on fuzzed reducible and irreducible corpora and across incremental CFG
edits.
"""

from __future__ import annotations

import random

import pytest

from repro.api.registry import DATAFLOW, FAST, get_engine
from repro.core.batch import BatchQueryEngine
from repro.core.invalidation import TransformationSession
from repro.core.live_checker import FastLivenessChecker
from repro.liveness.dataflow import DataflowLiveness
from tests.core.test_incremental import assert_checker_matches_rebuild, session_edit_mix
from tests.support.bitset_checker import BitsetChecker
from tests.support.genfn import GenSpec, fuzz_function, generate_function, structured_function
from tests.support.set_oracle import SET_ENGINE, SetCheckerOracle


def assert_query_paths_agree(function, context: str) -> None:
    fast = FastLivenessChecker(function)
    fast.prepare()
    sets = SetCheckerOracle(function)
    sets.prepare()
    blocks = list(function.blocks)
    variables = fast.live_variables()
    assert sets.live_variables() == variables, context
    dataflow = DataflowLiveness(function, variables=variables)
    dataflow.prepare()
    queries = [
        (kind, var, block)
        for var in variables
        for block in blocks
        for kind in ("in", "out")
    ]
    expected = [
        sets.is_live_in(var, block) if kind == "in" else sets.is_live_out(var, block)
        for kind, var, block in queries
    ]
    reference = [
        dataflow.is_live_in(var, block)
        if kind == "in"
        else dataflow.is_live_out(var, block)
        for kind, var, block in queries
    ]
    assert expected == reference, f"set path vs dataflow: {context}"
    assert fast.query_batch(queries) == expected, context
    point = [
        fast.is_live_in(var, block) if kind == "in" else fast.is_live_out(var, block)
        for kind, var, block in queries
    ]
    assert point == expected, context
    for var in variables:
        live_in = {b for b in blocks if dataflow.is_live_in(var, b)}
        live_out = {b for b in blocks if dataflow.is_live_out(var, b)}
        assert fast.live_in_set(var) == live_in, (
            f"live_in_set({var.name}) diverged: {context}"
        )
        assert fast.live_out_set(var) == live_out, (
            f"live_out_set({var.name}) diverged: {context}"
        )
    fast_sets = fast.live_sets()
    sets_sets = sets.live_sets()
    assert fast_sets.live_in == sets_sets.live_in, context
    assert fast_sets.live_out == sets_sets.live_out, context
    fast_in, fast_out = fast.batch.live_maps(variables)
    for block in blocks:
        assert fast_in.get(block, set()) == set(sets_sets.live_in[block]), context
        assert fast_out.get(block, set()) == set(sets_sets.live_out[block]), context


class TestParity:
    @pytest.mark.parametrize("index", range(16))
    def test_fuzz_corpus(self, index):
        assert_query_paths_agree(fuzz_function(index), f"fuzz {index}")

    @pytest.mark.parametrize("seed", range(6))
    def test_large_structured_functions(self, seed):
        function = structured_function(seed, target_blocks=48)
        assert_query_paths_agree(function, f"structured {seed}")

    @pytest.mark.parametrize("seed", range(4))
    def test_irreducible_functions(self, seed):
        function = generate_function(
            seed, GenSpec(blocks=24, irreducible=True, loop_depth=2)
        )
        assert not FastLivenessChecker(function).precomputation.reducible
        assert_query_paths_agree(function, f"irreducible {seed}")

    def test_multi_word_universe(self):
        # More than 64 blocks: masks span several machine words.
        function = structured_function(11, target_blocks=80)
        assert len(function.blocks) > 64
        assert_query_paths_agree(function, "multi-word")


class TestBatchCache:
    def test_reducible_fast_path_off_matches(self):
        # The general candidate loop (fast path off) must answer as the
        # served checker and its batch cache do on a reducible function.
        function = structured_function(3, target_blocks=32)
        fast = FastLivenessChecker(function)
        pre = fast.precomputation
        assert pre.reducible
        plain = BitsetChecker(pre, reducible_fast_path=False)
        assert not plain.uses_fast_path
        live_sets = fast.live_sets()
        for var in fast.live_variables():
            plan = fast.plans.plan(var)
            for block in function.blocks:
                query = pre.num(block)
                live_in = plain.is_live_in_mask(plan.def_num, plan.use_mask, query)
                live_out = plain.is_live_out_mask(plan.def_num, plan.use_mask, query)
                assert live_in == fast.is_live_in(var, block)
                assert live_out == fast.is_live_out(var, block)
                assert live_in == (var in live_sets.live_in[block])
                assert live_out == (var in live_sets.live_out[block])

    def test_setups_dropped_on_invalidate(self):
        function = structured_function(1, target_blocks=32)
        checker = FastLivenessChecker(function)
        checker.prepare()
        before = checker.live_sets()
        engine = checker.batch
        assert engine._setups
        engine.invalidate()
        assert not engine._setups
        assert checker.live_sets() == before

    def test_stale_setups_never_survive_a_rebuild(self):
        function = structured_function(1, target_blocks=32)
        checker = FastLivenessChecker(function)
        checker.prepare()
        stale_pre = checker.precomputation
        checker.batch.live_maps(checker.live_variables())
        # A full invalidation rebuilds the precomputation; the batch
        # engine must not answer from setups built on the old one.
        checker.notify_cfg_changed()
        checker.prepare()
        assert checker.precomputation is not stale_pre
        assert not checker.batch._setups
        assert_checker_matches_rebuild(checker, function, "rebuilt")


class TestRegistry:
    def test_fast_factory_builds_the_batch_checker(self):
        function = structured_function(0, target_blocks=8)
        spec = get_engine(FAST)
        oracle = spec.oracle_factory(function)
        assert isinstance(oracle, FastLivenessChecker)
        assert isinstance(oracle.batch, BatchQueryEngine)

    @pytest.mark.parametrize(
        "spec", [SET_ENGINE, get_engine(DATAFLOW)], ids=lambda spec: spec.name
    )
    def test_registry_answers_match_fast(self, spec):
        function = structured_function(4, target_blocks=24)
        fast = get_engine(FAST).oracle_factory(function)
        other = spec.oracle_factory(function)
        fast.prepare()
        other.prepare()
        for var in fast.live_variables():
            for block in function.blocks:
                assert other.is_live_in(var, block) == fast.is_live_in(var, block)
                assert other.is_live_out(var, block) == fast.is_live_out(var, block)


class TestIncrementalInterplay:
    def test_incremental_patch_refreshes_the_batch_answers(self):
        # An applied CfgDelta patches the R/T masks in place on the same
        # precomputation object, so the batch setups cached before the
        # edit must be dropped through the normal notify path.
        function = structured_function(5, target_blocks=20)
        sess = TransformationSession(function)
        sess.checker.prepare()
        sess.checker.live_sets()  # warm the batch setups
        assert session_edit_mix(sess, random.Random(3)) > 0
        assert_checker_matches_rebuild(sess.checker, function, "batch+incremental")
        fresh = FastLivenessChecker(function)
        fresh.prepare()
        assert sess.checker.live_sets() == fresh.live_sets()
        assert_query_paths_agree(function, "after edits")

    def test_instruction_edits_refresh_the_batch_answers(self):
        # A new use only discards the edited variable's cached setup; the
        # batch doors must see the longer live range at once.
        function = structured_function(2, target_blocks=20)
        sess = TransformationSession(function)
        checker = sess.checker
        checker.live_sets()  # warm the batch setups
        var = next(
            inst.result
            for inst in function.entry.instructions
            if inst.result is not None
        )
        last = list(function.blocks)[-1]
        before = checker.live_in_set(var)
        sess.add_use(var, last)
        sess.insert_copy(last, var)
        assert last in checker.live_in_set(var) and before <= checker.live_in_set(var)
        assert_checker_matches_rebuild(checker, function, "batch+instruction edits")
        assert_query_paths_agree(function, "after instruction edits")
