"""Tests for the per-variable query plans (repro.core.plans)."""

import random

from repro.core import FastLivenessChecker, PlanCache, QueryPlan
from repro.frontend import compile_source
from repro.ssa.defuse import DefUseChains
from repro.synth import random_ssa_function
from tests.conftest import SUM_LOOP_SOURCE
from tests.support.set_oracle import SetCheckerOracle


def make_checker():
    function = list(compile_source(SUM_LOOP_SOURCE))[0]
    checker = FastLivenessChecker(function)
    checker.prepare()
    return function, checker


class TestQueryPlan:
    def test_plan_matches_defuse_translation(self):
        function, checker = make_checker()
        pre = checker.precomputation
        defuse = checker.defuse
        for var in checker.live_variables():
            plan = checker.plans.plan(var)
            assert plan.def_num == pre.num(defuse.def_block(var))
            assert plan.max_dom == pre.maxnums[plan.def_num]
            expected = {pre.num(use) for use in defuse.use_blocks(var)}
            assert plan.use_mask == sum(1 << num for num in expected)

    def test_has_nonlocal_use(self):
        function, checker = make_checker()
        defuse = checker.defuse
        for var in checker.live_variables():
            plan = checker.plans.plan(var)
            expected = bool(defuse.use_blocks(var) - {defuse.def_block(var)})
            assert plan.has_nonlocal_use == expected

    def test_plans_are_value_objects(self):
        plan = QueryPlan(def_num=2, max_dom=5, use_mask=1 << 3)
        assert plan == QueryPlan(def_num=2, max_dom=5, use_mask=1 << 3)
        assert plan.has_nonlocal_use


class TestPlanCache:
    def test_plans_are_compiled_once(self):
        _, checker = make_checker()
        var = checker.live_variables()[0]
        cache = checker.plans
        first = cache.plan(var)
        builds = cache.builds
        assert cache.plan(var) is first
        assert cache.builds == builds

    def test_discard_recompiles_one_variable(self):
        _, checker = make_checker()
        variables = checker.live_variables()
        cache = checker.plans
        plans = {var: cache.plan(var) for var in variables}
        cache.discard(variables[0])
        assert variables[0] not in cache
        assert variables[1] in cache
        assert cache.plan(variables[1]) is plans[variables[1]]

    def test_invalidate_clears_everything(self):
        _, checker = make_checker()
        cache = checker.plans
        for var in checker.live_variables():
            cache.plan(var)
        assert len(cache) > 0
        cache.invalidate()
        assert len(cache) == 0

    def test_standalone_construction(self):
        function = list(compile_source(SUM_LOOP_SOURCE))[0]
        checker = FastLivenessChecker(function)
        checker.prepare()
        cache = PlanCache(checker.precomputation, DefUseChains(function))
        for var in checker.live_variables():
            assert cache.plan(var) == checker.plans.plan(var)


class TestChainedInvalidation:
    def test_instruction_change_drops_plans(self):
        _, checker = make_checker()
        var = checker.live_variables()[0]
        old_cache = checker.plans
        old_cache.plan(var)
        checker.notify_instructions_changed()
        assert checker.plans is not old_cache

    def test_cfg_change_drops_plans(self):
        _, checker = make_checker()
        old_cache = checker.plans
        checker.notify_cfg_changed()
        assert checker.plans is not old_cache

    def test_variable_change_drops_one_plan(self):
        _, checker = make_checker()
        variables = checker.live_variables()
        cache = checker.plans
        for var in variables:
            cache.plan(var)
        checker.notify_variable_changed(variables[0])
        assert checker.plans is cache
        assert variables[0] not in cache
        assert variables[1] in cache


class TestPlanQueriesAgreeAcrossPaths:
    def test_single_batch_and_set_paths_coincide(self):
        rng = random.Random(20260728)
        for trial in range(15):
            function = random_ssa_function(
                rng,
                num_blocks=rng.randrange(3, 10),
                num_variables=rng.randrange(2, 5),
                name=f"plans_{trial}",
            )
            fast = FastLivenessChecker(function)
            sets = SetCheckerOracle(function)
            blocks = [block.name for block in function]
            for var in fast.live_variables():
                for block in blocks:
                    expected_in = sets.is_live_in(var, block)
                    expected_out = sets.is_live_out(var, block)
                    assert fast.is_live_in(var, block) == expected_in
                    assert fast.batch.is_live_in(var, block) == expected_in
                    assert fast.is_live_out(var, block) == expected_out
                    assert fast.batch.is_live_out(var, block) == expected_out
