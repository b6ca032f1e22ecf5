"""Differential tests for the function-level FastLivenessChecker.

This is the library's central correctness argument: on hand-written
programs, front-end-generated programs and random SSA functions (reducible
and irreducible), the checker must agree query-for-query with two
independent conventional engines — the data-flow baseline and the
path-exploration reference.
"""

import pytest

from repro.core import FastLivenessChecker
from repro.frontend import compile_source
from repro.liveness import CountingOracle, DataflowLiveness
from repro.synth import random_ssa_function
from tests.conftest import GCD_SOURCE, NESTED_SOURCE, SUM_LOOP_SOURCE
from tests.support.set_oracle import SetCheckerOracle
from tests.support.ssa_liveness import PathExplorationLiveness


def assert_engines_agree(function, subset=None):
    checker = FastLivenessChecker(function)
    dataflow = DataflowLiveness(function, variables=subset)
    reference = PathExplorationLiveness(function)
    for engine in (checker, dataflow, reference):
        engine.prepare()
    variables = subset if subset is not None else checker.live_variables()
    blocks = list(function.blocks)
    for var in variables:
        for block in blocks:
            expected_in = reference.is_live_in(var, block)
            expected_out = reference.is_live_out(var, block)
            assert checker.is_live_in(var, block) == expected_in, (var.name, block)
            assert dataflow.is_live_in(var, block) == expected_in, (var.name, block)
            assert checker.is_live_out(var, block) == expected_out, (var.name, block)
            assert dataflow.is_live_out(var, block) == expected_out, (var.name, block)


class TestHandWrittenPrograms:
    @pytest.mark.parametrize(
        "source", [GCD_SOURCE, SUM_LOOP_SOURCE, NESTED_SOURCE], ids=["gcd", "sum", "nested"]
    )
    def test_engines_agree(self, source):
        function = list(compile_source(source))[0]
        assert_engines_agree(function)

    def test_loop_variable_liveness_in_sum(self, sum_function):
        checker = FastLivenessChecker(sum_function)
        checker.prepare()
        # The φ-defined accumulator is live-in at the loop header's body and
        # at the exit (it is returned), but not at the entry block.
        header = next(
            block.name for block in sum_function if block.phis()
        )
        phi_vars = [phi.result for phi in sum_function.block(header).phis()]
        assert phi_vars
        entry = sum_function.entry.name
        for var in phi_vars:
            assert not checker.is_live_in(var, entry)

    def test_def_block_is_never_live_in(self, gcd_function):
        checker = FastLivenessChecker(gcd_function)
        for var in checker.live_variables():
            def_block = checker.defuse.def_block(var)
            assert not checker.is_live_in(var, def_block)

    def test_live_out_matches_successor_live_in(self, nested_function):
        """Definition 3 holds for the checker's own answers."""
        checker = FastLivenessChecker(nested_function)
        cfg = nested_function.build_cfg()
        for var in checker.live_variables():
            for block in nested_function.blocks:
                expected = any(
                    checker.is_live_in(var, succ) for succ in cfg.successors(block)
                )
                assert checker.is_live_out(var, block) == expected


class TestRandomFunctions:
    def test_engines_agree_on_random_reducible_functions(self, rng):
        for _ in range(15):
            function = random_ssa_function(
                rng,
                num_blocks=rng.randrange(3, 15),
                num_variables=rng.randrange(2, 6),
                allow_irreducible=False,
            )
            assert_engines_agree(function)

    def test_engines_agree_on_random_irreducible_functions(self, rng):
        for _ in range(15):
            function = random_ssa_function(
                rng,
                num_blocks=rng.randrange(4, 15),
                num_variables=rng.randrange(2, 6),
                allow_irreducible=True,
            )
            assert_engines_agree(function)

    def test_set_based_and_bitset_configurations_agree(self, rng):
        for _ in range(8):
            function = random_ssa_function(rng, num_blocks=10)
            with_bitsets = FastLivenessChecker(function)
            without_bitsets = SetCheckerOracle(function)
            for var in with_bitsets.live_variables():
                for block in function.blocks:
                    assert with_bitsets.is_live_in(var, block) == without_bitsets.is_live_in(var, block)
                    assert with_bitsets.is_live_out(var, block) == without_bitsets.is_live_out(var, block)



class TestLiveSetsEnumeration:
    def test_live_sets_match_dataflow_sets(self, nested_function):
        checker = FastLivenessChecker(nested_function)
        dataflow = DataflowLiveness(nested_function)
        assert checker.live_sets() == dataflow.live_sets()

    def test_live_sets_restricted_to_subset(self, gcd_function):
        checker = FastLivenessChecker(gcd_function)
        phis = [phi.result for phi in gcd_function.phis()]
        restricted = checker.live_sets(variables=phis)
        for block_vars in restricted.live_in.values():
            assert block_vars <= set(phis)


class TestOracleInterface:
    def test_unknown_variable_raises_in_dataflow(self, gcd_function):
        from repro.ir.value import Variable

        dataflow = DataflowLiveness(gcd_function)
        dataflow.prepare()
        with pytest.raises(KeyError):
            dataflow.is_live_in(Variable("ghost"), gcd_function.entry.name)

    def test_counting_oracle_counts(self, gcd_function):
        counter = CountingOracle(FastLivenessChecker(gcd_function))
        counter.prepare()
        var = counter.live_variables()[0]
        counter.is_live_in(var, gcd_function.entry.name)
        counter.is_live_out(var, gcd_function.entry.name)
        counter.is_live_out(var, gcd_function.entry.name)
        assert counter.live_in_queries == 1
        assert counter.live_out_queries == 2
        assert counter.total_queries == 3
        assert counter.prepare_calls == 1
        counter.reset_counters()
        assert counter.total_queries == 0

    def test_notify_instructions_changed_refreshes_defuse(self, sum_function):
        checker = FastLivenessChecker(sum_function)
        checker.prepare()
        old_defuse = checker.defuse
        checker.notify_instructions_changed()
        assert checker.defuse is not old_defuse

    def test_notify_cfg_changed_rebuilds_precomputation(self, sum_function):
        checker = FastLivenessChecker(sum_function)
        checker.prepare()
        old_pre = checker.precomputation
        checker.notify_cfg_changed()
        assert checker.precomputation is not old_pre


class TestRestoredCheckerEdits:
    """Regression: edit notifications on a snapshot-restored checker that
    has never prepared (plans and batch engine are still ``None``)."""

    def restored_checker(self, function):
        from repro.persist.precomp import (
            RestoredPrecomputation,
            export_precomputation,
        )

        warm = FastLivenessChecker(function)
        warm.prepare()
        state = export_precomputation(function.name, warm.precomputation)
        return FastLivenessChecker.from_precomputation(
            function, RestoredPrecomputation(state)
        )

    def test_variable_edit_before_first_query(self, sum_function):
        checker = self.restored_checker(sum_function)
        assert checker.is_restored
        for var in sum_function.variables():
            checker.notify_variable_changed(var)  # must not touch plans
        reference = FastLivenessChecker(sum_function)
        reference.prepare()
        for var in reference.live_variables():
            for block in sum_function.blocks:
                assert checker.is_live_in(var, block) == reference.is_live_in(
                    var, block
                )
                assert checker.is_live_out(var, block) == reference.is_live_out(
                    var, block
                )

    def test_instruction_edit_before_first_query(self, sum_function):
        checker = self.restored_checker(sum_function)
        checker.notify_instructions_changed()
        reference = FastLivenessChecker(sum_function)
        reference.prepare()
        var = reference.live_variables()[0]
        block = next(iter(sum_function.blocks))
        assert checker.is_live_in(var, block) == reference.is_live_in(var, block)

    def test_cfg_delta_on_restored_shim_falls_back(self, sum_function):
        from repro.core.incremental import CfgDelta

        checker = self.restored_checker(sum_function)
        result = checker.notify_cfg_changed(CfgDelta.edge_added("a", "b"))
        assert not result.applied and result.reason == "restored"
        # The shim was dropped; the next query rebuilds from the IR.
        reference = FastLivenessChecker(sum_function)
        reference.prepare()
        var = reference.live_variables()[0]
        block = next(iter(sum_function.blocks))
        assert checker.is_live_in(var, block) == reference.is_live_in(var, block)
        assert not checker.is_restored


class TestLiveSetsBatchRouting:
    """Regression: ``live_sets`` runs one joint batch sweep per variable,
    not O(vars × blocks) independent Algorithm-3 queries — and the two
    must agree exactly (as must the non-bitset engine's exhaustive path)."""

    def test_batch_route_matches_exhaustive_queries(self):
        from tests.support.genfn import fuzz_function

        for index in (0, 5, 9, 14):
            function = fuzz_function(index)
            checker = FastLivenessChecker(function)
            checker.prepare()
            sets = checker.live_sets()
            blocks = list(function.blocks)
            for var in checker.live_variables():
                for block in blocks:
                    assert (var in sets.live_in[block]) == checker.is_live_in(
                        var, block
                    ), f"live-in({var.name}, {block}) fuzz {index}"
                    assert (var in sets.live_out[block]) == checker.is_live_out(
                        var, block
                    ), f"live-out({var.name}, {block}) fuzz {index}"

    def test_bitset_and_set_engines_produce_identical_sets(self):
        from tests.support.genfn import fuzz_function

        for index in (1, 6, 12):
            function = fuzz_function(index)
            fast = FastLivenessChecker(function)
            fast.prepare()
            sets_engine = SetCheckerOracle(function)
            sets_engine.prepare()
            a = fast.live_sets()
            b = sets_engine.live_sets()
            assert a.live_in == b.live_in, f"fuzz {index}"
            assert a.live_out == b.live_out, f"fuzz {index}"

    def test_live_sets_of_selected_variables_only(self, sum_function):
        checker = FastLivenessChecker(sum_function)
        checker.prepare()
        tracked = checker.live_variables()[:2]
        sets = checker.live_sets(tracked)
        for block, members in sets.live_in.items():
            assert members <= set(tracked)
