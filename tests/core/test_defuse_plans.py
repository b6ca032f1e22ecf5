"""Edge cases of the one-pass def–use build and the plan compile.

:class:`~repro.ssa.defuse.DefUseChains` builds in a single program-order
pass and :meth:`~repro.core.plans.PlanCache.plan` ORs one bit per use
straight from the chain.  These tests pin the cases that pass has to get
right: a ``ParallelCopy`` defining several variables, φ operands
attributed to their predecessor (also when the predecessor comes after
the φ in block order), both strictness errors, and plans recompiled after
incremental chain edits, which must equal a fresh build.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FastLivenessChecker, PlanCache
from repro.core.invalidation import TransformationSession
from repro.ir import parse_function
from repro.ir.instruction import Phi
from repro.ir.value import Variable
from repro.ssa.defuse import DefUseChains
from tests.support.genfn import fuzz_function

PARCOPY_LOOP = """
function f(n) {
entry:
  zero = const 0
  one = const 1
  jump header
header:
  i = phi [zero : entry] [i2 : latch]
  s = phi [one : entry] [s2 : latch]
  cond = binop.cmplt i, n
  branch cond, body, exit
body:
  t = binop.add i, s
  jump latch
latch:
  parcopy i2 <- t, s2 <- i
  jump header
exit:
  return s
}
"""


def reference_uses(function) -> dict:
    """``var -> use blocks`` read straight off the IR (Definition 1)."""
    uses: dict = {}
    for block in function:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                pairs = list(inst.incoming.items())
            else:
                pairs = [(block.name, value) for value in inst.operands]
            for use_block, value in pairs:
                if isinstance(value, Variable):
                    uses.setdefault(value, []).append(use_block)
    return uses


class TestParallelCopy:
    def test_every_destination_is_defined_in_the_copy_block(self):
        function = parse_function(PARCOPY_LOOP)
        chains = DefUseChains(function)
        var = function.variable_by_name
        assert chains.def_block(var("i2")) == "latch"
        assert chains.def_block(var("s2")) == "latch"
        # The sources are read in the copy's own block.
        assert chains.uses(var("t")) == ["latch"]
        assert "latch" in chains.use_blocks(var("i"))

    def test_destinations_keep_program_order(self):
        function = parse_function(PARCOPY_LOOP)
        names = [v.name for v in DefUseChains(function).variables()]
        assert names.index("i2") < names.index("s2")
        assert names.index("t") < names.index("i2")

    def test_copy_redefining_a_variable_is_rejected(self):
        function = parse_function(PARCOPY_LOOP.replace("s2 <- i", "t <- i"))
        with pytest.raises(ValueError, match="defined more than once"):
            DefUseChains(function)

    def test_plans_of_copy_destinations(self):
        function = parse_function(PARCOPY_LOOP)
        checker = FastLivenessChecker(function)
        pre = checker.precomputation
        plan = checker.plans.plan(function.variable_by_name("s2"))
        assert plan.def_num == pre.num("latch")
        # s2 is a φ operand from latch: used at the end of latch itself.
        assert plan.use_mask == 1 << pre.num("latch")
        assert not plan.has_nonlocal_use


class TestPhiAttribution:
    def test_phi_operands_use_the_predecessor_not_the_phi_block(self):
        function = parse_function(PARCOPY_LOOP)
        chains = DefUseChains(function)
        var = function.variable_by_name
        assert chains.uses(var("zero")) == ["entry"]
        assert chains.uses(var("one")) == ["entry"]
        # i2 is defined after its φ use in block order (a back edge).
        assert chains.uses(var("i2")) == ["latch"]
        assert "header" not in chains.use_blocks(var("s2"))

    def test_plan_use_mask_carries_the_predecessor_bit(self):
        function = parse_function(PARCOPY_LOOP)
        checker = FastLivenessChecker(function)
        pre = checker.precomputation
        plan = checker.plans.plan(function.variable_by_name("zero"))
        assert plan.use_mask == 1 << pre.num("entry")
        # zero is not live into the loop header: its only use is the φ
        # operand, consumed on the entry -> header edge.
        assert not checker.is_live_in(function.variable_by_name("zero"), "header")

    def test_same_variable_from_two_predecessors(self):
        function = parse_function(
            """
            function g(a) {
            entry:
              branch a, left, right
            left:
              jump join
            right:
              jump join
            join:
              x = phi [a : left] [a : right]
              return x
            }
            """
        )
        chains = DefUseChains(function)
        a = function.variable_by_name("a")
        assert chains.uses(a) == ["entry", "left", "right"]
        assert chains.use_blocks(a) == {"entry", "left", "right"}

    @pytest.mark.parametrize("index", range(0, 60, 3))
    def test_uses_match_the_ir_on_the_fuzz_corpus(self, index):
        function = fuzz_function(index, base_seed=11)
        chains = DefUseChains(function)
        expected = reference_uses(function)
        assert chains.variables() == [
            var for block in function for inst in block.instructions
            for var in inst.defined_variables()
        ]
        for var in chains.variables():
            assert chains.uses(var) == expected.get(var, []), var.name


class TestStrictnessErrors:
    def test_phi_operand_without_definition(self):
        text = PARCOPY_LOOP.replace("[i2 : latch]", "[ghost : latch]")
        with pytest.raises(ValueError, match="'ghost' without a definition"):
            DefUseChains(parse_function(text))

    def test_duplicate_definition_wins_over_undefined_use(self):
        # Both faults present: the definition check runs during the pass,
        # the use check only after it, so the duplicate is reported.
        text = PARCOPY_LOOP.replace("[i2 : latch]", "[ghost : latch]").replace(
            "t = binop.add i, s", "one = binop.add i, s"
        ).replace("parcopy i2 <- t", "parcopy i2 <- one")
        with pytest.raises(ValueError, match="'one' defined more than once"):
            DefUseChains(parse_function(text))


def fresh_plans(checker: FastLivenessChecker, function) -> PlanCache:
    return PlanCache(checker.precomputation, DefUseChains(function))


class TestIncrementalRecompile:
    @pytest.mark.parametrize("seed", range(12))
    def test_session_edits_recompile_to_a_fresh_build(self, seed):
        rng = random.Random(seed)
        function = fuzz_function(seed * 7 + 1, base_seed=13)
        session = TransformationSession(function, track_dataflow=False)
        checker = session.checker
        blocks = [block.name for block in function]
        for _ in range(12):
            variables = [
                var for var in session.defuse.variables()
                if var.definition is not None
            ]
            for var in variables:
                checker.plans.plan(var)  # warm every plan before the edit
            var = rng.choice(variables)
            def_block = session.defuse.def_block(var)
            dominated = [
                block for block in blocks
                if checker.precomputation.domtree.dominates(def_block, block)
            ]
            roll = rng.random()
            if roll < 0.4:
                session.add_use(var, rng.choice(dominated))
            elif roll < 0.7:
                session.insert_copy(rng.choice(dominated), var)
            else:
                stores = [
                    inst for block in function for inst in block.instructions
                    if inst.opcode == "store"
                ]
                if not stores:
                    continue
                session.remove_instruction(rng.choice(stores))
            fresh = fresh_plans(checker, function)
            assert checker.plans.builds > 0
            for other in session.defuse.variables():
                assert checker.plans.plan(other) == fresh.plan(other), other.name
                assert sorted(session.defuse.uses(other)) == sorted(
                    fresh.defuse.uses(other)
                )

    def test_add_then_remove_use_restores_the_plan(self):
        function = parse_function(PARCOPY_LOOP)
        checker = FastLivenessChecker(function)
        defuse = checker.defuse
        zero = function.variable_by_name("zero")
        before = checker.plans.plan(zero)
        defuse.add_use(zero, "exit")
        checker.notify_variable_changed(zero)
        grown = checker.plans.plan(zero)
        pre = checker.precomputation
        assert grown.use_mask == before.use_mask | 1 << pre.num("exit")
        defuse.remove_use(zero, "exit")
        checker.notify_variable_changed(zero)
        assert checker.plans.plan(zero) == before
