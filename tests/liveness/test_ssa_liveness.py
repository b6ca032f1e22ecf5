"""Tests for the per-variable path-exploration liveness engine."""

import pytest

from repro.frontend import compile_source
from repro.ir import parse_function
from repro.ssa import DefUseChains
from tests.conftest import SUM_LOOP_SOURCE
from tests.support.ssa_liveness import PathExplorationLiveness


@pytest.fixture
def diamond_function():
    return parse_function(
        """
        function f(p) {
        entry:
          a = binop.add p, p
          branch p, left, right
        left:
          b = binop.mul a, a
          jump join
        right:
          jump join
        join:
          m = phi [b : left] [a : right]
          return m
        }
        """
    )


class TestLiveInBlocks:
    def test_live_in_blocks_of_diamond(self, diamond_function):
        engine = PathExplorationLiveness(diamond_function)
        a = diamond_function.variable_by_name("a")
        b = diamond_function.variable_by_name("b")
        m = diamond_function.variable_by_name("m")
        # a is used in left (operand) and at the end of right (φ use).
        assert engine.live_in_blocks(a) == {"left", "right"}
        # b's only use is the φ operand at the end of its own definition
        # block, so it is live-in nowhere.
        assert engine.live_in_blocks(b) == frozenset()
        # m is defined and used inside join only.
        assert engine.live_in_blocks(m) == frozenset()

    def test_def_block_never_live_in(self, diamond_function):
        engine = PathExplorationLiveness(diamond_function)
        defuse = DefUseChains(diamond_function)
        for var in engine.live_variables():
            assert not engine.is_live_in(var, defuse.def_block(var))

    def test_caching_and_invalidation(self, diamond_function):
        engine = PathExplorationLiveness(diamond_function)
        a = diamond_function.variable_by_name("a")
        first = engine.live_in_blocks(a)
        assert engine.live_in_blocks(a) is first  # cached
        engine.invalidate_variable(a)
        assert engine.live_in_blocks(a) is not first
        assert engine.live_in_blocks(a) == first

    def test_unknown_variable_raises(self, diamond_function):
        from repro.ir import Variable

        engine = PathExplorationLiveness(diamond_function)
        with pytest.raises(KeyError):
            engine.live_in_blocks(Variable("ghost"))

    def test_live_out_is_successor_live_in(self):
        function = list(compile_source(SUM_LOOP_SOURCE))[0]
        engine = PathExplorationLiveness(function)
        cfg = function.build_cfg()
        for var in engine.live_variables():
            for block in function.blocks:
                expected = any(
                    engine.is_live_in(var, succ) for succ in cfg.successors(block)
                )
                assert engine.is_live_out(var, block) == expected

    def test_live_sets_cover_all_blocks(self, diamond_function):
        sets = PathExplorationLiveness(diamond_function).live_sets()
        assert set(sets.live_in) == set(diamond_function.blocks)
        assert set(sets.live_out) == set(diamond_function.blocks)
