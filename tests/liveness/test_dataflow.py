"""Tests for the conventional data-flow liveness baseline."""

import pytest

from repro.frontend import compile_source
from repro.ir import parse_function
from repro.liveness import DataflowLiveness
from repro.ssadestruct import phi_related_variables
from repro.synth import random_ssa_function
from tests.conftest import GCD_SOURCE, NESTED_SOURCE, SUM_LOOP_SOURCE
from tests.support.ssa_liveness import PathExplorationLiveness


@pytest.fixture
def loop_function():
    return parse_function(
        """
        function f(n) {
        entry:
          zero = const 0
          jump header
        header:
          i = phi [zero : entry] [next : body]
          cond = binop.cmplt i, n
          branch cond, body, exit
        body:
          next = binop.add i, n
          jump header
        exit:
          return i
        }
        """
    )


class TestKnownAnswers:
    def test_loop_carried_value(self, loop_function):
        engine = DataflowLiveness(loop_function)
        i = loop_function.variable_by_name("i")
        n = loop_function.variable_by_name("n")
        next_var = loop_function.variable_by_name("next")
        zero = loop_function.variable_by_name("zero")

        assert engine.is_live_in(i, "body")
        assert engine.is_live_in(i, "exit")
        assert not engine.is_live_in(i, "entry")
        assert not engine.is_live_in(i, "header")  # defined by the φ there

        assert engine.is_live_out(n, "entry")
        assert engine.is_live_in(n, "header")

        # next is used only by the φ, i.e. at the end of body.
        assert engine.is_live_in(next_var, "body") is False  # defined there
        assert engine.is_live_out(next_var, "body") is False
        assert not engine.is_live_in(next_var, "header")

        # zero dies on the edge into the φ.
        assert engine.is_live_out(zero, "entry") is False
        assert engine.is_live_in(zero, "header") is False

    def test_phi_result_not_live_at_definition_block(self):
        function = list(compile_source(SUM_LOOP_SOURCE))[0]
        engine = DataflowLiveness(function)
        for phi in function.phis():
            assert not engine.is_live_in(phi.result, phi.block.name)

    def test_unknown_variable_raises(self, loop_function):
        from repro.ir import Variable

        engine = DataflowLiveness(loop_function)
        engine.prepare()
        with pytest.raises(KeyError):
            engine.is_live_in(Variable("ghost"), "entry")

    def test_restricted_universe(self):
        function = list(compile_source(NESTED_SOURCE))[0]
        subset = phi_related_variables(function)
        engine = DataflowLiveness(function, variables=subset)
        full = DataflowLiveness(function)
        for var in subset:
            for block in function.blocks:
                assert engine.is_live_in(var, block) == full.is_live_in(var, block)
        assert set(engine.live_variables()) == set(subset)

    def test_average_live_in_size_and_storage(self):
        function = list(compile_source(NESTED_SOURCE))[0]
        engine = DataflowLiveness(function)
        assert engine.average_live_in_size() > 0
        assert engine.storage_bits() > 0
        restricted = DataflowLiveness(function, variables=phi_related_variables(function))
        assert restricted.average_live_in_size() <= engine.average_live_in_size()

    def test_invalidate_forces_recompute(self, loop_function):
        engine = DataflowLiveness(loop_function)
        engine.prepare()
        first_iterations = engine.iterations
        engine.invalidate()
        engine.prepare()
        assert engine.iterations == first_iterations
        assert engine.set_insertions > 0

    def test_live_sets_projection(self):
        function = list(compile_source(GCD_SOURCE))[0]
        engine = DataflowLiveness(function)
        sets = engine.live_sets()
        subset = set(phi_related_variables(function))
        projected = sets.restricted_to(subset)
        for block, values in projected.live_in.items():
            assert values <= subset
            assert values <= sets.live_in[block]
        assert sets.average_live_in_size() >= projected.average_live_in_size()


class TestAgainstReference:
    def test_matches_path_exploration_on_random_functions(self, rng):
        for _ in range(20):
            function = random_ssa_function(rng, num_blocks=rng.randrange(3, 14))
            dataflow = DataflowLiveness(function)
            reference = PathExplorationLiveness(function)
            for var in reference.live_variables():
                for block in function.blocks:
                    assert dataflow.is_live_in(var, block) == reference.is_live_in(
                        var, block
                    ), (var.name, block)
                    assert dataflow.is_live_out(var, block) == reference.is_live_out(
                        var, block
                    ), (var.name, block)

    def test_live_sets_match_reference_sets(self, rng):
        for _ in range(10):
            function = random_ssa_function(rng, num_blocks=10)
            assert DataflowLiveness(function).live_sets() == (
                PathExplorationLiveness(function).live_sets()
            )
