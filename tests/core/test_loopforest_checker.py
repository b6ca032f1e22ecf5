"""Tests for the loop-nesting-forest variant (Section 8 outlook)."""

import pytest

from repro.cfg import ControlFlowGraph
from repro.core import LivenessPrecomputation
from repro.synth import random_reducible_cfg
from tests.conftest import build_figure3_cfg, reference_is_live_in, reference_is_live_out
from tests.support.loopforest import LoopForestChecker
from tests.support.set_checker import SetBasedChecker


class TestApplicability:
    def test_rejects_irreducible_cfgs(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        with pytest.raises(ValueError, match="reducible"):
            LoopForestChecker(pre)

    def test_accepts_reducible_cfgs(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 1), (2, 3)], entry=0)
        checker = LoopForestChecker(LivenessPrecomputation(graph))
        assert checker.forest.is_loop_header(1)


class TestKnownCases:
    def simple_loop_checker(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 1), (1, 3)], entry=0
        )
        return LoopForestChecker(LivenessPrecomputation(graph))

    def test_live_through_loop(self):
        checker = self.simple_loop_checker()
        assert checker.is_live_in(0, {2}, 1)
        assert checker.is_live_in(0, {2}, 2)
        assert not checker.is_live_in(0, {2}, 3)

    def test_live_out_through_loop(self):
        checker = self.simple_loop_checker()
        assert checker.is_live_out(0, {2}, 2)
        assert checker.is_live_out(0, {2}, 1)
        assert not checker.is_live_out(0, {2}, 3)
        assert checker.is_live_out(0, {2}, 0)

    def test_live_out_at_def_block(self):
        checker = self.simple_loop_checker()
        assert not checker.is_live_out(0, {0}, 0)
        assert checker.is_live_out(0, {0, 2}, 0)


class TestEquivalenceWithMainChecker:
    def test_matches_t_set_checker_on_random_reducible_graphs(self, rng):
        for _ in range(40):
            graph = random_reducible_cfg(rng, rng.randrange(2, 25))
            pre = LivenessPrecomputation(graph)
            forest_checker = LoopForestChecker(pre)
            set_checker = SetBasedChecker(pre)
            nodes = graph.nodes()
            for _ in range(10):
                def_node = rng.choice(nodes)
                uses = {
                    u
                    for u in (rng.choice(nodes) for _ in range(3))
                    if pre.domtree.dominates(def_node, u)
                }
                for query in nodes:
                    assert forest_checker.is_live_in(def_node, uses, query) == (
                        set_checker.is_live_in(def_node, uses, query)
                    ), (def_node, sorted(uses, key=str), query)
                    assert forest_checker.is_live_out(def_node, uses, query) == (
                        set_checker.is_live_out(def_node, uses, query)
                    ), (def_node, sorted(uses, key=str), query)

    def test_matches_brute_force_on_random_reducible_graphs(self, rng):
        for _ in range(20):
            graph = random_reducible_cfg(rng, rng.randrange(2, 20))
            pre = LivenessPrecomputation(graph)
            checker = LoopForestChecker(pre)
            nodes = graph.nodes()
            for _ in range(6):
                def_node = rng.choice(nodes)
                uses = {
                    u
                    for u in (rng.choice(nodes) for _ in range(3))
                    if pre.domtree.dominates(def_node, u)
                }
                for query in nodes:
                    assert checker.is_live_in(def_node, uses, query) == (
                        reference_is_live_in(graph, def_node, uses, query)
                    )
                    assert checker.is_live_out(def_node, uses, query) == (
                        reference_is_live_out(graph, def_node, uses, query)
                    )
