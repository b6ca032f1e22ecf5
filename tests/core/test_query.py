"""Tests for the set-based checks (Algorithms 1 and 2) against brute force."""

import random

from repro.cfg import ControlFlowGraph
from repro.core import LivenessPrecomputation
from repro.synth import random_cfg
from tests.conftest import (
    build_figure3_cfg,
    reference_is_live_in,
    reference_is_live_out,
)
from tests.support.set_checker import SetBasedChecker


def make_checker(graph: ControlFlowGraph) -> SetBasedChecker:
    return SetBasedChecker(LivenessPrecomputation(graph))


class TestAlgorithm1KnownCases:
    def test_live_through_simple_loop(self):
        #  0: def v ; 1: loop header ; 2: body uses v ; 3: exit
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 1), (1, 3)], entry=0
        )
        checker = make_checker(graph)
        assert checker.is_live_in(0, {2}, 1)
        assert checker.is_live_in(0, {2}, 2)
        assert not checker.is_live_in(0, {2}, 3)
        assert not checker.is_live_in(0, {2}, 0)

    def test_not_live_outside_dominance_subtree(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 3)], entry=0
        )
        checker = make_checker(graph)
        # def in 1, use in 3: 3 is not strictly dominated by 1.
        assert not checker.is_live_in(1, {3}, 2)
        assert not checker.is_live_in(1, {3}, 3)

    def test_query_at_definition_is_never_live_in(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        checker = make_checker(graph)
        assert not checker.is_live_in(1, {2}, 1)

    def test_use_in_query_block_means_live_in(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        checker = make_checker(graph)
        assert checker.is_live_in(0, {1}, 1)

    def test_empty_uses_never_live(self):
        graph = build_figure3_cfg()
        checker = make_checker(graph)
        for node in graph.nodes():
            assert not checker.is_live_in(1, set(), node)
            assert not checker.is_live_out(1, set(), node)


class TestAlgorithm2KnownCases:
    def test_live_out_at_definition_block(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        checker = make_checker(graph)
        # A use in another block makes the variable live-out at its def block.
        assert checker.is_live_out(0, {2}, 0)
        # Only a use inside the def block itself does not.
        assert not checker.is_live_out(1, {1}, 1)

    def test_live_out_requires_nontrivial_path(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        checker = make_checker(graph)
        # def in 0, only use in 1: not live-out *of* 1 (the path would be trivial).
        assert not checker.is_live_out(0, {1}, 1)

    def test_live_out_with_self_reaching_loop_block(self):
        # Block 1 is a back-edge target: the value used in 1 is still needed
        # when the loop comes back around, so it is live-out of 1.
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 1), (1, 2)], entry=0)
        checker = make_checker(graph)
        assert checker.is_live_out(0, {1}, 1)

    def test_live_out_through_loop(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 1), (1, 3)], entry=0
        )
        checker = make_checker(graph)
        assert checker.is_live_out(0, {2}, 1)
        assert checker.is_live_out(0, {2}, 2)  # around the back edge
        assert not checker.is_live_out(0, {2}, 3)


class TestAgainstBruteForce:
    def _exhaustive_check(self, graph: ControlFlowGraph, rng: random.Random) -> None:
        checker = make_checker(graph)
        pre = checker.precomputation
        nodes = graph.nodes()
        for _ in range(12):
            def_node = rng.choice(nodes)
            num_uses = rng.randrange(0, 4)
            uses = {rng.choice(nodes) for _ in range(num_uses)}
            # Strict SSA: only uses dominated by the definition are legal
            # inputs for the algorithm (Section 2.2), so filter accordingly.
            uses = {u for u in uses if pre.domtree.dominates(def_node, u)}
            for query in nodes:
                expected_in = reference_is_live_in(graph, def_node, uses, query)
                expected_out = reference_is_live_out(graph, def_node, uses, query)
                assert checker.is_live_in(def_node, uses, query) == expected_in, (
                    def_node,
                    sorted(uses, key=str),
                    query,
                )
                assert checker.is_live_out(def_node, uses, query) == expected_out, (
                    def_node,
                    sorted(uses, key=str),
                    query,
                )

    def test_random_graphs_match_path_search(self, rng):
        for _ in range(40):
            graph = random_cfg(rng, rng.randrange(2, 18))
            self._exhaustive_check(graph, rng)

    def test_figure3_matches_path_search(self, rng):
        self._exhaustive_check(build_figure3_cfg(), rng)
