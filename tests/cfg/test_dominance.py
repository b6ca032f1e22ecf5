"""Tests for dominator trees and the dominance-preorder numbering."""

import pytest

from repro.cfg import ControlFlowGraph, DominatorTree
from repro.synth import random_cfg
from tests.conftest import build_figure3_cfg, reference_dominators
from tests.support.reference_dominance import immediate_dominators_lengauer_tarjan


def diamond_with_loop() -> ControlFlowGraph:
    # 0 -> 1 -> {2,3} -> 4 -> 1 (back), 4 -> 5
    return ControlFlowGraph.from_edges(
        [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 1), (4, 5)], entry=0
    )


class TestImmediateDominators:
    def test_entry_has_no_idom(self):
        domtree = DominatorTree(diamond_with_loop())
        assert domtree.immediate_dominator(0) is None

    def test_diamond_join_dominated_by_branch_point(self):
        domtree = DominatorTree(diamond_with_loop())
        assert domtree.immediate_dominator(4) == 1
        assert domtree.immediate_dominator(2) == 1
        assert domtree.immediate_dominator(3) == 1
        assert domtree.immediate_dominator(5) == 4

    def test_children_are_inverse_of_idom(self):
        domtree = DominatorTree(diamond_with_loop())
        for node in domtree:
            for child in domtree.children(node):
                assert domtree.immediate_dominator(child) == node

    def test_as_idom_map(self):
        domtree = DominatorTree(diamond_with_loop())
        mapping = domtree.as_idom_map()
        assert mapping[0] is None
        assert mapping[4] == 1

    def test_figure3_idoms(self):
        domtree = DominatorTree(build_figure3_cfg())
        assert domtree.immediate_dominator(2) == 1
        assert domtree.immediate_dominator(3) == 2
        assert domtree.immediate_dominator(4) == 3
        # 5 and 6 are reachable both through 4 and through the 8/9 side, so
        # their immediate dominator is 3, not 4.
        assert domtree.immediate_dominator(5) == 3
        assert domtree.immediate_dominator(6) == 3
        assert domtree.immediate_dominator(7) == 6
        assert domtree.immediate_dominator(8) == 3
        assert domtree.immediate_dominator(9) == 8
        assert domtree.immediate_dominator(10) == 9
        assert domtree.immediate_dominator(11) == 2

    def test_unreachable_node_rejected(self):
        graph = diamond_with_loop()
        graph.add_node(99)
        with pytest.raises(ValueError):
            DominatorTree(graph)


class TestDominanceQueries:
    def test_dominates_is_reflexive(self):
        domtree = DominatorTree(diamond_with_loop())
        for node in domtree:
            assert domtree.dominates(node, node)
            assert not domtree.strictly_dominates(node, node)

    def test_entry_dominates_everything(self):
        domtree = DominatorTree(build_figure3_cfg())
        for node in domtree:
            assert domtree.dominates(1, node)

    def test_dominated_lists(self):
        domtree = DominatorTree(diamond_with_loop())
        assert set(domtree.dominated(4)) == {4, 5}
        assert set(domtree.strictly_dominated(4)) == {5}
        assert set(domtree.dominated(1)) == {1, 2, 3, 4, 5}

    def test_dominators_of_walks_to_entry(self):
        domtree = DominatorTree(diamond_with_loop())
        assert domtree.dominators_of(5) == [5, 4, 1, 0]

    def test_nearest_common_dominator(self):
        domtree = DominatorTree(diamond_with_loop())
        assert domtree.nearest_common_dominator(2, 3) == 1
        assert domtree.nearest_common_dominator(5, 2) == 1
        assert domtree.nearest_common_dominator(4, 5) == 4
        assert domtree.nearest_common_dominator(3, 3) == 3

    def test_depth(self):
        domtree = DominatorTree(diamond_with_loop())
        assert domtree.depth(0) == 0
        assert domtree.depth(1) == 1
        assert domtree.depth(5) == 3


class TestPreorderNumbering:
    """Section 5.1: dominators get smaller numbers; subtrees are intervals."""

    def test_numbers_are_a_permutation(self):
        domtree = DominatorTree(build_figure3_cfg())
        numbers = sorted(domtree.num(node) for node in domtree)
        assert numbers == list(range(len(domtree)))

    def test_dominator_has_smaller_number(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 30))
            domtree = DominatorTree(graph)
            for x in domtree:
                for y in domtree.strictly_dominated(x):
                    assert domtree.num(x) < domtree.num(y)

    def test_subtree_is_contiguous_interval(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 30))
            domtree = DominatorTree(graph)
            for node in domtree:
                interval = set(range(domtree.num(node), domtree.maxnum(node) + 1))
                subtree = {domtree.num(n) for n in domtree.dominated(node)}
                assert interval == subtree

    def test_interval_test_equals_dominates(self, rng):
        for _ in range(15):
            graph = random_cfg(rng, rng.randrange(2, 20))
            domtree = DominatorTree(graph)
            dom_sets = reference_dominators(graph)
            for x in graph.nodes():
                for y in graph.nodes():
                    assert domtree.dominates(x, y) == (x in dom_sets[y])

    def test_node_of_inverts_num(self):
        domtree = DominatorTree(build_figure3_cfg())
        for node in domtree:
            assert domtree.node_of(domtree.num(node)) == node

    def test_preorder_listing(self):
        domtree = DominatorTree(build_figure3_cfg())
        preorder = domtree.preorder()
        assert preorder[0] == 1
        assert len(preorder) == 11


class TestAgainstReferences:
    def test_matches_textbook_dominator_sets(self, rng):
        for _ in range(25):
            graph = random_cfg(rng, rng.randrange(2, 25))
            domtree = DominatorTree(graph)
            dom_sets = reference_dominators(graph)
            for node in graph.nodes():
                computed = set(domtree.dominators_of(node))
                assert computed == dom_sets[node], node

    def test_matches_lengauer_tarjan(self, rng):
        for _ in range(25):
            graph = random_cfg(rng, rng.randrange(2, 40))
            domtree = DominatorTree(graph)
            lt = immediate_dominators_lengauer_tarjan(graph)
            for node in graph.nodes():
                assert domtree.immediate_dominator(node) == lt[node], node
