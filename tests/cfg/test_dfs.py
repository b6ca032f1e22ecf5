"""Tests for DFS numbering and edge classification (paper Section 2.1 / Figure 1)."""

import random

import pytest

from repro.cfg import ControlFlowGraph, DepthFirstSearch, EdgeKind
from repro.synth import random_cfg
from tests.conftest import build_figure3_cfg
from tests.support.reference_cfg import (
    back_edge_targets,
    classify_edge,
    edge_kinds,
    edge_statistics,
    is_ancestor,
    is_back_edge,
    preorder_number,
    reduced_successors,
)


def simple_loop() -> ControlFlowGraph:
    #   0 -> 1 -> 2 -> 1 (back), 2 -> 3
    return ControlFlowGraph.from_edges(
        [(0, 1), (1, 2), (2, 1), (2, 3)], entry=0
    )


class TestNumbering:
    def test_preorder_starts_at_entry(self):
        dfs = DepthFirstSearch(simple_loop())
        assert dfs.preorder()[0] == 0
        assert preorder_number(dfs, 0) == 0

    def test_preorder_and_postorder_are_permutations(self):
        dfs = DepthFirstSearch(simple_loop())
        assert sorted(dfs.preorder()) == [0, 1, 2, 3]
        assert sorted(dfs.postorder()) == [0, 1, 2, 3]

    def test_reverse_postorder_is_reversed_postorder(self):
        dfs = DepthFirstSearch(simple_loop())
        assert dfs.reverse_postorder() == list(reversed(dfs.postorder()))

    def test_entry_finishes_last(self):
        dfs = DepthFirstSearch(simple_loop())
        assert dfs.postorder()[-1] == 0

    def test_parent_chain_reaches_entry(self):
        dfs = DepthFirstSearch(build_figure3_cfg())
        node = 7
        while dfs.parent(node) is not None:
            node = dfs.parent(node)
        assert node == 1

    def test_is_ancestor(self):
        dfs = DepthFirstSearch(simple_loop())
        assert is_ancestor(dfs, 0, 3)
        assert is_ancestor(dfs, 1, 1)
        assert not is_ancestor(dfs, 3, 1)

    def test_visited(self):
        dfs = DepthFirstSearch(simple_loop())
        assert dfs.visited(2)
        assert not dfs.visited(99)


class TestEdgeClassification:
    def test_tree_and_back_edges_in_simple_loop(self):
        dfs = DepthFirstSearch(simple_loop())
        assert classify_edge(dfs, 0, 1) is EdgeKind.TREE
        assert classify_edge(dfs, 1, 2) is EdgeKind.TREE
        assert classify_edge(dfs, 2, 1) is EdgeKind.BACK
        assert classify_edge(dfs, 2, 3) is EdgeKind.TREE
        assert dfs.back_edges() == [(2, 1)]
        assert back_edge_targets(dfs) == [1]

    def test_forward_edge(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (0, 2)], entry=0)
        dfs = DepthFirstSearch(graph)
        assert classify_edge(dfs, 0, 2) is EdgeKind.FORWARD

    def test_cross_edge(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 1)], entry=0
        )
        dfs = DepthFirstSearch(graph)
        # 4 -> 1 goes to a node in an already-finished subtree.
        assert classify_edge(dfs, 4, 1) is EdgeKind.CROSS

    def test_self_loop_is_back_edge(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 1)], entry=0)
        dfs = DepthFirstSearch(graph)
        assert classify_edge(dfs, 1, 1) is EdgeKind.BACK
        assert back_edge_targets(dfs) == [1]

    def test_unknown_edge_raises(self):
        dfs = DepthFirstSearch(simple_loop())
        with pytest.raises(KeyError):
            classify_edge(dfs, 3, 0)

    def test_figure3_back_edges(self):
        dfs = DepthFirstSearch(build_figure3_cfg())
        targets = {target for _, target in dfs.back_edges()}
        assert targets == {2, 5, 8}

    def test_every_edge_classified(self):
        graph = build_figure3_cfg()
        dfs = DepthFirstSearch(graph)
        assert len(edge_kinds(dfs)) == graph.num_edges()

    def test_edge_statistics_totals(self):
        graph = build_figure3_cfg()
        stats = edge_statistics(DepthFirstSearch(graph))
        assert stats["total"] == graph.num_edges()
        assert sum(stats[k.value] for k in EdgeKind) == stats["total"]

    def test_reduced_successors_drop_back_edges(self):
        graph = simple_loop()
        dfs = DepthFirstSearch(graph)
        reduced = reduced_successors(graph, dfs)
        assert reduced[2] == [3]
        assert reduced[0] == [1]


class TestClassificationProperties:
    """Invariants of the classification on random graphs."""

    def test_back_edge_iff_target_is_dfs_ancestor(self, rng):
        for _ in range(30):
            graph = random_cfg(rng, rng.randrange(3, 25))
            dfs = DepthFirstSearch(graph)
            for source, target in graph.edges():
                kind = classify_edge(dfs, source, target)
                ancestor = is_ancestor(dfs, target, source)
                assert (kind is EdgeKind.BACK) == ancestor, (source, target, kind)

    def test_tree_edges_form_spanning_tree(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 25))
            dfs = DepthFirstSearch(graph)
            tree_edges = [
                edge for edge, kind in edge_kinds(dfs).items() if kind is EdgeKind.TREE
            ]
            # |V| - 1 tree edges, and each non-entry node has exactly one
            # tree-edge parent.
            assert len(tree_edges) == len(graph) - 1
            targets = [target for _, target in tree_edges]
            assert len(set(targets)) == len(targets)
            assert graph.entry not in targets

    def test_forward_and_cross_edges_point_to_finished_nodes(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(3, 25))
            dfs = DepthFirstSearch(graph)
            for (source, target), kind in edge_kinds(dfs).items():
                if kind is EdgeKind.CROSS:
                    # Cross edges always lead to smaller preorder numbers
                    # (the observation behind Theorem 3).
                    assert preorder_number(dfs, target) < preorder_number(dfs, source)
                if kind is EdgeKind.FORWARD:
                    assert preorder_number(dfs, target) > preorder_number(dfs, source)

    def test_reverse_postorder_topologically_orders_reduced_graph(self, rng):
        # Section 5.2: reverse postorder is a topological order of G-tilde.
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 30))
            dfs = DepthFirstSearch(graph)
            position = {node: i for i, node in enumerate(dfs.reverse_postorder())}
            for source, target in graph.edges():
                if not is_back_edge(dfs, source, target):
                    assert position[source] < position[target]


def test_random_seeds_are_deterministic():
    graph = random_cfg(random.Random(7), 12)
    again = random_cfg(random.Random(7), 12)
    assert graph.edges() == again.edges()
