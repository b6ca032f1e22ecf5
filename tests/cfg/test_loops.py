"""Tests for the loop nesting forest."""

from repro.cfg import ControlFlowGraph, DominatorTree
from repro.cfg.dfs import DepthFirstSearch
from repro.synth import random_reducible_cfg
from tests.conftest import build_figure3_cfg
from tests.support.loops import LoopNestingForest
from tests.support.reference_cfg import back_edge_targets


def nested_loops() -> ControlFlowGraph:
    # outer: 1..5, inner: 2..3
    return ControlFlowGraph.from_edges(
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 2),  # inner back edge
            (3, 4),
            (4, 1),  # outer back edge
            (4, 5),
        ],
        entry=0,
    )


class TestStructuredLoops:
    def test_no_loops_in_acyclic_graph(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], entry=0)
        forest = LoopNestingForest(graph)
        assert forest.loops() == []
        assert forest.innermost_loop(3) is None
        assert forest.loop_depth(1) == 0

    def test_single_loop(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 1), (2, 3)], entry=0)
        forest = LoopNestingForest(graph)
        loops = forest.loops()
        assert len(loops) == 1
        assert loops[0].header == 1
        assert loops[0].body == {1, 2}
        assert forest.is_loop_header(1)
        assert not forest.is_loop_header(2)
        assert forest.loop_depth(2) == 1
        assert forest.loop_depth(3) == 0

    def test_self_loop(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 1), (1, 2)], entry=0)
        forest = LoopNestingForest(graph)
        assert len(forest.loops()) == 1
        assert forest.loops()[0].body == {1}

    def test_nested_loops_structure(self):
        forest = LoopNestingForest(nested_loops())
        loops = forest.loops()
        assert len(loops) == 2
        outer = forest.loop_with_header(1)
        inner = forest.loop_with_header(2)
        assert outer is not None and inner is not None
        assert inner.parent is outer
        assert inner in outer.children
        assert outer.depth == 1 and inner.depth == 2
        assert outer.body == {1, 2, 3, 4}
        assert inner.body == {2, 3}
        assert forest.innermost_loop(3) is inner
        assert forest.innermost_loop(4) is outer
        assert forest.enclosing_headers(3) == [2, 1]
        assert forest.loop_depth(3) == 2

    def test_figure3_loops(self):
        forest = LoopNestingForest(build_figure3_cfg())
        headers = set(forest.headers())
        # Back-edge targets 2, 5 and 8 head the loops of the example CFG.
        assert headers == {2, 5, 8}

    def test_roots_and_membership_operator(self):
        forest = LoopNestingForest(nested_loops())
        assert len(forest.roots()) == 1
        outer = forest.roots()[0]
        assert 3 in outer and 5 not in outer


class TestForestProperties:
    def test_headers_are_back_edge_targets_on_reducible_cfgs(self, rng):
        for _ in range(25):
            graph = random_reducible_cfg(rng, rng.randrange(3, 30))
            dfs = DepthFirstSearch(graph)
            forest = LoopNestingForest(graph, dfs)
            assert set(forest.headers()) == set(back_edge_targets(dfs))

    def test_header_dominates_loop_body_on_reducible_cfgs(self, rng):
        for _ in range(25):
            graph = random_reducible_cfg(rng, rng.randrange(3, 30))
            domtree = DominatorTree(graph)
            forest = LoopNestingForest(graph)
            for loop in forest.loops():
                for node in loop.body:
                    assert domtree.dominates(loop.header, node)

    def test_loop_bodies_nest_properly(self, rng):
        for _ in range(25):
            graph = random_reducible_cfg(rng, rng.randrange(3, 30))
            forest = LoopNestingForest(graph)
            for loop in forest.loops():
                for child in loop.children:
                    assert child.body < loop.body
                    assert child.depth == loop.depth + 1

    def test_innermost_loop_is_smallest_containing_loop(self, rng):
        for _ in range(15):
            graph = random_reducible_cfg(rng, rng.randrange(3, 25))
            forest = LoopNestingForest(graph)
            for node in graph.nodes():
                innermost = forest.innermost_loop(node)
                containing = [loop for loop in forest.loops() if node in loop.body]
                if not containing:
                    assert innermost is None
                else:
                    smallest = min(containing, key=lambda loop: len(loop.body))
                    assert innermost is not None
                    assert innermost.body == smallest.body

    def test_natural_loop_bodies_on_reducible_cfgs(self, rng):
        """Each loop equals the union of natural loops of its header's back edges."""
        for _ in range(15):
            graph = random_reducible_cfg(rng, rng.randrange(3, 25))
            dfs = DepthFirstSearch(graph)
            forest = LoopNestingForest(graph, dfs)
            for loop in forest.loops():
                natural: set = {loop.header}
                for source, target in dfs.back_edges():
                    if target != loop.header:
                        continue
                    stack = [source]
                    while stack:
                        node = stack.pop()
                        if node in natural:
                            continue
                        natural.add(node)
                        stack.extend(graph.predecessors(node))
                assert loop.body == natural

    def test_irreducible_graph_still_produces_a_forest(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3)], entry=0
        )
        forest = LoopNestingForest(graph)
        assert len(forest.loops()) == 1
        assert forest.loops()[0].body == {1, 2}
