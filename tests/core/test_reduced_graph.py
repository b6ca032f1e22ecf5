"""Tests for reduced reachability (Definition 4)."""

from repro.cfg import ControlFlowGraph, DepthFirstSearch, DominatorTree
from repro.core import ReducedReachability
from repro.synth import random_cfg
from tests.conftest import build_figure3_cfg
from tests.support.reference_cfg import is_back_edge
from tests.support.set_checker import reduced_reachable, row_nodes


def build(graph: ControlFlowGraph) -> tuple[ReducedReachability, DominatorTree, DepthFirstSearch]:
    dfs = DepthFirstSearch(graph)
    domtree = DominatorTree(graph, dfs)
    return ReducedReachability(dfs, domtree), domtree, dfs


def reference_reduced_reachable(graph: ControlFlowGraph, dfs: DepthFirstSearch, start):
    """Brute-force reachability in the graph without back edges."""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ in graph.successors(node):
            if is_back_edge(dfs, node, succ) or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return seen


class TestSimpleGraphs:
    def test_straight_line(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        reach, domtree, _ = build(graph)
        assert set(row_nodes(reach.masks, domtree, 0)) == {0, 1, 2}
        assert set(row_nodes(reach.masks, domtree, 2)) == {2}
        assert reduced_reachable(reach.masks, domtree, 0, 2)
        assert not reduced_reachable(reach.masks, domtree, 2, 0)

    def test_node_always_reaches_itself(self):
        graph = build_figure3_cfg()
        reach, domtree, _ = build(graph)
        for node in graph.nodes():
            assert reduced_reachable(reach.masks, domtree, node, node)

    def test_back_edges_are_excluded(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 1), (2, 3)], entry=0)
        reach, domtree, _ = build(graph)
        # 2 -> 1 is a back edge, so 1 is not reduced-reachable from 2.
        assert not reduced_reachable(reach.masks, domtree, 2, 1)
        assert reduced_reachable(reach.masks, domtree, 1, 3)

    def test_figure3_examples_from_the_paper(self):
        """Section 3.2: use of x at 9 is reduced-reachable from 8, not from 10."""
        reach, domtree, _ = build(build_figure3_cfg())
        assert not reduced_reachable(reach.masks, domtree, 10, 9)
        assert reduced_reachable(reach.masks, domtree, 8, 9)
        # y's use at 5 is not reduced-reachable from 8 (needs the second
        # back edge), but is from 5 itself.
        assert not reduced_reachable(reach.masks, domtree, 8, 5)
        assert reduced_reachable(reach.masks, domtree, 5, 5)
        # w's use at 4 is reduced-reachable from 2 but not from 10.
        assert reduced_reachable(reach.masks, domtree, 2, 4)
        assert not reduced_reachable(reach.masks, domtree, 10, 4)

    def test_bitset_universe_and_storage(self):
        graph = build_figure3_cfg()
        reach, _, _ = build(graph)
        assert len(reach) == len(graph)
        assert reach.storage_bits() == len(graph) * 64  # 11 blocks -> 1 word each


class TestProperties:
    def test_matches_bruteforce_on_random_graphs(self, rng):
        for _ in range(40):
            graph = random_cfg(rng, rng.randrange(2, 30))
            dfs = DepthFirstSearch(graph)
            domtree = DominatorTree(graph, dfs)
            reach = ReducedReachability(dfs, domtree)
            for node in graph.nodes():
                expected = reference_reduced_reachable(graph, dfs, node)
                assert set(row_nodes(reach.masks, domtree, node)) == expected

    def test_reduced_reachability_is_subset_of_reachability(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 25))
            reach, domtree, _ = build(graph)
            for node in graph.nodes():
                assert set(row_nodes(reach.masks, domtree, node)) <= graph.reachable_from(node)

    def test_monotone_along_reduced_edges(self, rng):
        """R_succ ⊆ R_node for every non-back edge (used by the T_q ordering)."""
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 25))
            dfs = DepthFirstSearch(graph)
            domtree = DominatorTree(graph, dfs)
            reach = ReducedReachability(dfs, domtree)
            for source, target in graph.edges():
                if is_back_edge(dfs, source, target):
                    continue
                t, v = domtree.num(target), domtree.num(source)
                assert not reach.masks[t] & ~reach.masks[v]

    def test_entry_reaches_every_node_in_reducible_graphs(self, rng):
        from repro.synth import random_reducible_cfg

        for _ in range(15):
            graph = random_reducible_cfg(rng, rng.randrange(2, 25))
            reach, domtree, _ = build(graph)
            assert set(row_nodes(reach.masks, domtree, graph.entry)) == set(graph.nodes())
