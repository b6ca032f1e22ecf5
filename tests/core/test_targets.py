"""Tests for the T_v sets (Definition 5, Equation 1, Theorem 3, Lemma 3)."""

from repro.cfg import ControlFlowGraph, DepthFirstSearch, DominatorTree
from repro.core import LivenessPrecomputation, ReducedReachability, TargetSets
from repro.synth import random_cfg, random_reducible_cfg
from tests.conftest import build_figure3_cfg
from tests.support.reference_cfg import preorder_number
from tests.support.set_checker import relevant_targets, row_nodes, t_up


def build(graph: ControlFlowGraph) -> tuple[TargetSets, DominatorTree]:
    dfs = DepthFirstSearch(graph)
    domtree = DominatorTree(graph, dfs)
    reach = ReducedReachability(dfs, domtree)
    return TargetSets(dfs, domtree, reach), domtree


def reference_t_set(graph: ControlFlowGraph, query) -> set:
    """Definition 5 computed literally as a fixpoint of T↑ steps."""
    dfs = DepthFirstSearch(graph)
    domtree = DominatorTree(graph, dfs)
    reach = ReducedReachability(dfs, domtree)
    result = {query}
    frontier = {query}
    while frontier:
        new = set()
        for node in frontier:
            new.update(t_up(dfs, domtree, reach.masks, node))
        frontier = new - result
        result |= new
    return result


class TestExactConstruction:
    def test_acyclic_graph_has_trivial_t_sets(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3)], entry=0)
        targets, domtree = build(graph)
        for node in graph.nodes():
            assert row_nodes(targets.masks, domtree, node) == [node]

    def test_simple_loop(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 1), (2, 3)], entry=0)
        targets, domtree = build(graph)
        # From inside the loop the header (target of the back edge) is relevant.
        assert set(row_nodes(targets.masks, domtree, 2)) == {2, 1}
        assert set(row_nodes(targets.masks, domtree, 1)) == {1}
        assert set(row_nodes(targets.masks, domtree, 3)) == {3}

    def test_figure3_t_set_of_node_10(self):
        """Section 3.2: all back edge targets (8, 5, 2) are relevant for node 10."""
        targets, domtree = build(build_figure3_cfg())
        assert set(row_nodes(targets.masks, domtree, 10)) == {10, 8, 5, 2}

    def test_figure3_t_set_of_node_4(self):
        targets, domtree = build(build_figure3_cfg())
        assert set(row_nodes(targets.masks, domtree, 4)) == {4, 2}

    def test_matches_definition5_fixpoint(self, rng):
        for _ in range(30):
            graph = random_cfg(rng, rng.randrange(2, 22))
            targets, domtree = build(graph)
            for node in graph.nodes():
                assert set(row_nodes(targets.masks, domtree, node)) == reference_t_set(graph, node)


class TestTheorem3:
    def test_t_up_members_have_smaller_dfs_preorder(self, rng):
        """Theorem 3: the graph G_T is acyclic because T↑ decreases preorder."""
        for _ in range(30):
            graph = random_cfg(rng, rng.randrange(2, 25))
            dfs = DepthFirstSearch(graph)
            domtree = DominatorTree(graph, dfs)
            reach = ReducedReachability(dfs, domtree)
            for node in graph.nodes():
                for upstream in t_up(dfs, domtree, reach.masks, node):
                    assert (
                        preorder_number(dfs, upstream) < preorder_number(dfs, node)
                    ), (node, upstream)


class TestLemma3:
    def test_t_sets_totally_ordered_by_dominance_on_reducible_cfgs(self, rng):
        """Lemma 3: for reducible CFGs dominance totally orders every T_q."""
        for _ in range(30):
            graph = random_reducible_cfg(rng, rng.randrange(2, 30))
            pre = LivenessPrecomputation(graph)
            assert pre.reducible
            for node in graph.nodes():
                members = row_nodes(pre.t_masks, pre.domtree, node)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        assert pre.domtree.dominates(a, b) or pre.domtree.dominates(
                            b, a
                        ), (node, a, b)

    def test_total_order_can_fail_on_irreducible_cfgs(self):
        """The reconstruction of Figure 3 breaks the total order (irreducible)."""
        graph = build_figure3_cfg()
        pre = LivenessPrecomputation(graph)
        members = row_nodes(pre.t_masks, pre.domtree, 10)
        ordered = all(
            pre.domtree.dominates(a, b) or pre.domtree.dominates(b, a)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        )
        assert not ordered


class TestRelevantTargets:
    def test_interval_restriction_matches_set_intersection(self, rng):
        """T_q ∩ sdom(d) computed by the index interval equals the set form."""
        for _ in range(25):
            graph = random_cfg(rng, rng.randrange(2, 25))
            pre = LivenessPrecomputation(graph)
            for query in graph.nodes():
                for def_node in graph.nodes():
                    expected = {
                        t
                        for t in row_nodes(pre.t_masks, pre.domtree, query)
                        if pre.domtree.strictly_dominates(def_node, t)
                    }
                    actual = relevant_targets(pre.t_masks, pre.domtree, query, def_node)
                    assert set(actual) == expected


class TestStorage:
    def test_storage_accounting(self):
        graph = build_figure3_cfg()
        targets, _ = build(graph)
        assert targets.storage_bits() == len(graph) * 64
        assert len(targets) == len(graph)
