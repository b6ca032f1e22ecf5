"""Tests for the ControlFlowGraph container."""

import pytest

from repro.cfg import ControlFlowGraph
from repro.cfg.graph import Edge


def diamond() -> ControlFlowGraph:
    return ControlFlowGraph.from_edges(
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], entry="a"
    )


class TestNodesAndEdges:
    def test_first_node_becomes_entry(self):
        graph = ControlFlowGraph()
        graph.add_node("x")
        graph.add_node("y")
        assert graph.entry == "x"

    def test_explicit_entry(self):
        graph = ControlFlowGraph.from_edges([("a", "b")], entry="a")
        assert graph.entry == "a"

    def test_entry_on_empty_graph_raises(self):
        with pytest.raises(ValueError):
            ControlFlowGraph().entry

    def test_add_edge_adds_missing_nodes(self):
        graph = ControlFlowGraph()
        graph.add_edge("p", "q")
        assert "p" in graph and "q" in graph
        assert graph.has_edge("p", "q")

    def test_duplicate_edges_collapse(self):
        graph = ControlFlowGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        assert graph.num_edges() == 1
        assert graph.successors("a") == ["b"]

    def test_self_loop_allowed(self):
        graph = ControlFlowGraph.from_edges([("a", "b"), ("b", "b")], entry="a")
        assert graph.has_edge("b", "b")

    def test_successors_and_predecessors_preserve_order(self):
        graph = diamond()
        assert graph.successors("a") == ["b", "c"]
        assert graph.predecessors("d") == ["b", "c"]
        assert graph.out_degree("a") == 2
        assert graph.in_degree("d") == 2

    def test_returned_lists_are_copies(self):
        graph = diamond()
        graph.successors("a").append("zzz")
        assert graph.successors("a") == ["b", "c"]

    def test_edges_listing(self):
        graph = diamond()
        assert Edge("a", "b") in graph.edges()
        assert graph.num_edges() == 4

    def test_unknown_node_raises(self):
        graph = diamond()
        with pytest.raises(KeyError):
            graph.successors("nope")
        with pytest.raises(KeyError):
            graph.remove_edge("a", "d")

    def test_remove_edge_and_node(self):
        graph = diamond()
        graph.remove_edge("c", "d")
        assert not graph.has_edge("c", "d")
        graph.remove_node("c")
        assert "c" not in graph
        assert graph.successors("a") == ["b"]

    def test_split_edge_keeps_the_successor_slot(self):
        graph = diamond()
        graph.split_edge("a", "b", "n")
        assert graph.successors("a") == ["n", "c"]
        assert graph.successors("n") == ["b"]
        assert graph.predecessors("n") == ["a"]
        assert graph.predecessors("b") == ["n"]
        assert graph.nodes()[-1] == "n"
        with pytest.raises(KeyError):
            graph.split_edge("a", "d", "m")  # no such edge
        with pytest.raises(ValueError):
            graph.split_edge("a", "c", "b")  # the block already exists
        assert graph.successors("a") == ["n", "c"]

    def test_split_self_loop(self):
        graph = ControlFlowGraph.from_edges([("a", "b"), ("b", "b")], entry="a")
        graph.split_edge("b", "b", "n")
        assert graph.successors("b") == ["n"]
        assert graph.predecessors("b") == ["a", "n"]

    def test_cannot_remove_entry(self):
        graph = diamond()
        with pytest.raises(ValueError):
            graph.remove_node("a")

    def test_len_iter_contains(self):
        graph = diamond()
        assert len(graph) == 4
        assert set(graph) == {"a", "b", "c", "d"}
        assert "a" in graph and "z" not in graph


class TestDerivedGraphs:
    def test_copy_is_deep_for_structure(self):
        graph = diamond()
        clone = graph.copy()
        clone.add_edge("d", "a2")
        assert "a2" not in graph
        assert clone.entry == graph.entry

    def test_reversed_swaps_directions(self):
        graph = diamond()
        reverse = graph.reversed()
        assert reverse.has_edge("d", "b")
        assert reverse.has_edge("b", "a")
        assert not reverse.has_edge("a", "b")

    def test_reversed_with_virtual_exit(self):
        graph = diamond()
        sentinel = object()
        reverse = graph.reversed(virtual_exit=sentinel)
        assert reverse.entry is sentinel
        assert reverse.has_edge(sentinel, "d")

    def test_reversed_with_no_exit_nodes_still_rooted(self):
        graph = ControlFlowGraph.from_edges([("a", "b"), ("b", "a")], entry="a")
        sentinel = object()
        reverse = graph.reversed(virtual_exit=sentinel)
        reachable = reverse.reachable_from(sentinel)
        assert {"a", "b"} <= reachable

    def test_reachability_and_unreachable_nodes(self):
        graph = diamond()
        graph.add_node("island")
        assert graph.reachable_from("a") == {"a", "b", "c", "d"}
        assert graph.unreachable_nodes() == ["island"]

    def test_exit_nodes(self):
        graph = diamond()
        assert graph.exit_nodes() == ["d"]


class TestValidation:
    def test_valid_graph_passes(self):
        diamond().validate()

    def test_entry_with_predecessor_rejected(self):
        graph = ControlFlowGraph.from_edges([("a", "b"), ("b", "a")], entry="a")
        with pytest.raises(ValueError, match="incoming"):
            graph.validate()

    def test_unreachable_node_rejected(self):
        graph = diamond()
        graph.add_edge("x", "y")
        with pytest.raises(ValueError, match="unreachable"):
            graph.validate()

    def test_repr(self):
        assert "nodes=4" in repr(diamond())
