"""Tests for the bundled variable-independent precomputation."""

import pytest

from repro.cfg import ControlFlowGraph
from repro.core import LivenessPrecomputation
from repro.synth import random_reducible_cfg
from tests.conftest import build_figure3_cfg


class TestPrecomputation:
    def test_statistics_of_figure3(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        assert pre.num_blocks() == 11
        assert pre.num_edges() == 15
        assert pre.num_back_edges() == 3
        assert not pre.reducible

    def test_reducible_flag(self, rng):
        for _ in range(10):
            graph = random_reducible_cfg(rng, rng.randrange(2, 20))
            assert LivenessPrecomputation(graph).reducible

    def test_back_edge_target_membership(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        assert pre.is_back_target[pre.num(8)]
        assert pre.is_back_target[pre.num(5)]
        assert pre.is_back_target[pre.num(2)]
        assert not pre.is_back_target[pre.num(9)]

    def test_num_and_node_of_are_inverse(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        for node in pre.graph.nodes():
            assert pre.node_of(pre.num(node)) == node
        assert pre.maxnum(1) == len(pre.graph) - 1

    def test_invalid_graph_rejected(self):
        graph = ControlFlowGraph.from_edges([(0, 1)], entry=0)
        graph.add_node(42)  # unreachable
        with pytest.raises(ValueError):
            LivenessPrecomputation(graph)

    def test_storage_accounting_scales_with_blocks(self):
        small = LivenessPrecomputation(
            ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        )
        large = LivenessPrecomputation(build_figure3_cfg())
        assert small.storage_bits() == 2 * 3 * 64  # R and T, 3 blocks, 1 word
        assert large.storage_bits() > small.storage_bits()

    def test_repr_mentions_key_facts(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        text = repr(pre)
        assert "blocks=11" in text
        assert "reducible=False" in text

    def test_shared_substructures_are_consistent(self):
        pre = LivenessPrecomputation(build_figure3_cfg())
        assert pre.domtree.graph is pre.graph
        assert pre.dfs.graph is pre.graph
        assert len(pre.reach) == len(pre.graph)
        assert len(pre.targets) == len(pre.graph)
