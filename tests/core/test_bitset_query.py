"""Tests for Algorithm 3 (bitset implementation) and its fast path."""

from repro.cfg import ControlFlowGraph
from repro.core import LivenessPrecomputation
from repro.synth import random_cfg, random_reducible_cfg
from tests.conftest import build_figure3_cfg, reference_is_live_in
from tests.support.bitset_checker import BitsetChecker
from tests.support.set_checker import SetBasedChecker


def make(graph: ControlFlowGraph, **kwargs):
    pre = LivenessPrecomputation(graph)
    return pre, BitsetChecker(pre, **kwargs), SetBasedChecker(pre)


class TestBasics:
    def test_query_outside_dominance_interval_returns_false_quickly(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        pre, bitset, _ = make(graph)
        # query at the definition block itself
        assert not bitset.is_live_in(pre.num(1), [pre.num(2)], pre.num(1))
        assert bitset.last_candidates_tested == 0
        # query above the definition
        assert not bitset.is_live_in(pre.num(1), [pre.num(2)], pre.num(0))
        assert bitset.last_candidates_tested == 0

    def test_simple_live_query(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        pre, bitset, _ = make(graph)
        assert bitset.is_live_in(pre.num(0), [pre.num(2)], pre.num(1))

    def test_live_out_at_definition_block(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        pre, bitset, _ = make(graph)
        assert bitset.is_live_out(pre.num(0), [pre.num(2)], pre.num(0))
        assert not bitset.is_live_out(pre.num(0), [pre.num(0)], pre.num(0))

    def test_fast_path_only_on_reducible(self):
        reducible = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 1), (2, 3)], entry=0)
        pre = LivenessPrecomputation(reducible)
        assert BitsetChecker(pre).uses_fast_path
        assert not BitsetChecker(pre, reducible_fast_path=False).uses_fast_path

        irreducible = build_figure3_cfg()
        pre_irr = LivenessPrecomputation(irreducible)
        assert not BitsetChecker(pre_irr).uses_fast_path


class TestEquivalenceWithSetForm:
    def _compare_all(self, graph: ControlFlowGraph, rng, checker_kwargs=None) -> None:
        pre, bitset, sets = make(graph, **(checker_kwargs or {}))
        nodes = graph.nodes()
        for _ in range(10):
            def_node = rng.choice(nodes)
            uses = {
                u
                for u in (rng.choice(nodes) for _ in range(3))
                if pre.domtree.dominates(def_node, u)
            }
            use_nums = [pre.num(u) for u in uses]
            for query in nodes:
                expected_in = sets.is_live_in(def_node, uses, query)
                expected_out = sets.is_live_out(def_node, uses, query)
                assert (
                    bitset.is_live_in(pre.num(def_node), use_nums, pre.num(query))
                    == expected_in
                )
                assert (
                    bitset.is_live_out(pre.num(def_node), use_nums, pre.num(query))
                    == expected_out
                )

    def test_bitset_matches_set_based_on_random_graphs(self, rng):
        for _ in range(30):
            graph = random_cfg(rng, rng.randrange(2, 20))
            self._compare_all(graph, rng)

    def test_bitset_matches_set_based_on_figure3(self, rng):
        self._compare_all(build_figure3_cfg(), rng)

    def test_without_fast_path_still_correct(self, rng):
        for _ in range(15):
            graph = random_reducible_cfg(rng, rng.randrange(2, 20))
            self._compare_all(graph, rng, {"reducible_fast_path": False})


class TestTheorem2FastPath:
    def test_fast_path_answers_match_slow_path_on_reducible_graphs(self, rng):
        """Theorem 2: one candidate suffices on reducible CFGs."""
        for _ in range(30):
            graph = random_reducible_cfg(rng, rng.randrange(2, 25))
            pre = LivenessPrecomputation(graph)
            fast = BitsetChecker(pre, reducible_fast_path=True)
            slow = BitsetChecker(pre, reducible_fast_path=False)
            nodes = graph.nodes()
            for _ in range(10):
                def_node = rng.choice(nodes)
                uses = {
                    u
                    for u in (rng.choice(nodes) for _ in range(3))
                    if pre.domtree.dominates(def_node, u)
                }
                use_nums = [pre.num(u) for u in uses]
                for query in nodes:
                    assert fast.is_live_in(
                        pre.num(def_node), use_nums, pre.num(query)
                    ) == slow.is_live_in(pre.num(def_node), use_nums, pre.num(query))
                    assert fast.last_candidates_tested <= 1

    def test_candidate_counter_counts_iterations(self, rng):
        """Positive queries on irreducible graphs may need several candidates."""
        graph = build_figure3_cfg()
        pre = LivenessPrecomputation(graph)
        checker = BitsetChecker(pre)
        # y defined at 3, used at 5, queried at 10: the paper's "more
        # indirection" example — t = 8 fails, t = 5 succeeds.
        assert checker.is_live_in(pre.num(3), [pre.num(5)], pre.num(10))
        assert checker.last_candidates_tested == 2


class TestAgainstBruteForce:
    def test_bitset_matches_path_search_directly(self, rng):
        for _ in range(25):
            graph = random_cfg(rng, rng.randrange(2, 16))
            pre = LivenessPrecomputation(graph)
            checker = BitsetChecker(pre)
            nodes = graph.nodes()
            for _ in range(8):
                def_node = rng.choice(nodes)
                uses = {
                    u
                    for u in (rng.choice(nodes) for _ in range(3))
                    if pre.domtree.dominates(def_node, u)
                }
                use_nums = [pre.num(u) for u in uses]
                for query in nodes:
                    assert checker.is_live_in(
                        pre.num(def_node), use_nums, pre.num(query)
                    ) == reference_is_live_in(graph, def_node, uses, query)
