"""Every liveness query the paper discusses for its Figure 3 example.

Sections 3.2 and 4.1 walk through a series of queries on the example CFG;
this module asserts each of them, both through the set-based checker
(Algorithm 1/2) and through the reference bitset kernel (Algorithm 3),
and cross-checks against the brute-force path search so the
reconstruction itself is validated.
"""

import pytest

from repro.core import LivenessPrecomputation
from tests.conftest import (
    FIGURE3_VARIABLES,
    build_figure3_cfg,
    reference_is_live_in,
    reference_is_live_out,
)
from tests.support.bitset_checker import BitsetChecker
from tests.support.reference_cfg import is_back_edge
from tests.support.set_checker import SetBasedChecker, reduced_reachable, row_nodes


@pytest.fixture(scope="module")
def pre() -> LivenessPrecomputation:
    return LivenessPrecomputation(build_figure3_cfg())


@pytest.fixture(scope="module")
def checkers(pre):
    return SetBasedChecker(pre), BitsetChecker(pre)


def reaches(pre, source, target) -> bool:
    return reduced_reachable(pre.r_masks, pre.domtree, source, target)


def targets_of(pre, node) -> list:
    return row_nodes(pre.t_masks, pre.domtree, node)


def ask_live_in(pre, checkers, variable: str, query: int) -> bool:
    def_node, uses = FIGURE3_VARIABLES[variable]
    set_based, bitset = checkers
    from_sets = set_based.is_live_in(def_node, uses, query)
    from_bits = bitset.is_live_in(
        pre.num(def_node), [pre.num(u) for u in uses], pre.num(query)
    )
    from_reference = reference_is_live_in(pre.graph, def_node, uses, query)
    assert from_sets == from_bits == from_reference
    return from_sets


def ask_live_out(pre, checkers, variable: str, query: int) -> bool:
    def_node, uses = FIGURE3_VARIABLES[variable]
    set_based, bitset = checkers
    from_sets = set_based.is_live_out(def_node, uses, query)
    from_bits = bitset.is_live_out(
        pre.num(def_node), [pre.num(u) for u in uses], pre.num(query)
    )
    from_reference = reference_is_live_out(pre.graph, def_node, uses, query)
    assert from_sets == from_bits == from_reference
    return from_sets


class TestPaperQueries:
    def test_x_is_live_in_at_10(self, pre, checkers):
        """First example of Section 3.2: needs the back edge (10, 8)."""
        assert ask_live_in(pre, checkers, "x", 10)

    def test_x_liveness_needs_back_edge_target(self, pre):
        """"No use of x is reduced reachable from 10" — but it is from 8."""
        assert not reaches(pre, 10, 9)
        assert reaches(pre, 8, 9)
        assert is_back_edge(pre.dfs, 10, 8)

    def test_y_is_live_in_at_10(self, pre, checkers):
        """Second example: requires two levels of back-edge indirection."""
        assert ask_live_in(pre, checkers, "y", 10)

    def test_y_indirection_chain(self, pre):
        """The chain 10 → 8 → 5 of Section 3.2 is visible in the T sets."""
        assert not reaches(pre, 10, 5)
        assert not reaches(pre, 8, 5)
        assert 5 in targets_of(pre, 10)
        assert 5 in targets_of(pre, 8)

    def test_w_is_not_live_in_at_10(self, pre, checkers):
        """Third example: node 2 must be excluded because it is not strictly
        dominated by def(w)."""
        assert not ask_live_in(pre, checkers, "w", 10)

    def test_w_counterexample_without_dominance_filter(self, pre):
        """Picking t = 2 without the sdom filter would wrongly report w live."""
        assert 2 in targets_of(pre, 10)
        assert reaches(pre, 2, 4)
        assert not pre.domtree.strictly_dominates(3, 2)

    def test_x_is_not_live_in_at_4(self, pre, checkers):
        """Fourth example (Section 3.2, "main principle")."""
        assert not ask_live_in(pre, checkers, "x", 4)

    def test_x_at_4_counterexample_path_exists(self, pre):
        """The path 4,5,6,7,2,3,8 exists and 8 is in def(x)'s subtree —
        yet the path leaves and re-enters the dominance subtree, so the
        T-set machinery correctly excludes 8."""
        graph = pre.graph
        path = [4, 5, 6, 7, 2, 3, 8]
        for source, target in zip(path, path[1:]):
            assert graph.has_edge(source, target)
        assert pre.domtree.strictly_dominates(3, 8)
        assert 8 not in targets_of(pre, 4)

    def test_all_back_edge_targets_reachable_from_10(self, pre):
        """"All back edge targets (8, 5, 2) are reachable from 10"."""
        assert set(targets_of(pre, 10)) == {10, 8, 5, 2}


class TestExhaustiveAgreementOnFigure3:
    def test_all_variables_all_blocks(self, pre, checkers):
        for variable in FIGURE3_VARIABLES:
            for block in pre.graph.nodes():
                ask_live_in(pre, checkers, variable, block)
                ask_live_out(pre, checkers, variable, block)

    def test_expected_live_in_sets(self, pre, checkers):
        live_in = {
            variable: {
                block
                for block in pre.graph.nodes()
                if ask_live_in(pre, checkers, variable, block)
            }
            for variable in FIGURE3_VARIABLES
        }
        # w: only at its use block — every other path to 4 passes def(w)=3.
        assert live_in["w"] == {4}
        # x (use at 9): live only inside the 8-9-10 column; from the 4-7
        # column every path to 9 re-enters through the definition at 3.
        assert live_in["x"] == {8, 9, 10}
        # y (use at 5): live wherever 5 is still reachable without passing 3
        # — note 7 is excluded (its only way back to 5 goes through 2 and 3).
        assert live_in["y"] == {4, 5, 6, 8, 9, 10}

    def test_numbering_matches_paper_convention(self, pre):
        """Nodes 1..11 are numbered in dominance-tree preorder."""
        for x in pre.graph.nodes():
            for y in pre.graph.nodes():
                if pre.domtree.strictly_dominates(x, y):
                    assert pre.num(x) < pre.num(y)
