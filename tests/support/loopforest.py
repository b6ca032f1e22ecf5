"""Loop-nesting-forest variant of the liveness check (Section 8 outlook).

The paper closes by remarking that the technique "could take advantage of a
precomputed loop nesting forest" and "can be adapted to most loop nesting
forest definitions".  This module implements that adaptation for reducible
CFGs, following the observation (developed fully in the authors' follow-up
work on computing liveness *sets*) that on a reducible CFG all the
back-edge-target chasing of ``T_q`` collapses into a single hop in the loop
forest:

    Let ``d = def(a)`` strictly dominate ``q`` and let ``q̃`` be the header
    of the outermost loop that contains ``q`` but not ``d`` (or ``q``
    itself when no such loop exists).  Then ``a`` is live-in at ``q`` iff
    some use of ``a`` is reachable from ``q̃`` in the reduced (forward)
    graph.

Compared with Algorithm 3 the query replaces the ``T_q`` bitset scan by a
walk up the loop forest (usually one or two steps), at the price of an
extra precomputed structure.  No library path uses it: the ablation
benchmark (``benchmarks/test_ablation_loopforest.py``) compares the two, the
differential tests check query-for-query agreement with the main checker on
reducible workloads.  Irreducible CFGs are rejected — the paper's general
mechanism (``T_q``) is the one that covers them.
"""

from __future__ import annotations

from typing import Collection

from repro.cfg.graph import Node
from repro.core.precompute import LivenessPrecomputation
from tests.support.loops import LoopNestingForest
from tests.support.set_checker import row_bitset


class LoopForestChecker:
    """Liveness checking through the loop nesting forest (reducible CFGs)."""

    def __init__(self, precomputation: LivenessPrecomputation) -> None:
        if not precomputation.reducible:
            raise ValueError(
                "the loop-forest liveness variant requires a reducible CFG; "
                "use the T_q-based checker for irreducible control flow"
            )
        self._pre = precomputation
        self._forest = LoopNestingForest(precomputation.graph, precomputation.dfs)

    @property
    def forest(self) -> LoopNestingForest:
        """The loop nesting forest used by the queries."""
        return self._forest

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    def _effective_query_node(self, query: Node, def_node: Node) -> Node:
        """``q̃``: header of the outermost loop containing ``q`` but not ``d``."""
        result = query
        loop = self._forest.innermost_loop(query)
        while loop is not None:
            if def_node in loop.body:
                break
            result = loop.header
            loop = loop.parent
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_live_in(
        self, def_node: Node, uses: Collection[Node], query: Node
    ) -> bool:
        """Live-in check via the loop forest (reducible CFGs only)."""
        pre = self._pre
        if not pre.domtree.strictly_dominates(def_node, query):
            return False
        start = self._effective_query_node(query, def_node)
        reach = row_bitset(pre.r_masks, pre.domtree, start)
        return any(pre.num(use) in reach for use in uses)

    def is_live_out(
        self, def_node: Node, uses: Collection[Node], query: Node
    ) -> bool:
        """Live-out check via the loop forest (reducible CFGs only).

        Mirrors Algorithm 2: at the definition block the variable is
        live-out iff it has a use elsewhere; below it, the live-in argument
        applies with the trivial-path exclusion when ``q̃ = q`` and ``q`` is
        not a loop header (i.e. not a back-edge target).
        """
        pre = self._pre
        if def_node == query:
            return any(use != def_node for use in uses)
        if not pre.domtree.strictly_dominates(def_node, query):
            return False
        start = self._effective_query_node(query, def_node)
        reach = row_bitset(pre.r_masks, pre.domtree, start)
        relevant_uses = set(uses)
        if start == query and not pre.is_back_target[pre.num(query)]:
            relevant_uses.discard(query)
        return any(pre.num(use) in reach for use in relevant_uses)
