"""Node-keyed views of ``R`` and ``T``, and Algorithms 1 and 2 (test oracles).

The library keeps ``R_v`` and ``T_v`` only as int masks indexed by
dominance-preorder number (``r_masks``/``t_masks``).  The paper states
its sets and its first two algorithms over nodes; this module translates
the masks back so the tests can check them in those terms: the row of a
node, one bit of ``R``, ``T_(q,a) = T_q ∩ sdom(def(a))``, ``T↑_v``
straight from Definition 5, and :class:`SetBasedChecker`, the literal
transcription of the pseudocode in Sections 3.3 and 4.2.  A query
supplies ``def(a)`` and ``uses(a)`` as nodes;
:mod:`tests.support.set_oracle` derives them from def–use chains.
"""

from __future__ import annotations

from typing import Collection

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import Node
from repro.core.precompute import LivenessPrecomputation
from tests.support.bitset import BitSet


def row_bitset(masks: list[int], domtree: DominatorTree, node: Node) -> BitSet:
    """Row ``masks[num(node)]`` over dominance-preorder indices."""
    return BitSet.from_mask(len(masks), masks[domtree.num(node)])


def row_nodes(masks: list[int], domtree: DominatorTree, node: Node) -> list[Node]:
    """Row ``masks[num(node)]`` as nodes, in dominance preorder."""
    return [domtree.node_of(index) for index in row_bitset(masks, domtree, node)]


def reduced_reachable(
    r_masks: list[int], domtree: DominatorTree, source: Node, target: Node
) -> bool:
    """True iff ``target ∈ R_source``."""
    return bool(r_masks[domtree.num(source)] >> domtree.num(target) & 1)


def relevant_targets(
    t_masks: list[int], domtree: DominatorTree, query: Node, def_node: Node
) -> list[Node]:
    """``T_(q,a) = T_q ∩ sdom(def(a))`` in dominance-preorder order.

    Following Section 5.1 this is an index-interval scan: the nodes
    strictly dominated by ``def_node`` occupy the preorder interval
    ``(num(def), maxnum(def)]``.
    """
    lo = domtree.num(def_node) + 1
    hi = domtree.maxnum(def_node)
    return [
        domtree.node_of(index)
        for index in row_bitset(t_masks, domtree, query).iter_range(lo, hi)
    ]


def t_up(
    dfs: DepthFirstSearch, domtree: DominatorTree, r_masks: list[int], node: Node
) -> list[Node]:
    """``T↑_node`` computed directly from Definition 5.

    Keeps the targets whose source is reduced-reachable from ``node``
    but which are not themselves reduced-reachable.
    """
    num = domtree.num
    r_node = r_masks[num(node)]
    result: dict[Node, None] = {}
    for source, target in dfs.back_edges():
        if r_node >> num(source) & 1 and not r_node >> num(target) & 1:
            result.setdefault(target, None)
    return list(result)


class SetBasedChecker:
    """Algorithms 1 and 2 operating on node sets."""

    def __init__(self, precomputation: LivenessPrecomputation) -> None:
        self._pre = precomputation

    @property
    def precomputation(self) -> LivenessPrecomputation:
        """The shared variable-independent precomputation."""
        return self._pre

    def _reaches(self, t: Node, uses: Collection[Node]) -> bool:
        """Whether some node of ``uses`` lies in ``R_t``."""
        pre = self._pre
        reach_t = row_bitset(pre.r_masks, pre.domtree, t)
        return any(pre.num(use) in reach_t for use in uses)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def is_live_in(
        self, def_node: Node, uses: Collection[Node], query: Node
    ) -> bool:
        """Algorithm 1: is a variable defined at ``def_node`` and used at
        ``uses`` live-in at ``query``?

        Line by line: build ``T_(q,a) = T_q ∩ sdom(def(a))`` and return
        ``true`` as soon as some ``t`` in it can reduced-reach a use.
        """
        pre = self._pre
        if not pre.domtree.strictly_dominates(def_node, query):
            # T_q ∩ sdom(def) is empty whenever q is outside the dominance
            # subtree of the definition — the variable cannot be live there
            # (its value is not even available).
            return False
        candidates = relevant_targets(pre.t_masks, pre.domtree, query, def_node)
        return any(self._reaches(t, uses) for t in candidates)

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def is_live_out(
        self, def_node: Node, uses: Collection[Node], query: Node
    ) -> bool:
        """Algorithm 2: live-out check with its two special cases.

        1. At the definition block itself, the variable is live-out iff it
           has a use in some *other* block.
        2. Below the definition, the live-in argument applies except that
           the path must be non-trivial: when the only candidate is ``q``
           itself and ``q`` is not a back-edge target, a use in ``q`` does
           not count (there is no way to leave ``q`` and come back).
        """
        pre = self._pre
        if def_node == query:
            return any(use != def_node for use in uses)
        if not pre.domtree.strictly_dominates(def_node, query):
            return False
        candidates = relevant_targets(pre.t_masks, pre.domtree, query, def_node)
        for t in candidates:
            relevant_uses = set(uses)
            if t == query and not pre.is_back_target[pre.num(query)]:
                relevant_uses.discard(query)
            if self._reaches(t, relevant_uses):
                return True
        return False
