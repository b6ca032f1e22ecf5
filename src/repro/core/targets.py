"""The relevant back-edge-target sets ``T_v`` (Definition 5, Section 5.2).

``T_q`` collects, independently of any variable, the back-edge targets that
a liveness query starting at ``q`` may have to consider.  A target ``t'``
belongs to ``T↑_t`` when a back edge ``(s', t')`` exists whose source is
reduced-reachable from ``t`` but whose target is not; ``T_q`` is the
closure of that step starting from ``{q}``.

Theorem 3 shows that every element of ``T↑_t`` has a *strictly smaller DFS
preorder number* than ``t``, so the graph ``G_T`` (node → its ``T↑`` set)
is acyclic and ``T_v`` can be computed in one pass over the nodes in
increasing DFS preorder using Equation 1::

    T_v = {v} ∪ ⋃_{w ∈ T↑_v} T_w

This is the only construction.  It materialises the sets of Definition 5
exactly, so Lemma 3 / Theorem 2 (total dominance order on reducible CFGs,
single query iteration) hold literally, and the incremental patcher
(:mod:`repro.core.incremental`) can re-derive any row with the same
Equation-1 step.  The Section 5.2 three-pass shortcut may over-approximate
these sets, which would void both; only the test oracle
``tests/support/reference_precompute`` builds it, to check the paper's
claim that the extra targets never change an answer.

Like ``R_v``, the sets are raw ``int`` masks over dominance-preorder
indices, in one list ``masks``, built from the DFS's back edges and the
dominator tree's numbers by block id.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.core.reduced_graph import ReducedReachability


def back_edge_groups(dfs: DepthFirstSearch, numbers: list[int]) -> dict[int, int]:
    """``num(t) -> mask of every back-edge source into t``, per target.

    ``numbers`` maps DFS ids to dominance-preorder numbers; the keys are
    exactly the numbers of the back-edge targets.
    """
    groups: dict[int, int] = {}
    for source, target in dfs.back:
        t = numbers[target]
        groups[t] = groups.get(t, 0) | 1 << numbers[source]
    return groups


def equation1_row(number: int, r: int, groups: dict[int, int], masks: list[int]) -> int:
    """Equation 1 for the node numbered ``number`` with ``R_v = r``.

    A target ``t`` is in ``T↑_v`` iff a back edge into it starts in ``R_v``
    and ``t ∉ R_v``; Theorem 3 makes its ``masks[t]`` final in DFS preorder.
    """
    mask = 1 << number
    for t, sources in groups.items():
        if r & sources and not r >> t & 1:
            mask |= masks[t]
    return mask


class TargetSets:
    """Per-node ``T_v`` masks."""

    def __init__(
        self,
        dfs: DepthFirstSearch,
        domtree: DominatorTree,
        reach: ReducedReachability,
    ) -> None:
        numbers = domtree.numbers
        groups = back_edge_groups(dfs, numbers)
        sources = 0
        for mask in groups.values():
            sources |= mask
        r_masks = reach.masks
        masks = [1 << number for number in range(len(r_masks))]
        for node in dfs.pre_order:
            number = numbers[node]
            r = r_masks[number]
            if r & sources:
                # Only a back edge leaving R_v contributes to T↑_v.
                masks[number] = equation1_row(number, r, groups, masks)
        #: ``masks[n]`` = bit mask of ``T_v`` for the node numbered ``n``.
        self.masks: list[int] = masks

    def storage_bits(self) -> int:
        """Payload bits of all ``T_v`` rows, each rounded up to 64-bit words."""
        return len(self.masks) * ((len(self.masks) + 63) // 64) * 64

    def __len__(self) -> int:
        return len(self.masks)
