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

Two strategies are provided:

* ``"exact"`` (default) — the Equation-1 pass above; it materialises the
  sets of Definition 5 exactly, so Lemma 3 / Theorem 2 (total dominance
  order on reducible CFGs, single query iteration) hold literally.
* ``"propagate"`` — the engineering shortcut described in Section 5.2:
  compute ``T`` for back-edge targets first, seed back-edge *sources* with
  the union of their targets' sets, propagate through the reduced graph in
  postorder, then add ``v`` to each ``T_v``.  This may over-approximate the
  exact sets (it drops the ``t' ∉ R_v`` filter on the first chain link) but
  never changes a query's answer; the ablation benchmark and the property
  tests quantify and check exactly that.

Like ``R_v``, the sets are raw ``int`` masks over dominance-preorder
indices, in one list ``masks``; ``BitSet`` views are derived on demand.
"""

from __future__ import annotations

from typing import Callable

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Node
from repro.core.reduced_graph import ReducedReachability, reduced_sweep
from repro.sets.bitset import BitSet

_STRATEGIES = ("exact", "propagate")


def back_edge_groups(dfs: DepthFirstSearch, num: Callable[[Node], int]) -> list[tuple[int, int]]:
    """``(num(t), mask of every back-edge source into t)`` per back-edge target."""
    groups: dict[int, int] = {}
    for source, target in dfs.back_edges():
        groups[num(target)] = groups.get(num(target), 0) | 1 << num(source)
    return list(groups.items())


def equation1_row(number: int, r: int, groups: list[tuple[int, int]], masks: list[int]) -> int:
    """Equation 1 for the node numbered ``number`` with ``R_v = r``.

    A target ``t`` is in ``T↑_v`` iff a back edge into it starts in ``R_v``
    and ``t ∉ R_v``; Theorem 3 makes its ``masks[t]`` final in DFS preorder.
    """
    mask = 1 << number
    for t, sources in groups:
        if r & sources and not r >> t & 1:
            mask |= masks[t]
    return mask


class TargetSets:
    """Per-node ``T_v`` masks."""

    def __init__(
        self,
        graph: ControlFlowGraph,
        dfs: DepthFirstSearch,
        domtree: DominatorTree,
        reach: ReducedReachability,
        strategy: str = "exact",
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}"
            )
        self._dfs = dfs
        self._domtree = domtree
        self._reach = reach
        self._strategy = strategy
        num = domtree.numbering
        groups = back_edge_groups(dfs, num.__getitem__)
        if strategy == "exact":
            #: ``masks[n]`` = bit mask of ``T_v`` for the node numbered ``n``.
            self.masks: list[int] = self._exact(dfs, num, groups)
        else:
            self.masks = self._propagate(graph, dfs, num, groups)

    # ------------------------------------------------------------------
    # Exact Equation-1 construction
    # ------------------------------------------------------------------
    def _exact(self, dfs, num, groups) -> list[int]:
        r_masks = self._reach.masks
        masks = [0] * len(self._domtree)
        for node in dfs.preorder():
            number = num[node]
            masks[number] = equation1_row(number, r_masks[number], groups, masks)
        return masks

    # ------------------------------------------------------------------
    # Section 5.2 three-pass propagation
    # ------------------------------------------------------------------
    def _propagate(self, graph, dfs, num, groups) -> list[int]:
        r_masks = self._reach.masks
        # Pass 1: exact T for back-edge targets, in increasing DFS preorder.
        partial = [0] * len(self._domtree)
        for target in sorted({t for _, t in dfs.back_edges()}, key=dfs.preorder_number):
            t = num[target]
            partial[t] = equation1_row(t, r_masks[t], groups, partial)
        # Pass 2: seed back-edge sources with their targets' sets.
        seeds = [0] * len(self._domtree)
        for source, target in dfs.back_edges():
            seeds[num[source]] |= partial[num[target]]
        # Pass 3: propagate through the reduced graph, then add the node
        # itself.  A target's pass-1 set needs no re-adding: each of its
        # T↑ links starts at a seeded source inside R_t.
        swept = reduced_sweep(graph, dfs, num, seeds)
        return [mask | 1 << n for n, mask in enumerate(swept)]

    def t_up(self, node: Node) -> list[Node]:
        """``T↑_node`` computed directly from Definition 5.

        Keeps the targets whose source is reduced-reachable from ``node``
        but which are not themselves reduced-reachable.
        """
        num = self._domtree.num
        r_node = self._reach.masks[num(node)]
        result: dict[Node, None] = {}
        for source, target in self._dfs.back_edges():
            if r_node >> num(source) & 1 and not r_node >> num(target) & 1:
                result.setdefault(target, None)
        return list(result)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def strategy(self) -> str:
        """The construction strategy used (``"exact"`` or ``"propagate"``)."""
        return self._strategy

    @property
    def universe(self) -> int:
        """Size of the bitset universe (number of blocks)."""
        return len(self.masks)

    def bitset(self, node: Node) -> BitSet:
        """``T_node`` over dominance-preorder indices (a fresh copy)."""
        return BitSet.from_mask(self.universe, self.masks[self._domtree.num(node)])

    def target_nodes(self, node: Node) -> list[Node]:
        """``T_node`` as nodes, ordered by dominance-preorder index."""
        return [self._domtree.node_of(index) for index in self.bitset(node)]

    def relevant_targets(self, query: Node, def_node: Node) -> list[Node]:
        """``T_(q,a) = T_q ∩ sdom(def(a))`` in dominance-preorder order.

        Following Section 5.1 this is an index-interval scan: the nodes
        strictly dominated by ``def_node`` occupy the preorder interval
        ``(num(def), maxnum(def)]``.
        """
        lo = self._domtree.num(def_node) + 1
        hi = self._domtree.maxnum(def_node)
        return [
            self._domtree.node_of(index)
            for index in self.bitset(query).iter_range(lo, hi)
        ]

    def storage_bits(self) -> int:
        """Payload bits of all ``T_v`` rows, each rounded up to 64-bit words."""
        return len(self.masks) * ((self.universe + 63) // 64) * 64

    def __len__(self) -> int:
        return len(self.masks)
