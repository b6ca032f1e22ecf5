"""The reduced graph ``G̃`` and reduced reachability ``R_v`` (Definition 4).

Removing the DFS back edges from a CFG yields an acyclic *reduced graph*.
The set ``R_v`` contains every node reachable from ``v`` inside the reduced
graph (including ``v`` itself, via the trivial path).  Section 3.2 of the
paper uses these sets to answer the easy half of a liveness query — a
back-edge-free path from the query block to a use proves liveness outright —
and Section 5.2 notes they can be computed in a single sweep because
reverse postorder is a topological order of ``G̃``.

The sets are raw ``int`` bit masks in one list, ``masks``, indexed by the
*dominance-tree preorder number* of each block (Section 5.1), because that
is the numbering the query algorithm needs: it lets ``T_q ∩ sdom(def(a))``
be expressed as a contiguous index interval.  :class:`BitSet` views are
derived from the masks on demand.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Node
from repro.sets.bitset import BitSet


def reduced_sweep(
    graph: ControlFlowGraph,
    dfs: DepthFirstSearch,
    num: dict[Node, int],
    seeds: list[int],
) -> list[int]:
    """``out[num(v)] = seeds[num(v)] | ⋃ out[num(w)]`` over reduced edges ``v → w``.

    One pass in DFS postorder suffices: it is a reverse topological order
    of ``G̃``, so every reduced successor's row is final before it is read.
    """
    back = set(dfs.back_edges())
    out = list(seeds)
    for node in dfs.postorder():
        number = num[node]
        mask = out[number]
        for succ in graph.successors(node):
            if (node, succ) not in back:
                mask |= out[num[succ]]
        out[number] = mask
    return out


class ReducedReachability:
    """Per-node reduced-reachability masks ``R_v``."""

    def __init__(
        self,
        graph: ControlFlowGraph,
        dfs: DepthFirstSearch,
        domtree: DominatorTree,
    ) -> None:
        self._domtree = domtree
        #: ``masks[n]`` = bit mask of ``R_v`` for the node numbered ``n``.
        self.masks: list[int] = reduced_sweep(
            graph, dfs, domtree.numbering, [1 << n for n in range(len(domtree))]
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """Size of the bitset universe (number of blocks)."""
        return len(self.masks)

    def bitset(self, node: Node) -> BitSet:
        """``R_node`` over dominance-preorder indices (a fresh copy)."""
        return BitSet.from_mask(self.universe, self.masks[self._domtree.num(node)])

    def reachable_nodes(self, node: Node) -> list[Node]:
        """``R_node`` as a list of nodes (dominance-preorder order)."""
        return [self._domtree.node_of(index) for index in self.bitset(node)]

    def is_reduced_reachable(self, source: Node, target: Node) -> bool:
        """True iff ``target ∈ R_source``."""
        num = self._domtree.num
        return bool(self.masks[num(source)] >> num(target) & 1)

    def storage_bits(self) -> int:
        """Payload bits of all ``R_v`` rows, each rounded up to 64-bit words."""
        return len(self.masks) * ((self.universe + 63) // 64) * 64

    def __len__(self) -> int:
        return len(self.masks)
