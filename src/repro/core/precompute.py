"""The variable-independent precomputation (Sections 3.2 and 5.2).

:class:`LivenessPrecomputation` bundles everything the checker derives from
the CFG alone: the DFS (back edges), the dominator tree (preorder
numbering), the reduced-reachability sets ``R_v`` and the back-edge-target
sets ``T_v``, plus the reducibility flag that enables the Theorem-2 fast
path.

Because none of this depends on variables, instructions or def–use chains,
the object stays valid under every program transformation that leaves the
CFG untouched — adding or removing instructions, introducing or coalescing
variables, rewriting uses.  Only CFG edits (adding/removing blocks or
edges) require building a new instance, which is exactly the invalidation
contract the paper claims as its main practical advantage.

``R`` and ``T`` are built directly as flat lists of raw ``int`` bit masks
indexed by dominance-preorder number; the constructor only aliases them
(``r_masks`` *is* ``reach.masks``, ``t_masks`` *is* ``targets.masks``)
next to ``maxnums`` and ``is_back_target``.  The numeric core
(:mod:`repro.core.bitset_query`, :mod:`repro.core.batch`) runs Algorithm 3
on these raw ints with zero ``node_of``/``BitSet`` round-trips per query.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Node
from repro.cfg.reducibility import is_reducible
from repro.core.reduced_graph import ReducedReachability
from repro.core.targets import TargetSets


class LivenessPrecomputation:
    """All per-CFG data needed to answer liveness queries."""

    def __init__(self, graph: ControlFlowGraph) -> None:
        self.graph = graph
        self.dfs = DepthFirstSearch(graph)
        # The nodes the DFS reached are the reachability check: no second
        # traversal.
        graph.validate(reachable=self.dfs.preorder())
        self.domtree = DominatorTree(graph, self.dfs)
        self.reach = ReducedReachability(graph, self.dfs, self.domtree)
        self.targets = TargetSets(self.dfs, self.domtree, self.reach)
        self.reducible = is_reducible(graph, self.dfs, self.domtree)
        self._back_edge_targets = set(self.dfs.back_edge_targets())
        # ------------------------------------------------------------------
        # The numeric view: flat arrays indexed by dominance-preorder number.
        # ------------------------------------------------------------------
        order = self.domtree.preorder()
        #: ``numbering[node]`` = dominance-preorder number of ``node``.
        self.numbering: dict[Node, int] = self.domtree.numbering
        #: ``maxnums[n]`` = largest preorder number in the subtree of node n.
        self.maxnums: list[int] = self.domtree.maxnums()
        #: ``r_masks[n]`` = raw bit mask of ``R_v`` for the node numbered n.
        self.r_masks: list[int] = self.reach.masks
        #: ``t_masks[n]`` = raw bit mask of ``T_v`` for the node numbered n.
        self.t_masks: list[int] = self.targets.masks
        #: ``is_back_target[n]`` = a DFS back edge points at node number n.
        self.is_back_target: list[bool] = [
            node in self._back_edge_targets for node in order
        ]

    # ------------------------------------------------------------------
    # Node numbering helpers (Section 5.1)
    # ------------------------------------------------------------------
    def num(self, node: Node) -> int:
        """Dominance-preorder number of ``node``."""
        return self.numbering[node]

    def maxnum(self, node: Node) -> int:
        """Largest dominance-preorder number inside ``node``'s subtree."""
        return self.domtree.maxnum(node)

    def node_of(self, number: int) -> Node:
        """Inverse of :meth:`num`."""
        return self.domtree.node_of(number)

    def is_back_edge_target(self, node: Node) -> bool:
        """True iff a DFS back edge points at ``node`` (Algorithm 2, line 8)."""
        return node in self._back_edge_targets

    # ------------------------------------------------------------------
    # Statistics and accounting
    # ------------------------------------------------------------------
    def num_blocks(self) -> int:
        """Number of CFG nodes."""
        return len(self.graph)

    def num_edges(self) -> int:
        """Number of CFG edges."""
        return self.graph.num_edges()

    def num_back_edges(self) -> int:
        """Number of DFS back edges."""
        return len(self.dfs.back_edges())

    def storage_bits(self) -> int:
        """Payload bits of the ``R`` and ``T`` bitsets together.

        This is the quantity the paper's Section 6.1 discussion compares
        against the sorted-array live sets of the native analysis to locate
        the memory break-even point.
        """
        return self.reach.storage_bits() + self.targets.storage_bits()

    def __repr__(self) -> str:
        return (
            f"LivenessPrecomputation(blocks={self.num_blocks()}, "
            f"edges={self.num_edges()}, back_edges={self.num_back_edges()}, "
            f"reducible={self.reducible})"
        )
