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

The whole cold build runs on block indices: the DFS maps the graph's
successor lists to int lists once, and the dominator tree, ``R`` and ``T``
are computed on flat lists from there.  The constructor only aliases the
results (``maxnums`` *is* ``domtree.maxnum_of``, ``r_masks`` *is*
``reach.masks``, ``t_masks`` *is* ``targets.masks``) next to
``is_back_target``; the name-keyed ``numbering`` is derived on first
use.  These int masks are the only form of ``R`` and ``T``: the checker
(:mod:`repro.core.live_checker`, :mod:`repro.core.batch`) runs Algorithm 3
on them with no ``node_of`` round-trip per query.
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
        self.dfs = dfs = DepthFirstSearch(graph)
        # The nodes the DFS reached are the reachability check: no second
        # traversal.
        graph.validate(reached=len(dfs.pre_order))
        self.domtree = domtree = DominatorTree(graph, dfs)
        self.reach = ReducedReachability(dfs, domtree)
        self.targets = TargetSets(dfs, domtree, self.reach)
        # ------------------------------------------------------------------
        # The numeric view: flat arrays indexed by dominance-preorder number,
        # shared with the objects above (an edit patches them in place).
        # ------------------------------------------------------------------
        #: ``maxnums[n]`` = largest preorder number in the subtree of node n.
        self.maxnums: list[int] = domtree.maxnum_of
        #: ``r_masks[n]`` = raw bit mask of ``R_v`` for the node numbered n.
        self.r_masks: list[int] = self.reach.masks
        #: ``t_masks[n]`` = raw bit mask of ``T_v`` for the node numbered n.
        self.t_masks: list[int] = self.targets.masks
        #: ``is_back_target[n]`` = a DFS back edge points at node number n.
        self.is_back_target: list[bool] = [False] * len(self.maxnums)
        numbers = domtree.numbers
        for _source, target in dfs.back:
            self.is_back_target[numbers[target]] = True
        self.reducible = is_reducible(graph, dfs, domtree)

    @property
    def numbering(self) -> dict[Node, int]:
        """``numbering[node]`` = dominance-preorder number of ``node``."""
        return self.domtree.numbering

    # ------------------------------------------------------------------
    # Node numbering helpers (Section 5.1)
    # ------------------------------------------------------------------
    def num(self, node: Node) -> int:
        """Dominance-preorder number of ``node``."""
        return self.domtree.numbering[node]

    def maxnum(self, node: Node) -> int:
        """Largest dominance-preorder number inside ``node``'s subtree."""
        return self.domtree.maxnum(node)

    def node_of(self, number: int) -> Node:
        """Inverse of :meth:`num`."""
        return self.domtree.node_of(number)

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
        return len(self.dfs.back)

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
