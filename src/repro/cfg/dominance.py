"""Dominator trees and the dominance-preorder numbering of Section 5.1.

A node ``x`` dominates ``y`` when every path from the entry to ``y`` passes
through ``x``; dominance is *strict* when additionally ``x != y``
(Section 2.1).  The dominance relation forms a tree, and strict SSA form
guarantees that every use of a variable is dominated by its definition —
the property that makes the whole liveness-checking approach work.

:class:`DominatorTree` uses the Cooper–Harvey–Kennedy iterative algorithm
("A Simple, Fast Dominance Algorithm"), run on integer reverse-postorder
indices as its authors designed it; near-linear in practice and easy to
audit.

On top of the tree the class exposes the dominance-preorder numbering used
by the bitset implementation of the checker: ``num(v)`` is a preorder index
of the dominance tree and ``maxnum(v)`` is the largest index inside ``v``'s
subtree, so the nodes strictly dominated by ``v`` are exactly those whose
number lies in ``(num(v), maxnum(v)]`` and the ones dominated (non-strictly)
occupy ``[num(v), maxnum(v)]``.
"""

from __future__ import annotations

from typing import Iterator

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.graph import ControlFlowGraph, Node


class DominatorTree:
    """Immediate dominators, dominance queries and preorder numbering.

    Built on the DFS's block ids, everything is held in flat int lists:
    ``numbers[id]`` is a node's dominance-preorder number, and
    ``maxnum_of`` / ``idom_of`` are indexed by that number.  Children are
    not stored: those of ``k`` are ``k + 1``, then ``maxnum(child) + 1``
    after each child, up to ``maxnum(k)``.  The name-keyed views — the
    ``numbering`` dict and the nodes in preorder — are derived from
    ``numbers`` on first use.
    """

    def __init__(self, graph: ControlFlowGraph, dfs: DepthFirstSearch | None = None) -> None:
        self._graph = graph
        self._dfs = dfs = dfs if dfs is not None else DepthFirstSearch(graph)
        idom = _rpo_idoms(dfs)
        rpo = dfs.post_order[::-1]
        count = len(rpo)
        # Subtree sizes: an immediate dominator precedes its node in RPO,
        # so one backward sweep folds every subtree into its root.
        size = [1] * count
        for index in range(count - 1, 0, -1):
            size[idom[index]] += size[index]
        # Preorder numbers with children visited in RPO order (so the
        # numbering roughly follows control flow, as in the paper's
        # Figure 3): a node takes the next free slot of its immediate
        # dominator, and its own children start right after it.
        number = [0] * count
        slot = [1] * count
        for index in range(1, count):
            parent = idom[index]
            first = slot[parent]
            number[index] = first
            slot[parent] = first + size[index]
            slot[index] = first + 1
        numbers = [0] * count
        maxnums = [0] * count
        idom_nums = [0] * count
        for index, node in enumerate(rpo):
            first = number[index]
            numbers[node] = first
            maxnums[first] = first + size[index] - 1
            idom_nums[first] = number[idom[index]]
        #: ``numbers[id]`` = dominance-preorder number of the node with DFS
        #: id ``id`` (shared; do not mutate).
        self.numbers: list[int] = numbers
        #: ``maxnum_of[k]`` = largest number in the subtree of node ``k``.
        self.maxnum_of: list[int] = maxnums
        #: ``idom_of[k]`` = number of node ``k``'s immediate dominator
        #: (``0`` for the root).
        self.idom_of: list[int] = idom_nums
        self._numbering: dict[Node, int] | None = None
        self._order: list[Node] | None = None
        self._depths: list[int] | None = None

    # ------------------------------------------------------------------
    # Name-keyed views (derived from ``numbers`` on first use)
    # ------------------------------------------------------------------
    @property
    def numbering(self) -> dict[Node, int]:
        """``node -> num(node)`` as one dict (shared; do not mutate)."""
        if self._numbering is None:
            self._numbering = dict(zip(self._dfs.nodes, self.numbers))
        return self._numbering

    def _nodes(self) -> list[Node]:
        """The nodes by dominance-preorder number (shared)."""
        if self._order is None:
            order: list[Node] = [None] * len(self.numbers)
            for node, number in zip(self._dfs.nodes, self.numbers):
                order[number] = node
            self._order = order
        return self._order

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ControlFlowGraph:
        """The underlying control-flow graph."""
        return self._graph

    @property
    def dfs(self) -> DepthFirstSearch:
        """The DFS used for the reverse-postorder fixpoint iteration."""
        return self._dfs

    @property
    def root(self) -> Node:
        """The root of the dominance tree (the CFG entry)."""
        return self._graph.entry

    def immediate_dominator(self, node: Node) -> Node | None:
        """The immediate dominator of ``node`` (``None`` for the entry)."""
        number = self.numbering[node]
        return self._nodes()[self.idom_of[number]] if number else None

    def children(self, node: Node) -> list[Node]:
        """The nodes whose immediate dominator is ``node`` (RPO order)."""
        nodes, maxnums = self._nodes(), self.maxnum_of
        number = self.numbering[node]
        child, last = number + 1, maxnums[number]
        result = []
        while child <= last:
            result.append(nodes[child])
            child = maxnums[child] + 1
        return result

    def depth(self, node: Node) -> int:
        """Distance of ``node`` from the root of the dominance tree."""
        if self._depths is None:
            # An immediate dominator has the smaller preorder number.
            depths = [0] * len(self.idom_of)
            for number, parent in enumerate(self.idom_of):
                if number:
                    depths[number] = depths[parent] + 1
            self._depths = depths
        return self._depths[self.numbering[node]]

    def note_edge_split(self, source: Node, target: Node, node: Node) -> int:
        """Insert ``node``, just split onto the edge ``source -> target``.

        The graph and the DFS must already be patched
        (:meth:`DepthFirstSearch.note_edge_split`).  ``node``'s only
        predecessor is ``source``, so it becomes a child of ``source``,
        sorted among the other children by reverse postorder as in
        :meth:`__init__`.  It dominates nothing but itself unless every
        other predecessor of ``target`` is dominated by ``target``; then it
        also takes over ``target``'s subtree.  No other immediate dominator
        changes.  Returns ``node``'s number: every number from it on
        shifts up by one.
        """
        numbers, maxnums, idom_nums = self.numbers, self.maxnum_of, self.idom_of
        dfs = self._dfs
        ids = dfs.ids
        s, t, new = ids[source], ids[target], ids[node]
        t_num = numbers[t]
        owns_target = dfs.parents[t] == new and all(
            pred == node or t_num <= numbers[ids[pred]] <= maxnums[t_num]
            for pred in self._graph.predecessors(target)
        )
        # Children are sorted by RPO, i.e. by decreasing postorder number.
        by_number = [0] * len(numbers)
        for index, number in enumerate(numbers):
            by_number[number] = index
        post = dfs.post
        limit = post[new]
        parent = numbers[s]
        child = parent + 1
        while child <= maxnums[parent] and post[by_number[child]] > limit:
            child = maxnums[child] + 1
        number = child
        last = maxnums[number] + 1 if owns_target else number
        maxnums[:] = [m + 1 if m >= number else m for m in maxnums]
        idom_nums[:] = [i + 1 if i >= number else i for i in idom_nums]
        numbers[:] = [n + 1 if n >= number else n for n in numbers]
        # Ancestors whose subtree ended right before the slot grow into it.
        ancestor = parent
        while maxnums[ancestor] == number - 1:
            maxnums[ancestor] = number
            if not ancestor:
                break
            ancestor = idom_nums[ancestor]
        maxnums.insert(number, last)
        idom_nums.insert(number, parent)
        if owns_target:
            idom_nums[number + 1] = number
        numbers.append(number)
        self._numbering = self._order = self._depths = None
        return number

    # ------------------------------------------------------------------
    # Dominance queries
    # ------------------------------------------------------------------
    def dominates(self, x: Node, y: Node) -> bool:
        """``x dom y``: every entry-to-``y`` path contains ``x``.

        Implemented as an O(1) interval test on the preorder numbering: a
        node dominates exactly the nodes of its dominance subtree.
        """
        num = self.numbering
        lo = num[x]
        return lo <= num[y] <= self.maxnum_of[lo]

    def strictly_dominates(self, x: Node, y: Node) -> bool:
        """``x sdom y``: ``x dom y`` and ``x != y``."""
        return x != y and self.dominates(x, y)

    def dominated(self, node: Node) -> list[Node]:
        """``dom(node)``: every node dominated by ``node`` (preorder)."""
        lo = self.numbering[node]
        return self._nodes()[lo : self.maxnum_of[lo] + 1]

    def strictly_dominated(self, node: Node) -> list[Node]:
        """``sdom(node) = dom(node) \\ {node}`` (preorder)."""
        lo = self.numbering[node]
        return self._nodes()[lo + 1 : self.maxnum_of[lo] + 1]

    def dominators_of(self, node: Node) -> list[Node]:
        """All dominators of ``node``, from the node itself up to the entry."""
        nodes, idom_nums = self._nodes(), self.idom_of
        number = self.numbering[node]
        chain = [node]
        while number:
            number = idom_nums[number]
            chain.append(nodes[number])
        return chain

    def nearest_common_dominator(self, x: Node, y: Node) -> Node:
        """The closest node dominating both ``x`` and ``y``."""
        idom_nums = self.idom_of
        num = self.numbering
        a, b = num[x], num[y]
        # The larger number cannot be an ancestor of the smaller one, so
        # it is safe to step it up to its immediate dominator.
        while a != b:
            if a > b:
                a = idom_nums[a]
            else:
                b = idom_nums[b]
        return self._nodes()[a]

    # ------------------------------------------------------------------
    # Preorder numbering (Section 5.1)
    # ------------------------------------------------------------------
    def num(self, node: Node) -> int:
        """Dominance-tree preorder number of ``node``."""
        return self.numbering[node]

    def maxnum(self, node: Node) -> int:
        """Largest preorder number inside ``node``'s dominance subtree."""
        return self.maxnum_of[self.numbering[node]]

    def node_of(self, number: int) -> Node:
        """Inverse of :meth:`num`."""
        return self._nodes()[number]

    def maxnums(self) -> list[int]:
        """``maxnum`` of every node, indexed by preorder number (a copy)."""
        return list(self.maxnum_of)

    def preorder(self) -> list[Node]:
        """Nodes ordered by their dominance-preorder number."""
        return list(self._nodes())

    def __len__(self) -> int:
        return len(self.maxnum_of)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes())

    def as_idom_map(self) -> dict[Node, Node | None]:
        """Immediate-dominator mapping (entry maps to ``None``)."""
        return {node: self.immediate_dominator(node) for node in self._nodes()}


# ----------------------------------------------------------------------
# Cooper–Harvey–Kennedy iterative construction
# ----------------------------------------------------------------------
def _rpo_idoms(dfs: DepthFirstSearch) -> list[int]:
    """CHK on reverse-postorder indices: ``idom[i]`` is an RPO index.

    ``dfs`` must be a DFS of the graph from its entry that reached every
    node; ``idom[0] == 0`` marks the entry.  An immediate dominator
    always has the smaller index, so ``intersect`` walks the larger of
    two indices up until they meet.
    """
    post_order, post = dfs.post_order, dfs.post
    count = len(post_order)
    if count != len(dfs.nodes):
        missing = [node for node, number in zip(dfs.nodes, post) if number < 0]
        raise ValueError(f"nodes unreachable from entry: {missing!r}")
    # Node ``v`` has RPO index ``last - post[v]``; walking in RPO leaves
    # every predecessor list sorted.
    last = count - 1
    succ_ids = dfs.succ_ids
    preds: list[list[int]] = [[] for _ in range(count)]
    for index in range(count):
        for succ in succ_ids[post_order[last - index]]:
            preds[last - post[succ]].append(index)
    idom = [-1] * count
    idom[0] = 0
    changed = True
    while changed:
        changed = False
        for node in range(1, count):
            new = -1
            for pred in preds[node]:
                if idom[pred] < 0:
                    continue  # not reached by this sweep yet
                if new < 0:
                    new = pred
                    continue
                while pred != new:
                    while pred > new:
                        pred = idom[pred]
                    while new > pred:
                        new = idom[new]
            if idom[node] != new:
                idom[node] = new
                changed = True
    return idom

