"""Dominator trees and the dominance-preorder numbering of Section 5.1.

A node ``x`` dominates ``y`` when every path from the entry to ``y`` passes
through ``x``; dominance is *strict* when additionally ``x != y``
(Section 2.1).  The dominance relation forms a tree, and strict SSA form
guarantees that every use of a variable is dominated by its definition —
the property that makes the whole liveness-checking approach work.

Two classic constructions are provided:

* :class:`DominatorTree` (default) — the Cooper–Harvey–Kennedy iterative
  algorithm ("A Simple, Fast Dominance Algorithm"), run on integer
  reverse-postorder indices as its authors designed it; near-linear in
  practice and easy to audit.
* :func:`immediate_dominators_lengauer_tarjan` — the Lengauer–Tarjan
  algorithm with simple path compression, used by the test suite to
  cross-validate the iterative construction on random graphs.

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

    Everything is held by dominance-preorder number: ``_preorder_nodes``
    maps numbers to nodes, ``_num`` maps back, and ``_maxnums`` /
    ``_idom_nums`` are flat lists over the numbers.  Children are not
    stored: those of ``k`` are ``k + 1``, then ``maxnum(child) + 1``
    after each child, up to ``maxnum(k)``.
    """

    def __init__(self, graph: ControlFlowGraph, dfs: DepthFirstSearch | None = None) -> None:
        self._graph = graph
        self._dfs = dfs if dfs is not None else DepthFirstSearch(graph)
        rpo = self._dfs.reverse_postorder()
        idom = _rpo_idoms(graph, rpo)
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
        nodes: list[Node] = [None] * count
        maxnums = [0] * count
        idom_nums = [0] * count
        for index, node in enumerate(rpo):
            first = number[index]
            nodes[first] = node
            maxnums[first] = first + size[index] - 1
            idom_nums[first] = number[idom[index]]
        self._preorder_nodes = nodes
        self._num: dict[Node, int] = dict(zip(nodes, range(count)))
        self._maxnums = maxnums
        self._idom_nums = idom_nums
        self._depths: list[int] | None = None

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
        number = self._num[node]
        return self._preorder_nodes[self._idom_nums[number]] if number else None

    def children(self, node: Node) -> list[Node]:
        """The nodes whose immediate dominator is ``node`` (RPO order)."""
        nodes, maxnums = self._preorder_nodes, self._maxnums
        number = self._num[node]
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
            depths = [0] * len(self._idom_nums)
            for number, parent in enumerate(self._idom_nums):
                if number:
                    depths[number] = depths[parent] + 1
            self._depths = depths
        return self._depths[self._num[node]]

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
        nodes, num = self._preorder_nodes, self._num
        maxnums, idom_nums = self._maxnums, self._idom_nums
        dfs = self._dfs
        owns_target = dfs.parent(target) == node and all(
            pred == node or self.dominates(target, pred)
            for pred in self._graph.predecessors(target)
        )
        # Children are sorted by RPO, i.e. by decreasing postorder number.
        post = dfs.postorder_number
        limit = post(node)
        parent = num[source]
        child = parent + 1
        while child <= maxnums[parent] and post(nodes[child]) > limit:
            child = maxnums[child] + 1
        number = child
        last = maxnums[number] + 1 if owns_target else number
        maxnums[:] = [m + 1 if m >= number else m for m in maxnums]
        idom_nums[:] = [i + 1 if i >= number else i for i in idom_nums]
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
        nodes.insert(number, node)
        num.update(zip(nodes[number:], range(number, len(nodes))))
        self._depths = None
        return number

    # ------------------------------------------------------------------
    # Dominance queries
    # ------------------------------------------------------------------
    def dominates(self, x: Node, y: Node) -> bool:
        """``x dom y``: every entry-to-``y`` path contains ``x``.

        Implemented as an O(1) interval test on the preorder numbering: a
        node dominates exactly the nodes of its dominance subtree.
        """
        lo = self._num[x]
        return lo <= self._num[y] <= self._maxnums[lo]

    def strictly_dominates(self, x: Node, y: Node) -> bool:
        """``x sdom y``: ``x dom y`` and ``x != y``."""
        return x != y and self.dominates(x, y)

    def dominated(self, node: Node) -> list[Node]:
        """``dom(node)``: every node dominated by ``node`` (preorder)."""
        lo = self._num[node]
        return self._preorder_nodes[lo : self._maxnums[lo] + 1]

    def strictly_dominated(self, node: Node) -> list[Node]:
        """``sdom(node) = dom(node) \\ {node}`` (preorder)."""
        lo = self._num[node]
        return self._preorder_nodes[lo + 1 : self._maxnums[lo] + 1]

    def dominators_of(self, node: Node) -> list[Node]:
        """All dominators of ``node``, from the node itself up to the entry."""
        nodes, idom_nums = self._preorder_nodes, self._idom_nums
        number = self._num[node]
        chain = [node]
        while number:
            number = idom_nums[number]
            chain.append(nodes[number])
        return chain

    def nearest_common_dominator(self, x: Node, y: Node) -> Node:
        """The closest node dominating both ``x`` and ``y``."""
        idom_nums = self._idom_nums
        a, b = self._num[x], self._num[y]
        # The larger number cannot be an ancestor of the smaller one, so
        # it is safe to step it up to its immediate dominator.
        while a != b:
            if a > b:
                a = idom_nums[a]
            else:
                b = idom_nums[b]
        return self._preorder_nodes[a]

    # ------------------------------------------------------------------
    # Preorder numbering (Section 5.1)
    # ------------------------------------------------------------------
    def num(self, node: Node) -> int:
        """Dominance-tree preorder number of ``node``."""
        return self._num[node]

    def maxnum(self, node: Node) -> int:
        """Largest preorder number inside ``node``'s dominance subtree."""
        return self._maxnums[self._num[node]]

    def node_of(self, number: int) -> Node:
        """Inverse of :meth:`num`."""
        return self._preorder_nodes[number]

    @property
    def numbering(self) -> dict[Node, int]:
        """``node -> num(node)`` as one dict (shared; do not mutate)."""
        return self._num

    def maxnums(self) -> list[int]:
        """``maxnum`` of every node, indexed by preorder number (a copy)."""
        return list(self._maxnums)

    def preorder(self) -> list[Node]:
        """Nodes ordered by their dominance-preorder number."""
        return list(self._preorder_nodes)

    def __len__(self) -> int:
        return len(self._preorder_nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._preorder_nodes)

    def as_idom_map(self) -> dict[Node, Node | None]:
        """Immediate-dominator mapping (entry maps to ``None``)."""
        return {node: self.immediate_dominator(node) for node in self._preorder_nodes}


# ----------------------------------------------------------------------
# Cooper–Harvey–Kennedy iterative construction
# ----------------------------------------------------------------------
def _rpo_idoms(graph: ControlFlowGraph, rpo: list[Node]) -> list[int]:
    """CHK on reverse-postorder indices: ``idom[i]`` is an RPO index.

    ``rpo`` must be the reverse postorder of a DFS of ``graph`` from its
    entry; ``idom[0] == 0`` marks the entry.  An immediate dominator
    always has the smaller index, so ``intersect`` walks the larger of
    two indices up until they meet.
    """
    count = len(rpo)
    index = dict(zip(rpo, range(count)))
    if count != len(graph):
        missing = [node for node in graph.nodes() if node not in index]
        raise ValueError(f"nodes unreachable from entry: {missing!r}")
    predecessors = graph.predecessors
    preds = [
        [index[pred] for pred in predecessors(node) if pred in index]
        for node in rpo
    ]
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


def _immediate_dominators_iterative(
    graph: ControlFlowGraph, dfs: DepthFirstSearch
) -> dict[Node, Node]:
    """Compute ``idom`` with the classic RPO fixpoint iteration.

    The entry maps to itself (the conventional sentinel), and the public
    :class:`DominatorTree` API converts that back to ``None``.  ``dfs``
    may be one preserved across edits by :mod:`repro.core.incremental`,
    as long as it is still a genuine DFS of ``graph``.
    """
    rpo = dfs.reverse_postorder()
    idom = _rpo_idoms(graph, rpo)
    return {node: rpo[parent] for node, parent in zip(rpo, idom)}


# ----------------------------------------------------------------------
# Lengauer–Tarjan (simple path compression) — used for cross-validation
# ----------------------------------------------------------------------
def immediate_dominators_lengauer_tarjan(
    graph: ControlFlowGraph,
) -> dict[Node, Node | None]:
    """Compute immediate dominators with the Lengauer–Tarjan algorithm.

    This is the "simple" O(m log n) variant with path compression.  The
    public entry point of the library is :class:`DominatorTree`; this
    function exists so the test suite can check the two independent
    constructions against each other on randomly generated CFGs.
    """
    dfs = DepthFirstSearch(graph)
    order = dfs.preorder()
    number = {node: index for index, node in enumerate(order)}
    parent = {node: dfs.parent(node) for node in order}

    semi = dict(number)
    vertex = list(order)
    bucket: dict[Node, list[Node]] = {node: [] for node in order}
    dom: dict[Node, Node] = {}

    ancestor: dict[Node, Node | None] = {node: None for node in order}
    label: dict[Node, Node] = {node: node for node in order}

    def compress(v: Node) -> None:
        # Iterative path compression to avoid recursion limits.
        path = []
        while ancestor[v] is not None and ancestor[ancestor[v]] is not None:
            path.append(v)
            v = ancestor[v]
        while path:
            node = path.pop()
            anc = ancestor[node]
            if semi[label[anc]] < semi[label[node]]:
                label[node] = label[anc]
            ancestor[node] = ancestor[anc]

    def evaluate(v: Node) -> Node:
        if ancestor[v] is None:
            return label[v]
        compress(v)
        return label[v]

    for w in reversed(order[1:]):
        for v in graph.predecessors(w):
            if v not in number:
                continue
            u = evaluate(v)
            if semi[u] < semi[w]:
                semi[w] = semi[u]
        bucket[vertex[semi[w]]].append(w)
        par = parent[w]
        assert par is not None
        ancestor[w] = par
        for v in bucket[par]:
            u = evaluate(v)
            dom[v] = u if semi[u] < semi[v] else par
        bucket[par].clear()

    for w in order[1:]:
        if dom[w] != vertex[semi[w]]:
            dom[w] = dom[dom[w]]

    result: dict[Node, Node | None] = {order[0]: None}
    for w in order[1:]:
        result[w] = dom[w]
    return result
