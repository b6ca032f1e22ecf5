"""Dominator trees and the dominance-preorder numbering of Section 5.1.

A node ``x`` dominates ``y`` when every path from the entry to ``y`` passes
through ``x``; dominance is *strict* when additionally ``x != y``
(Section 2.1).  The dominance relation forms a tree, and strict SSA form
guarantees that every use of a variable is dominated by its definition —
the property that makes the whole liveness-checking approach work.

Two classic constructions are provided:

* :class:`DominatorTree` (default) — the Cooper–Harvey–Kennedy iterative
  algorithm over reverse postorder ("A Simple, Fast Dominance Algorithm"),
  which is near-linear in practice and easy to audit.
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
    """Immediate dominators, dominance queries and preorder numbering."""

    def __init__(self, graph: ControlFlowGraph, dfs: DepthFirstSearch | None = None) -> None:
        self._graph = graph
        self._dfs = dfs if dfs is not None else DepthFirstSearch(graph)
        self._idom = _immediate_dominators_iterative(graph, self._dfs)
        self._children: dict[Node, list[Node]] = {node: [] for node in self._idom}
        for node, idom in self._idom.items():
            if idom is not None and idom != node:
                self._children[idom].append(node)
        # Children are kept in reverse-postorder so that the preorder
        # numbering below is deterministic and roughly follows control flow,
        # matching the numeration shown in the paper's Figure 3.
        rpo_index = {
            node: index for index, node in enumerate(self._dfs.reverse_postorder())
        }
        for children in self._children.values():
            children.sort(key=rpo_index.__getitem__)
        self._num: dict[Node, int] = {}
        self._maxnum: dict[Node, int] = {}
        self._preorder_nodes: list[Node] = []
        self._number_tree()
        self._depth: dict[Node, int] = {}
        self._compute_depths()

    # ------------------------------------------------------------------
    # Construction details
    # ------------------------------------------------------------------
    def _number_tree(self) -> None:
        """Assign ``num``/``maxnum`` by an iterative preorder walk."""
        root = self._graph.entry
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, exiting = stack.pop()
            if exiting:
                children = self._children[node]
                self._maxnum[node] = (
                    self._maxnum[children[-1]] if children else self._num[node]
                )
                continue
            self._num[node] = len(self._preorder_nodes)
            self._preorder_nodes.append(node)
            stack.append((node, True))
            for child in reversed(self._children[node]):
                stack.append((child, False))

    def _compute_depths(self) -> None:
        for node in self._preorder_nodes:
            idom = self._idom[node]
            if idom is None or idom == node:
                self._depth[node] = 0
            else:
                self._depth[node] = self._depth[idom] + 1

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
        idom = self._idom[node]
        return None if idom == node else idom

    def children(self, node: Node) -> list[Node]:
        """The nodes whose immediate dominator is ``node``."""
        return list(self._children[node])

    def depth(self, node: Node) -> int:
        """Distance of ``node`` from the root of the dominance tree."""
        return self._depth[node]

    # ------------------------------------------------------------------
    # Dominance queries
    # ------------------------------------------------------------------
    def dominates(self, x: Node, y: Node) -> bool:
        """``x dom y``: every entry-to-``y`` path contains ``x``.

        Implemented as an O(1) interval test on the preorder numbering: a
        node dominates exactly the nodes of its dominance subtree.
        """
        return self._num[x] <= self._num[y] <= self._maxnum[x]

    def strictly_dominates(self, x: Node, y: Node) -> bool:
        """``x sdom y``: ``x dom y`` and ``x != y``."""
        return x != y and self.dominates(x, y)

    def dominated(self, node: Node) -> list[Node]:
        """``dom(node)``: every node dominated by ``node`` (preorder)."""
        lo, hi = self._num[node], self._maxnum[node]
        return self._preorder_nodes[lo : hi + 1]

    def strictly_dominated(self, node: Node) -> list[Node]:
        """``sdom(node) = dom(node) \\ {node}`` (preorder)."""
        lo, hi = self._num[node], self._maxnum[node]
        return self._preorder_nodes[lo + 1 : hi + 1]

    def dominators_of(self, node: Node) -> list[Node]:
        """All dominators of ``node``, from the node itself up to the entry."""
        chain = [node]
        current = node
        while True:
            idom = self.immediate_dominator(current)
            if idom is None:
                return chain
            chain.append(idom)
            current = idom

    def nearest_common_dominator(self, x: Node, y: Node) -> Node:
        """The closest node dominating both ``x`` and ``y``."""
        while x != y:
            if self._depth[x] < self._depth[y]:
                x, y = y, x
            idom = self.immediate_dominator(x)
            assert idom is not None, "walked past the dominance-tree root"
            x = idom
        return x

    # ------------------------------------------------------------------
    # Preorder numbering (Section 5.1)
    # ------------------------------------------------------------------
    def num(self, node: Node) -> int:
        """Dominance-tree preorder number of ``node``."""
        return self._num[node]

    def maxnum(self, node: Node) -> int:
        """Largest preorder number inside ``node``'s dominance subtree."""
        return self._maxnum[node]

    def node_of(self, number: int) -> Node:
        """Inverse of :meth:`num`."""
        return self._preorder_nodes[number]

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
def _immediate_dominators_iterative(
    graph: ControlFlowGraph, dfs: DepthFirstSearch
) -> dict[Node, Node]:
    """Compute ``idom`` with the classic RPO fixpoint iteration.

    The entry maps to itself (the conventional sentinel), and the public
    :class:`DominatorTree` API converts that back to ``None``.
    """
    rpo = dfs.reverse_postorder()
    rpo_index = {node: index for index, node in enumerate(rpo)}
    entry = graph.entry
    idom: dict[Node, Node] = {entry: entry}

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == entry:
                continue
            candidates = [
                pred
                for pred in graph.predecessors(node)
                if pred in idom and dfs.visited(pred)
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    missing = [node for node in graph.nodes() if node not in idom]
    if missing:
        raise ValueError(f"nodes unreachable from entry: {missing!r}")
    return idom


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
