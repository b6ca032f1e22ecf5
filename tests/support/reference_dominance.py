"""Node-keyed dominator constructions (test oracles).

The library runs CHK on integer reverse-postorder indices
(:func:`repro.cfg.dominance._rpo_idoms`) and derives the dominance
preorder from subtree sizes.  This module keeps the textbook version the
index form must agree with, written the slow, obvious way over
node-keyed dicts:

* :func:`reference_idoms` — the RPO fixpoint with ``intersect`` walking
  node-keyed ``idom`` links, every sweep repeated until nothing changes;
* :class:`ReferenceDominance` — children sorted by RPO index and the
  ``num``/``maxnum`` numbering from an explicit stack preorder walk;
* :func:`immediate_dominators_lengauer_tarjan` — an independent
  construction, Lengauer–Tarjan with simple path compression.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.graph import ControlFlowGraph, Node


def reference_idoms(graph: ControlFlowGraph, dfs: DepthFirstSearch) -> dict[Node, Node]:
    """``node -> idom(node)``, the entry mapping to itself."""
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


class ReferenceDominance:
    """Children, preorder and ``num``/``maxnum`` from :func:`reference_idoms`."""

    def __init__(self, graph: ControlFlowGraph, dfs: DepthFirstSearch | None = None) -> None:
        dfs = dfs if dfs is not None else DepthFirstSearch(graph)
        self.idom = reference_idoms(graph, dfs)
        self.children: dict[Node, list[Node]] = {node: [] for node in self.idom}
        for node, idom in self.idom.items():
            if idom != node:
                self.children[idom].append(node)
        rpo_index = {node: index for index, node in enumerate(dfs.reverse_postorder())}
        for children in self.children.values():
            children.sort(key=rpo_index.__getitem__)
        self.num: dict[Node, int] = {}
        self.maxnum: dict[Node, int] = {}
        self.preorder: list[Node] = []
        stack: list[tuple[Node, bool]] = [(graph.entry, False)]
        while stack:
            node, exiting = stack.pop()
            if exiting:
                children = self.children[node]
                self.maxnum[node] = self.maxnum[children[-1]] if children else self.num[node]
                continue
            self.num[node] = len(self.preorder)
            self.preorder.append(node)
            stack.append((node, True))
            for child in reversed(self.children[node]):
                stack.append((child, False))

    def idom_map(self) -> dict[Node, Node | None]:
        """Immediate dominators with the entry mapped to ``None``."""
        return {node: None if idom == node else idom for node, idom in self.idom.items()}


def immediate_dominators_lengauer_tarjan(
    graph: ControlFlowGraph,
) -> dict[Node, Node | None]:
    """Compute immediate dominators with the Lengauer–Tarjan algorithm.

    This is the "simple" O(m log n) variant with path compression, an
    independent construction to check :class:`DominatorTree` against on
    randomly generated CFGs.
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
