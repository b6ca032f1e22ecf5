"""Edge-by-edge CFG projection and the per-edge DFS (test oracles).

The library projects a function's CFG in one read of each terminator
(:meth:`repro.ir.function.Function.build_cfg` through
:meth:`ControlFlowGraph.from_successor_lists`) and runs the DFS with bound
locals over the graph's own successor lists
(:class:`repro.cfg.dfs.DepthFirstSearch`).  This module keeps the
straightforward versions they must agree with:

* :func:`reference_build_cfg` — one ``add_node`` per block, then one
  ``add_edge`` per :meth:`BasicBlock.successors` entry;
* :class:`ReferenceDFS` — an explicit stack of successor-list iterators
  over copied successor lists, one :class:`Edge` built and classified per
  traversed edge, and the same incremental hooks (an added edge takes the
  place a fresh traversal of the edited graph examines it in).

It also keeps the name-keyed questions only tests ask of a library
:class:`~repro.cfg.dfs.DepthFirstSearch` (numbers, ancestry, edge kinds,
back edges, the reduced graph ``G̃``), as functions of the DFS that read
its block-id arrays.
"""

from __future__ import annotations

from typing import Iterator

from repro.cfg.dfs import DepthFirstSearch, EdgeKind
from repro.cfg.graph import ControlFlowGraph, Edge, Node
from repro.ir.function import Function


def reference_build_cfg(function: Function) -> ControlFlowGraph:
    """The block-level CFG, built one node and one edge at a time."""
    graph = ControlFlowGraph()
    for name in function.blocks:
        graph.add_node(name)
    graph.set_entry(function.entry.name)
    for name, block in function.blocks.items():
        for succ in block.successors():
            graph.add_edge(name, succ)
    return graph


def _visited_id(dfs: DepthFirstSearch, node: Node) -> int:
    """The id of a visited ``node``; ``KeyError`` otherwise."""
    index = dfs.ids[node]
    if dfs.pre[index] < 0:
        raise KeyError(node)
    return index


def preorder_number(dfs: DepthFirstSearch, node: Node) -> int:
    """DFS preorder (discovery) number of ``node``."""
    return dfs.pre[_visited_id(dfs, node)]


def postorder_number(dfs: DepthFirstSearch, node: Node) -> int:
    """DFS postorder (finish) number of ``node``."""
    return dfs.post[_visited_id(dfs, node)]


def is_ancestor(dfs: DepthFirstSearch, ancestor: Node, descendant: Node) -> bool:
    """True iff ``ancestor`` is an ancestor of ``descendant`` in the DFS tree.

    A node is considered an ancestor of itself, matching the convention
    used for back edges (a self-loop is a back edge).
    """
    a, d = _visited_id(dfs, ancestor), _visited_id(dfs, descendant)
    return dfs.pre[a] <= dfs.pre[d] and dfs.post[a] >= dfs.post[d]


def classify_edge(dfs: DepthFirstSearch, source: Node, target: Node) -> EdgeKind:
    """The :class:`EdgeKind` of an existing edge; ``KeyError`` otherwise."""
    kind = dfs.edge_kind(source, target)
    if kind is None:
        raise KeyError(f"edge {source!r} -> {target!r} was not traversed")
    return kind


def edge_kinds(dfs: DepthFirstSearch) -> dict[Edge, EdgeKind]:
    """Mapping of every traversed edge to its classification.

    Ordered as the traversal examines the edges: a walk down the spanning
    tree, reading each node's successor list in order.
    """
    nodes, succ_ids, parents = dfs.nodes, dfs.succ_ids, dfs.parents
    kinds: dict[Edge, EdgeKind] = {}
    entry = dfs.pre_order[0]
    stack = [(entry, iter(succ_ids[entry]))]
    while stack:
        node, succ_iter = stack[-1]
        for succ in succ_iter:
            edge = Edge(nodes[node], nodes[succ])
            kinds[edge] = dfs.edge_kind(*edge)
            if parents[succ] == node:
                stack.append((succ, iter(succ_ids[succ])))
                break
        else:
            stack.pop()
    return kinds


def back_edge_targets(dfs: DepthFirstSearch) -> list[Node]:
    """Distinct targets of back edges, in traversal order."""
    return [dfs.nodes[target] for target in dict.fromkeys(t for _s, t in dfs.back)]


def is_back_edge(dfs: DepthFirstSearch, source: Node, target: Node) -> bool:
    """True iff ``source -> target`` is a back edge of ``dfs``."""
    return dfs.edge_kind(source, target) is EdgeKind.BACK


def edge_statistics(dfs: DepthFirstSearch) -> dict[str, int]:
    """Counts per edge kind plus totals (the §6.1 statistics)."""
    counts = {kind.value: 0 for kind in EdgeKind}
    for kind in edge_kinds(dfs).values():
        counts[kind.value] += 1
    counts["total"] = sum(counts.values())
    return counts


def reduced_successors(
    graph: ControlFlowGraph, dfs: DepthFirstSearch
) -> dict[Node, list[Node]]:
    """Successor lists of the reduced graph ``G̃`` (CFG minus back edges)."""
    return {
        node: [succ for succ in graph.successors(node) if not is_back_edge(dfs, node, succ)]
        for node in graph.nodes()
    }


class ReferenceDFS:
    """Preorder/postorder numbering, parents and edge kinds, edge by edge."""

    def __init__(self, graph: ControlFlowGraph) -> None:
        self._graph = graph
        self._preorder: dict[Node, int] = {}
        self._postorder: dict[Node, int] = {}
        self._parent: dict[Node, Node | None] = {}
        self._preorder_nodes: list[Node] = []
        self._postorder_nodes: list[Node] = []
        self._edge_kinds: dict[Edge, EdgeKind] = {}
        self._back_edges: list[Edge] = []
        entry = graph.entry
        self._parent[entry] = None
        self._pre(entry)
        stack: list[tuple[Node, Iterator[Node]]] = [(entry, iter(graph.successors(entry)))]
        on_stack = {entry}
        while stack:
            node, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                edge = Edge(node, succ)
                if succ not in self._preorder:
                    self._edge_kinds[edge] = EdgeKind.TREE
                    self._parent[succ] = node
                    self._pre(succ)
                    stack.append((succ, iter(graph.successors(succ))))
                    on_stack.add(succ)
                    advanced = True
                    break
                if succ in on_stack:
                    self._edge_kinds[edge] = EdgeKind.BACK
                    self._back_edges.append(edge)
                elif self._preorder[node] < self._preorder[succ]:
                    self._edge_kinds[edge] = EdgeKind.FORWARD
                else:
                    self._edge_kinds[edge] = EdgeKind.CROSS
            if not advanced:
                stack.pop()
                on_stack.discard(node)
                self._postorder[node] = len(self._postorder_nodes)
                self._postorder_nodes.append(node)

    def _pre(self, node: Node) -> None:
        self._preorder[node] = len(self._preorder_nodes)
        self._preorder_nodes.append(node)

    def preorder(self) -> list[Node]:
        return list(self._preorder_nodes)

    def postorder(self) -> list[Node]:
        return list(self._postorder_nodes)

    def preorder_number(self, node: Node) -> int:
        return self._preorder[node]

    def postorder_number(self, node: Node) -> int:
        return self._postorder[node]

    def parent(self, node: Node) -> Node | None:
        return self._parent[node]

    def edge_kinds(self) -> dict[Edge, EdgeKind]:
        return dict(self._edge_kinds)

    def back_edges(self) -> list[Edge]:
        return list(self._back_edges)

    def classify_inserted_edge(self, source: Node, target: Node) -> EdgeKind | None:
        pre_s, pre_t = self._preorder[source], self._preorder[target]
        post_s, post_t = self._postorder[source], self._postorder[target]
        if pre_t <= pre_s and post_t >= post_s:
            return EdgeKind.BACK
        if pre_t > pre_s:
            return EdgeKind.FORWARD if post_t < post_s else None
        return EdgeKind.CROSS

    def note_edge_added(self, source: Node, target: Node, kind: EdgeKind) -> None:
        self._edge_kinds[Edge(source, target)] = kind
        # The traversal is preserved, so a fresh one over the edited graph
        # examines the edges, and records the back edges, in the order to
        # keep; every kind stays the one recorded.
        fresh = ReferenceDFS(self._graph)
        self._edge_kinds = {edge: self._edge_kinds[edge] for edge in fresh.edge_kinds()}
        if kind is EdgeKind.BACK:
            self._back_edges = fresh.back_edges()

    def note_edge_removed(self, source: Node, target: Node) -> None:
        edge = Edge(source, target)
        kind = self._edge_kinds.pop(edge)
        if kind is EdgeKind.TREE:
            raise ValueError(
                f"tree edge {source!r} -> {target!r} cannot be removed "
                "incrementally; rebuild the DFS"
            )
        if kind is EdgeKind.BACK:
            self._back_edges.remove(edge)
