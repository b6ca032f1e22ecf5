"""Depth-first search: spanning tree, numbering and edge classification.

Section 2.1 of the paper classifies CFG edges relative to a DFS spanning
tree into *tree*, *back*, *forward* and *cross* edges (Figure 1) and defines
the set of back edges

    E↑ = {(s, t) ∈ E | t is an ancestor of s in the DFS tree}.

Back edges are the load-bearing concept of the whole approach: the reduced
graph ``G̃`` is the CFG minus its back edges, ``R_v`` is reachability in
``G̃``, and ``T_v`` collects back-edge *targets*.  The DFS also provides the
reverse-postorder used as a topological order of ``G̃`` during the
precomputation (Section 5.2) and the preorder used in the proof of
Theorem 3.

The implementation is iterative (explicit stack) so that functions with
thousands of blocks do not hit Python's recursion limit.
"""

from __future__ import annotations

import enum
from typing import Iterator

from repro.cfg.graph import ControlFlowGraph, Edge, Node


class EdgeKind(enum.Enum):
    """Classification of a CFG edge with respect to a DFS spanning tree."""

    TREE = "tree"
    BACK = "back"
    FORWARD = "forward"
    CROSS = "cross"


class DepthFirstSearch:
    """A DFS of a :class:`ControlFlowGraph` from its entry node.

    The traversal visits successors in their insertion order, so results are
    deterministic for a given graph construction order.  All nodes are
    assumed reachable from the entry (callers should run
    :meth:`ControlFlowGraph.validate` first); unreachable nodes are simply
    absent from the numberings and ``classify_edge`` raises for them.
    """

    def __init__(self, graph: ControlFlowGraph) -> None:
        self._graph = graph
        self._preorder: dict[Node, int] = {}
        self._postorder: dict[Node, int] = {}
        self._parent: dict[Node, Node | None] = {}
        self._preorder_nodes: list[Node] = []
        self._postorder_nodes: list[Node] = []
        self._edge_kinds: dict[Edge, EdgeKind] = {}
        self._back_edges: list[Edge] = []
        self._run()

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _run(self) -> None:
        graph = self._graph
        succs = graph.successor_lists()
        preorder, postorder = self._preorder, self._postorder
        pre_nodes, post_nodes = self._preorder_nodes, self._postorder_nodes
        parent, kinds, back_edges = self._parent, self._edge_kinds, self._back_edges
        tree, back, forward, cross = (
            EdgeKind.TREE, EdgeKind.BACK, EdgeKind.FORWARD, EdgeKind.CROSS
        )
        entry = graph.entry
        parent[entry] = None
        preorder[entry] = 0
        pre_nodes.append(entry)
        # Stack holds (node, iterator over its successor list).  A node is
        # numbered in preorder when pushed and in postorder when its
        # iterator is exhausted, so a discovered node without a postorder
        # number is still open: an ancestor of the current node.  Edge
        # kinds are keyed by plain ``(source, target)`` tuples, which hash
        # and compare equal to :class:`Edge`.
        stack: list[tuple[Node, Iterator[Node]]] = [(entry, iter(succs[entry]))]
        while stack:
            node, succ_iter = stack[-1]
            for succ in succ_iter:
                if succ not in preorder:
                    # First visit: tree edge.
                    kinds[node, succ] = tree
                    parent[succ] = node
                    preorder[succ] = len(pre_nodes)
                    pre_nodes.append(succ)
                    stack.append((succ, iter(succs[succ])))
                    break
                if succ not in postorder:
                    # Target still open: ancestor of the source.
                    kinds[node, succ] = back
                    back_edges.append(Edge(node, succ))
                elif preorder[node] < preorder[succ]:
                    # Already closed but started later: descendant.
                    kinds[node, succ] = forward
                else:
                    kinds[node, succ] = cross
            else:
                stack.pop()
                postorder[node] = len(post_nodes)
                post_nodes.append(node)

    # ------------------------------------------------------------------
    # Numbering
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ControlFlowGraph:
        """The graph that was traversed."""
        return self._graph

    def preorder_number(self, node: Node) -> int:
        """DFS preorder (discovery) number of ``node``."""
        return self._preorder[node]

    def postorder_number(self, node: Node) -> int:
        """DFS postorder (finish) number of ``node``."""
        return self._postorder[node]

    def preorder(self) -> list[Node]:
        """Nodes in DFS preorder."""
        return list(self._preorder_nodes)

    def postorder(self) -> list[Node]:
        """Nodes in DFS postorder."""
        return list(self._postorder_nodes)

    def reverse_postorder(self) -> list[Node]:
        """Nodes in reverse postorder.

        Reverse postorder is a topological order of the reduced graph
        (Section 5.2), which is why both the ``R_v`` propagation and the
        baseline data-flow solver's worklist initialisation use it.
        """
        return list(reversed(self._postorder_nodes))

    def visited(self, node: Node) -> bool:
        """True iff ``node`` was reached by the traversal."""
        return node in self._preorder

    def parent(self, node: Node) -> Node | None:
        """DFS-tree parent of ``node`` (``None`` for the entry)."""
        return self._parent[node]

    def is_ancestor(self, ancestor: Node, descendant: Node) -> bool:
        """True iff ``ancestor`` is an ancestor of ``descendant`` in the DFS tree.

        A node is considered an ancestor of itself, matching the convention
        used for back edges (a self-loop is a back edge).
        """
        node: Node | None = descendant
        while node is not None:
            if node == ancestor:
                return True
            node = self._parent[node]
        return False

    # ------------------------------------------------------------------
    # Edge classification
    # ------------------------------------------------------------------
    def classify_edge(self, source: Node, target: Node) -> EdgeKind:
        """Return the :class:`EdgeKind` of an existing edge."""
        edge = Edge(source, target)
        if edge not in self._edge_kinds:
            raise KeyError(f"edge {source!r} -> {target!r} was not traversed")
        return self._edge_kinds[edge]

    def edge_kinds(self) -> dict[Edge, EdgeKind]:
        """Mapping of every traversed edge to its classification."""
        return {Edge(*edge): kind for edge, kind in self._edge_kinds.items()}

    def back_edges(self) -> list[Edge]:
        """The set E↑ of back edges, in traversal order."""
        return list(self._back_edges)

    def back_edge_targets(self) -> list[Node]:
        """Distinct targets of back edges, in traversal order."""
        seen: dict[Node, None] = {}
        for edge in self._back_edges:
            seen.setdefault(edge.target, None)
        return list(seen)

    def is_back_edge(self, source: Node, target: Node) -> bool:
        """True iff ``source -> target`` is a back edge of this DFS."""
        return self._edge_kinds.get(Edge(source, target)) is EdgeKind.BACK

    def is_back_edge_target(self, node: Node) -> bool:
        """True iff some back edge points at ``node``.

        Algorithm 2's live-out check needs this to decide whether a trivial
        path from ``q`` to itself can be completed into a non-trivial cycle.
        """
        return any(edge.target == node for edge in self._back_edges)

    # ------------------------------------------------------------------
    # Incremental bookkeeping (repro.core.incremental)
    # ------------------------------------------------------------------
    def edge_kind(self, source: Node, target: Node) -> EdgeKind | None:
        """The kind of an existing edge, or ``None`` if it was not traversed."""
        return self._edge_kinds.get(Edge(source, target))

    def classify_inserted_edge(self, source: Node, target: Node) -> EdgeKind | None:
        """Kind the edge ``source -> target`` would get if appended now.

        Assumes the edge would be appended *after* ``source``'s existing
        successors, so a fresh DFS replays this traversal verbatim until it
        reaches the new edge — which it does at the instant ``source`` is
        about to finish.  At that point the numbering answers everything:

        * ``target`` discovered no later and finished no earlier than
          ``source`` → an open ancestor (or ``source`` itself): **back**;
        * discovered later but already finished → a closed descendant
          reached through an earlier successor: **forward**;
        * discovered and finished earlier → **cross**;
        * not yet discovered (later preorder *and* later postorder) → the
          new edge would be taken as a **tree** edge, changing the
          traversal — returned as ``None`` so callers fall back.
        """
        pre_s, pre_t = self._preorder[source], self._preorder[target]
        post_s, post_t = self._postorder[source], self._postorder[target]
        if pre_t <= pre_s and post_t >= post_s:
            return EdgeKind.BACK
        if pre_t > pre_s:
            return EdgeKind.FORWARD if post_t < post_s else None
        return EdgeKind.CROSS

    def note_edge_added(self, source: Node, target: Node, kind: EdgeKind) -> None:
        """Record an edge the graph gained without changing the traversal.

        ``kind`` must come from :meth:`classify_inserted_edge` (i.e. not be
        ``None``); the numberings stay untouched because, by construction,
        the preserved traversal never followed the new edge.
        """
        edge = Edge(source, target)
        self._edge_kinds[edge] = kind
        if kind is EdgeKind.BACK:
            self._back_edges.append(edge)

    def note_edge_removed(self, source: Node, target: Node) -> None:
        """Record the removal of a non-tree edge (numberings unaffected)."""
        edge = Edge(source, target)
        kind = self._edge_kinds.pop(edge)
        if kind is EdgeKind.TREE:
            raise ValueError(
                f"tree edge {source!r} -> {target!r} cannot be removed "
                "incrementally; rebuild the DFS"
            )
        if kind is EdgeKind.BACK:
            self._back_edges.remove(edge)

    def edge_statistics(self) -> dict[str, int]:
        """Counts per edge kind plus totals (used by the §6.1 statistics)."""
        counts = {kind.value: 0 for kind in EdgeKind}
        for kind in self._edge_kinds.values():
            counts[kind.value] += 1
        counts["total"] = len(self._edge_kinds)
        return counts


def reduced_successors(graph: ControlFlowGraph, dfs: DepthFirstSearch) -> dict[Node, list[Node]]:
    """Successor lists of the reduced graph ``G̃`` (CFG minus back edges).

    The reduced graph is acyclic (every cycle must contain a back edge), so
    reachability within it — the ``R_v`` sets of Definition 4 — can be
    computed by a single sweep in reverse topological order; see
    :mod:`repro.core.reduced_graph`.
    """
    result: dict[Node, list[Node]] = {}
    for node in graph.nodes():
        result[node] = [
            succ
            for succ in graph.successors(node)
            if not dfs.is_back_edge(node, succ)
        ]
    return result
