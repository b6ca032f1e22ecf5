"""Loop nesting forests.

The paper's outlook (Section 8) notes that the technique "could take
advantage of a precomputed loop nesting forest" and "can be adapted to most
loop nesting forest definitions".  :mod:`tests.support.loopforest`
implements such a variant; this module provides the forest itself.  Both
live beside the test suite because only the differential tests and the
loop-forest ablation use them.

The construction is the recursive strongly-connected-component
decomposition in the style of Bourdoncle / Ramalingam, which is defined for
irreducible graphs as well:

1. Find the non-trivial SCCs of the graph (restricted to the current node
   subset).  Each non-trivial SCC is a loop.
2. Choose the loop header: the SCC node with the smallest DFS preorder
   number that has an incoming edge from outside the SCC (for reducible
   graphs this is exactly the natural-loop header).
3. Remove the edges entering the header from inside the SCC and recurse on
   the SCC body to discover nested loops.

For reducible CFGs the resulting forest coincides with the classic
natural-loop nesting (each loop is the union of natural loops sharing a
header), which the test suite checks explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.graph import ControlFlowGraph, Node


@dataclass
class Loop:
    """A single loop of the nesting forest.

    Attributes
    ----------
    header:
        The loop header (entry node of the loop for reducible CFGs).
    body:
        Every node belonging to the loop, including the header and the
        nodes of nested loops.
    parent:
        The enclosing loop, or ``None`` for outermost loops.
    children:
        Loops nested directly inside this one.
    depth:
        Nesting depth; outermost loops have depth 1.
    """

    header: Node
    body: set[Node]
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)
    depth: int = 1

    def __contains__(self, node: Node) -> bool:
        return node in self.body

    def __repr__(self) -> str:
        return (
            f"Loop(header={self.header!r}, size={len(self.body)}, "
            f"depth={self.depth})"
        )


class LoopNestingForest:
    """The forest of loops of a control-flow graph."""

    def __init__(self, graph: ControlFlowGraph, dfs: DepthFirstSearch | None = None) -> None:
        self._graph = graph
        self._dfs = dfs if dfs is not None else DepthFirstSearch(graph)
        self._preorder = {node: index for index, node in enumerate(self._dfs.preorder())}
        self._roots: list[Loop] = []
        self._loop_of: dict[Node, Loop | None] = {node: None for node in graph.nodes()}
        self._header_loop: dict[Node, Loop] = {}
        succs = {
            node: [s for s in graph.successors(node) if s in self._preorder]
            for node in self._preorder
        }
        self._build(set(self._preorder), succs, parent=None)
        self._assign_depths()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(
        self,
        nodes: set[Node],
        succs: dict[Node, list[Node]],
        parent: Loop | None,
    ) -> None:
        ordered = sorted(nodes, key=self._preorder.__getitem__)
        for scc in _strongly_connected_components(ordered, succs):
            header = self._choose_header(scc)
            loop = Loop(header=header, body=set(scc), parent=parent)
            if parent is None:
                self._roots.append(loop)
            else:
                parent.children.append(loop)
            self._header_loop[header] = loop
            for node in scc:
                current = self._loop_of[node]
                if current is None or loop.body <= current.body:
                    self._loop_of[node] = loop
            # Recurse on the loop body with the header's incoming edges
            # removed so the same SCC is not rediscovered.
            inner_nodes = set(scc)
            inner_succs = {
                node: [
                    succ
                    for succ in succs[node]
                    if succ in inner_nodes and succ != header
                ]
                for node in inner_nodes
            }
            self._build_inner(inner_nodes, inner_succs, loop)

    def _build_inner(
        self,
        nodes: set[Node],
        succs: dict[Node, list[Node]],
        parent: Loop,
    ) -> None:
        self._build(nodes, succs, parent)

    def _choose_header(self, scc: list[Node]) -> Node:
        scc_set = set(scc)
        entering = [
            node
            for node in scc
            if any(pred not in scc_set for pred in self._graph.predecessors(node))
            or node == self._graph.entry
        ]
        candidates = entering if entering else list(scc)
        return min(candidates, key=self._preorder.__getitem__)

    def _assign_depths(self) -> None:
        stack = [(loop, 1) for loop in self._roots]
        while stack:
            loop, depth = stack.pop()
            loop.depth = depth
            for child in loop.children:
                stack.append((child, depth + 1))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ControlFlowGraph:
        """The underlying control-flow graph."""
        return self._graph

    def roots(self) -> list[Loop]:
        """The outermost loops."""
        return list(self._roots)

    def loops(self) -> list[Loop]:
        """All loops, outermost first."""
        result: list[Loop] = []
        stack = list(reversed(self._roots))
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(reversed(loop.children))
        return result

    def innermost_loop(self, node: Node) -> Loop | None:
        """The smallest loop containing ``node``, or ``None``."""
        return self._loop_of[node]

    def loop_with_header(self, header: Node) -> Loop | None:
        """The loop whose header is ``header``, if any."""
        return self._header_loop.get(header)

    def is_loop_header(self, node: Node) -> bool:
        """True iff ``node`` heads some loop."""
        return node in self._header_loop

    def loop_depth(self, node: Node) -> int:
        """Nesting depth of ``node`` (0 if it is in no loop)."""
        loop = self._loop_of[node]
        return loop.depth if loop is not None else 0

    def headers(self) -> list[Node]:
        """All loop headers, outermost first."""
        return [loop.header for loop in self.loops()]

    def enclosing_headers(self, node: Node) -> list[Node]:
        """Headers of every loop containing ``node``, innermost first."""
        result = []
        loop = self._loop_of[node]
        while loop is not None:
            result.append(loop.header)
            loop = loop.parent
        return result


def _strongly_connected_components(
    ordered_nodes: list[Node], succs: dict[Node, list[Node]]
) -> list[list[Node]]:
    """Tarjan's SCC algorithm (iterative) restricted to ``ordered_nodes``.

    Only *non-trivial* components are returned: components with at least two
    nodes, or a single node with a self-loop.  Roots are explored in the
    given order so results are deterministic.
    """
    nodes = set(ordered_nodes)
    index_counter = 0
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    result: list[list[Node]] = []

    for root in ordered_nodes:
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = [s for s in succs.get(node, ()) if s in nodes]
            for offset in range(child_index, len(children)):
                succ = children[offset]
                if succ not in index:
                    work.append((node, offset + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                has_self_loop = node in succs.get(node, ()) and len(component) == 1
                if len(component) > 1 or has_self_loop:
                    result.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result
