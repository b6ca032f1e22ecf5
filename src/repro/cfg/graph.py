"""A rooted directed graph with deterministic iteration order.

The paper's algorithms are defined on a control-flow graph
``G = (V, E, r)`` where ``r`` is a distinguished entry node with no
incoming edge (Section 2.1).  This module provides that abstraction,
decoupled from the instruction-level IR in :mod:`repro.ir`: the liveness
precomputation (``R_v``, ``T_v``), dominance and DFS all operate on plain
node identifiers, which keeps the precomputation literally independent of
variables and instructions — the property the paper exploits to survive
program transformations.

Nodes may be any hashable objects (the IR uses block names, the synthetic
workloads use integers).  Successor and predecessor lists preserve insertion
order so that every analysis in the library is deterministic, which in turn
makes the differential tests and benchmarks reproducible.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Iterator, NamedTuple

Node = Hashable


class Edge(NamedTuple):
    """A directed edge ``source -> target``."""

    source: Node
    target: Node


class ControlFlowGraph:
    """Directed multigraph-free graph with a distinguished entry node.

    The entry node is created lazily: the first node added becomes the entry
    unless an explicit entry is supplied to :meth:`set_entry` or the
    constructor.  Parallel edges are rejected because the liveness
    algorithms never need them and they complicate φ-operand bookkeeping;
    self-loops *are* allowed (they are back edges whose target equals the
    source).
    """

    def __init__(self, entry: Node | None = None) -> None:
        self._succs: dict[Node, list[Node]] = {}
        self._preds: dict[Node, list[Node]] = {}
        self._entry: Node | None = None
        if entry is not None:
            self.add_node(entry)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    @property
    def entry(self) -> Node:
        """The distinguished entry node ``r``."""
        if self._entry is None:
            raise ValueError("control-flow graph has no entry node")
        return self._entry

    def set_entry(self, node: Node) -> None:
        """Declare ``node`` (added if necessary) as the entry node."""
        self.add_node(node)
        self._entry = node

    def add_node(self, node: Node) -> Node:
        """Insert ``node`` if not present; the first node becomes the entry."""
        if node not in self._succs:
            self._succs[node] = []
            self._preds[node] = []
            if self._entry is None:
                self._entry = node
        return node

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every edge incident to it."""
        self._require(node)
        if node == self._entry:
            raise ValueError("cannot remove the entry node")
        for succ in list(self._succs[node]):
            self.remove_edge(node, succ)
        for pred in list(self._preds[node]):
            self.remove_edge(pred, node)
        del self._succs[node]
        del self._preds[node]

    def __contains__(self, node: Node) -> bool:
        return node in self._succs

    def __len__(self) -> int:
        return len(self._succs)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succs)

    def nodes(self) -> list[Node]:
        """All nodes in insertion order."""
        return list(self._succs)

    def _require(self, node: Node) -> None:
        if node not in self._succs:
            raise KeyError(f"node {node!r} not in graph")

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, source: Node, target: Node) -> None:
        """Insert the edge ``source -> target`` (both nodes added if needed).

        Duplicate edges are ignored rather than rejected: front-ends
        routinely emit a conditional branch whose two arms reach the same
        block, which is semantically a single CFG edge.
        """
        self.add_node(source)
        self.add_node(target)
        if target in self._succs[source]:
            return
        self._succs[source].append(target)
        self._preds[target].append(source)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the edge ``source -> target``; raise if absent."""
        self._require(source)
        self._require(target)
        try:
            self._succs[source].remove(target)
            self._preds[target].remove(source)
        except ValueError as exc:
            raise KeyError(f"edge {source!r} -> {target!r} not in graph") from exc

    def split_edge(self, source: Node, target: Node, node: Node) -> None:
        """Route ``source -> target`` through the new ``node``, in place.

        ``node`` takes ``target``'s slot in ``source``'s successor list —
        the order an IR edge split produces by retargeting the terminator
        — and its only successor is ``target``.  Raises if ``node``
        already exists or the edge is absent.
        """
        if node in self._succs:
            raise ValueError(f"node {node!r} already in graph")
        self._require(target)
        succs = self._succs.get(source, [])
        try:
            slot = succs.index(target)
        except ValueError as exc:
            raise KeyError(f"edge {source!r} -> {target!r} not in graph") from exc
        succs[slot] = node
        self._succs[node] = [target]
        self._preds[node] = [source]
        preds = self._preds[target]
        preds.remove(source)
        preds.append(node)

    def has_edge(self, source: Node, target: Node) -> bool:
        """True iff the edge ``source -> target`` exists."""
        return source in self._succs and target in self._succs[source]

    def successors(self, node: Node) -> list[Node]:
        """Successors of ``node`` in insertion order (a copy)."""
        self._require(node)
        return list(self._succs[node])

    def successor_lists(self) -> dict[Node, list[Node]]:
        """``node -> successors`` for every node: the graph's own lists.

        Shared rather than copied, for traversals that visit every node;
        callers must not mutate the dict or its lists.
        """
        return self._succs

    def predecessors(self, node: Node) -> list[Node]:
        """Predecessors of ``node`` in insertion order (a copy)."""
        self._require(node)
        return list(self._preds[node])

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node``."""
        self._require(node)
        return len(self._succs[node])

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node``."""
        self._require(node)
        return len(self._preds[node])

    def edges(self) -> list[Edge]:
        """All edges, grouped by source in insertion order."""
        return [
            Edge(source, target)
            for source, targets in self._succs.items()
            for target in targets
        ]

    def num_edges(self) -> int:
        """Total number of edges."""
        return sum(len(targets) for targets in self._succs.values())

    # ------------------------------------------------------------------
    # Derived graphs and traversals
    # ------------------------------------------------------------------
    def copy(self) -> "ControlFlowGraph":
        """Return an independent copy preserving insertion order."""
        clone = ControlFlowGraph()
        for node in self._succs:
            clone.add_node(node)
        for source, target in self.edges():
            clone.add_edge(source, target)
        clone._entry = self._entry
        return clone

    def reversed(self, virtual_exit: Node | None = None) -> "ControlFlowGraph":
        """Return the reverse graph, optionally rooted at a virtual exit.

        Post-dominance is dominance on the reverse graph.  CFGs may have
        several exit nodes (or none, for infinite loops), so when
        ``virtual_exit`` is given it is added as the entry of the reverse
        graph with an edge to every original exit node; if there is no exit
        node at all, every node is connected to keep the reverse graph
        rooted.
        """
        clone = ControlFlowGraph()
        for node in self._succs:
            clone.add_node(node)
        for source, target in self.edges():
            clone.add_edge(target, source)
        if virtual_exit is None:
            return clone
        clone.add_node(virtual_exit)
        clone.set_entry(virtual_exit)
        exits = [node for node in self._succs if not self._succs[node]]
        if not exits:
            exits = list(self._succs)
        for node in exits:
            clone.add_edge(virtual_exit, node)
        return clone

    def reachable_from(self, start: Node) -> set[Node]:
        """Set of nodes reachable from ``start`` (including ``start``)."""
        self._require(start)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self._succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def unreachable_nodes(self) -> list[Node]:
        """Nodes not reachable from the entry, in insertion order."""
        reachable = self.reachable_from(self.entry)
        return [node for node in self._succs if node not in reachable]

    def exit_nodes(self) -> list[Node]:
        """Nodes with no successors, in insertion order."""
        return [node for node, succs in self._succs.items() if not succs]

    def validate(self, reachable: Collection[Node] | None = None) -> None:
        """Check the CFG invariants from the paper's Section 2.1.

        The entry node must exist, must have no incoming edge, and every
        node must be reachable from the entry (unreachable nodes would make
        dominance ill-defined: they are dominated by everything).
        ``reachable`` holds the nodes a traversal from the entry has
        already reached (a DFS preorder, say); without it the check runs
        its own traversal.  Raises :class:`ValueError` describing the
        first violation found.
        """
        entry = self.entry
        if self._preds[entry]:
            raise ValueError(
                f"entry node {entry!r} has incoming edges {self._preds[entry]!r}"
            )
        if reachable is None:
            reachable = self.reachable_from(entry)
        if len(reachable) < len(self._succs):
            unreachable = [node for node in self._succs if node not in reachable]
            raise ValueError(f"unreachable nodes: {unreachable!r}")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node]],
        entry: Node | None = None,
        nodes: Iterable[Node] = (),
    ) -> "ControlFlowGraph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        graph = cls()
        if entry is not None:
            graph.add_node(entry)
        for node in nodes:
            graph.add_node(node)
        for source, target in edges:
            graph.add_edge(source, target)
        if entry is not None:
            graph.set_entry(entry)
        return graph

    @classmethod
    def from_successor_lists(
        cls, entry: Node, successors: dict[Node, list[Node]]
    ) -> "ControlFlowGraph":
        """Build a graph from ready-made, duplicate-free successor lists.

        ``entry`` must be a key.  The graph takes ownership of
        ``successors`` and its lists, and derives every predecessor list in
        one pass over them.  Node order is the dict's order, followed by
        any target that is not a key, in order of first mention — what
        :meth:`add_node` and :meth:`add_edge` would produce edge by edge.
        """
        preds: dict[Node, list[Node]] = {node: [] for node in successors}
        unlisted: list[Node] = []
        for source, targets in successors.items():
            for target in targets:
                try:
                    preds[target].append(source)
                except KeyError:
                    preds[target] = [source]
                    unlisted.append(target)
        for node in unlisted:
            successors[node] = []
        graph = cls()
        graph._succs = successors
        graph._preds = preds
        graph._entry = entry
        return graph

    def __repr__(self) -> str:
        return (
            f"ControlFlowGraph(nodes={len(self)}, edges={self.num_edges()}, "
            f"entry={self._entry!r})"
        )
