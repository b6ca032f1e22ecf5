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

The traversal runs on *block indices*: the graph's successor lists are
mapped to lists of integer ids once (``ids``: a node's position in the
graph's node order), and every number the search produces lives in a
flat list over those ids.  Edge kinds are not stored at all — a kind is
an O(1) function of the parent and pre/post numbers — so the name-keyed
API (:meth:`preorder`, :meth:`parent`, :meth:`edge_kind`,
:meth:`back_edges`, …) is a translation of these arrays, never a second
traversal of the graph.

The implementation is iterative (explicit stack) so that functions with
thousands of blocks do not hit Python's recursion limit.
"""

from __future__ import annotations

import enum

from repro.cfg.graph import ControlFlowGraph, Edge, Node


class EdgeKind(enum.Enum):
    """Classification of a CFG edge with respect to a DFS spanning tree."""

    TREE = "tree"
    BACK = "back"
    FORWARD = "forward"
    CROSS = "cross"


_TREE, _BACK, _FORWARD, _CROSS = EdgeKind


class DepthFirstSearch:
    """A DFS of a :class:`ControlFlowGraph` from its entry node.

    The traversal visits successors in their insertion order, so results are
    deterministic for a given graph construction order.  All nodes are
    assumed reachable from the entry (callers should run
    :meth:`ControlFlowGraph.validate` first); unreachable nodes keep the
    number ``-1`` and are absent from the name-keyed orders.

    The integer arrays are public and shared (callers must not mutate
    them); every list below is indexed by node id, ``nodes[id]`` being the
    node itself.
    """

    def __init__(self, graph: ControlFlowGraph) -> None:
        self._graph = graph
        succs = graph.successor_lists()
        #: ``nodes[i]`` is the node with id ``i`` (the graph's node order;
        #: a block split in later is appended).
        self.nodes: list[Node] = list(succs)
        #: ``ids[node]`` is the id of ``node``.
        ids = dict(zip(self.nodes, range(len(self.nodes))))
        self.ids: dict[Node, int] = ids
        #: ``succ_ids[i]`` lists the ids of node ``i``'s successors, in the
        #: graph's order.
        self.succ_ids: list[list[int]] = [
            [ids[succ] for succ in targets] for targets in succs.values()
        ]
        count = len(self.nodes)
        #: Preorder (discovery) and postorder (finish) number per id.
        self.pre: list[int] = [-1] * count
        self.post: list[int] = [-1] * count
        #: DFS-tree parent id per id (``-1`` for the entry).
        self.parents: list[int] = [-1] * count
        #: Ids in preorder and in postorder.
        self.pre_order: list[int] = []
        self.post_order: list[int] = []
        #: Back edges ``(source id, target id)`` in traversal order.
        self.back: list[tuple[int, int]] = []
        self._run(ids[graph.entry])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _run(self, entry: int) -> None:
        succ_ids, pre, post, parents = self.succ_ids, self.pre, self.post, self.parents
        pre_order, post_order, back = self.pre_order, self.post_order, self.back
        pre[entry] = 0
        pre_order.append(entry)
        # Stack holds (node, iterator over its successor ids).  A node is
        # numbered in preorder when pushed and in postorder when its
        # iterator is exhausted, so a discovered node without a postorder
        # number is still open: an ancestor of the current node.
        stack = [(entry, iter(succ_ids[entry]))]
        while stack:
            node, succ_iter = stack[-1]
            for succ in succ_iter:
                if pre[succ] < 0:
                    parents[succ] = node
                    pre[succ] = len(pre_order)
                    pre_order.append(succ)
                    stack.append((succ, iter(succ_ids[succ])))
                    break
                if post[succ] < 0:
                    back.append((node, succ))
            else:
                stack.pop()
                post[node] = len(post_order)
                post_order.append(node)

    def _kind(self, source: int, target: int) -> EdgeKind:
        """The kind of the traversed edge ``source -> target`` (ids).

        The tree edge is the one the target was discovered through; any
        other edge into an ancestor (or the source itself) is a back edge,
        into a later-discovered node a forward edge, and else a cross edge.
        """
        if self.parents[target] == source:
            return _TREE
        pre = self.pre
        if pre[target] > pre[source]:
            return _FORWARD
        post = self.post
        return _BACK if post[target] >= post[source] else _CROSS

    def _id(self, node: Node) -> int:
        """The id of a visited ``node``; ``KeyError`` otherwise."""
        index = self.ids[node]
        if self.pre[index] < 0:
            raise KeyError(node)
        return index

    def _edge_ids(self, source: Node, target: Node) -> tuple[int, int] | None:
        """Ids of a traversed edge ``source -> target``, else ``None``."""
        ids = self.ids
        s, t = ids.get(source), ids.get(target)
        if s is None or t is None or self.pre[s] < 0 or t not in self.succ_ids[s]:
            return None
        return s, t

    # ------------------------------------------------------------------
    # Numbering
    # ------------------------------------------------------------------
    @property
    def graph(self) -> ControlFlowGraph:
        """The graph that was traversed."""
        return self._graph

    def preorder(self) -> list[Node]:
        """Nodes in DFS preorder."""
        nodes = self.nodes
        return [nodes[index] for index in self.pre_order]

    def postorder(self) -> list[Node]:
        """Nodes in DFS postorder."""
        nodes = self.nodes
        return [nodes[index] for index in self.post_order]

    def reverse_postorder(self) -> list[Node]:
        """Nodes in reverse postorder.

        Reverse postorder is a topological order of the reduced graph
        (Section 5.2), which is why both the ``R_v`` propagation and the
        baseline data-flow solver's worklist initialisation use it.
        """
        nodes = self.nodes
        return [nodes[index] for index in reversed(self.post_order)]

    def visited(self, node: Node) -> bool:
        """True iff ``node`` was reached by the traversal."""
        index = self.ids.get(node)
        return index is not None and self.pre[index] >= 0

    def parent(self, node: Node) -> Node | None:
        """DFS-tree parent of ``node`` (``None`` for the entry)."""
        parent = self.parents[self._id(node)]
        return self.nodes[parent] if parent >= 0 else None

    def back_edges(self) -> list[Edge]:
        """The set E↑ of back edges, in traversal order."""
        nodes = self.nodes
        return [Edge(nodes[source], nodes[target]) for source, target in self.back]

    # ------------------------------------------------------------------
    # Incremental bookkeeping (repro.core.incremental)
    # ------------------------------------------------------------------
    def edge_kind(self, source: Node, target: Node) -> EdgeKind | None:
        """The kind of an existing edge, or ``None`` if it was not traversed."""
        edge = self._edge_ids(source, target)
        return None if edge is None else self._kind(*edge)

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
        s, t = self._id(source), self._id(target)
        pre, post = self.pre, self.post
        if pre[t] <= pre[s] and post[t] >= post[s]:
            return _BACK
        if pre[t] > pre[s]:
            return _FORWARD if post[t] < post[s] else None
        return _CROSS

    def note_edge_added(self, source: Node, target: Node, kind: EdgeKind) -> None:
        """Record an edge the graph gained without changing the traversal.

        ``kind`` must come from :meth:`classify_inserted_edge` (i.e. not be
        ``None``); the numberings stay untouched because, by construction,
        the preserved traversal never followed the new edge.
        """
        s, t = self._id(source), self._id(target)
        if kind is _BACK:
            self.back.insert(self._finish_slot(s), (s, t))
        self.succ_ids[s].append(t)

    def _finish_slot(self, source: int) -> int:
        """How many back edges a fresh DFS records before ``source`` finishes.

        The list is in recording order, so a binary search finds the first
        one recorded later: one from a node that finished after ``source``
        and was either discovered after it or is an ancestor examining
        that edge after descending toward ``source``.
        """
        succ_ids, pre, post, parents = self.succ_ids, self.pre, self.post, self.parents
        pre_s, post_s = pre[source], post[source]

        def later(tail: int, head: int) -> bool:
            if post[tail] <= post_s:
                return False
            if pre[tail] > pre_s:
                return True
            child = source
            while parents[child] != tail:
                child = parents[child]
            order = succ_ids[tail]
            return order.index(head) > order.index(child)

        back = self.back
        low, high = 0, len(back)
        while low < high:
            middle = (low + high) // 2
            if later(*back[middle]):
                high = middle
            else:
                low = middle + 1
        return low

    def note_edge_removed(self, source: Node, target: Node) -> None:
        """Record the removal of a non-tree edge (numberings unaffected)."""
        edge = self._edge_ids(source, target)
        if edge is None:
            raise KeyError(f"edge {source!r} -> {target!r} was not traversed")
        kind = self._kind(*edge)
        if kind is _TREE:
            raise ValueError(
                f"tree edge {source!r} -> {target!r} cannot be removed "
                "incrementally; rebuild the DFS"
            )
        if kind is _BACK:
            self.back.remove(edge)
        self.succ_ids[edge[0]].remove(edge[1])

    def note_edge_split(self, source: Node, target: Node, node: Node) -> None:
        """Record :meth:`ControlFlowGraph.split_edge` of ``source -> target``.

        ``node`` sits at ``target``'s old slot among ``source``'s
        successors, so a fresh DFS replays this one until ``source``
        reaches that slot, then discovers ``node`` through a tree edge:

        * if ``source -> target`` was a tree edge, ``node`` is discovered
          where ``target`` was, ``target``'s subtree hangs below it
          unchanged and ``node`` finishes right after ``target``;
        * otherwise ``node`` is a leaf, discovered and finished the moment
          ``source`` reaches the slot, and ``node -> target`` keeps the
          old edge's kind, except that a forward edge becomes a cross edge
          (``target`` is closed and was discovered before ``node``).

        Every other edge keeps its kind and every other node its relative
        order, so the numberings only shift by one past ``node``'s slots.
        ``node`` gets the next free id.
        """
        s, t = self.ids[source], self.ids[target]
        pre, post, parents = self.pre, self.post, self.parents
        kind = self._kind(s, t)
        succs = self.succ_ids[s]
        slot = succs.index(t)
        if kind is _TREE:
            first = pre[t]
            last = post[t] + 1
        else:
            # ``first`` and ``last`` count the nodes discovered and
            # finished when ``source`` reaches the slot.  The next
            # discovery is the first tree child after the slot, or
            # ``source``'s first child if no tree child precedes it; the
            # last finish is the last tree child before the slot, and if
            # none follows it, ``source`` finishes next.  A count not read
            # off that way differs from the other by the open tree path
            # down to ``source``.
            earlier = later = -1
            for position, succ in enumerate(succs):
                if parents[succ] == s:
                    if position < slot:
                        earlier = succ
                    else:
                        later = succ
                        break
            first = last = None
            if later >= 0:
                first = pre[later]
            elif earlier < 0:
                first = pre[s] + 1
            if earlier >= 0:
                last = post[earlier] + 1
            elif later < 0:
                last = post[s]
            if first is None or last is None:
                open_nodes = 0
                walk = s
                while walk >= 0:
                    open_nodes += 1
                    walk = parents[walk]
                if first is None:
                    first = last + open_nodes
                else:
                    last = first - open_nodes
        new = len(self.nodes)
        self.nodes.append(node)
        self.ids[node] = new
        succs[slot] = new
        self.succ_ids.append([t])
        parents.append(s)
        if kind is _TREE:
            parents[t] = new
        for numbers, order, position in (
            (pre, self.pre_order, first),
            (post, self.post_order, last),
        ):
            numbers.append(-1)
            order.insert(position, new)
            for number in range(position, len(order)):
                numbers[order[number]] = number
        if kind is _BACK:
            back = self.back
            back[back.index((s, t))] = (new, t)

