"""Reducibility tests.

Section 2.1 of the paper: *"A control-flow graph is called reducible if for
each back edge (s, t) the target t dominates the source s."*  Reducibility
matters because Lemma 3 / Theorem 2 show that on reducible CFGs the
``T_(q,a)`` candidates are totally ordered by dominance, so the bitset query
(Algorithm 3) only ever needs its first iteration.

Two independent characterisations are implemented:

* :func:`is_reducible` — the back-edge/dominance definition above (this is
  what the checker's fast path keys on);
* :func:`is_reducible_by_intervals` — repeated T1 (self-loop removal) / T2
  (unique-predecessor merge) reduction in the style of Hecht & Ullman.  The
  graph is reducible iff it collapses to a single node.

The test suite asserts both agree on thousands of random graphs, which
guards the correctness of the reducible fast path.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Node


def is_reducible(
    graph: ControlFlowGraph,
    dfs: DepthFirstSearch | None = None,
    domtree: DominatorTree | None = None,
) -> bool:
    """True iff every DFS back edge's target dominates its source."""
    return not irreducible_back_edges(graph, dfs, domtree)


def irreducible_back_edges(
    graph: ControlFlowGraph,
    dfs: DepthFirstSearch | None = None,
    domtree: DominatorTree | None = None,
) -> list[tuple[Node, Node]]:
    """Back edges whose target does not dominate their source.

    Read off the dominance numbering: ``t dom s`` iff ``num(s)`` lies in
    ``[num(t), maxnum(t)]``.  The paper's §6.1 reports 60 such edges over
    the whole of SPEC2000 CINT; the edge-statistics benchmark reproduces
    the analogous count on the synthetic workload.
    """
    dfs = dfs if dfs is not None else DepthFirstSearch(graph)
    domtree = domtree if domtree is not None else DominatorTree(graph, dfs)
    nodes, numbers, maxnums = dfs.nodes, domtree.numbers, domtree.maxnum_of
    return [
        (nodes[source], nodes[target])
        for source, target in dfs.back
        if not numbers[target] <= numbers[source] <= maxnums[numbers[target]]
    ]


def is_reducible_by_intervals(graph: ControlFlowGraph) -> bool:
    """Reducibility via exhaustive T1/T2 reduction (Hecht & Ullman).

    T1 removes a self-loop ``(n, n)``; T2 merges a node with its unique
    predecessor.  A flow graph is reducible iff these transformations can
    collapse it to a single node.  This implementation operates on
    successor/predecessor *sets* of representative nodes and is O(n·m) in
    the worst case, which is fine for its validation role.
    """
    nodes = set(graph.nodes())
    succs: dict[Node, set[Node]] = {node: set() for node in nodes}
    preds: dict[Node, set[Node]] = {node: set() for node in nodes}
    for source, target in graph.edges():
        succs[source].add(target)
        preds[target].add(source)
    entry = graph.entry

    changed = True
    while changed and len(nodes) > 1:
        changed = False
        for node in list(nodes):
            # T1: remove self loop.
            if node in succs[node]:
                succs[node].discard(node)
                preds[node].discard(node)
                changed = True
            # T2: merge into unique predecessor.
            if node == entry:
                continue
            if len(preds[node]) == 1:
                (pred,) = preds[node]
                if pred == node:
                    continue
                # Redirect node's successors to come from pred.
                for succ in succs[node]:
                    if succ != node:
                        succs[pred].add(succ)
                        preds[succ].discard(node)
                        preds[succ].add(pred)
                succs[pred].discard(node)
                nodes.discard(node)
                del succs[node]
                del preds[node]
                # Clean up a self-loop that the merge may have created
                # (it corresponds to a back edge of a natural loop).
                succs[pred].discard(pred)
                preds[pred].discard(pred)
                changed = True
    return len(nodes) == 1
