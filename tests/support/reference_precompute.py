"""A literal, object-level construction of ``R_v`` and ``T_v`` (test oracle).

The library builds ``R``/``T`` directly as flat int masks
(:mod:`repro.core.reduced_graph`, :mod:`repro.core.targets`).  This module
keeps the textbook construction the masks must agree with, written the
slow, obvious way over :class:`~tests.support.bitset.BitSet` objects:

* ``R_v``: the Definition-4 sweep in DFS postorder, skipping every
  successor ``w`` with :func:`~tests.support.reference_cfg.is_back_edge`;
* ``T_v``: Equation 1 in DFS preorder, with ``T↑_v`` computed straight
  from Definition 5 by scanning every back edge;
* ``T_v`` propagated: the §5.2 three-pass shortcut — exact sets for
  back-edge targets, seeds at back-edge sources, a reduced-graph sweep,
  then the node itself.  The library builds only the exact sets; this
  over-approximation is kept here so the paper's claim about it (a
  superset that never changes an answer) stays under test.

:func:`reference_arrays` lowers the result to the same flat arrays a
:class:`~repro.core.precompute.LivenessPrecomputation` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Node
from repro.cfg.reducibility import is_reducible
from tests.support.bitset import BitSet
from tests.support.reference_cfg import back_edge_targets, is_back_edge, preorder_number


def reference_reach(
    graph: ControlFlowGraph, dfs: DepthFirstSearch, domtree: DominatorTree
) -> dict[Node, BitSet]:
    """``R_v`` per node by the Definition-4 postorder sweep."""
    universe = len(domtree)
    sets: dict[Node, BitSet] = {}
    for node in dfs.postorder():
        bits = BitSet(universe)
        bits.add(domtree.num(node))
        for succ in graph.successors(node):
            if is_back_edge(dfs, node, succ):
                continue
            bits.update(sets[succ])
        sets[node] = bits
    return sets


def reference_t_up(
    node: Node,
    dfs: DepthFirstSearch,
    domtree: DominatorTree,
    reach: dict[Node, BitSet],
) -> list[Node]:
    """``T↑_node`` straight from Definition 5."""
    result: dict[Node, None] = {}
    r_node = reach[node]
    num = domtree.num
    for source, target in dfs.back_edges():
        if num(source) in r_node and num(target) not in r_node:
            result.setdefault(target, None)
    return list(result)


def reference_targets_exact(
    dfs: DepthFirstSearch, domtree: DominatorTree, reach: dict[Node, BitSet]
) -> dict[Node, BitSet]:
    """``T_v`` per node by Equation 1 in DFS preorder."""
    sets: dict[Node, BitSet] = {}
    for node in dfs.preorder():
        bits = BitSet(len(domtree))
        bits.add(domtree.num(node))
        for target in reference_t_up(node, dfs, domtree, reach):
            bits.update(sets[target])
        sets[node] = bits
    return sets


def reference_targets_propagate(
    graph: ControlFlowGraph,
    dfs: DepthFirstSearch,
    domtree: DominatorTree,
    reach: dict[Node, BitSet],
) -> dict[Node, BitSet]:
    """``T_v`` per node by the §5.2 three-pass propagation."""
    universe = len(domtree)
    num = domtree.num
    back_edges = dfs.back_edges()
    partial: dict[Node, BitSet] = {}
    for target in sorted({t for _, t in back_edges}, key=lambda node: preorder_number(dfs, node)):
        bits = BitSet(universe)
        bits.add(num(target))
        for upstream in reference_t_up(target, dfs, domtree, reach):
            bits.update(partial[upstream])
        partial[target] = bits
    seed = {node: BitSet(universe) for node in graph.nodes()}
    for source, target in back_edges:
        seed[source].update(partial[target])
    sets: dict[Node, BitSet] = {}
    for node in dfs.postorder():
        bits = seed[node].copy()
        for succ in graph.successors(node):
            if not is_back_edge(dfs, node, succ):
                bits.update(sets[succ])
        sets[node] = bits
    result: dict[Node, BitSet] = {}
    for node, bits in sets.items():
        own = bits.copy()
        own.add(num(node))
        if node in partial:
            own.update(partial[node])
        result[node] = own
    return result


@dataclass(frozen=True)
class ReferenceArrays:
    """The flat view of the reference construction."""

    r_masks: list[int]
    t_masks: list[int]
    maxnums: list[int]
    is_back_target: list[bool]
    reducible: bool
    storage_bits: int


def reference_arrays(graph: ControlFlowGraph, propagated: bool = False) -> ReferenceArrays:
    """Build ``R``/``T`` the object way and lower them by dominance preorder.

    ``propagated`` swaps the exact ``T`` for the §5.2 three-pass sets.
    """
    graph.validate()
    dfs = DepthFirstSearch(graph)
    domtree = DominatorTree(graph, dfs)
    reach = reference_reach(graph, dfs, domtree)
    if propagated:
        targets = reference_targets_propagate(graph, dfs, domtree, reach)
    else:
        targets = reference_targets_exact(dfs, domtree, reach)
    order = domtree.preorder()
    back_targets = set(back_edge_targets(dfs))
    return ReferenceArrays(
        r_masks=[reach[node].mask for node in order],
        t_masks=[targets[node].mask for node in order],
        maxnums=[domtree.maxnum(node) for node in order],
        is_back_target=[node in back_targets for node in order],
        reducible=is_reducible(graph, dfs, domtree),
        storage_bits=sum(
            bits.storage_bits()
            for table in (reach, targets)
            for bits in table.values()
        ),
    )
