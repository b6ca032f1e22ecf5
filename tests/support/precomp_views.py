"""Every view of a :class:`LivenessPrecomputation`, for rebuild comparisons.

An incremental patch (:mod:`repro.core.incremental`) must leave a
precomputation indistinguishable from a fresh build over the edited
graph — not only in the ``R``/``T`` masks the queries read, but in every
structure later patches and clients read: the graph's successor order,
the DFS numberings, parents, edge kinds and back-edge order, and the
dominator tree's preorder, immediate dominators and subtree bounds.
"""

from __future__ import annotations

from repro.core.precompute import LivenessPrecomputation


def precomputation_views(pre: LivenessPrecomputation) -> dict:
    """Every comparable view of ``pre``, keyed by name."""
    graph, dfs, domtree = pre.graph, pre.dfs, pre.domtree
    nodes = graph.nodes()
    return {
        "graph.nodes": nodes,
        "graph.successors": {node: graph.successors(node) for node in nodes},
        "dfs.preorder": dfs.preorder(),
        "dfs.postorder": dfs.postorder(),
        "dfs.numbers": {
            node: (dfs.preorder_number(node), dfs.postorder_number(node))
            for node in nodes
        },
        "dfs.parents": {node: dfs.parent(node) for node in nodes},
        "dfs.edge_kinds": dfs.edge_kinds(),
        "dfs.back_edges": dfs.back_edges(),
        "domtree.preorder": domtree.preorder(),
        "domtree.idoms": domtree.as_idom_map(),
        "domtree.numbering": dict(domtree.numbering),
        "domtree.maxnums": domtree.maxnums(),
        "domtree.depths": {node: domtree.depth(node) for node in nodes},
        "numbering": dict(pre.numbering),
        "maxnums": list(pre.maxnums),
        "r_masks": list(pre.r_masks),
        "t_masks": list(pre.t_masks),
        "is_back_target": list(pre.is_back_target),
        "back_edge_targets": {node: pre.is_back_edge_target(node) for node in nodes},
        "reducible": pre.reducible,
        "universe": (pre.reach.universe, pre.targets.universe),
        "storage_bits": pre.storage_bits(),
    }


def assert_matches_rebuild(
    pre: LivenessPrecomputation,
    fresh: LivenessPrecomputation,
    context: str,
) -> None:
    """Fail naming every view where ``pre`` differs from ``fresh``."""
    patched, rebuilt = precomputation_views(pre), precomputation_views(fresh)
    diverged = [name for name in patched if patched[name] != rebuilt[name]]
    assert not diverged, f"{', '.join(diverged)} diverged after {context}"
