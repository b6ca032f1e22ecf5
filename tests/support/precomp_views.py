"""Every view of a :class:`LivenessPrecomputation`, for rebuild comparisons.

An incremental patch (:mod:`repro.core.incremental`) must leave a
precomputation indistinguishable from a fresh build over the edited
graph — not only in the ``R``/``T`` masks the queries read, but in every
structure later patches and clients read: the graph's successor order,
the DFS's block-id arrays and the numberings, parents, edge kinds and
back-edge order derived from them, and the dominator tree's number
arrays with its preorder, immediate dominators and subtree bounds.
"""

from __future__ import annotations

from repro.core.precompute import LivenessPrecomputation
from tests.support.reference_cfg import edge_kinds, postorder_number, preorder_number


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
            node: (preorder_number(dfs, node), postorder_number(dfs, node))
            for node in nodes
        },
        "dfs.parents": {node: dfs.parent(node) for node in nodes},
        "dfs.edge_kinds": edge_kinds(dfs),
        "dfs.back_edges": dfs.back_edges(),
        "dfs.arrays": (
            dfs.nodes, dfs.ids, dfs.succ_ids, dfs.pre, dfs.post, dfs.parents,
            dfs.pre_order, dfs.post_order, dfs.back,
        ),
        "domtree.preorder": domtree.preorder(),
        "domtree.idoms": domtree.as_idom_map(),
        "domtree.numbering": dict(domtree.numbering),
        "domtree.maxnums": domtree.maxnums(),
        "domtree.depths": {node: domtree.depth(node) for node in nodes},
        "domtree.arrays": (domtree.numbers, domtree.maxnum_of, domtree.idom_of),
        "numbering": dict(pre.numbering),
        "maxnums": list(pre.maxnums),
        "r_masks": list(pre.r_masks),
        "t_masks": list(pre.t_masks),
        "is_back_target": list(pre.is_back_target),
        "reducible": pre.reducible,
        "universe": (len(pre.reach), len(pre.targets)),
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
