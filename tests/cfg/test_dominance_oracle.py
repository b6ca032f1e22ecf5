"""The RPO-index dominator construction against the node-keyed oracle.

:class:`~repro.cfg.dominance.DominatorTree` and the incremental patcher
share one CHK implementation over reverse-postorder indices.  Every
derived view must equal :mod:`tests.support.reference_dominance` — the
string/node-keyed fixpoint with sorted children and a stack preorder walk
— on random reducible and irreducible CFGs, and the bare ``idom`` map
must also agree when the DFS is *preserved* across edge edits, which is
how :func:`repro.core.incremental.apply_cfg_delta` calls it.
"""

from __future__ import annotations

import random

import pytest

from repro.cfg.dfs import DepthFirstSearch, EdgeKind
from repro.cfg.dominance import DominatorTree, _rpo_idoms
from repro.cfg.reducibility import is_reducible
from repro.core.incremental import CfgDelta
from tests.support.genfn import fuzz_function
from tests.support.reference_dominance import ReferenceDominance, reference_idoms

CORPUS = 240


def corpus_cfg(index: int):
    return fuzz_function(index, base_seed=7).build_cfg()


def rpo_idom_map(dfs: DepthFirstSearch) -> dict:
    """:func:`_rpo_idoms` by node, the entry mapping to itself."""
    rpo = dfs.reverse_postorder()
    return {node: rpo[parent] for node, parent in zip(rpo, _rpo_idoms(dfs))}


def assert_matches_oracle(graph, dfs=None) -> None:
    dfs = dfs if dfs is not None else DepthFirstSearch(graph)
    domtree = DominatorTree(graph, dfs)
    oracle = ReferenceDominance(graph, dfs)
    assert domtree.as_idom_map() == oracle.idom_map()
    assert domtree.preorder() == oracle.preorder
    for node in graph.nodes():
        assert domtree.children(node) == oracle.children[node], node
        assert domtree.num(node) == oracle.num[node], node
        assert domtree.maxnum(node) == oracle.maxnum[node], node
    assert domtree.maxnums() == [oracle.maxnum[node] for node in oracle.preorder]
    assert rpo_idom_map(dfs) == oracle.idom


def test_corpus_mixes_reducible_and_irreducible():
    flags = [is_reducible(corpus_cfg(index)) for index in range(CORPUS)]
    assert sum(flags) >= 100 and flags.count(False) >= 60


@pytest.mark.parametrize("chunk", range(8))
def test_tree_matches_oracle(chunk):
    for index in range(chunk, CORPUS, 8):
        assert_matches_oracle(corpus_cfg(index))


def test_depth_and_nearest_common_dominator_follow_idoms():
    rng = random.Random(515)
    for index in range(0, CORPUS, 6):
        graph = corpus_cfg(index)
        domtree = DominatorTree(graph)
        idom = ReferenceDominance(graph).idom_map()
        nodes = graph.nodes()
        for node in nodes:
            chain = [node]
            while idom[chain[-1]] is not None:
                chain.append(idom[chain[-1]])
            assert domtree.dominators_of(node) == chain
            assert domtree.depth(node) == len(chain) - 1
        for _ in range(20):
            x, y = rng.choice(nodes), rng.choice(nodes)
            common = set(domtree.dominators_of(x)) & set(domtree.dominators_of(y))
            expected = max(common, key=domtree.depth)
            assert domtree.nearest_common_dominator(x, y) == expected


def random_edge_edit(rng: random.Random, graph, dfs: DepthFirstSearch) -> CfgDelta | None:
    """One edge edit that a preserved DFS can absorb, as a delta."""
    nodes = graph.nodes()
    for _ in range(40):
        if rng.random() < 0.6:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if target == graph.entry or graph.has_edge(source, target):
                continue
            if dfs.classify_inserted_edge(source, target) is None:
                continue
            return CfgDelta.edge_added(source, target)
        edges = [edge for edge in graph.edges() if dfs.edge_kind(*edge) is not EdgeKind.TREE]
        if edges:
            return CfgDelta.edge_removed(*rng.choice(edges))
    return None


def apply_preserving_dfs(graph, dfs: DepthFirstSearch, delta: CfgDelta) -> None:
    """Edit the graph and note it in the DFS without re-traversing."""
    for source, target in delta.removed_edges:
        graph.remove_edge(source, target)
        dfs.note_edge_removed(source, target)
    for source, target in delta.added_edges:
        kind = dfs.classify_inserted_edge(source, target)
        graph.add_edge(source, target)
        dfs.note_edge_added(source, target, kind)


@pytest.mark.parametrize("chunk", range(4))
def test_preserved_dfs_after_edits_matches_oracle(chunk):
    rng = random.Random(9000 + chunk)
    edits = 0
    for index in range(chunk, CORPUS, 4):
        graph = corpus_cfg(index)
        dfs = DepthFirstSearch(graph)
        for _ in range(6):
            delta = random_edge_edit(rng, graph, dfs)
            if delta is None:
                break
            apply_preserving_dfs(graph, dfs, delta)
            edits += 1
            assert rpo_idom_map(dfs) == reference_idoms(graph, dfs), (index, delta)
    assert edits >= 200


def test_unreachable_nodes_are_reported_like_the_oracle():
    graph = corpus_cfg(3)
    graph.add_node("island")
    dfs = DepthFirstSearch(graph)
    with pytest.raises(ValueError, match="unreachable"):
        reference_idoms(graph, dfs)
    with pytest.raises(ValueError, match="unreachable"):
        _rpo_idoms(dfs)
