"""The one-pass CFG projection, the lean DFS and the slotted IR.

``Function.build_cfg`` and :class:`~repro.cfg.dfs.DepthFirstSearch` are
checked against the edge-by-edge versions in
:mod:`tests.support.reference_cfg` on fuzz functions and fuzz CFGs —
node, successor and predecessor order, numberings, parents,
:class:`Edge`-keyed kinds and back-edge order, also after incremental
edge notes.  The IR classes must stay slotted, and a ``deepcopy`` of a
slotted function must print identically.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.cfg.dfs import DepthFirstSearch, EdgeKind
from repro.cfg.graph import ControlFlowGraph, Edge
from repro.core import LivenessPrecomputation
from repro.ir import parse_function, print_function
from repro.ir.block import BasicBlock
from repro.ir.instruction import Instruction, Opcode, ParallelCopy, Phi
from repro.ssadestruct import isolate_phis
from repro.synth import random_cfg
from tests.support.genfn import fuzz_function
from tests.support.reference_cfg import ReferenceDFS, reference_build_cfg

CORPUS = 200


def assert_same_graph(graph: ControlFlowGraph, oracle: ControlFlowGraph) -> None:
    assert graph.nodes() == oracle.nodes()
    assert graph.entry == oracle.entry
    assert graph.edges() == oracle.edges()
    for node in oracle:
        assert graph.successors(node) == oracle.successors(node)
        assert graph.predecessors(node) == oracle.predecessors(node)


def assert_same_dfs(
    dfs: DepthFirstSearch, oracle: ReferenceDFS, graph, kind_order: bool = True
) -> None:
    assert dfs.preorder() == oracle.preorder()
    assert dfs.postorder() == oracle.postorder()
    for node in oracle.preorder():
        assert dfs.parent(node) == oracle.parent(node)
        assert dfs.preorder_number(node) == oracle.preorder_number(node)
        assert dfs.postorder_number(node) == oracle.postorder_number(node)
    kinds = dfs.edge_kinds()
    assert kinds == oracle.edge_kinds()
    if kind_order:
        assert list(kinds) == list(oracle.edge_kinds())
    assert all(type(edge) is Edge for edge in kinds)
    back = dfs.back_edges()
    assert back == oracle.back_edges()
    assert all(type(edge) is Edge for edge in back)
    for (source, target), kind in oracle.edge_kinds().items():
        assert dfs.classify_edge(source, target) is kind
        assert dfs.edge_kind(source, target) is kind
        assert dfs.is_back_edge(source, target) is (kind is EdgeKind.BACK)


# ----------------------------------------------------------------------
# build_cfg
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", range(4))
def test_build_cfg_matches_edge_by_edge_projection(chunk):
    for index in range(chunk, CORPUS, 4):
        function = fuzz_function(index)
        assert_same_graph(function.build_cfg(), reference_build_cfg(function))
        isolate_phis(function)
        function.split_critical_edges()
        assert_same_graph(function.build_cfg(), reference_build_cfg(function))


def test_build_cfg_collapses_coinciding_arms_and_keeps_unlisted_targets():
    function = parse_function(
        """
        function f(c) {
        entry:
          branch c, join, join
        join:
          branch c, done, elsewhere
        done:
          return c
        }
        """
    )
    # A target that names no block becomes a node, as add_edge would make it.
    graph = function.build_cfg()
    assert_same_graph(graph, reference_build_cfg(function))
    assert graph.successors("entry") == ["join"]
    assert graph.nodes() == ["entry", "join", "done", "elsewhere"]


def test_build_cfg_lists_are_private_to_the_graph():
    function = fuzz_function(2)
    graph = function.build_cfg()
    block = next(b for b in function if b.terminator().opcode == Opcode.JUMP)
    before = graph.successors(block.name)
    block.terminator().targets.append("mutated")
    assert graph.successors(block.name) == before


# ----------------------------------------------------------------------
# DFS
# ----------------------------------------------------------------------
def _fuzz_graphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_cfg(rng, rng.randrange(1, 40), irreducible_probability=0.4)


@pytest.mark.parametrize("seed", range(4))
def test_dfs_matches_reference_on_fuzz_cfgs(seed):
    for graph in _fuzz_graphs(0xDF5 + seed, 60):
        assert_same_dfs(DepthFirstSearch(graph), ReferenceDFS(graph), graph)
    for index in range(seed, CORPUS, 4):
        graph = fuzz_function(index).build_cfg()
        assert_same_dfs(DepthFirstSearch(graph), ReferenceDFS(graph), graph)


@pytest.mark.parametrize("seed", range(4))
def test_dfs_incremental_notes_match_reference(seed):
    rng = random.Random(0x1AC + seed)
    for graph in _fuzz_graphs(0x1AC0 + seed, 40):
        dfs, oracle = DepthFirstSearch(graph), ReferenceDFS(graph)
        nodes = graph.nodes()
        for _ in range(12):
            if rng.random() < 0.5:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if graph.has_edge(source, target) or target == graph.entry:
                    continue
                kind = dfs.classify_inserted_edge(source, target)
                assert kind is oracle.classify_inserted_edge(source, target)
                if kind is None:
                    continue
                graph.add_edge(source, target)
                dfs.note_edge_added(source, target, kind)
                oracle.note_edge_added(source, target, kind)
            else:
                edges = graph.edges()
                if not edges:
                    continue
                source, target = rng.choice(edges)
                if oracle.edge_kinds()[Edge(source, target)] is EdgeKind.TREE:
                    with pytest.raises(ValueError, match="rebuild the DFS"):
                        dfs.note_edge_removed(source, target)
                    break
                graph.remove_edge(source, target)
                dfs.note_edge_removed(source, target)
                oracle.note_edge_removed(source, target)
            assert_same_dfs(dfs, oracle, graph)


@pytest.mark.parametrize("seed", range(4))
def test_dfs_split_notes_match_a_fresh_reference(seed):
    rng = random.Random(0x5B1 + seed)
    for graph in _fuzz_graphs(0x5B10 + seed, 40):
        dfs = DepthFirstSearch(graph)
        for step in range(6 if graph.edges() else 0):
            source, target = rng.choice(graph.edges())
            node = ("split", step)
            graph.split_edge(source, target, node)
            dfs.note_edge_split(source, target, node)
            # The patch appends the two new edges to the kinds mapping
            # instead of re-inserting them in traversal order.
            assert_same_dfs(dfs, ReferenceDFS(graph), graph, kind_order=False)


def test_precomputation_validates_through_the_dfs_with_the_same_errors():
    island = ControlFlowGraph.from_edges([(0, 1), (2, 1)], entry=0)
    with pytest.raises(ValueError) as expected:
        island.validate()
    with pytest.raises(ValueError) as got:
        LivenessPrecomputation(island)
    assert str(got.value) == str(expected.value) == "unreachable nodes: [2]"
    looped = ControlFlowGraph.from_edges([(0, 1), (1, 0)], entry=0)
    with pytest.raises(ValueError) as expected:
        looped.validate()
    with pytest.raises(ValueError) as got:
        LivenessPrecomputation(looped)
    assert str(got.value) == str(expected.value)
    assert "has incoming edges" in str(got.value)


# ----------------------------------------------------------------------
# Slotted IR
# ----------------------------------------------------------------------
def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("base", [Instruction, BasicBlock])
def test_every_ir_class_declares_slots(base):
    for cls in (base, *_subclasses(base)):
        assert "__slots__" in vars(cls), f"{cls.__name__} is not slotted"


def test_ir_instances_have_no_dict():
    function = fuzz_function(1)
    isolate_phis(function)
    seen = set()
    for block in function:
        assert not hasattr(block, "__dict__")
        for inst in block.instructions:
            assert not hasattr(inst, "__dict__"), inst
            seen.add(type(inst))
    assert {Instruction, ParallelCopy} <= seen
    phi_function = fuzz_function(4)
    phis = phi_function.phis()
    assert phis and all(type(phi) is Phi and not hasattr(phi, "__dict__") for phi in phis)
    with pytest.raises(AttributeError):
        phis[0].note = "unslotted"


@pytest.mark.parametrize("index", range(0, 60, 3))
def test_deepcopy_round_trip_prints_identically(index):
    function = fuzz_function(index)
    for stage in ("ssa", "isolated"):
        clone = copy.deepcopy(function)
        assert print_function(clone) == print_function(function), stage
        for block in clone:
            assert block.function is clone
            for inst in block.instructions:
                assert inst.block is block
        isolate_phis(function)
