"""Differential tests for incremental precomputation maintenance.

The contract of :func:`repro.core.incremental.apply_cfg_delta` is sharp:
whenever it reports ``applied=True``, every derived structure of the
patched :class:`LivenessPrecomputation` must be *bit-identical* to a
from-scratch rebuild over the edited graph.  These tests enforce that
with two oracles over randomized edit sequences:

* a fresh ``LivenessPrecomputation`` rebuilt after every edit (array- and
  object-level row comparison), and
* the conventional dataflow engine, cross-checked on every query a
  :class:`TransformationSession` answers at the IR level.

The acceptance bar is zero divergence over well more than 200 randomized
edit sequences (reducible, irreducible, and forced-fallback mixes).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cfg.graph import ControlFlowGraph
from repro.core.incremental import (
    APPLIED,
    CfgDelta,
    UpdateResult,
    apply_cfg_delta,
    update_precomputation,
)
from repro.core.live_checker import FastLivenessChecker
from repro.core.invalidation import TransformationSession
from repro.core.precompute import LivenessPrecomputation
from repro.ir.instruction import Instruction, Opcode
from repro.ir.value import Constant
from repro.ir.verify import IRVerificationError, verify_ssa
from repro.liveness.dataflow import DataflowLiveness
from repro.synth import random_irreducible_cfg, random_reducible_cfg
from tests.support.genfn import fuzz_function, structured_function
from tests.support.precomp_views import assert_matches_rebuild


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def assert_identical(pre: LivenessPrecomputation, context: str) -> None:
    """The patched ``pre`` must equal a from-scratch rebuild of its graph."""
    fresh = LivenessPrecomputation(pre.graph.copy())
    # Masks, numbering, flags, the graph, DFS and dominator-tree views.
    assert_matches_rebuild(pre, fresh, context)
    for node in pre.graph.nodes():
        # The object-level views (introspection, the loop-forest
        # fallback) must read the patched rows too.
        assert pre.reach.bitset(node).mask == fresh.reach.bitset(node).mask, (
            f"reach row diverged after {context}"
        )
        assert pre.targets.bitset(node).mask == fresh.targets.bitset(node).mask, (
            f"target row diverged after {context}"
        )


def random_delta(rng: random.Random, graph: ControlFlowGraph) -> CfgDelta | None:
    """One connectivity-preserving single-edge delta, or None if stuck."""
    nodes = graph.nodes()
    for _ in range(24):
        if rng.random() < 0.5:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if target == graph.entry or graph.has_edge(source, target):
                continue
            return CfgDelta.edge_added(source, target)
        edges = graph.edges()
        if not edges:
            continue
        edge = rng.choice(edges)
        probe = graph.copy()
        probe.remove_edge(edge.source, edge.target)
        if probe.unreachable_nodes():
            continue  # the rebuilt oracle could not even validate
        return CfgDelta.edge_removed(edge.source, edge.target)
    return None


def run_sequence(
    rng: random.Random, graph: ControlFlowGraph, edits: int = 8
) -> tuple[int, int]:
    """Drive one randomized edit sequence; return (applied, fallback)."""
    pre = LivenessPrecomputation(graph)
    applied = fallback = 0
    for step in range(edits):
        delta = random_delta(rng, pre.graph)
        if delta is None:
            break
        result = apply_cfg_delta(pre, delta)
        if result.applied:
            applied += 1
            assert result.reason in (APPLIED, "no-op")
            assert_identical(pre, f"step {step}: {delta}")
        else:
            fallback += 1
            assert result.reason in (
                "tree-edge-removed",
                "dfs-change",
                "dominators-changed",
            ), f"unexpected fallback {result.reason} for {delta}"
            # Contract: the graph is already mutated; derived state is
            # stale and the caller rebuilds from the edited graph.
            pre = LivenessPrecomputation(pre.graph)
    return applied, fallback


# ----------------------------------------------------------------------
# The delta value type
# ----------------------------------------------------------------------
class TestCfgDelta:
    def test_constructors_and_truthiness(self):
        assert not CfgDelta()
        assert CfgDelta.edge_added("a", "b").added_edges == (("a", "b"),)
        assert CfgDelta.edge_removed("a", "b").removed_edges == (("a", "b"),)
        assert CfgDelta.block_added("x", edges=[("a", "x")]).edits_blocks
        assert CfgDelta.block_removed("x").edits_blocks
        assert not CfgDelta.edge_added("a", "b").edits_blocks
        assert CfgDelta(removed_edges=[("a", "b")])

    def test_inputs_are_normalised_to_tuples(self):
        delta = CfgDelta(added_edges=[["a", "b"]], added_blocks=["x"])
        assert delta.added_edges == (("a", "b"),)
        assert delta.added_blocks == ("x",)

    def test_json_round_trip(self):
        delta = CfgDelta(
            added_edges=(("a", "b"), ("c", "d")),
            removed_edges=(("e", "f"),),
            added_blocks=("x",),
            removed_blocks=("y", "z"),
        )
        assert CfgDelta.from_json(delta.to_json()) == delta

    def test_json_of_empty_body(self):
        assert CfgDelta.from_json({}) == CfgDelta()


# ----------------------------------------------------------------------
# Randomized differential sequences (the acceptance bar: ≥200 sequences,
# zero divergence — `assert_identical` raises on the first diverged bit)
# ----------------------------------------------------------------------
class TestDifferentialSequences:
    def test_reducible_sequences(self):
        rng = random.Random(0xD1FF)
        total_applied = 0
        for seed in range(120):
            graph = random_reducible_cfg(rng, rng.randrange(3, 16))
            applied, _ = run_sequence(rng, graph)
            total_applied += applied
        # The test must exercise the patch path, not just fall back.
        assert total_applied > 200

    def test_irreducible_sequences(self):
        rng = random.Random(0x1BBE)
        total_applied = 0
        for seed in range(60):
            graph = random_irreducible_cfg(rng, rng.randrange(4, 14))
            applied, _ = run_sequence(rng, graph)
            total_applied += applied
        assert total_applied > 60

    def test_dense_small_graphs(self):
        # Small dense graphs maximise edge-kind variety per edit.
        rng = random.Random(0xDE5E)
        for seed in range(40):
            graph = random_reducible_cfg(rng, rng.randrange(3, 7))
            for _ in range(4):
                delta = random_delta(rng, graph)
                if delta is None:
                    break
                pre = LivenessPrecomputation(graph)
                result = apply_cfg_delta(pre, delta)
                if result.applied:
                    assert_identical(pre, str(delta))
                graph = pre.graph

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=3, max_value=18),
        irreducible=st.booleans(),
    )
    def test_hypothesis_edit_replay(self, seed, size, irreducible):
        rng = random.Random(seed)
        graph = (
            random_irreducible_cfg(rng, max(4, size))
            if irreducible
            else random_reducible_cfg(rng, size)
        )
        run_sequence(rng, graph, edits=6)

    def test_multi_edit_deltas(self):
        # A single delta carrying several primitives must be equivalent
        # to the rebuild of the jointly edited graph.
        rng = random.Random(0x3D17)
        applied = 0
        for seed in range(100):
            graph = random_reducible_cfg(rng, rng.randrange(5, 14))
            pre = LivenessPrecomputation(graph)
            parts = [random_delta(rng, graph) for _ in range(3)]
            adds, removes = [], []
            for part in parts:
                if part is None:
                    continue
                adds.extend(part.added_edges)
                removes.extend(part.removed_edges)
            delta = CfgDelta(added_edges=adds, removed_edges=removes)
            result = apply_cfg_delta(pre, delta)
            if result.applied:
                applied += 1
                assert_identical(pre, f"multi {delta}")
        assert applied > 5


# ----------------------------------------------------------------------
# Guards and fallback reasons
# ----------------------------------------------------------------------
class TestBackEdgeGrowth:
    """Deltas that only add back edges grow T without an Equation-1 sweep."""

    @staticmethod
    def dominated_back_edges(pre: LivenessPrecomputation) -> list[tuple]:
        graph, domtree = pre.graph, pre.domtree
        return [
            (source, target)
            for source in graph.nodes()
            for target in graph.nodes()
            if target != graph.entry
            and domtree.dominates(target, source)
            and not graph.has_edge(source, target)
        ]

    @pytest.mark.parametrize("irreducible", [False, True])
    def test_single_and_batched_back_edge_additions(self, irreducible):
        rng = random.Random(0xB4C + irreducible)
        grown = 0
        for _ in range(40):
            size = rng.randrange(4, 20)
            graph = (
                random_irreducible_cfg(rng, size)
                if irreducible
                else random_reducible_cfg(rng, size)
            )
            pre = LivenessPrecomputation(graph)
            for step in range(6):
                pairs = self.dominated_back_edges(pre)
                if not pairs:
                    break
                batch = rng.sample(pairs, min(len(pairs), 1 + step % 3))
                result = apply_cfg_delta(pre, CfgDelta(added_edges=batch))
                assert result.applied, result
                assert_identical(pre, f"back edges {batch}")
                grown += result.t_rows_changed > 0
        assert grown > 20


class TestFallbacks:
    def diamond(self) -> ControlFlowGraph:
        return ControlFlowGraph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 3)], entry=0
        )

    def test_empty_delta_is_an_applied_noop(self):
        pre = LivenessPrecomputation(self.diamond())
        result = apply_cfg_delta(pre, CfgDelta())
        assert result == UpdateResult(True, "no-op")

    def test_idempotent_primitives_are_an_applied_noop(self):
        pre = LivenessPrecomputation(self.diamond())
        before = list(pre.r_masks)
        # Re-adding a present edge and removing an absent one: no-ops.
        result = apply_cfg_delta(
            pre,
            CfgDelta(added_edges=((0, 1),), removed_edges=((1, 2),)),
        )
        assert result.applied and result.reason == "no-op"
        assert pre.r_masks == before

    def test_block_edit_falls_back_and_mutates(self):
        pre = LivenessPrecomputation(self.diamond())
        delta = CfgDelta.block_added(9, edges=((3, 9),))
        result = apply_cfg_delta(pre, delta)
        assert not result.applied and result.reason == "block-edit"
        assert 9 in pre.graph and pre.graph.has_edge(3, 9)
        LivenessPrecomputation(pre.graph)  # the rebuild input is valid

    def test_propagate_strategy_falls_back(self):
        pre = LivenessPrecomputation(self.diamond(), strategy="propagate")
        result = apply_cfg_delta(pre, CfgDelta.edge_added(1, 2))
        assert not result.applied and result.reason == "strategy"
        assert pre.graph.has_edge(1, 2)

    def test_unknown_node_falls_back(self):
        pre = LivenessPrecomputation(self.diamond())
        result = apply_cfg_delta(pre, CfgDelta.edge_removed(0, 77))
        assert not result.applied and result.reason == "unknown-node"

    def test_edge_into_entry_falls_back(self):
        pre = LivenessPrecomputation(self.diamond())
        result = apply_cfg_delta(pre, CfgDelta.edge_added(3, 0))
        assert not result.applied and result.reason == "edge-into-entry"
        assert pre.graph.has_edge(3, 0)

    def test_tree_edge_removal_falls_back(self):
        pre = LivenessPrecomputation(self.diamond())
        # (0, 1) is discovered first, hence a tree edge.
        result = apply_cfg_delta(pre, CfgDelta.edge_removed(0, 1))
        assert not result.applied and result.reason == "tree-edge-removed"
        assert not pre.graph.has_edge(0, 1)

    def test_dfs_change_falls_back(self):
        # 1 finishes before 2 is discovered, so a fresh DFS would adopt
        # the new edge 1 → 2 as a tree edge.
        graph = ControlFlowGraph.from_edges([(0, 1), (0, 2)], entry=0)
        pre = LivenessPrecomputation(graph)
        result = apply_cfg_delta(pre, CfgDelta.edge_added(1, 2))
        assert not result.applied and result.reason == "dfs-change"
        assert pre.graph.has_edge(1, 2)

    def test_dominator_change_falls_back(self):
        # A chain 0→1→2→3: adding 0→3 (a forward edge — DFS preserved)
        # strips 1 and 2 from 3's dominators.
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 3)], entry=0)
        pre = LivenessPrecomputation(graph)
        result = apply_cfg_delta(pre, CfgDelta.edge_added(0, 3))
        assert not result.applied
        assert result.reason == "dominators-changed"
        assert result.dominators_recomputed

    def test_restored_shim_falls_back(self):
        class Shim:
            restored = True

        result = apply_cfg_delta(Shim(), CfgDelta.edge_added(0, 1))
        assert not result.applied and result.reason == "restored"

    def test_back_edge_edit_applies_with_dominators_preserved(self):
        # A self-contained loop: adding the latch→header back edge
        # satisfies `t dom s`, so no CHK rerun is needed.
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (1, 3)], entry=0
        )
        pre = LivenessPrecomputation(graph)
        result = apply_cfg_delta(pre, CfgDelta.edge_added(2, 1))
        assert result.applied and result.reason == APPLIED
        assert not result.dominators_recomputed
        assert result.t_rows_changed > 0
        assert_identical(pre, "latch back edge")
        # ... and removing it restores the original rows.
        result = apply_cfg_delta(pre, CfgDelta.edge_removed(2, 1))
        assert result.applied
        assert_identical(pre, "back edge removed")


class TestUpdatePrecomputation:
    def test_applied_returns_same_object(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (1, 3)], entry=0
        )
        pre = LivenessPrecomputation(graph)
        updated, result = update_precomputation(pre, CfgDelta.edge_added(2, 1))
        assert result.applied
        assert updated is pre

    def test_fallback_returns_fresh_rebuild(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (0, 2)], entry=0)
        pre = LivenessPrecomputation(graph)
        updated, result = update_precomputation(pre, CfgDelta.edge_added(1, 2))
        assert not result.applied
        assert updated is not pre
        assert updated.graph.has_edge(1, 2)
        assert_identical(updated, "rebuild wrapper")

    def test_fallback_preserves_strategy(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        pre = LivenessPrecomputation(graph, strategy="propagate")
        updated, result = update_precomputation(pre, CfgDelta.edge_added(0, 2))
        assert not result.applied
        assert updated.targets.strategy == "propagate"


# ----------------------------------------------------------------------
# Edge splits: one inserted block, patched in place
# ----------------------------------------------------------------------
def split_delta(graph: ControlFlowGraph, source, target) -> CfgDelta:
    """The delta of splitting ``source -> target`` with a fresh node."""
    return CfgDelta.edge_split(source, target, ("split", len(graph)))


def apply_split(pre: LivenessPrecomputation, source, target, context: str):
    """Split ``source -> target`` in place and compare with a rebuild."""
    result = apply_cfg_delta(pre, split_delta(pre.graph, source, target))
    assert result.applied and result.reason == APPLIED, result
    assert result.renumbered and result.t_rows_changed == 1
    assert_identical(pre, context)
    return result


class TestEdgeSplit:
    @pytest.mark.parametrize("irreducible", [False, True])
    def test_chained_splits_interleaved_with_edge_edits(self, irreducible):
        # The acceptance bar: ≥ 1,000 chained splits over both families,
        # each compared view by view with a rebuild, with edge edits
        # (patched or not) between them.
        rng = random.Random(0x5E17 + irreducible)
        splits = 0
        for _ in range(90):
            graph = (
                random_irreducible_cfg(rng, rng.randrange(4, 30))
                if irreducible
                else random_reducible_cfg(rng, rng.randrange(2, 30))
            )
            pre = LivenessPrecomputation(graph)
            for step in range(8):
                if rng.random() < 0.3:
                    delta = random_delta(rng, pre.graph)
                    if delta is not None:
                        pre, result = update_precomputation(pre, delta)
                        if result.applied:
                            assert_identical(pre, f"step {step}: {delta}")
                source, target = rng.choice(pre.graph.edges())
                apply_split(pre, source, target, f"step {step}: split {source}->{target}")
                splits += 1
        assert splits >= 700

    def test_every_edge_kind(self):
        # Tree edges (the new block dominating the target or a leaf),
        # back, forward and cross edges, all in one small graph.
        edges = [(0, 1), (1, 2), (2, 3), (3, 1), (1, 3), (0, 4), (4, 3), (2, 2)]
        graph = ControlFlowGraph.from_edges(edges, entry=0)
        kinds = LivenessPrecomputation(graph).dfs.edge_kinds()
        assert {kind.value for kind in kinds.values()} == {
            "tree", "back", "forward", "cross",
        }
        for source, target in edges:
            pre = LivenessPrecomputation(graph.copy())
            apply_split(pre, source, target, f"split {source}->{target}")

    def test_self_loop(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 1), (1, 2)], entry=0)
        pre = LivenessPrecomputation(graph)
        apply_split(pre, 1, 1, "self-loop split")
        node = ("split", 3)
        assert pre.graph.successors(1) == [node, 2]
        assert pre.dfs.back_edges() == [(node, 1)]
        assert pre.domtree.immediate_dominator(node) == 1

    def test_split_out_of_a_split_block(self):
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (1, 2), (2, 1), (1, 3)], entry=0
        )
        pre = LivenessPrecomputation(graph)
        apply_split(pre, 2, 1, "back edge split")
        first = ("split", 4)
        apply_split(pre, first, 1, "split of the split block's edge")
        apply_split(pre, 1, 2, "tree edge split")
        apply_split(pre, ("split", 6), 2, "split below a split")

    def test_new_block_dominating_the_target(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2), (2, 3)], entry=0)
        pre = LivenessPrecomputation(graph)
        apply_split(pre, 1, 2, "sole entry into the target")
        node = ("split", 4)
        assert pre.domtree.immediate_dominator(2) == node
        assert pre.domtree.dominated(node) == [node, 2, 3]

    def test_irreducible_graph(self):
        # Two entries into the 1 <-> 2 cycle.
        graph = ControlFlowGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3)], entry=0
        )
        pre = LivenessPrecomputation(graph)
        assert not pre.reducible
        for source, target in [(2, 1), (0, 2), (1, 2)]:
            apply_split(pre, source, target, f"irreducible split {source}->{target}")
        assert not pre.reducible

    def test_propagate_strategy_falls_back_with_the_slot_kept(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (0, 2), (1, 2)], entry=0)
        pre = LivenessPrecomputation(graph, strategy="propagate")
        result = apply_cfg_delta(pre, CfgDelta.edge_split(0, 1, 9))
        assert not result.applied and result.reason == "strategy"
        # The fallback edits the graph with the same in-place split.
        assert pre.graph.successors(0) == [9, 2]
        LivenessPrecomputation(pre.graph)

    def test_restored_shim_falls_back(self):
        class Shim:
            restored = True

        result = apply_cfg_delta(Shim(), CfgDelta.edge_split(0, 1, 9))
        assert not result.applied and result.reason == "restored"

    def test_non_split_shapes_still_fall_back(self):
        graph = ControlFlowGraph.from_edges([(0, 1), (1, 2)], entry=0)
        for delta in (
            CfgDelta.edge_split(0, 2, 9),  # no such edge
            CfgDelta.edge_split(0, 1, 2),  # the block already exists
            CfgDelta(added_blocks=(9,), removed_edges=((0, 1),),
                     added_edges=((0, 9), (9, 2))),  # not a split
        ):
            pre = LivenessPrecomputation(graph.copy())
            result = apply_cfg_delta(pre, delta)
            assert not result.applied and result.reason == "block-edit", delta


# ----------------------------------------------------------------------
# Checker-level integration (IR functions, all query kinds)
# ----------------------------------------------------------------------
def assert_checker_matches_rebuild(
    checker: FastLivenessChecker, function, context: str
):
    """Every query kind must agree with a fresh checker and dataflow."""
    rebuilt = FastLivenessChecker(function)
    rebuilt.prepare()
    dataflow = DataflowLiveness(function)
    dataflow.prepare()
    blocks = list(function.blocks)
    for var in rebuilt.live_variables():
        assert checker.live_in_set(var) == rebuilt.live_in_set(var), context
        assert checker.live_out_set(var) == rebuilt.live_out_set(var), context
        for block in blocks:
            expected = dataflow.is_live_in(var, block)
            assert checker.is_live_in(var, block) == expected, (
                f"live-in({var.name}, {block}) diverged after {context}"
            )
            expected = dataflow.is_live_out(var, block)
            assert checker.is_live_out(var, block) == expected, (
                f"live-out({var.name}, {block}) diverged after {context}"
            )
    live = checker.live_sets()
    live_rebuilt = rebuilt.live_sets()
    assert live.live_in == live_rebuilt.live_in, context
    assert live.live_out == live_rebuilt.live_out, context


def assert_session_matches_rebuild(sess: TransformationSession, context: str) -> None:
    """The session checker's precomputation must equal a rebuild of the IR."""
    fresh = LivenessPrecomputation(sess.function.build_cfg())
    assert_matches_rebuild(sess.checker.precomputation, fresh, context)


def session_edit_mix(
    sess: TransformationSession, rng: random.Random, splits: bool = True
) -> int:
    """Apply a random mix of *strict-SSA-preserving* CFG edits.

    A new branch edge can route control around a definition, so after
    each speculative edit the function is re-verified and the edit is
    undone when it broke strictness (the fast checker's precondition;
    the dataflow oracle would legitimately diverge otherwise).  With
    ``splits``, edge splits (always strictness-preserving) interleave
    with the branch adds and removes.  After every kept edit the
    checker's precomputation is compared, view by view, with a rebuild.
    Returns how many edits were kept.
    """
    function = sess.function
    entry = function.entry.name
    edits = 0
    for _ in range(6):
        blocks = list(function.blocks)
        choice = rng.random()
        jump_blocks = [
            name
            for name in blocks
            if (t := function.block(name).terminator()) is not None
            and t.opcode == Opcode.JUMP
        ]
        branch_blocks = [
            name
            for name in blocks
            if (t := function.block(name).terminator()) is not None
            and t.opcode == Opcode.BRANCH
            and len(set(t.targets)) == 2
        ]
        if splits and choice >= 0.7:
            source = rng.choice(blocks)
            targets = function.block(source).successors()
            if not targets:
                continue
            target = rng.choice(targets)
            sess.split_edge(source, target)
            edits += 1
            assert_session_matches_rebuild(sess, f"split {source}->{target}")
        elif choice < 0.5 and jump_blocks:
            name = rng.choice(jump_blocks)
            current = function.block(name).terminator().targets[0]
            candidates = [
                c
                for c in blocks
                if c != entry and c != current and not function.block(c).phis()
            ]
            if not candidates:
                continue
            target = rng.choice(candidates)
            sess.add_branch_target(name, target)
            try:
                verify_ssa(function)
            except IRVerificationError:
                sess.remove_branch_target(name, target)
                continue
            edits += 1
            assert_session_matches_rebuild(sess, f"branch+ {name}->{target}")
        elif branch_blocks:
            name = rng.choice(branch_blocks)
            targets = function.block(name).terminator().targets
            victim = rng.choice(targets)
            if victim == entry or function.block(victim).phis():
                continue
            probe = function.build_cfg()
            probe.remove_edge(name, victim)
            if probe.unreachable_nodes():
                continue
            sess.remove_branch_target(name, victim)
            edits += 1
            assert_session_matches_rebuild(sess, f"branch- {name}->{victim}")
    return edits


class TestSessionReplay:
    @pytest.mark.parametrize("index", range(12))
    def test_edit_replay_all_query_kinds(self, index):
        rng = random.Random(0xC0DE + index)
        function = structured_function(index, target_blocks=12)
        sess = TransformationSession(function)
        if session_edit_mix(sess, rng) == 0:
            pytest.skip("no applicable CFG edit on this function")
        assert_checker_matches_rebuild(sess.checker, function, f"replay {index}")
        assert (
            sess.stats.checker_incremental_updates
            + sess.stats.checker_precomputations
            >= sess.stats.cfg_edits
        )

    @pytest.mark.parametrize("index", [3, 7, 11, 19, 23])
    def test_edit_replay_on_fuzz_corpus(self, index):
        # fuzz_function mixes reducible/irreducible/executable families.
        rng = random.Random(index)
        function = fuzz_function(index)
        sess = TransformationSession(function)
        if session_edit_mix(sess, rng) == 0:
            pytest.skip("no applicable CFG edit on this function")
        assert_checker_matches_rebuild(sess.checker, function, f"fuzz {index}")

    def test_split_edge_falls_back_honestly(self):
        function = structured_function(1, target_blocks=8)
        sess = TransformationSession(function)
        done = False
        for name in list(function.blocks):
            for succ in function.block(name).successors():
                if not function.block(succ).phis():
                    sess.split_edge(name, succ)
                    done = True
                    break
            if done:
                break
        assert done
        # An edge split is patched in place: an increment, not a rebuild.
        assert sess.stats.checker_incremental_updates == 1
        assert sess.stats.checker_precomputations == 1
        assert_checker_matches_rebuild(sess.checker, function, "split_edge")

    def test_split_into_a_phi_block(self):
        function = structured_function(3, target_blocks=12)
        sess = TransformationSession(function)
        target = next(block.name for block in function if block.phis())
        for source in function.predecessors(target):
            new_block = sess.split_edge(source, target)
            assert function.block(target).phis()[0].incoming.get(new_block) is not None
            assert_session_matches_rebuild(sess, f"φ split {source}->{target}")
        assert sess.stats.checker_precomputations == 1
        assert_checker_matches_rebuild(sess.checker, function, "φ splits")

    def test_split_of_a_branch_with_both_arms_to_the_target(self):
        function = structured_function(1, target_blocks=8)
        source = next(
            block.name for block in function
            if (term := block.terminator()) is not None
            and term.opcode == Opcode.JUMP
        )
        block = function.block(source)
        target = block.terminator().targets[0]
        block.remove(block.terminator())
        block.append(
            Instruction(Opcode.BRANCH, operands=[Constant(1)], targets=[target, target])
        )
        sess = TransformationSession(function)  # one CFG edge s -> t
        new_block = sess.split_edge(source, target)
        assert function.block(source).terminator().targets == [new_block, new_block]
        assert sess.stats.checker_incremental_updates == 1
        assert_session_matches_rebuild(sess, "both-arms split")
        assert_checker_matches_rebuild(sess.checker, function, "both-arms split")

    def test_split_drops_plans_and_batch_masks(self):
        function = structured_function(2, target_blocks=10)
        sess = TransformationSession(function)
        checker = sess.checker
        for var in checker.live_variables():
            checker.live_in_set(var)  # warm plans and batch masks
        plans_before = checker.plans
        source = function.entry.name
        sess.split_edge(source, function.block(source).successors()[0])
        assert sess.stats.checker_precomputations == 1
        # The numbering moved: plans are recompiled against it.
        assert checker.plans is not plans_before
        assert_checker_matches_rebuild(checker, function, "entry split")

    def test_restored_checker_falls_back_on_a_split(self):
        from repro.persist.precomp import (
            RestoredPrecomputation,
            export_precomputation,
        )

        function = structured_function(4, target_blocks=8)
        warm = FastLivenessChecker(function)
        warm.prepare()
        state = export_precomputation(function.name, warm.precomputation)
        checker = FastLivenessChecker.from_precomputation(
            function, RestoredPrecomputation(state)
        )
        sess = TransformationSession(function)
        source = function.entry.name
        target = function.block(source).successors()[0]
        new_block = sess.split_edge(source, target)
        result = checker.notify_cfg_changed(
            CfgDelta.edge_split(source, target, new_block)
        )
        assert not result.applied and result.reason == "restored"
        assert not checker.is_restored
        assert_checker_matches_rebuild(checker, function, "restored split")

    def test_propagate_checker_falls_back_on_a_split(self):
        function = structured_function(5, target_blocks=8)
        checker = FastLivenessChecker(function, strategy="propagate")
        checker.prepare()
        sess = TransformationSession(function)
        source = function.entry.name
        target = function.block(source).successors()[0]
        new_block = sess.split_edge(source, target)
        result = checker.notify_cfg_changed(
            CfgDelta.edge_split(source, target, new_block)
        )
        assert not result.applied and result.reason == "strategy"
        assert checker.precomputation.targets.strategy == "propagate"
        assert_checker_matches_rebuild(checker, function, "propagate split")

    def test_incremental_updates_preserve_cached_plans(self):
        # Seed pair chosen so every edit applies incrementally (no
        # fallback ever calls prepare(), which would rebuild the cache).
        function = structured_function(2, target_blocks=10)
        sess = TransformationSession(function)
        checker = sess.checker
        for var in checker.live_variables():
            checker.is_live_in(var, function.entry.name)  # warm the plans
        plans_before = checker.plans
        assert session_edit_mix(sess, random.Random(6), splits=False) > 0
        assert sess.stats.checker_incremental_updates > 0
        assert sess.stats.checker_precomputations == 1
        # Numbering preserved ⟹ the plan cache object was kept.
        assert checker.plans is plans_before


class TestCheckerNotify:
    def test_no_delta_is_a_full_invalidation(self):
        function = structured_function(0, target_blocks=6)
        checker = FastLivenessChecker(function)
        checker.prepare()
        result = checker.notify_cfg_changed()
        assert not result.applied and result.reason == "full-invalidation"

    def test_delta_before_prepare_is_a_noop(self):
        function = structured_function(0, target_blocks=6)
        checker = FastLivenessChecker(function)
        result = checker.notify_cfg_changed(CfgDelta.edge_added("a", "b"))
        assert result.applied and result.reason == "no-op"
