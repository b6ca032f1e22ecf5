"""JIT-style transformation session: which engine survives program edits?

Run with::

    python examples/jit_invalidation.py

The paper's motivation is that conventional liveness information "is easily
invalidated by program transformations" while the checker's precomputation
only depends on the CFG.  This example replays a JIT-like workload — insert
copies / extra uses, then immediately ask liveness questions — through a
:class:`repro.TransformationSession`, which keeps both engines honest by
cross-checking every answer, and prints how many precomputations each
engine needed.
"""

from repro import CompilerClient, TransformationSession, compile_source
from repro.api import CompileSourceRequest, LivenessQuery

SOURCE = """
func hot_loop(n, base) {
    acc = 0;
    i = 0;
    while (i < n) {
        value = base + i;
        if (value > 10) {
            acc = acc + value;
        } else {
            acc = acc + base;
        }
        i = i + 1;
    }
    return acc;
}
"""


def patchable_edit(function):
    """A branch-target addition the incremental patcher always applies.

    ``s -> t`` with ``t`` strictly dominating ``s`` provably preserves
    the dominator tree (and therefore strict SSA); the session only
    needs ``t`` φ-free and ``s`` ending in a plain jump.
    """
    from repro.cfg.dominance import DominatorTree
    from repro.ir.instruction import Opcode

    cfg = function.build_cfg()
    dom = DominatorTree(cfg)
    for source in cfg.nodes():
        if function.block(source).terminator().opcode is not Opcode.JUMP:
            continue
        for target in cfg.nodes():
            if (
                target != cfg.entry
                and target != source
                and dom.dominates(target, source)
                and not cfg.has_edge(source, target)
                and not function.block(target).phis()
            ):
                return source, target
    return None


def main() -> None:
    function = compile_source(SOURCE).function("hot_loop")
    session = TransformationSession(function, track_dataflow=True)

    blocks = list(function.blocks)
    variables = session.checker.live_variables()
    print(f"function has {len(blocks)} blocks and {len(variables)} SSA variables")
    print()

    # A JIT-ish loop: every iteration materialises a new copy (think
    # rematerialisation or spill code) and then queries liveness around it.
    for round_index in range(6):
        target_block = blocks[round_index % len(blocks)]
        source_var = variables[round_index % len(variables)]
        new_var = session.insert_copy(target_block, source_var)
        session.add_use(new_var, target_block)
        for var in variables[:4]:
            for block in blocks:
                session.is_live_in(var, block)

    stats = session.stats
    print("after 6 edit/query rounds:")
    print(f"  instruction-level edits:          {stats.instruction_edits}")
    print(f"  CFG-level edits:                  {stats.cfg_edits}")
    print(f"  liveness queries answered:        {stats.queries}")
    print(f"  checker precomputations:          {stats.checker_precomputations}")
    print(f"  data-flow recomputations:         {stats.dataflow_precomputations}")
    print()

    # Now a CFG edit: split an edge.  CFG edits are the only ones that
    # touch the checker's precomputation at all, but the session
    # *describes* this one as a CfgDelta, and an edge split is patched in
    # place: the new block gets one bit in every R/T row, no fresh
    # precompute.  The data-flow sets are recomputed as after any edit.
    header = next(block.name for block in function if function.block(block.name).phis())
    pred = function.predecessors(header)[0]
    session.split_edge(pred, header)
    for var in variables[:4]:
        session.is_live_in(var, header)

    print("after additionally splitting a CFG edge:")
    print(f"  CFG-level edits:                  {session.stats.cfg_edits}")
    print(f"  incremental patches applied:      {session.stats.checker_incremental_updates}")
    print(f"  checker precomputations:          {session.stats.checker_precomputations}")
    print(f"  data-flow recomputations:         {session.stats.dataflow_precomputations}")
    print()

    # Edge edits the session can describe are patched as well (here:
    # adding a branch target that already dominates its source): only
    # the reachable R/T rows are touched.
    edit = patchable_edit(function)
    if edit is not None:
        before = session.stats.checker_precomputations
        session.add_branch_target(*edit)
        for var in variables[:4]:
            for block in blocks:
                session.is_live_in(var, block)
        print(f"after a *described* CFG edit ({edit[0]} -> {edit[1]}):")
        print(f"  incremental patches applied:      {session.stats.checker_incremental_updates}")
        print(
            f"  checker precomputations:          "
            f"{session.stats.checker_precomputations} (unchanged: {before})"
        )
        print()
    print("every query above was answered identically by both engines.")
    print()

    # The same invalidation contract, *enforced* at the API boundary: a
    # JIT that holds a revisioned handle across an edit gets a structured
    # STALE_HANDLE error instead of a silently-stale liveness fact.
    client = CompilerClient()
    (handle,) = client.dispatch(CompileSourceRequest(source=SOURCE)).functions
    fn = client.service.function(handle.name)
    var = fn.variables()[0]
    block = next(iter(fn.blocks))
    query = LivenessQuery(
        function=handle, kind="in", variable=var.name, block=block
    )
    assert client.dispatch(query).ok
    client.service.notify_instructions_changed(handle.name)  # the JIT edits
    rejected = client.dispatch(query)
    print(
        f"handle {handle} after an edit: {rejected.error.code.value} — "
        "the server refuses to answer from invalidated state"
    )
    fresh = LivenessQuery(
        function=client.handle(handle.name),
        kind="in",
        variable=var.name,
        block=block,
    )
    assert client.dispatch(fresh).ok
    print(f"re-minted {client.handle(handle.name)}: served again")


if __name__ == "__main__":
    main()
