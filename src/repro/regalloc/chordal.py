"""Greedy coloring of SSA interference in dominance order.

The interference graph of a strict-SSA program is *chordal* (Hack,
Bouchez, Brisk et al.), and its simplicial-elimination structure is given
away for free by the dominator tree: visit the blocks in dominator-tree
preorder and the definitions inside each block in instruction order, and
every variable alive at a definition point has already been assigned a
color.  Picking the lowest free color at each definition therefore yields
an *optimal* coloring — exactly MaxLive colors (see
:mod:`repro.regalloc.pressure` for the shared conventions).

The scan needs precisely two kinds of global information, both of which
are liveness queries: "which variables are live-in here?" (to seed the
active set of a block) and "does this variable survive the block?" (to
decide when a register frees up).  That makes the pass a natural client
of the paper's checker — no interference graph, no precomputed live sets,
and spill-code insertion between runs never invalidates anything beyond
the def–use chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle
from repro.regalloc.pressure import BlockLiveness


@dataclass
class Coloring:
    """A register assignment for every tracked variable."""

    #: Variable (identity-keyed) → register number, 0-based and dense.
    color_of: dict[Variable, int] = field(default_factory=dict)
    #: Number of distinct registers used.
    num_colors: int = 0
    #: Variables in the order they were colored (dominance order of defs).
    order: list[Variable] = field(default_factory=list)

    def register(self, var: Variable) -> int:
        """The register assigned to ``var``."""
        return self.color_of[var]


def _lowest_free(occupied: set[int]) -> int:
    color = 0
    while color in occupied:
        color += 1
    return color


def color_function(
    function: Function,
    oracle: LivenessOracle,
    variables: list[Variable] | None = None,
    domtree: DominatorTree | None = None,
    block_liveness: BlockLiveness | None = None,
) -> Coloring:
    """Color every tracked variable of an SSA-form ``function``.

    ``oracle`` answers the liveness queries; ``domtree`` may be supplied
    to reuse an existing dominator tree (e.g. the one inside a
    :class:`~repro.core.live_checker.FastLivenessChecker`'s
    precomputation), otherwise one is built from the function's CFG.
    """
    liveness = (
        block_liveness
        if block_liveness is not None
        else BlockLiveness(function, oracle, variables)
    )
    if domtree is None:
        pre = getattr(oracle, "precomputation", None)
        domtree = pre.domtree if pre is not None else DominatorTree(function.build_cfg())
    tracked = {id(var) for var in liveness.variables}
    coloring = Coloring()
    for name in domtree.preorder():
        block = function.block(name)
        last_uses = liveness.last_uses(name)
        #: var -> index after which it is dead in this block (None = never).
        active: dict[Variable, int | None] = {}
        for var in liveness.live_in(name):
            if var not in coloring.color_of:
                raise ValueError(
                    f"variable {var.name!r} is live-in at {name!r} but its "
                    "definition was not visited earlier in dominance order; "
                    "the function is not in strict SSA form"
                )
            active[var] = liveness.death_index(var, name, last_uses)
        for index, inst in enumerate(block.instructions):
            defined = inst.result
            if defined is None or id(defined) not in tracked:
                continue
            for var in [
                v for v, death in active.items() if death is not None and death <= index
            ]:
                del active[var]
            occupied = {coloring.color_of[v] for v in active}
            color = _lowest_free(occupied)
            coloring.color_of[defined] = color
            coloring.order.append(defined)
            coloring.num_colors = max(coloring.num_colors, color + 1)
            death = liveness.death_index(defined, name, last_uses)
            if death is not None and death < index:
                death = index
            active[defined] = death
    return coloring
