"""Register pressure and MaxLive, computed from liveness *queries* only.

A register allocator's first question is "how many values are alive at
once?".  With precomputed live sets that is a lookup; the point of this
module is that it is just as expressible against the paper's on-demand
checker — block-level liveness comes from ``is_live_in``/``is_live_out``
queries (batched through :class:`repro.core.batch.BatchQueryEngine` when
the oracle supports it) and the *within*-block refinement is a local scan
of the instruction stream, no global data-flow required.

Conventions (shared with :mod:`repro.regalloc.chordal` so that "number of
colors used" and "MaxLive" are measured against the same ruler):

* a variable occupies a register from its definition to its last use —
  and at least *at* its definition point, even when dead (the value is
  written somewhere);
* a φ operand flowing out of block ``p`` is treated as used at the very
  end of ``p`` (Definition 1 of the paper), which is exactly where SSA
  destruction will place the copy that reads it;
* pressure is sampled at *definition points* (just after each defining
  instruction).  For strict SSA programs every maximal interference
  clique is the live set at some definition point, so the maximum over
  definition points — **MaxLive** — equals the chromatic number of the
  interference graph and therefore the register count of an optimal
  spill-free assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle


class BlockLiveness:
    """Block-level liveness facts for one function, via oracle queries.

    This is the query front-end shared by the pressure computation and the
    chordal coloring: live-in/live-out sets per block (bulk-computed by the
    batch engine when the oracle exposes one as ``batch``, else one query
    per variable and block), the φ-operand "edge uses" attributed to each
    predecessor, and the last in-block use index of every variable.
    """

    def __init__(
        self,
        function: Function,
        oracle: LivenessOracle,
        variables: list[Variable] | None = None,
    ) -> None:
        self.function = function
        self.oracle = oracle
        oracle.prepare()
        self.variables = (
            list(variables) if variables is not None else oracle.live_variables()
        )
        self._tracked = {id(var) for var in self.variables}
        #: block -> variables read by a successor φ through this block.
        self.edge_uses: dict[str, set[Variable]] = {
            block.name: set() for block in function
        }
        for block in function:
            for phi in block.phis():
                for pred, value in phi.incoming.items():
                    if isinstance(value, Variable) and id(value) in self._tracked:
                        self.edge_uses[pred].add(value)
        self._live_in: dict[str, set[Variable]] = {}
        self._live_out: dict[str, set[Variable]] = {}
        self._compute_block_sets()

    def _compute_block_sets(self) -> None:
        oracle = self.oracle
        blocks = [block.name for block in self.function]
        self._live_in = {name: set() for name in blocks}
        self._live_out = {name: set() for name in blocks}
        if hasattr(oracle, "batch"):
            # One joint interval sweep per variable over the shared query
            # plans — both directions at once.
            live_in, live_out = oracle.batch.live_maps(self.variables)
            for name, members in live_in.items():
                self._live_in[name] |= members
            for name, members in live_out.items():
                self._live_out[name] |= members
            return
        for var in self.variables:
            for name in blocks:
                if oracle.is_live_in(var, name):
                    self._live_in[name].add(var)
                if oracle.is_live_out(var, name):
                    self._live_out[name].add(var)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def live_in(self, block: str) -> set[Variable]:
        """Variables live-in at ``block`` (tracked subset)."""
        return self._live_in[block]

    def live_out(self, block: str) -> set[Variable]:
        """Variables live-out at ``block`` (tracked subset)."""
        return self._live_out[block]

    def ends_at_exit(self, var: Variable, block: str) -> bool:
        """Does ``var``'s range extend to the end of ``block``?

        True when the variable is live-out or read by a successor φ
        through ``block`` (the parallel-copy point of SSA destruction).
        """
        return var in self._live_out[block] or var in self.edge_uses[block]

    def last_uses(self, block: str) -> dict[Variable, int]:
        """Last in-block use index of every tracked variable used in ``block``.

        φ instructions are skipped — their operands are uses in the
        predecessors, not here.  Terminator operands count like any other
        use (the terminator is the last instruction).
        """
        result: dict[Variable, int] = {}
        for index, inst in enumerate(self.function.block(block).instructions):
            if inst.is_phi():
                continue
            for value in inst.operands:
                if isinstance(value, Variable) and id(value) in self._tracked:
                    result[value] = index
        return result

    def death_index(
        self, var: Variable, block: str, last_uses: dict[Variable, int]
    ) -> int | None:
        """Index after which ``var`` is dead in ``block`` (``None`` = never)."""
        if self.ends_at_exit(var, block):
            return None
        return last_uses.get(var, -1)


@dataclass
class BlockPressure:
    """Pressure summary of one basic block."""

    block: str
    #: Number of variables live-in at the block.
    entry: int
    #: Number of variables alive at the very end (live-out plus φ edge uses).
    exit: int
    #: Highest pressure over the block's definition points (0 if none).
    max_def_point: int
    #: Instruction index of the hottest definition point (-1 if none).
    max_index: int = -1


@dataclass
class PressureInfo:
    """Function-wide register-pressure report."""

    per_block: dict[str, BlockPressure] = field(default_factory=dict)
    #: MaxLive: maximum pressure over all definition points.
    max_live: int = 0
    #: Block holding the hottest definition point (``None`` if no defs).
    max_block: str | None = None
    #: Instruction index of the hottest definition point within that block.
    max_index: int = -1
    #: The variables alive at the hottest point (including the one defined).
    max_live_set: set[Variable] = field(default_factory=set)

    @property
    def max_entry_pressure(self) -> int:
        """Largest live-in count over all blocks (never exceeds MaxLive)."""
        if not self.per_block:
            return 0
        return max(block.entry for block in self.per_block.values())


def compute_pressure(
    function: Function,
    oracle: LivenessOracle,
    variables: list[Variable] | None = None,
    block_liveness: BlockLiveness | None = None,
) -> PressureInfo:
    """Compute per-block pressure and MaxLive for ``function``.

    Every piece of global information is obtained through ``oracle``
    queries (see :class:`BlockLiveness`).
    """
    liveness = (
        block_liveness
        if block_liveness is not None
        else BlockLiveness(function, oracle, variables)
    )
    tracked = {id(var) for var in liveness.variables}
    info = PressureInfo()
    for block in function:
        name = block.name
        last_uses = liveness.last_uses(name)
        live_end = liveness.live_out(name) | liveness.edge_uses[name]
        #: var -> index after which it is dead (None = survives the block).
        active: dict[Variable, int | None] = {}
        for var in liveness.live_in(name):
            active[var] = liveness.death_index(var, name, last_uses)
        block_max = 0
        block_max_index = -1
        block_max_set: set[Variable] = set()
        for index, inst in enumerate(block.instructions):
            defined = inst.result
            if defined is None or id(defined) not in tracked:
                continue
            for var in [v for v, death in active.items() if death is not None and death <= index]:
                del active[var]
            death = liveness.death_index(defined, name, last_uses)
            if death is not None and death < index:
                # Dead definition: the value still needs a register *at*
                # its definition point.
                death = index
            active[defined] = death
            pressure = len(active)
            if pressure > block_max:
                block_max = pressure
                block_max_index = index
                block_max_set = set(active)
        info.per_block[name] = BlockPressure(
            block=name,
            entry=len(liveness.live_in(name)),
            exit=len(live_end),
            max_def_point=block_max,
            max_index=block_max_index,
        )
        if block_max > info.max_live:
            info.max_live = block_max
            info.max_block = name
            info.max_index = block_max_index
            info.max_live_set = block_max_set
    return info


def max_live(
    function: Function,
    oracle: LivenessOracle,
    variables: list[Variable] | None = None,
) -> int:
    """Convenience wrapper: just the MaxLive number."""
    return compute_pressure(function, oracle, variables).max_live
