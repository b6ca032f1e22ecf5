"""Furthest-next-use spilling: lower MaxLive to the register budget.

When MaxLive exceeds the ``K`` registers the target offers, some values
must live in memory.  This module implements the classic Belady-flavoured
heuristic: find the hottest definition point, and among the values alive
there evict the one whose *next use* is furthest away.  The evicted
variable is rewritten store-after-def / reload-before-use ("spill
everywhere"): its original register range shrinks to the single point
between definition and store, and every use reads a fresh short-lived
reload temporary instead.

The loop is deliberately *iterative* — spill one variable, re-measure
pressure, repeat — because that is the workload the paper's checker is
built for: inserting spill code edits instructions but never the CFG, so
the ``R``/``T`` precomputation survives every round and only the def–use
chains are rebuilt (``on_change`` is the hook where the backend refreshes
whatever it must: the fast checker calls
``notify_instructions_changed()``, a conventional data-flow engine has to
recompute its whole fixpoint).  The regalloc benchmark measures exactly
this asymmetry.

Reload temporaries are never themselves spill candidates, and each spilled
variable gets its own slot; the loop stops when the budget is met, when no
candidate remains, or after a generous round cap (pressure created by the
reloads of a single instruction cannot be spilled away).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.ir.function import Function
from repro.ir.instruction import Instruction, Opcode
from repro.ir.value import Constant, Variable
from repro.liveness.oracle import LivenessOracle
from repro.regalloc.pressure import PressureInfo, compute_pressure

#: Synthetic per-block-hop distance used by the next-use estimate; any
#: value larger than a realistic block length keeps in-block uses ranked
#: closer than cross-block ones.
_HOP_DISTANCE = 1000


@dataclass
class SpillReport:
    """Outcome of one pressure-lowering run."""

    spilled: list[Variable] = field(default_factory=list)
    #: Spill slot number per spilled variable.
    slot_of: dict[Variable, int] = field(default_factory=dict)
    rounds: int = 0
    stores_inserted: int = 0
    reloads_inserted: int = 0
    max_live_before: int = 0
    max_live_after: int = 0


class _Spiller:
    def __init__(
        self,
        function: Function,
        num_registers: int,
        oracle_provider: Callable[[], LivenessOracle],
        on_change: Callable[[], None] | None,
        first_slot: int,
        initial_info: PressureInfo | None = None,
    ) -> None:
        self.function = function
        self.k = num_registers
        self.oracle_provider = oracle_provider
        self.on_change = on_change
        self.report = SpillReport()
        self._next_slot = first_slot
        self._temp_counter = 0
        self._initial_info = initial_info
        #: ids of variables that may never be evicted (reload temporaries).
        self._protected: set[int] = set()

    # ------------------------------------------------------------------
    # Driver loop
    # ------------------------------------------------------------------
    def run(self) -> SpillReport:
        max_rounds = max(8, 2 * len(self.function.variables()))
        # The caller usually measured pressure already to decide whether to
        # spill at all; reuse that for round 0 instead of re-sweeping.
        info = self._initial_info
        while True:
            if info is None:
                info = compute_pressure(self.function, self.oracle_provider())
            if self.report.rounds == 0:
                self.report.max_live_before = info.max_live
            self.report.max_live_after = info.max_live
            if info.max_live <= self.k or self.report.rounds >= max_rounds:
                break
            victim = self._choose_victim(info)
            if victim is None:
                break
            self._spill(victim)
            self.report.rounds += 1
            if self.on_change is not None:
                self.on_change()
            info = None
        return self.report

    # ------------------------------------------------------------------
    # Victim selection (furthest next use from the hottest point)
    # ------------------------------------------------------------------
    def _choose_victim(self, info: PressureInfo) -> Variable | None:
        assert info.max_block is not None
        candidates = [
            var
            for var in info.max_live_set
            if id(var) not in self._protected and var not in self.report.slot_of
        ]
        if not candidates:
            return None
        use_blocks, edge_blocks = self._use_maps(candidates)
        block = info.max_block
        index = info.max_index
        ranked = sorted(
            candidates,
            key=lambda var: (
                -self._next_use_distance(
                    var,
                    block,
                    index,
                    use_blocks.get(var, set()),
                    edge_blocks.get(var, set()),
                ),
                var.name,
            ),
        )
        return ranked[0]

    def _use_maps(
        self, candidates: list[Variable]
    ) -> tuple[dict[Variable, set[str]], dict[Variable, set[str]]]:
        """Use blocks of every candidate in one pass over the function.

        φ operands count as uses at the corresponding predecessor
        (Definition 1); those are additionally reported separately, since
        an edge use sits at the very *end* of its block.
        """
        wanted = {id(var) for var in candidates}
        uses: dict[Variable, set[str]] = {}
        edge: dict[Variable, set[str]] = {}
        for block in self.function:
            for inst in block.instructions:
                if inst.is_phi():
                    for pred, value in inst.incoming.items():
                        if isinstance(value, Variable) and id(value) in wanted:
                            uses.setdefault(value, set()).add(pred)
                            edge.setdefault(value, set()).add(pred)
                else:
                    for value in inst.operands:
                        if isinstance(value, Variable) and id(value) in wanted:
                            uses.setdefault(value, set()).add(block.name)
        return uses, edge

    def _next_use_distance(
        self,
        var: Variable,
        block: str,
        index: int,
        use_blocks: set[str],
        edge_blocks: set[str],
    ) -> float:
        """Estimated distance from (block, index) to the next read of ``var``.

        In-block uses are measured in instructions; uses in other blocks
        add a large per-hop constant along a BFS over CFG successors, so
        the ranking realises "furthest next use" without a precise global
        next-use analysis.  ``inf`` means the value is never read again.
        """
        instructions = self.function.block(block).instructions
        for later in range(index + 1, len(instructions)):
            inst = instructions[later]
            if inst.is_phi():
                continue
            if any(op is var for op in inst.operands):
                return later - index
        if block in edge_blocks:
            return len(instructions) - index
        seen = {block}
        frontier = deque([(block, 1)])
        while frontier:
            current, hops = frontier.popleft()
            for succ in self.function.block(current).successors():
                if succ in seen:
                    continue
                if succ in use_blocks:
                    return len(instructions) - index + hops * _HOP_DISTANCE
                seen.add(succ)
                frontier.append((succ, hops + 1))
        return float("inf")

    # ------------------------------------------------------------------
    # Rewrite: store after def, reload before every use
    # ------------------------------------------------------------------
    def _spill(self, var: Variable) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self.report.slot_of[var] = slot
        self.report.spilled.append(var)
        self._insert_store(var, slot)
        self._rewrite_plain_uses(var, slot)
        self._rewrite_phi_uses(var, slot)

    def _make_temp(self, var: Variable) -> Variable:
        temp = Variable(f"{var.name}.reload{self._temp_counter}")
        self._temp_counter += 1
        self._protected.add(id(temp))
        return temp

    def _insert_store(self, var: Variable, slot: int) -> None:
        definition = var.definition
        assert definition is not None and definition.block is not None
        block = definition.block
        if definition.is_phi():
            # Stores may not interrupt the φ prefix.
            position = len(block.phis())
        else:
            position = block.instructions.index(definition) + 1
        block.insert(
            position,
            Instruction(
                Opcode.STORE, operands=[var, Constant(slot)], detail="spill"
            ),
        )
        self.report.stores_inserted += 1

    def _reload(self, var: Variable, slot: int) -> Instruction:
        temp = self._make_temp(var)
        self.report.reloads_inserted += 1
        return Instruction(
            Opcode.LOAD, result=temp, operands=[Constant(slot)], detail="reload"
        )

    def _rewrite_plain_uses(self, var: Variable, slot: int) -> None:
        for block in self.function:
            index = 0
            while index < len(block.instructions):
                inst = block.instructions[index]
                if (
                    not inst.is_phi()
                    and inst.detail != "spill"
                    and any(op is var for op in inst.operands)
                ):
                    reload = self._reload(var, slot)
                    block.insert(index, reload)
                    assert reload.result is not None
                    inst.replace_uses(var, reload.result)
                    index += 1
                index += 1

    def _rewrite_phi_uses(self, var: Variable, slot: int) -> None:
        # Group φ uses by predecessor so several φs reading the same
        # spilled value through one edge share a single reload.
        sites: dict[str, list] = {}
        for block in self.function:
            for phi in block.phis():
                for pred, value in phi.incoming.items():
                    if value is var:
                        sites.setdefault(pred, []).append((phi, pred))
        for pred, phis in sites.items():
            reload = self._reload(var, slot)
            self.function.block(pred).insert_before_terminator(reload)
            for phi, pred_name in phis:
                phi.set_incoming(pred_name, reload.result)


def lower_pressure(
    function: Function,
    num_registers: int,
    oracle_provider: Callable[[], LivenessOracle],
    on_change: Callable[[], None] | None = None,
    first_slot: int = 0,
    initial_info: PressureInfo | None = None,
) -> SpillReport:
    """Spill until MaxLive fits in ``num_registers`` (or no candidate is left).

    ``oracle_provider`` is called at the top of every round and must return
    an oracle that is *currently valid* for the (possibly just rewritten)
    function; ``on_change`` is invoked after each rewrite so the backend
    can refresh itself at whatever cost its representation implies.
    ``initial_info`` may carry a pressure report already computed for the
    untouched function, sparing the first round its sweep.
    """
    if num_registers < 1:
        raise ValueError("num_registers must be at least 1")
    spiller = _Spiller(
        function,
        num_registers,
        oracle_provider,
        on_change,
        first_slot,
        initial_info,
    )
    return spiller.run()
