"""Transformation sessions: which edits invalidate which liveness data.

The paper's motivation (Section 1) is that conventional liveness results
"are easily invalidated by program transformations", whereas the checker's
precomputation "remains valid upon adding or removing variables or their
uses" because it only depends on the CFG.  :class:`TransformationSession`
makes that contract executable: it wraps a function together with a
:class:`~repro.core.live_checker.FastLivenessChecker` and (optionally) a
conventional :class:`~repro.liveness.dataflow.DataflowLiveness` engine, and
routes program edits through methods that do the minimal required
bookkeeping on each side:

* instruction/variable edits → update def–use chains incrementally, leave
  the checker's precomputation untouched, but force the data-flow engine to
  recompute its sets;
* CFG edits → invalidate the data-flow sets, and hand the checker a
  :class:`~repro.core.incremental.CfgDelta`: edge splits and the branch
  edits below are patched into its precomputation in place (anything the
  patcher refuses still costs a rebuild).

The invalidation ablation benchmark and the ``jit_invalidation`` example
replay realistic edit/query mixes through a session and count how many
precomputations each engine had to perform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.incremental import CfgDelta
from repro.core.live_checker import FastLivenessChecker
from repro.ir.function import Function
from repro.ir.instruction import Instruction, Opcode
from repro.ir.value import Constant, Variable
from repro.liveness.dataflow import DataflowLiveness
from repro.ssa.defuse import DefUseChains


@dataclass
class InvalidationStats:
    """Counts of recomputations forced on each engine during a session."""

    instruction_edits: int = 0
    cfg_edits: int = 0
    checker_precomputations: int = 0
    #: CFG edits the checker absorbed by patching its precomputation in
    #: place (a :class:`~repro.core.incremental.CfgDelta` was applied)
    #: instead of paying a full recomputation.
    checker_incremental_updates: int = 0
    dataflow_precomputations: int = 0
    queries: int = 0
    log: list[str] = field(default_factory=list)


class TransformationSession:
    """Replay program edits and liveness queries against both engines."""

    def __init__(
        self,
        function: Function,
        track_dataflow: bool = True,
    ) -> None:
        self.function = function
        self.defuse = DefUseChains(function)
        self.checker = FastLivenessChecker(function, defuse=self.defuse)
        self.checker.prepare()
        self._dataflow: DataflowLiveness | None = None
        self._dataflow_valid = False
        self._track_dataflow = track_dataflow
        self.stats = InvalidationStats(checker_precomputations=1)
        self._copy_counter = 0
        if track_dataflow:
            self._refresh_dataflow()

    # ------------------------------------------------------------------
    # Engine bookkeeping
    # ------------------------------------------------------------------
    def _refresh_dataflow(self) -> None:
        self._dataflow = DataflowLiveness(self.function)
        self._dataflow.prepare()
        self._dataflow_valid = True
        self.stats.dataflow_precomputations += 1

    def _dataflow_engine(self) -> DataflowLiveness | None:
        if not self._track_dataflow:
            return None
        if not self._dataflow_valid:
            self._refresh_dataflow()
        return self._dataflow

    # ------------------------------------------------------------------
    # Instruction-level edits (precomputation survives)
    # ------------------------------------------------------------------
    def insert_copy(self, block_name: str, source: Variable) -> Variable:
        """Insert ``new ← copy source`` before the terminator of a block.

        Models the copies SSA destruction and spill/reload insertion create
        all the time.  The checker only needs its def–use chains updated;
        the conventional engine's sets are stale and must be recomputed
        before the next query.
        """
        block = self.function.block(block_name)
        new_var = Variable(f"{source.name}.copy{self._copy_counter}")
        self._copy_counter += 1
        block.insert_before_terminator(
            Instruction(Opcode.COPY, result=new_var, operands=[source])
        )
        self.defuse.add_variable(new_var, block_name)
        self.defuse.add_use(source, block_name)
        self.checker.notify_variable_changed(source)
        self._note_instruction_edit(f"insert_copy {source.name} in {block_name}")
        return new_var

    def add_use(self, var: Variable, block_name: str) -> Instruction:
        """Append an opaque use of ``var`` (a ``store``) to a block."""
        block = self.function.block(block_name)
        # STORE takes an address and a value; here both are ``var``, so the
        # chains record one use per operand occurrence — exactly what a
        # fresh DefUseChains rebuild would count for this instruction.
        inst = Instruction(Opcode.STORE, operands=[var, var])
        block.insert_before_terminator(inst)
        for operand in inst.operands:
            assert operand is var
            self.defuse.add_use(var, block_name)
        self.checker.notify_variable_changed(var)
        self._note_instruction_edit(f"add_use {var.name} in {block_name}")
        return inst

    def remove_instruction(self, inst: Instruction) -> None:
        """Delete an instruction, updating def–use chains incrementally."""
        block = inst.block
        if block is None:
            raise ValueError("instruction does not belong to a block")
        for value in inst.used_variables():
            self.defuse.remove_use(value, block.name)
            self.checker.notify_variable_changed(value)
        if inst.result is not None:
            self.defuse.remove_variable(inst.result)
            self.checker.notify_variable_changed(inst.result)
        block.remove(inst)
        self._note_instruction_edit(f"remove_instruction in {block.name}")

    def _note_instruction_edit(self, description: str) -> None:
        self.stats.instruction_edits += 1
        self.stats.log.append(description)
        # The fast checker keeps its precomputation; the data-flow sets are
        # now stale.
        self._dataflow_valid = False

    # ------------------------------------------------------------------
    # CFG-level edits (described to the checker as a CfgDelta)
    # ------------------------------------------------------------------
    def split_edge(self, source: str, target: str) -> str:
        """Split the CFG edge ``source -> target`` with a forwarding block."""
        source_block = self.function.block(source)
        terminator = source_block.terminator()
        if terminator is None or target not in source_block.successors():
            raise ValueError(f"no edge {source!r} -> {target!r} to split")
        new_name = f"split.{source}.{target}.{self.stats.cfg_edits}"
        new_block = self.function.add_block(new_name)
        new_block.append(Instruction(Opcode.JUMP, targets=[target]))
        terminator.targets = [
            new_name if t == target else t for t in terminator.targets
        ]
        for phi in self.function.block(target).phis():
            if source in phi.incoming:
                incoming_value = phi.incoming[source]
                phi.rename_predecessor(source, new_name)
                # A φ operand is used at its predecessor (Definition 1), so
                # the use site moves from the old predecessor to the new
                # forwarding block; def–use chains are patched accordingly.
                if isinstance(incoming_value, Variable) and incoming_value in self.defuse:
                    self.defuse.remove_use(incoming_value, source)
                    self.defuse.add_use(incoming_value, new_name)
        self._note_cfg_edit(
            f"split_edge {source} -> {target}",
            # The new block took the target's slot in the terminator, which
            # is the order the incremental patcher's in-place split assumes.
            CfgDelta.edge_split(source, target, new_name),
        )
        return new_name

    def add_branch_target(self, block_name: str, new_target: str) -> None:
        """Turn a block's ``jump`` into a ``branch``, gaining one CFG edge.

        Models speculative-optimisation edits (guard insertion, deopt
        exits): the block keeps its original fall-through as the first arm
        and gains ``new_target`` as the second, so the new edge is
        *appended* after the existing successor — the order the
        incremental patcher's DFS-preservation argument relies on.  The
        target must be φ-free (a new predecessor would otherwise need φ
        operands this edit does not invent) and must not be the entry.
        """
        block = self.function.block(block_name)
        terminator = block.terminator()
        if terminator is None or terminator.opcode != Opcode.JUMP:
            raise ValueError(f"block {block_name!r} does not end in a jump")
        target_block = self.function.block(new_target)  # must exist
        if target_block.phis():
            raise ValueError(
                f"cannot add an edge into {new_target!r}: it has φ-functions"
            )
        if target_block is self.function.entry:
            raise ValueError("cannot add an edge into the entry block")
        old_target = terminator.targets[0]
        block.remove(terminator)
        block.append(
            Instruction(
                Opcode.BRANCH,
                operands=[Constant(1)],
                targets=[old_target, new_target],
            )
        )
        self._note_cfg_edit(
            f"add_branch_target {block_name} -> {new_target}",
            CfgDelta.edge_added(block_name, new_target),
        )

    def remove_branch_target(self, block_name: str, target: str) -> None:
        """Turn a block's ``branch`` into a ``jump``, losing one CFG edge.

        The inverse of :meth:`add_branch_target` (dead-guard elimination,
        un-speculation).  ``target`` must be one arm of the branch (but
        not both — a branch whose arms coincide has no terminator left to
        keep) and must be φ-free, since the φs would otherwise keep an
        operand for a predecessor that no longer reaches them.
        """
        block = self.function.block(block_name)
        terminator = block.terminator()
        if terminator is None or terminator.opcode != Opcode.BRANCH:
            raise ValueError(f"block {block_name!r} does not end in a branch")
        if target not in terminator.targets:
            raise ValueError(f"{target!r} is not a target of {block_name!r}")
        remaining = [t for t in terminator.targets if t != target]
        if not remaining:
            raise ValueError(
                f"both arms of {block_name!r} target {target!r}; removing "
                "them leaves no terminator"
            )
        if self.function.block(target).phis():
            raise ValueError(
                f"cannot remove the edge into {target!r}: it has φ-functions"
            )
        block.remove(terminator)
        block.append(Instruction(Opcode.JUMP, targets=[remaining[0]]))
        self._note_cfg_edit(
            f"remove_branch_target {block_name} -> {target}",
            CfgDelta.edge_removed(block_name, target),
        )

    def _note_cfg_edit(self, description: str, delta: CfgDelta | None = None) -> None:
        self.stats.cfg_edits += 1
        self.stats.log.append(description)
        result = self.checker.notify_cfg_changed(delta)
        if result.applied:
            self.stats.checker_incremental_updates += 1
        else:
            self.checker.prepare()
            self.stats.checker_precomputations += 1
        self._dataflow_valid = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_live_in(self, var: Variable, block: str) -> bool:
        """Answer a live-in query with the fast checker (and cross-check)."""
        self.stats.queries += 1
        answer = self.checker.is_live_in(var, block)
        dataflow = self._dataflow_engine()
        if dataflow is not None and var in set(dataflow.live_variables()):
            reference = dataflow.is_live_in(var, block)
            if reference != answer:
                raise AssertionError(
                    f"engines disagree on live-in({var.name}, {block}): "
                    f"checker={answer}, dataflow={reference}"
                )
        return answer

    def is_live_out(self, var: Variable, block: str) -> bool:
        """Answer a live-out query with the fast checker (and cross-check)."""
        self.stats.queries += 1
        answer = self.checker.is_live_out(var, block)
        dataflow = self._dataflow_engine()
        if dataflow is not None and var in set(dataflow.live_variables()):
            reference = dataflow.is_live_out(var, block)
            if reference != answer:
                raise AssertionError(
                    f"engines disagree on live-out({var.name}, {block}): "
                    f"checker={answer}, dataflow={reference}"
                )
        return answer
