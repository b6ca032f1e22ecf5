"""Basic blocks.

A block is a named sequence of instructions: zero or more φ-functions,
followed by ordinary instructions, terminated by exactly one terminator
(``jump``, ``branch`` or ``return``).  Block successors are derived from
the terminator's targets, so the function-level CFG is always consistent
with the instruction stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ir.instruction import Instruction, Opcode, Phi

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class BasicBlock:
    """A labelled basic block owned by a :class:`~repro.ir.function.Function`."""

    __slots__ = ("name", "instructions", "function")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("block name must be non-empty")
        self.name = name
        self.instructions: list[Instruction] = []
        self.function: "Function | None" = None

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> Instruction:
        """Append ``instruction``; φ-functions are inserted after existing φs."""
        if instruction.is_phi():
            position = len(self.phis())
            self.instructions.insert(position, instruction)
        else:
            self.instructions.append(instruction)
        instruction.block = self
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        """Insert ``instruction`` at ``index`` in the instruction list."""
        self.instructions.insert(index, instruction)
        instruction.block = self
        return instruction

    def remove(self, instruction: Instruction) -> None:
        """Remove ``instruction`` from the block."""
        self.instructions.remove(instruction)
        instruction.block = None

    def insert_before_terminator(self, instruction: Instruction) -> Instruction:
        """Insert ``instruction`` just before the terminator (or append).

        SSA destruction uses this to place the parallel copies that realise
        φ-semantics "on the way" to the successor block.
        """
        terminator = self.terminator()
        if terminator is None:
            return self.append(instruction)
        index = self.instructions.index(terminator)
        return self.insert(index, instruction)

    def phis(self) -> list[Phi]:
        """The φ-functions at the head of the block."""
        result = []
        for instruction in self.instructions:
            if instruction.is_phi():
                result.append(instruction)
            else:
                break
        return result

    def non_phi_instructions(self) -> list[Instruction]:
        """Instructions after the φ prefix."""
        return [inst for inst in self.instructions if not inst.is_phi()]

    def terminator(self) -> Instruction | None:
        """The block's terminator, or ``None`` while under construction."""
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def successors(self) -> list[str]:
        """Successor block names, derived from the terminator."""
        terminator = self.terminator()
        if terminator is None:
            return []
        if terminator.opcode == Opcode.RETURN:
            return []
        # A branch whose arms coincide is a single CFG edge.
        seen: dict[str, None] = {}
        for target in terminator.targets:
            seen.setdefault(target, None)
        return list(seen)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.name!r}, {len(self.instructions)} instructions)"

    # ------------------------------------------------------------------
    # Variable-level views
    # ------------------------------------------------------------------
    def defined_variables(self) -> list:
        """Variables defined by the block's instructions (including φs)."""
        result = []
        for inst in self.instructions:
            result.extend(inst.defined_variables())
        return result

    def used_variables(self) -> list:
        """Variables used by non-φ instructions of this block.

        φ uses are attributed to predecessor blocks (Definition 1) and are
        therefore *not* included here; :mod:`repro.ssa.defuse` adds them to
        the appropriate predecessors.
        """
        result = []
        for inst in self.instructions:
            if inst.is_phi():
                continue
            result.extend(inst.used_variables())
        return result
