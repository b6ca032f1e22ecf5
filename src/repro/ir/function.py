"""Functions and the projection to the block-level CFG."""

from __future__ import annotations

from typing import Iterator

from repro.cfg.graph import ControlFlowGraph
from repro.ir.block import BasicBlock
from repro.ir.instruction import Instruction, Opcode, Phi
from repro.ir.value import Variable

#: Terminators with successors (``return`` has none).
_BRANCHING = frozenset({Opcode.JUMP, Opcode.BRANCH})


class Function:
    """A function: an ordered collection of basic blocks plus parameters.

    The first block added is the entry block.  Parameters are modelled as
    variables defined by ``param`` instructions that the builder places at
    the top of the entry block, which keeps the "every variable has a
    defining instruction" invariant uniform.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: dict[str, BasicBlock] = {}
        self.parameters: list[Variable] = []

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        """The entry block (the first block added)."""
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return next(iter(self.blocks.values()))

    def add_block(self, name: str) -> BasicBlock:
        """Create and register a new block with a unique name."""
        if name in self.blocks:
            raise ValueError(f"duplicate block name {name!r}")
        block = BasicBlock(name)
        block.function = self
        self.blocks[name] = block
        return block

    def block(self, name: str) -> BasicBlock:
        """Look up a block by name."""
        return self.blocks[name]

    def remove_block(self, name: str) -> None:
        """Remove a block (callers must have rewired control flow first)."""
        block = self.blocks.pop(name)
        block.function = None

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, name: str) -> bool:
        return name in self.blocks

    def __repr__(self) -> str:
        return f"Function({self.name!r}, blocks={len(self.blocks)})"

    # ------------------------------------------------------------------
    # Instruction / variable views
    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self:
            yield from block.instructions

    def variables(self) -> list[Variable]:
        """Every variable defined in the function (parameters first)."""
        result: list[Variable] = []
        seen: set[int] = set()
        for param in self.parameters:
            if id(param) not in seen:
                seen.add(id(param))
                result.append(param)
        for inst in self.instructions():
            for var in inst.defined_variables():
                if id(var) not in seen:
                    seen.add(id(var))
                    result.append(var)
        return result

    def variable_by_name(self, name: str) -> Variable:
        """Find a variable by its (unique, post-SSA) name."""
        for var in self.variables():
            if var.name == name:
                return var
        raise KeyError(f"no variable named {name!r} in function {self.name!r}")

    def phis(self) -> list[Phi]:
        """Every φ-function in the function, in block order."""
        return [inst for inst in self.instructions() if inst.is_phi()]

    # ------------------------------------------------------------------
    # CFG projection and maintenance
    # ------------------------------------------------------------------
    def build_cfg(self) -> ControlFlowGraph:
        """Project the block-level control-flow graph.

        Nodes are block *names* so the graph is independent of IR object
        identity — exactly the variable-independence the precomputation of
        the liveness checker relies on.  Each terminator is read once (a
        jump has one target, a branch two); a branch whose arms coincide
        is a single edge, as in :meth:`BasicBlock.successors`.
        """
        successors: dict[str, list[str]] = {}
        for name, block in self.blocks.items():
            instructions = block.instructions
            if instructions and instructions[-1].opcode in _BRANCHING:
                targets = instructions[-1].targets
                if len(targets) == 2 and targets[0] == targets[1]:
                    successors[name] = targets[:1]
                else:
                    successors[name] = targets[:]
            else:
                successors[name] = []
        return ControlFlowGraph.from_successor_lists(self.entry.name, successors)

    def predecessors(self, name: str) -> list[str]:
        """Predecessor block names of ``name`` (derived from terminators)."""
        return [
            other.name
            for other in self
            if name in other.successors()
        ]

    def split_critical_edges(self) -> list[str]:
        """Split every critical edge by inserting a fresh forwarding block.

        An edge is critical when its source has several successors and its
        target several predecessors.  SSA destruction requires critical
        edges to be split so φ-copies can be placed on the edge without
        affecting other paths.  Returns the names of the blocks created.
        """
        created: list[str] = []
        counter = 0
        # Predecessor counts, computed once: splitting an edge re-routes it
        # through a fresh forwarding block without changing how many
        # predecessors the original target has, so the counts stay valid
        # throughout the loop (and the quadratic per-edge rescan is avoided).
        pred_count: dict[str, int] = {name: 0 for name in self.blocks}
        for block in self:
            for succ in block.successors():
                pred_count[succ] += 1
        for block in list(self):
            successors = block.successors()
            if len(successors) < 2:
                continue
            terminator = block.terminator()
            assert terminator is not None
            for succ_name in successors:
                succ = self.blocks[succ_name]
                if pred_count[succ_name] < 2:
                    continue
                # Insert a forwarding block on the critical edge.
                while True:
                    new_name = f"split.{block.name}.{succ_name}.{counter}"
                    counter += 1
                    if new_name not in self.blocks:
                        break
                new_block = self.add_block(new_name)
                new_block.append(Instruction(Opcode.JUMP, targets=[succ_name]))
                terminator.targets = [
                    new_name if target == succ_name else target
                    for target in terminator.targets
                ]
                for phi in succ.phis():
                    if block.name in phi.incoming:
                        phi.rename_predecessor(block.name, new_name)
                created.append(new_name)
        return created
