"""Per-variable record def–use chains (test oracle).

The library keeps def–use chains as two flat dicts, ``variable → def
block`` and ``variable → use blocks`` (:class:`repro.ssa.defuse.DefUseChains`),
and builds a :class:`~repro.ssa.defuse.VariableDefUse` only when asked.
This module keeps the record-per-variable construction those dicts must
agree with: one :class:`VariableDefUse` per definition, uses collected in
one program-order pass, φ operands attributed to the predecessor block
named by the φ (Definition 1), strictness checked once the pass is done.
"""

from __future__ import annotations

from typing import Iterable

from repro.ir.function import Function
from repro.ir.instruction import ParallelCopy, Phi
from repro.ir.value import Variable
from repro.ssa.defuse import VariableDefUse


class ReferenceDefUseChains:
    """Def–use chains as one :class:`VariableDefUse` record per variable."""

    def __init__(self, function: Function) -> None:
        self._function = function
        self._chains: dict[Variable, VariableDefUse] = {}
        self._build()

    def _build(self) -> None:
        chains = self._chains
        uses: dict[Variable, list[str]] = {}
        record = uses.setdefault
        for block in self._function:
            block_name = block.name
            for inst in block.instructions:
                result = inst.result
                if result is not None:
                    if result in chains:
                        raise _redefined(result)
                    chains[result] = VariableDefUse(result, block_name)
                elif isinstance(inst, ParallelCopy):
                    for var in inst.defined_variables():
                        if var in chains:
                            raise _redefined(var)
                        chains[var] = VariableDefUse(var, block_name)
                if isinstance(inst, Phi):
                    for pred, value in inst.incoming.items():
                        if isinstance(value, Variable):
                            record(value, []).append(pred)
                else:
                    for value in inst.operands:
                        if isinstance(value, Variable):
                            record(value, []).append(block_name)
        for var, blocks in uses.items():
            chain = chains.get(var)
            if chain is None:
                raise _undefined_use(var)
            chain.use_blocks = blocks

    def variables(self) -> list[Variable]:
        return list(self._chains)

    def __contains__(self, var: Variable) -> bool:
        return var in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def def_block(self, var: Variable) -> str:
        return self._chains[var].def_block

    def uses(self, var: Variable) -> list[str]:
        return list(self._chains[var].use_blocks)

    def use_blocks(self, var: Variable) -> set[str]:
        return self._chains[var].use_block_set

    def num_uses(self, var: Variable) -> int:
        return self._chains[var].num_uses

    def add_variable(self, var: Variable, def_block: str) -> None:
        if var in self._chains:
            raise ValueError(f"variable {var.name!r} already registered")
        self._chains[var] = VariableDefUse(variable=var, def_block=def_block)

    def remove_variable(self, var: Variable) -> None:
        del self._chains[var]

    def add_use(self, var: Variable, block_name: str) -> None:
        if var not in self._chains:
            raise _undefined_use(var)
        self._chains[var].use_blocks.append(block_name)

    def remove_use(self, var: Variable, block_name: str) -> None:
        self._chains[var].use_blocks.remove(block_name)

    def uses_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for chain in self._chains.values():
            histogram[chain.num_uses] = histogram.get(chain.num_uses, 0) + 1
        return dict(sorted(histogram.items()))

    def uses_cdf(self, thresholds: Iterable[int] = (1, 2, 3, 4)) -> dict[int, float]:
        total = len(self._chains)
        if total == 0:
            return {}
        return {
            threshold: sum(
                1 for chain in self._chains.values() if chain.num_uses <= threshold
            )
            / total
            for threshold in thresholds
        }

    def max_uses(self) -> int:
        if not self._chains:
            return 0
        return max(chain.num_uses for chain in self._chains.values())


def _redefined(var: Variable) -> ValueError:
    return ValueError(
        f"variable {var.name!r} defined more than once; "
        "def-use chains require SSA form"
    )


def _undefined_use(var: Variable) -> ValueError:
    return ValueError(
        f"use of {var.name!r} without a definition; the function is "
        "not in strict SSA form"
    )
