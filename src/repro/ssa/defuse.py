"""Def–use chains with the paper's φ-use convention.

The liveness checker consumes exactly two pieces of per-variable
information (paper, Section 1, prerequisites):

* ``def(a)`` — the block containing the unique definition of ``a``;
* ``uses(a)`` — the blocks where ``a`` is used, where a φ operand counts as
  a use at the end of the *corresponding predecessor block*, not at the
  φ's own block (Definition 1).  This matches how compilers destruct φs by
  inserting copies in the predecessors.

Maintaining def–use chains under SSA is cheap (that is one of the selling
points of the representation), and :class:`DefUseChains` therefore offers
incremental ``add_use`` / ``remove_use`` operations in addition to the
one-shot construction from a function, so the invalidation ablation can
model a JIT that edits code between queries without redoing any analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.ir.function import Function
from repro.ir.instruction import ParallelCopy, Phi
from repro.ir.value import Variable


@dataclass
class VariableDefUse:
    """Definition block and multiset of use blocks for one variable."""

    variable: Variable
    def_block: str
    #: Use blocks with multiplicity; a variable used twice in a block has
    #: two entries.  Multiplicity matters for the workload statistics
    #: (uses-per-variable, Table 1) even though the liveness query only
    #: needs the supporting set.
    use_blocks: list[str] = field(default_factory=list)

    @property
    def use_block_set(self) -> set[str]:
        """Distinct blocks containing a use (what ``uses(a)`` means in Alg. 1)."""
        return set(self.use_blocks)

    @property
    def num_uses(self) -> int:
        """Length of the def–use chain (drives the paper's Table 1 CDF)."""
        return len(self.use_blocks)


class DefUseChains:
    """Def–use chains for every variable of an SSA-form function."""

    def __init__(self, function: Function) -> None:
        self._function = function
        self._chains: dict[Variable, VariableDefUse] = {}
        self._build()

    def _build(self) -> None:
        # One pass in program order.  A φ operand (or a block placed
        # before the definition's block) can name a variable before the
        # pass reaches its definition, so uses are collected per variable
        # and strictness is checked once the pass is done.
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
                    # φ operands are used at the end of their predecessor.
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

    def _record_use(self, var: Variable, block_name: str) -> None:
        if var not in self._chains:
            raise _undefined_use(var)
        self._chains[var].use_blocks.append(block_name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def function(self) -> Function:
        """The function the chains were built from."""
        return self._function

    def variables(self) -> list[Variable]:
        """All variables with a definition, in program order."""
        return list(self._chains)

    def __contains__(self, var: Variable) -> bool:
        return var in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def chain(self, var: Variable) -> VariableDefUse:
        """The :class:`VariableDefUse` record for ``var``."""
        return self._chains[var]

    def def_block(self, var: Variable) -> str:
        """``def(a)``: the block containing the definition of ``var``."""
        return self._chains[var].def_block

    def uses(self, var: Variable) -> list[str]:
        """``uses(a)`` with multiplicity, in discovery order."""
        return list(self._chains[var].use_blocks)

    def use_blocks(self, var: Variable) -> set[str]:
        """``uses(a)`` as a set of block names."""
        return self._chains[var].use_block_set

    def num_uses(self, var: Variable) -> int:
        """Length of the def–use chain of ``var``."""
        return self._chains[var].num_uses

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_variable(self, var: Variable, def_block: str) -> None:
        """Register a freshly created variable defined in ``def_block``.

        Adding a variable never invalidates the checker's precomputation —
        that is the point of the paper — so a JIT can call this at will.
        """
        if var in self._chains:
            raise ValueError(f"variable {var.name!r} already registered")
        self._chains[var] = VariableDefUse(variable=var, def_block=def_block)

    def remove_variable(self, var: Variable) -> None:
        """Forget a variable entirely (e.g. after dead-code elimination)."""
        del self._chains[var]

    def add_use(self, var: Variable, block_name: str) -> None:
        """Record an additional use of ``var`` in ``block_name``."""
        self._record_use(var, block_name)

    def remove_use(self, var: Variable, block_name: str) -> None:
        """Remove one use of ``var`` from ``block_name``."""
        self._chains[var].use_blocks.remove(block_name)

    # ------------------------------------------------------------------
    # Statistics (Table 1)
    # ------------------------------------------------------------------
    def uses_histogram(self) -> dict[int, int]:
        """Histogram mapping def–use chain length to number of variables."""
        histogram: dict[int, int] = {}
        for chain in self._chains.values():
            histogram[chain.num_uses] = histogram.get(chain.num_uses, 0) + 1
        return dict(sorted(histogram.items()))

    def uses_cdf(self, thresholds: Iterable[int] = (1, 2, 3, 4)) -> dict[int, float]:
        """Fraction of variables with at most ``k`` uses, for each threshold.

        This reproduces the right half of the paper's Table 1
        ("% ≤ 1 … % ≤ 4").  Returns an empty dict for functions without
        variables.
        """
        total = len(self._chains)
        if total == 0:
            return {}
        result = {}
        for threshold in thresholds:
            count = sum(
                1 for chain in self._chains.values() if chain.num_uses <= threshold
            )
            result[threshold] = count / total
        return result

    def max_uses(self) -> int:
        """The longest def–use chain in the function (0 if no variables)."""
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
