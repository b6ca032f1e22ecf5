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

from collections import defaultdict
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
    """Def–use chains for every variable of an SSA-form function.

    The chains are two flat dicts filled by one walk of the IR:
    :attr:`def_blocks` maps each variable to its definition block (in
    program order, zero-use variables included) and :attr:`use_lists`
    maps each *used* variable to its use blocks with multiplicity.  A
    :class:`VariableDefUse` record is only built when :meth:`chain` asks
    for one.
    """

    def __init__(self, function: Function) -> None:
        self._function = function
        #: ``variable -> def(a)``, in program order.
        self.def_blocks: dict[Variable, str] = {}
        #: ``variable -> uses(a)`` with multiplicity, for used variables
        #: only; read with ``use_lists.get(var, ())``.
        self.use_lists: dict[Variable, list[str]] = {}
        self._build()

    def _build(self) -> None:
        # One pass in program order.  A φ operand (or a block placed
        # before the definition's block) can name a variable before the
        # pass reaches its definition, so uses are collected per variable
        # and strictness is checked once the pass is done; so is single
        # assignment, by counting definitions.  Instructions and operands
        # are matched by exact class (the IR classes have no subclasses),
        # which is cheaper than ``isinstance`` per operand.
        defs = self.def_blocks
        uses: defaultdict[Variable, list[str]] = defaultdict(list)
        definitions = 0
        for block in self._function.blocks.values():
            block_name = block.name
            for inst in block.instructions:
                result = inst.result
                cls = inst.__class__
                if result is not None:
                    defs[result] = block_name
                    definitions += 1
                elif cls is ParallelCopy:
                    for var, _ in inst.pairs:
                        defs[var] = block_name
                        definitions += 1
                if cls is Phi:
                    # φ operands are used at the end of their predecessor.
                    for pred, value in inst.incoming.items():
                        if value.__class__ is Variable:
                            uses[value].append(pred)
                else:
                    for value in inst.operands:
                        if value.__class__ is Variable:
                            uses[value].append(block_name)
        if definitions != len(defs):
            raise _redefined(_first_redefinition(self._function))
        if not uses.keys() <= defs.keys():
            raise _undefined_use(next(var for var in uses if var not in defs))
        # Without a factory the defaultdict is a plain dict: a missing
        # variable raises KeyError instead of growing an empty chain.
        uses.default_factory = None
        self.use_lists = uses

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def function(self) -> Function:
        """The function the chains were built from."""
        return self._function

    def variables(self) -> list[Variable]:
        """All variables with a definition, in program order."""
        return list(self.def_blocks)

    def __contains__(self, var: Variable) -> bool:
        return var in self.def_blocks

    def __len__(self) -> int:
        return len(self.def_blocks)

    def chain(self, var: Variable) -> VariableDefUse:
        """A fresh :class:`VariableDefUse` record for ``var``."""
        return VariableDefUse(var, self.def_blocks[var], self.uses(var))

    def def_block(self, var: Variable) -> str:
        """``def(a)``: the block containing the definition of ``var``."""
        return self.def_blocks[var]

    def uses(self, var: Variable) -> list[str]:
        """``uses(a)`` with multiplicity, in discovery order."""
        if var not in self.def_blocks:
            raise KeyError(var)
        return list(self.use_lists.get(var, ()))

    def use_blocks(self, var: Variable) -> set[str]:
        """``uses(a)`` as a set of block names."""
        return set(self.uses(var))

    def num_uses(self, var: Variable) -> int:
        """Length of the def–use chain of ``var``."""
        return len(self.uses(var))

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_variable(self, var: Variable, def_block: str) -> None:
        """Register a freshly created variable defined in ``def_block``.

        Adding a variable never invalidates the checker's precomputation —
        that is the point of the paper — so a JIT can call this at will.
        """
        if var in self.def_blocks:
            raise ValueError(f"variable {var.name!r} already registered")
        self.def_blocks[var] = def_block

    def remove_variable(self, var: Variable) -> None:
        """Forget a variable entirely (e.g. after dead-code elimination)."""
        del self.def_blocks[var]
        self.use_lists.pop(var, None)

    def add_use(self, var: Variable, block_name: str) -> None:
        """Record an additional use of ``var`` in ``block_name``."""
        if var not in self.def_blocks:
            raise _undefined_use(var)
        self.use_lists.setdefault(var, []).append(block_name)

    def remove_use(self, var: Variable, block_name: str) -> None:
        """Remove one use of ``var`` from ``block_name``."""
        if var not in self.def_blocks:
            raise KeyError(var)
        blocks = self.use_lists.get(var, [])
        blocks.remove(block_name)
        if not blocks:
            del self.use_lists[var]

    # ------------------------------------------------------------------
    # Statistics (Table 1)
    # ------------------------------------------------------------------
    def _use_counts(self) -> list[int]:
        use_lists = self.use_lists
        return [len(use_lists.get(var, ())) for var in self.def_blocks]

    def uses_histogram(self) -> dict[int, int]:
        """Histogram mapping def–use chain length to number of variables."""
        histogram: dict[int, int] = {}
        for count in self._use_counts():
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    def uses_cdf(self, thresholds: Iterable[int] = (1, 2, 3, 4)) -> dict[int, float]:
        """Fraction of variables with at most ``k`` uses, for each threshold.

        This reproduces the right half of the paper's Table 1
        ("% ≤ 1 … % ≤ 4").  Returns an empty dict for functions without
        variables.
        """
        counts = self._use_counts()
        if not counts:
            return {}
        return {
            threshold: sum(1 for count in counts if count <= threshold) / len(counts)
            for threshold in thresholds
        }

    def max_uses(self) -> int:
        """The longest def–use chain in the function (0 if no variables)."""
        return max(self._use_counts(), default=0)


def _first_redefinition(function: Function) -> Variable:
    """The first variable, in program order, defined a second time."""
    seen: set[Variable] = set()
    for inst in function.instructions():
        for var in inst.defined_variables():
            if var in seen:
                return var
            seen.add(var)
    raise AssertionError("no variable is defined twice")


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
