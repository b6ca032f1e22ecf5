"""Budimlić interference tests and conservative copy coalescing.

The paper's runtime evaluation (Section 6.2) measures liveness queries
issued by the SSA destruction pass of LAO, which follows Sreedhar et al.'s
third method and decides coalescing with the interference test of Budimlić
et al.: *two SSA variables interfere iff one is live directly after the
instruction defining the other* (the variable whose definition dominates
the other's is the one whose liveness is queried).  This sidesteps building
an interference graph — each test is a constant number of liveness queries
plus a local scan.

:class:`InterferenceChecker` is the test itself, usable with any
:class:`~repro.liveness.oracle.LivenessOracle`.  The out-of-SSA pipeline
(:mod:`repro.ssadestruct.coalesce`) drives it for φ congruence classes,
and the destructed-output verifier reuses it.
"""

from __future__ import annotations

from repro.cfg.dominance import DominatorTree
from repro.ir.function import Function
from repro.ir.instruction import Phi
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle
from repro.ssa.defuse import DefUseChains


class InterferenceChecker:
    """Budimlić-style SSA interference tests driven by liveness queries."""

    def __init__(
        self,
        function: Function,
        oracle: LivenessOracle,
        defuse: DefUseChains | None = None,
        domtree: DominatorTree | None = None,
    ) -> None:
        self._function = function
        self._oracle = oracle
        self._defuse = defuse if defuse is not None else DefUseChains(function)
        cfg = function.build_cfg()
        self._domtree = domtree if domtree is not None else DominatorTree(cfg)
        #: Number of interference tests performed.
        self.tests = 0

    @property
    def defuse(self) -> DefUseChains:
        """The def–use chains consulted by the tests (shared, mutable)."""
        return self._defuse

    @property
    def oracle(self) -> LivenessOracle:
        """The liveness oracle answering the underlying queries."""
        return self._oracle

    # ------------------------------------------------------------------
    def interfere(self, a: Variable, b: Variable) -> bool:
        """True iff the live ranges of ``a`` and ``b`` intersect.

        Under strict SSA, if two live ranges intersect then the definition
        of one dominates the definition of the other, so it suffices to
        order the pair by dominance and ask whether the dominating variable
        is live at the dominated variable's definition point.
        """
        self.tests += 1
        if a is b:
            return False
        if a.definition is not None and a.definition is b.definition:
            # Both written by the same instruction — necessarily a parallel
            # copy, the one multi-definition instruction.  Their definition
            # points coincide, so their live ranges share at least that
            # point: they interfere (they carry different values written in
            # parallel and must not collapse onto one name).
            return True
        def_a = self._defuse.def_block(a)
        def_b = self._defuse.def_block(b)
        if def_a == def_b:
            # Same block: order the two definitions textually.
            block = self._function.block(def_a)
            first = self._first_defined(block, a, b)
            dominating, dominated = (a, b) if first is a else (b, a)
        elif self._domtree.dominates(def_a, def_b):
            dominating, dominated = a, b
        elif self._domtree.dominates(def_b, def_a):
            dominating, dominated = b, a
        else:
            # Definitions in dominance-unrelated blocks: the live ranges
            # cannot intersect in a strict SSA program.
            return False
        return self._live_at_definition(dominating, dominated)

    def _first_defined(self, block, a: Variable, b: Variable) -> Variable:
        for inst in block.instructions:
            defined = inst.defined_variables()
            if any(var is a for var in defined):
                return a
            if any(var is b for var in defined):
                return b
        raise ValueError(
            f"neither {a.name!r} nor {b.name!r} is defined in block {block.name!r}"
        )

    def _live_at_definition(self, var: Variable, other: Variable) -> bool:
        """Is ``var`` live directly after the instruction defining ``other``?

        Block-level liveness gives the answer when ``var`` is live-out of
        that block; otherwise ``var``'s live range ends inside the block
        and a local scan decides whether it extends past ``other``'s
        definition (i.e. whether ``var`` is still used strictly below it).
        """
        def_block_name = self._defuse.def_block(other)
        if self._oracle.is_live_out(var, def_block_name):
            return True
        if def_block_name not in self._defuse.use_blocks(var):
            # Not live-out and no use recorded in the block: the in-block
            # scan below could never find anything (φ-attributed uses sit
            # in successor blocks and are covered by the live-out query),
            # so skip it.  This keeps each interference test O(uses), not
            # O(block length).
            return False
        block = self._function.block(def_block_name)
        other_def = other.definition
        seen_other_def = False
        for inst in block.instructions:
            if seen_other_def and not isinstance(inst, Phi):
                if any(op is var for op in inst.operands):
                    return True
            if inst is other_def:
                seen_other_def = True
        return False

