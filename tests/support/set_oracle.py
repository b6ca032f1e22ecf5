"""Algorithms 1 and 2 over a function's def–use chains (test oracle).

The library answers every liveness query through Algorithm 3 on bitsets
(:class:`~repro.core.live_checker.FastLivenessChecker`).
:class:`~repro.core.query.SetBasedChecker` keeps the readable node-set
transcription of Algorithms 1 and 2, but takes ``def(a)`` and ``uses(a)``
explicitly.  :class:`SetCheckerOracle` pairs it with
:class:`~repro.ssa.defuse.DefUseChains` so the differential tests can put
it wherever a :class:`~repro.liveness.oracle.LivenessOracle` goes, and
:data:`SET_ENGINE` wraps it in an (unregistered) engine spec for the
allocator tests.
"""

from __future__ import annotations

from repro.api.registry import EngineSpec
from repro.core.precompute import LivenessPrecomputation
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle, LiveSets
from repro.ssa.defuse import DefUseChains
from tests.support.set_checker import SetBasedChecker


class SetCheckerOracle(LivenessOracle):
    """Set-based Algorithms 1/2 for one SSA-form function."""

    def __init__(self, function: Function) -> None:
        self._function = function
        self._defuse: DefUseChains | None = None
        self._checker: SetBasedChecker | None = None

    def prepare(self) -> None:
        if self._checker is None:
            pre = LivenessPrecomputation(self._function.build_cfg())
            self._checker = SetBasedChecker(pre)
        if self._defuse is None:
            self._defuse = DefUseChains(self._function)

    def is_live_in(self, var: Variable, block: str) -> bool:
        self.prepare()
        defuse = self._defuse
        return self._checker.is_live_in(
            defuse.def_block(var), defuse.use_blocks(var), block
        )

    def is_live_out(self, var: Variable, block: str) -> bool:
        self.prepare()
        defuse = self._defuse
        return self._checker.is_live_out(
            defuse.def_block(var), defuse.use_blocks(var), block
        )

    def live_variables(self) -> list[Variable]:
        self.prepare()
        return self._defuse.variables()

    def live_sets(self) -> LiveSets:
        """Live-in/live-out sets by asking every (variable, block) pair."""
        variables = self.live_variables()
        blocks = list(self._checker.precomputation.graph.nodes())
        return LiveSets(
            live_in={
                block: frozenset(v for v in variables if self.is_live_in(v, block))
                for block in blocks
            },
            live_out={
                block: frozenset(v for v in variables if self.is_live_out(v, block))
                for block in blocks
            },
        )


#: Algorithms 1/2 as an allocator backend, rebuilt after every edit.
SET_ENGINE = EngineSpec(
    name="sets",
    oracle_factory=SetCheckerOracle,
    description="Algorithms 1/2 on node sets over def-use chains (test oracle)",
)
