"""Per-variable path-exploration liveness, Appel & Palsberg style (test oracle).

This is the related-work algorithm the paper describes in Section 7: the
only other liveness analysis that exploits SSA properties.  For each
variable it walks backwards from the use blocks, marking blocks live until
the definition is reached; because it uses the def–use chain it never has to
look inside a block, and it can be run for a single variable in isolation.

It is the *reference implementation* of the differential tests: a direct
transcription of Definitions 2 and 3, with none of the machinery (reduced
graphs, ``T_q`` sets, bitsets) of the fast checker, so agreement between
the two on thousands of random programs is strong evidence of correctness.
No library code path uses it.
"""

from __future__ import annotations

from repro.cfg.graph import ControlFlowGraph
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle, LiveSets
from repro.ssa.defuse import DefUseChains


class PathExplorationLiveness(LivenessOracle):
    """Backward reachability from uses, stopping at the definition."""

    def __init__(self, function: Function, defuse: DefUseChains | None = None) -> None:
        self._function = function
        self._defuse = defuse if defuse is not None else DefUseChains(function)
        self._cfg: ControlFlowGraph | None = None
        self._live_in_cache: dict[Variable, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        if self._cfg is None:
            self._cfg = self._function.build_cfg()

    def invalidate_variable(self, var: Variable) -> None:
        """Drop the cached result for one variable (after editing its uses)."""
        self._live_in_cache.pop(var, None)

    # ------------------------------------------------------------------
    # Core per-variable computation
    # ------------------------------------------------------------------
    def live_in_blocks(self, var: Variable) -> frozenset[str]:
        """All blocks at which ``var`` is live-in (Definition 2).

        Computed as the set of blocks, other than ``def(var)``, from which a
        use block is reachable along a path avoiding ``def(var)`` — a
        backward breadth-first search seeded at the use blocks that refuses
        to traverse the definition block.
        """
        self.prepare()
        cached = self._live_in_cache.get(var)
        if cached is not None:
            return cached
        assert self._cfg is not None
        if var not in self._defuse:
            raise KeyError(f"variable {var.name!r} has no def-use chain")
        def_block = self._defuse.def_block(var)
        worklist = [
            use for use in self._defuse.use_blocks(var) if use != def_block
        ]
        live: set[str] = set(worklist)
        while worklist:
            block = worklist.pop()
            for pred in self._cfg.predecessors(block):
                if pred == def_block or pred in live:
                    continue
                live.add(pred)
                worklist.append(pred)
        result = frozenset(live)
        self._live_in_cache[var] = result
        return result

    # ------------------------------------------------------------------
    # Oracle interface
    # ------------------------------------------------------------------
    def is_live_in(self, var: Variable, block: str) -> bool:
        return block in self.live_in_blocks(var)

    def is_live_out(self, var: Variable, block: str) -> bool:
        self.prepare()
        assert self._cfg is not None
        live_in = self.live_in_blocks(var)
        return any(succ in live_in for succ in self._cfg.successors(block))

    def live_variables(self) -> list[Variable]:
        return self._defuse.variables()

    # ------------------------------------------------------------------
    # Set-level access
    # ------------------------------------------------------------------
    def live_sets(self) -> LiveSets:
        """Materialise full live-in/live-out sets by iterating all variables."""
        self.prepare()
        assert self._cfg is not None
        live_in: dict[str, set[Variable]] = {name: set() for name in self._cfg.nodes()}
        live_out: dict[str, set[Variable]] = {name: set() for name in self._cfg.nodes()}
        for var in self._defuse.variables():
            for block in self.live_in_blocks(var):
                live_in[block].add(var)
        for name in self._cfg.nodes():
            for succ in self._cfg.successors(name):
                live_out[name] |= live_in[succ]
        return LiveSets(
            live_in={name: frozenset(vals) for name, vals in live_in.items()},
            live_out={name: frozenset(vals) for name, vals in live_out.items()},
        )
