"""The public liveness-checking oracle for IR functions.

:class:`FastLivenessChecker` ties together the three ingredients the paper
lists as prerequisites — the CFG with its dominator tree and DFS (bundled
in :class:`~repro.core.precompute.LivenessPrecomputation`) and the per
variable def–use chains (:class:`~repro.ssa.defuse.DefUseChains`) — and
answers ``is_live_in`` / ``is_live_out`` queries through Algorithm 3.

It implements :class:`~repro.liveness.oracle.LivenessOracle`, so it is a
drop-in replacement for the data-flow baseline inside the SSA destruction
pass and the benchmark harness.  The engine can also *enumerate* live sets
by querying every (variable, block) pair, which is how the differential
tests establish that the characteristic function matches the sets computed
by the conventional analyses.
"""

from __future__ import annotations

from repro.core.batch import BatchQueryEngine
from repro.core.bitset_query import BitsetChecker
from repro.core.incremental import CfgDelta, UpdateResult, apply_cfg_delta
from repro.core.plans import PlanCache
from repro.core.precompute import LivenessPrecomputation
from repro.core.query import SetBasedChecker
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle, LiveSets
from repro.ssa.defuse import DefUseChains


class FastLivenessChecker(LivenessOracle):
    """Liveness checking per Boissinot et al. for one SSA-form function."""

    def __init__(
        self,
        function: Function,
        defuse: DefUseChains | None = None,
        use_bitsets: bool = True,
    ) -> None:
        self._function = function
        self._defuse = defuse
        self._use_bitsets = use_bitsets
        self._pre: LivenessPrecomputation | None = None
        self._bitset_checker: BitsetChecker | None = None
        self._set_checker: SetBasedChecker | None = None
        self._batch: BatchQueryEngine | None = None
        self._plans: PlanCache | None = None

    @classmethod
    def from_precomputation(
        cls,
        function: Function,
        pre,
        use_bitsets: bool = True,
    ) -> "FastLivenessChecker":
        """Build a checker over an already-materialised precomputation.

        The restore path of :mod:`repro.persist` hands in a
        :class:`~repro.persist.precomp.RestoredPrecomputation` (the flat
        numeric view read back from a snapshot) instead of paying for
        DFS + dominators + the quadratic closure again.  Any real
        ``LivenessPrecomputation`` works too.  Def–use chains and query
        plans still build lazily from ``function``, exactly as after a
        normal :meth:`prepare`; a later :meth:`notify_cfg_changed` drops
        ``pre`` and the next query recomputes from scratch.
        """
        checker = cls(function, use_bitsets=use_bitsets)
        checker._pre = pre
        checker._bitset_checker = BitsetChecker(pre)
        checker._set_checker = SetBasedChecker(pre)
        return checker

    # ------------------------------------------------------------------
    # Precomputation management
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Run the CFG-only precomputation and build def–use chains."""
        if self._pre is None:
            cfg = self._function.build_cfg()
            self._pre = LivenessPrecomputation(cfg)
            self._bitset_checker = BitsetChecker(self._pre)
            self._set_checker = SetBasedChecker(self._pre)
            self._plans = None
        if self._defuse is None:
            self._defuse = DefUseChains(self._function)
            self._plans = None
        if self._plans is None:
            self._plans = PlanCache(self._pre, self._defuse)

    @property
    def precomputation(self) -> LivenessPrecomputation:
        """The variable-independent precomputation (built on first access)."""
        self.prepare()
        assert self._pre is not None
        return self._pre

    @property
    def resident_precomputation(self):
        """The precomputation if already materialised, else ``None``.

        Unlike :attr:`precomputation` this never triggers a build — the
        snapshot exporter uses it to capture exactly the checkers that
        are warm, without warming the rest as a side effect.
        """
        return self._pre

    @property
    def is_restored(self) -> bool:
        """Is the resident precomputation a snapshot-restored shim?

        Restored shims answer every query but lack the object views
        (``domtree``/``reach``/``dfs``); passes that need those — the
        out-of-SSA pipeline shares the dominator tree — must swap in a
        real rebuild first (the service layer does).
        """
        return getattr(self._pre, "restored", False)

    @property
    def defuse(self) -> DefUseChains:
        """The def–use chains used to answer queries."""
        self.prepare()
        assert self._defuse is not None
        return self._defuse

    @property
    def plans(self) -> PlanCache:
        """The per-variable query-plan cache (shared with the batch engine)."""
        self.prepare()
        assert self._plans is not None
        return self._plans

    def notify_cfg_changed(self, delta: CfgDelta | None = None) -> UpdateResult:
        """Invalidate — or incrementally patch — after a CFG edit.

        This is the *only* event that invalidates the checker.  Instruction
        and variable edits are absorbed by updating the def–use chains (see
        :class:`repro.core.invalidation.TransformationSession`).

        When the caller can describe the edit as a :class:`CfgDelta` and a
        precomputation is resident, :func:`apply_cfg_delta` patches it in
        place instead of discarding it.  After an edge edit the dominance
        numbering is provably unchanged, so the per-variable query plans
        survive too and only the batch engine's hot masks (which fold in
        ``R`` rows) and the bitset front-ends (whose fast-path flag may
        flip with reducibility) are refreshed.  An edge split inserts a
        block and moves the numbering (``result.renumbered``), so the
        plans and the batch engine go as well, exactly as after a rebuild.
        Any delta the patcher cannot absorb degrades to the historical
        full invalidation — callers never need to distinguish the cases,
        but the returned :class:`UpdateResult` says which one happened.
        """
        if delta is not None and self._pre is not None:
            result = apply_cfg_delta(self._pre, delta)
            if result.applied:
                self._bitset_checker = BitsetChecker(self._pre)
                self._set_checker = SetBasedChecker(self._pre)
                if result.renumbered:
                    self._batch = None
                    self._plans = None
                elif self._batch is not None:
                    self._batch.invalidate()
                return result
        elif delta is not None:
            # Nothing resident: the next prepare() builds from the edited
            # function, so there is nothing to patch or discard.
            result = UpdateResult(True, "no-op")
        else:
            result = UpdateResult(False, "full-invalidation")
        self._pre = None
        self._bitset_checker = None
        self._set_checker = None
        self._batch = None
        self._plans = None
        return result

    def notify_instructions_changed(self) -> None:
        """Drop the per-variable plans after instruction-level edits.

        The precomputation is deliberately left untouched: that it survives
        such edits is the paper's headline property.  Everything derived
        from the def–use chains goes — the chains themselves (rebuilt
        lazily), the query plans and the batch engine's hot masks.
        """
        self._defuse = None
        self._plans = None
        if self._batch is not None:
            self._batch.invalidate()

    def notify_variable_changed(self, var: Variable) -> None:
        """Drop cached numeric state for one variable only.

        For callers that maintain the def–use chains *incrementally* (e.g.
        :class:`repro.core.invalidation.TransformationSession`): the chains
        stay valid, so only the stale compiled artefacts — the variable's
        query plan and batch masks — need to go.
        """
        if self._plans is not None:
            self._plans.discard(var)
        if self._batch is not None:
            self._batch.discard(var)

    # ------------------------------------------------------------------
    # Oracle interface
    # ------------------------------------------------------------------
    def is_live_in(self, var: Variable, block: str) -> bool:
        # Hot path: a resident plan cache implies the rest is resident
        # (plans are built last), so the query reads the plan and the
        # block number straight out of their dicts.
        plans = self._plans
        if plans is None:
            self.prepare()
            plans = self._plans
        if self._use_bitsets:
            plan = plans.compiled.get(var) or plans.plan(var)
            return self._bitset_checker.is_live_in_mask(
                plan.def_num, plan.use_mask, self._pre.numbering[block]
            )
        defuse = self._defuse
        return self._set_checker.is_live_in(
            defuse.def_block(var), defuse.use_blocks(var), block
        )

    def is_live_out(self, var: Variable, block: str) -> bool:
        plans = self._plans
        if plans is None:
            self.prepare()
            plans = self._plans
        if self._use_bitsets:
            plan = plans.compiled.get(var) or plans.plan(var)
            return self._bitset_checker.is_live_out_mask(
                plan.def_num, plan.use_mask, self._pre.numbering[block]
            )
        defuse = self._defuse
        return self._set_checker.is_live_out(
            defuse.def_block(var), defuse.use_blocks(var), block
        )

    def live_variables(self) -> list[Variable]:
        self.prepare()
        assert self._defuse is not None
        return self._defuse.variables()

    # ------------------------------------------------------------------
    # Batch interface (register-allocation workloads)
    # ------------------------------------------------------------------
    @property
    def batch(self) -> BatchQueryEngine:
        """The batch engine, sharing this checker's precomputation.

        Built lazily; per-variable setups are cached until the next
        :meth:`notify_instructions_changed` / :meth:`notify_cfg_changed`.
        """
        self.prepare()
        if self._batch is None:
            self._batch = BatchQueryEngine(self)
        return self._batch

    def live_in_set(self, var: Variable) -> set[str]:
        """All blocks where ``var`` is live-in (one amortised sweep)."""
        return self.batch.live_in_blocks(var)

    def live_out_set(self, var: Variable) -> set[str]:
        """All blocks where ``var`` is live-out (one amortised sweep)."""
        return self.batch.live_out_blocks(var)

    def query_batch(self, queries) -> list[bool]:
        """Answer many ``(kind, var, block)`` queries in one pass."""
        return self.batch.query_many(queries)

    # ------------------------------------------------------------------
    # Set enumeration (for parity with set-producing engines)
    # ------------------------------------------------------------------
    def live_sets(self, variables: list[Variable] | None = None) -> LiveSets:
        """Materialise live-in/live-out sets by exhaustive querying.

        The paper's point is that one usually does *not* want to do this —
        the checker's strength is answering isolated queries — but having
        the enumeration makes the engine directly comparable with the
        data-flow baseline in the differential tests and exposes the
        crossover measured by the query-count benchmark.
        """
        self.prepare()
        assert self._pre is not None
        tracked = variables if variables is not None else self.live_variables()
        if self._use_bitsets:
            # One joint interval sweep per variable instead of
            # |variables| × |blocks| independent Algorithm-3 runs.
            in_map, out_map = self.batch.live_maps(tracked)
            return LiveSets(
                live_in={block: frozenset(vs) for block, vs in in_map.items()},
                live_out={block: frozenset(vs) for block, vs in out_map.items()},
            )
        blocks = list(self._pre.graph.nodes())
        live_in = {
            block: frozenset(v for v in tracked if self.is_live_in(v, block))
            for block in blocks
        }
        live_out = {
            block: frozenset(v for v in tracked if self.is_live_out(v, block))
            for block in blocks
        }
        return LiveSets(live_in=live_in, live_out=live_out)
