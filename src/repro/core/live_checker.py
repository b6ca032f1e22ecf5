"""The public liveness-checking oracle for IR functions.

:class:`FastLivenessChecker` ties together the three ingredients the paper
lists as prerequisites — the CFG with its dominator tree and DFS (bundled
in :class:`~repro.core.precompute.LivenessPrecomputation`) and the per
variable def–use chains (:class:`~repro.ssa.defuse.DefUseChains`) — and
answers ``is_live_in`` / ``is_live_out`` queries through Algorithm 3.

Queries go through a one-frame *door*: Algorithm 3 inlined over a tuple
of the precomputation's numeric arrays and the plan cache, bound on the
first query and cleared by every event that replaces one of them (see
``DESIGN.md``, "Integer cold path and query door").  The tests hold the
door to the instrumented reference kernel kept in
``tests/support/bitset_checker.py``.

It implements :class:`~repro.liveness.oracle.LivenessOracle`, so it is a
drop-in replacement for the data-flow baseline inside the SSA destruction
pass and the benchmark harness.  The engine can also *enumerate* live sets
(one dominance-interval sweep per variable through the batch engine), which
is how the differential tests establish that the characteristic function
matches the sets computed by the conventional analyses.
"""

from __future__ import annotations

from repro.core.batch import BatchQueryEngine
from repro.core.incremental import CfgDelta, UpdateResult, apply_cfg_delta
from repro.core.plans import PlanCache
from repro.core.precompute import LivenessPrecomputation
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle, LiveSets
from repro.ssa.defuse import DefUseChains


class FastLivenessChecker(LivenessOracle):
    """Liveness checking per Boissinot et al. for one SSA-form function."""

    def __init__(self, function: Function, defuse: DefUseChains | None = None) -> None:
        self._function = function
        self._defuse = defuse
        self._pre: LivenessPrecomputation | None = None
        self._batch: BatchQueryEngine | None = None
        self._plans: PlanCache | None = None
        # The query door: the plan cache's dict and the numeric arrays
        # the queries read, bound once per precomputation and plan cache
        # (see _open_door).
        self._door: tuple | None = None

    @classmethod
    def from_precomputation(cls, function: Function, pre) -> "FastLivenessChecker":
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
        checker = cls(function)
        checker._pre = pre
        return checker

    # ------------------------------------------------------------------
    # Precomputation management
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Run the CFG-only precomputation and build def–use chains."""
        if self._pre is None:
            cfg = self._function.build_cfg()
            self._pre = LivenessPrecomputation(cfg)
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
        ``R`` rows) and the query door (whose fast-path flag may flip with
        reducibility) are refreshed.  An edge split inserts a
        block and moves the numbering (``result.renumbered``), so the
        plans and the batch engine go as well, exactly as after a rebuild.
        Any delta the patcher cannot absorb degrades to the historical
        full invalidation — callers never need to distinguish the cases,
        but the returned :class:`UpdateResult` says which one happened.
        """
        if delta is not None and self._pre is not None:
            result = apply_cfg_delta(self._pre, delta)
            if result.applied:
                # The door binds the reducibility flag, which an edge edit
                # may flip.
                self._door = None
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
        self._batch = None
        self._plans = None
        self._door = None
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
        self._door = None
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
    def _open_door(self) -> tuple:
        """Bind the query door: plans plus the numeric arrays, in one tuple.

        Valid until the precomputation, the plan cache or the
        reducibility flag changes; every such event clears ``_door``.
        The arrays are the precomputation's own lists (patched in place),
        and ``compiled`` is the plan cache's own dict.
        """
        self.prepare()
        pre, plans = self._pre, self._plans
        self._door = door = (
            plans.compiled,
            plans,
            pre.numbering,
            pre.maxnums,
            pre.r_masks,
            pre.t_masks,
            pre.is_back_target,
            pre.reducible,
        )
        return door

    def is_live_in(self, var: Variable, block: str) -> bool:
        """Algorithm 3, served in one frame over the bound door.

        Mirrors the test suite's instrumented reference kernel: the
        candidates are ``T_q`` inside the interval
        ``(num(def), maxnum(def)]``, lowest bit first, each skipping its
        dominance subtree; on a reducible CFG the first decides (Theorem 2).
        """
        door = self._door
        if door is None:
            door = self._open_door()
        compiled, plans, numbering, maxnums, r_masks, t_masks, _, reducible = door
        def_num, max_dom, use_mask = compiled.get(var) or plans.plan(var)
        query = numbering[block]
        if query <= def_num or max_dom < query:
            return False
        start = def_num + 1
        candidates = t_masks[query] >> start << start
        while candidates:
            t = (candidates & -candidates).bit_length() - 1
            if t > max_dom:
                return False
            if r_masks[t] & use_mask:
                return True
            if reducible:
                return False
            skip = maxnums[t] + 1
            candidates = candidates >> skip << skip
        return False

    def is_live_out(self, var: Variable, block: str) -> bool:
        """Algorithm 2 on the numeric arrays, in one frame (see is_live_in).

        At the definition block a variable is live-out iff it has a use
        elsewhere; below it, a use in the query block itself only counts
        when that block is a back-edge target.
        """
        door = self._door
        if door is None:
            door = self._open_door()
        compiled, plans, numbering, maxnums, r_masks, t_masks, is_back_target, _ = door
        def_num, max_dom, use_mask = compiled.get(var) or plans.plan(var)
        query = numbering[block]
        if query == def_num:
            return bool(use_mask & ~(1 << def_num))
        if query <= def_num or max_dom < query:
            return False
        start = def_num + 1
        candidates = t_masks[query] >> start << start
        while candidates:
            t = (candidates & -candidates).bit_length() - 1
            if t > max_dom:
                return False
            hit = r_masks[t] & use_mask
            if hit and (t != query or hit & ~(1 << t) or is_back_target[t]):
                return True
            skip = maxnums[t] + 1
            candidates = candidates >> skip << skip
        return False

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
        """Materialise live-in/live-out sets for ``variables`` (default: all).

        The paper's point is that one usually does *not* want to do this —
        the checker's strength is answering isolated queries — but having
        the enumeration makes the engine directly comparable with the
        data-flow baseline in the differential tests and exposes the
        crossover measured by the query-count benchmark.
        """
        tracked = variables if variables is not None else self.live_variables()
        # One joint interval sweep per variable instead of
        # |variables| × |blocks| independent Algorithm-3 runs.
        in_map, out_map = self.batch.live_maps(tracked)
        return LiveSets(
            live_in={block: frozenset(vs) for block, vs in in_map.items()},
            live_out={block: frozenset(vs) for block, vs in out_map.items()},
        )
