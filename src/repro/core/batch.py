"""Batch liveness queries: answer many ``(var, block)`` queries in one pass.

A register allocator asks a very different mix of questions than the SSA
destruction pass the paper benchmarks: instead of a handful of isolated
queries it wants, for *every* variable, liveness at *many* program points
(register pressure needs ``is_live_in`` at every block, the chordal
coloring needs live-in sets per block in dominator order).  Issued naively
that is ``|V| × |B|`` independent runs of Algorithm 3, each of which
re-derives the same per-variable facts: ``num(def(a))``, ``maxnum(def(a))``
and the use set.

Those shared facts are exactly a :class:`~repro.core.plans.QueryPlan`, so
the engine takes them from the checker's plan cache (one compilation per
variable, shared with the single-query path) and adds the batch-specific
part on top: a *hot-target* mask ``H_a`` with bit ``t`` set iff ``t`` lies
in the plan's dominance interval and ``R_t ∩ uses(a) ≠ ∅`` — i.e. the
candidates of Algorithm 1 that would answer ``true``.

With ``H_a`` in hand, every live-in query collapses to one machine-word
test per block: ``a`` is live-in at ``q`` iff ``q`` is in the interval and
``T_q ∩ H_a ≠ ∅`` (a single big-int AND, since both are raw masks from the
precomputation's numeric arrays).  The live-out variant adds Algorithm 2's
two special cases (the definition block, and the "use in q itself only
counts on a loop" rule), which need a second mask ``H'_a`` built from
``R_t ∩ (uses(a) ∖ {t})``.

Correctness does not depend on reducibility: the masks simply evaluate
the full (non-fast-path) candidate loop of Algorithm 1/2 all at once, so
the answers coincide with the single-query door of
:class:`~repro.core.live_checker.FastLivenessChecker` on every CFG — the
differential tests in ``tests/core/test_batch_queries.py`` check exactly
that on random reducible *and* irreducible graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.plans import QueryPlan
from repro.core.precompute import LivenessPrecomputation
from repro.ir.value import Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type hints
    from repro.core.live_checker import FastLivenessChecker


@dataclass
class _VariableSetup:
    """A query plan plus the batch-only hot-target masks."""

    #: The shared per-variable plan (def/interval/uses as numbers).
    plan: QueryPlan
    #: Bit ``t`` set iff ``t ∈ (def, maxdom]`` and ``R_t ∩ uses ≠ ∅``.
    hot_mask: int
    #: Like ``hot_mask`` but testing ``R_t ∩ (uses ∖ {t})`` — the
    #: Algorithm-2 rule for a candidate that is the query block itself.
    hot_mask_excl: int


class BatchQueryEngine:
    """Amortised liveness queries on top of a :class:`FastLivenessChecker`.

    The engine caches one :class:`_VariableSetup` per variable; the cache
    is owned by the checker and dropped alongside its query plans, so the
    invalidation contract is unchanged (CFG edits drop everything,
    instruction edits drop the per-variable plans and masks but keep
    ``R``/``T``).
    """

    def __init__(self, checker: "FastLivenessChecker") -> None:
        self._checker = checker
        # The checker drops its engine whenever it drops its
        # precomputation (an in-place CFG patch keeps both, and the
        # arrays below are patched in place), so they can be bound once.
        pre: LivenessPrecomputation = checker.precomputation
        self._pre = pre
        self._numbering = pre.numbering
        self._t_masks = pre.t_masks
        self._is_back_target = pre.is_back_target
        # Keyed by the Variable objects themselves (identity hash);
        # holding the key keeps it alive, so a recycled id() can
        # never alias a stale setup.
        self._setups: dict[Variable, _VariableSetup] = {}

    # ------------------------------------------------------------------
    # Per-variable setup
    # ------------------------------------------------------------------
    def _setup(self, var: Variable) -> _VariableSetup:
        cached = self._setups.get(var)
        if cached is not None:
            return cached
        plan = self._checker.plans.plan(var)
        r_masks = self._pre.r_masks
        use_mask = plan.use_mask
        hot = 0
        hot_excl = 0
        for t in range(plan.def_num + 1, plan.max_dom + 1):
            reach_mask = r_masks[t]
            if reach_mask & use_mask:
                hot |= 1 << t
                if reach_mask & (use_mask & ~(1 << t)):
                    hot_excl |= 1 << t
        setup = _VariableSetup(plan=plan, hot_mask=hot, hot_mask_excl=hot_excl)
        self._setups[var] = setup
        return setup

    def invalidate(self) -> None:
        """Drop every cached per-variable setup."""
        self._setups.clear()

    def discard(self, var: Variable) -> None:
        """Drop the cached setup of one variable (e.g. after adding a use)."""
        self._setups.pop(var, None)

    # ------------------------------------------------------------------
    # Queries on block numbers
    # ------------------------------------------------------------------
    def _live_in_num(self, setup: _VariableSetup, query_num: int) -> bool:
        plan = setup.plan
        if query_num <= plan.def_num or query_num > plan.max_dom:
            return False
        return bool(self._t_masks[query_num] & setup.hot_mask)

    def _live_out_num(self, setup: _VariableSetup, query_num: int) -> bool:
        plan = setup.plan
        if query_num == plan.def_num:
            return plan.has_nonlocal_use
        if query_num <= plan.def_num or query_num > plan.max_dom:
            return False
        t_q = self._t_masks[query_num]
        query_bit = 1 << query_num
        if t_q & setup.hot_mask & ~query_bit:
            return True
        if t_q & query_bit:
            # Candidate t == q: a use in q itself only counts when q can be
            # left and re-entered, i.e. when q is a back-edge target.
            if self._is_back_target[query_num]:
                return bool(setup.hot_mask & query_bit)
            return bool(setup.hot_mask_excl & query_bit)
        return False

    # ------------------------------------------------------------------
    # Public block-name interface
    # ------------------------------------------------------------------
    def is_live_in(self, var: Variable, block: str) -> bool:
        """Single live-in query through the cached per-variable setup."""
        setup = self._setups.get(var) or self._setup(var)
        return self._live_in_num(setup, self._numbering[block])

    def is_live_out(self, var: Variable, block: str) -> bool:
        """Single live-out query through the cached per-variable setup."""
        setup = self._setups.get(var) or self._setup(var)
        return self._live_out_num(setup, self._numbering[block])

    def live_in_blocks(self, var: Variable) -> set[str]:
        """All blocks where ``var`` is live-in, in one interval sweep."""
        setup = self._setup(var)
        pre = self._pre
        plan = setup.plan
        return {
            pre.node_of(num)
            for num in range(plan.def_num + 1, plan.max_dom + 1)
            if self._live_in_num(setup, num)
        }

    def live_out_blocks(self, var: Variable) -> set[str]:
        """All blocks where ``var`` is live-out, in one interval sweep."""
        setup = self._setup(var)
        pre = self._pre
        plan = setup.plan
        result = {
            pre.node_of(num)
            for num in range(plan.def_num + 1, plan.max_dom + 1)
            if self._live_out_num(setup, num)
        }
        if plan.has_nonlocal_use:
            result.add(pre.node_of(plan.def_num))
        return result

    def query_many(
        self, queries: Iterable[tuple[str, Variable, str]]
    ) -> list[bool]:
        """Answer a stream of ``(kind, var, block)`` queries.

        ``kind`` is ``"in"`` or ``"out"``.  Queries are answered in order;
        the per-variable setup is built once per distinct variable no
        matter how the stream interleaves them.
        """
        numbering = self._numbering
        answers: list[bool] = []
        for kind, var, block in queries:
            setup = self._setups.get(var) or self._setup(var)
            num = numbering[block]
            if kind == "in":
                answers.append(self._live_in_num(setup, num))
            elif kind == "out":
                answers.append(self._live_out_num(setup, num))
            else:
                raise ValueError(f"unknown query kind {kind!r}")
        return answers

    def live_maps(
        self, variables: Sequence[Variable]
    ) -> tuple[dict[str, set[Variable]], dict[str, set[Variable]]]:
        """Live-in and live-out sets for every block, in one joint sweep.

        This is the bulk primitive behind register-pressure computation
        (:class:`repro.regalloc.pressure.BlockLiveness`): each variable is
        set up once and its dominance interval swept once for both
        directions, instead of ``|V| × |B|`` full Algorithm-3 runs.
        """
        pre = self._pre
        live_in: dict[str, set[Variable]] = {node: set() for node in pre.graph.nodes()}
        live_out: dict[str, set[Variable]] = {node: set() for node in pre.graph.nodes()}
        for var in variables:
            setup = self._setup(var)
            plan = setup.plan
            for num in range(plan.def_num + 1, plan.max_dom + 1):
                node = pre.node_of(num)
                if self._live_in_num(setup, num):
                    live_in[node].add(var)
                if self._live_out_num(setup, num):
                    live_out[node].add(var)
            if plan.has_nonlocal_use:
                live_out[pre.node_of(plan.def_num)].add(var)
        return live_in, live_out

    def live_in_map(
        self, variables: Sequence[Variable]
    ) -> dict[str, set[Variable]]:
        """Live-in sets for every block, restricted to ``variables``."""
        result: dict[str, set[Variable]] = {
            block: set() for block in self._pre.graph.nodes()
        }
        for var in variables:
            for block in self.live_in_blocks(var):
                result[block].add(var)
        return result
