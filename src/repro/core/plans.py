"""Per-variable query plans: the precompiled numeric form of a def–use chain.

Algorithm 3 consumes exactly three per-variable facts — ``num(def(a))``,
the dominance interval ``(num(def), maxnum(def)]`` and the use blocks as
preorder numbers — yet before this module existed every layer of the query
stack re-derived them independently: the single-query path translated
names through the def–use chains on *every* call, and the batch engine
kept its own private copy of the same translation.

A :class:`QueryPlan` freezes those facts once per variable:

* ``def_num``  — ``num(def(a))``;
* ``max_dom``  — ``maxnum(def(a))``, the upper end of the interval outside
  of which ``a`` can never be live;
* ``use_mask`` — the distinct use blocks as one raw integer bit mask of
  preorder numbers, which is what the numeric core consumes
  (``R_t ∩ uses(a)`` is one AND).

Compiling a plan is one pass over the chain's use blocks: one number
lookup per use, its bit ORed into ``use_mask``.

:class:`PlanCache` owns one plan per variable and is shared by the
single-query path (:class:`~repro.core.live_checker.FastLivenessChecker`),
the batch engine (:class:`~repro.core.batch.BatchQueryEngine`) and, through
them, the register-allocation client.  Its lifetime follows the def–use
chains, not the CFG: instruction-level edits drop plans (all of them via
:meth:`PlanCache.invalidate`, or a single variable's via
:meth:`PlanCache.discard`) while the ``R``/``T`` precomputation survives —
the paper's invalidation contract, now visible in the cache layering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.core.precompute import LivenessPrecomputation
from repro.ir.value import Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type hints
    from repro.ssa.defuse import DefUseChains


class QueryPlan(NamedTuple):
    """The precompiled numeric facts of one variable's def–use chain."""

    #: ``num(def(a))``.
    def_num: int
    #: ``maxnum(def(a))`` — upper end of the dominance interval.
    max_dom: int
    #: Distinct use blocks as a raw bit mask (bit ``num(u)`` per use).
    use_mask: int

    @property
    def has_nonlocal_use(self) -> bool:
        """Algorithm 2, special case 1: a use outside the definition block."""
        return bool(self.use_mask & ~(1 << self.def_num))


class PlanCache:
    """One :class:`QueryPlan` per variable, built lazily and shared.

    The cache holds a precomputation and the def–use chains by reference;
    both must outlive it.  Plans are keyed by the :class:`Variable` objects
    themselves (identity hash); holding the key keeps it alive, so a
    recycled ``id()`` can never alias a stale plan.
    """

    def __init__(
        self, precomputation: LivenessPrecomputation, defuse: "DefUseChains"
    ) -> None:
        self._pre = precomputation
        self._defuse = defuse
        #: ``variable -> plan`` for every plan compiled so far.  Query
        #: doors read it directly; only :meth:`plan` writes it.
        self.compiled: dict[Variable, QueryPlan] = {}
        #: Number of plans compiled since construction (cache-efficiency
        #: accounting for tests and the service stats).
        self.builds = 0

    @property
    def precomputation(self) -> LivenessPrecomputation:
        """The precomputation whose numbering the plans are expressed in."""
        return self._pre

    @property
    def defuse(self) -> "DefUseChains":
        """The def–use chains the plans are compiled from."""
        return self._defuse

    def plan(self, var: Variable) -> QueryPlan:
        """The (cached) plan for ``var``; compiled on first request."""
        cached = self.compiled.get(var)
        if cached is not None:
            return cached
        defuse = self._defuse
        numbering = self._pre.numbering
        def_num = numbering[defuse.def_blocks[var]]
        use_mask = 0
        for block in defuse.use_lists.get(var, ()):
            use_mask |= 1 << numbering[block]
        # tuple.__new__ skips the named tuple's Python-level constructor.
        plan = tuple.__new__(QueryPlan, (def_num, self._pre.maxnums[def_num], use_mask))
        self.compiled[var] = plan
        self.builds += 1
        return plan

    def discard(self, var: Variable) -> None:
        """Drop one variable's plan (e.g. after adding a use to it)."""
        self.compiled.pop(var, None)

    def invalidate(self) -> None:
        """Drop every cached plan (instruction-level edits)."""
        self.compiled.clear()

    def __contains__(self, var: Variable) -> bool:
        return var in self.compiled

    def __len__(self) -> int:
        return len(self.compiled)
