"""A multi-function liveness-query front door.

Everything below :mod:`repro.core` serves exactly one
:class:`~repro.ir.function.Function` at a time; a compiler (or a
compilation server) holds *many* functions and fires interleaved queries
and edit notifications at them.  :class:`LivenessService` is that front
door: it keeps a bounded, LRU-managed cache of
:class:`~repro.core.live_checker.FastLivenessChecker` instances keyed by
function name, builds checkers on demand, routes per-function edit
notifications to the right cache entry, and answers multi-function batch
requests in one call.

Design points:

* **Bounded cache.**  A checker's precomputation is the expensive part
  (DFS + dominance + ``R``/``T``); the service caps how many are resident
  (``capacity``) and evicts least-recently-used entries.  Re-touching an
  evicted function rebuilds its checker from scratch — the same trade the
  paper's Section 6.1 memory discussion makes explicit.
* **Invalidation contract, per function.**  ``notify_cfg_changed(name)``
  drops that function's precomputation (nothing else);
  ``notify_instructions_changed(name)`` drops only its query plans and
  def–use chains; other functions are never touched.
* **Revisions.**  Every edit notification bumps the function's *revision*
  counter; :meth:`handle` mints
  :class:`~repro.api.handles.FunctionHandle` values pinned to the current
  revision and :meth:`check_handle` rejects stale ones — the protocol
  layer's ``STALE_HANDLE`` enforcement lives here.  Cache eviction does
  **not** bump revisions (a rebuilt checker answers identically).
* **Batch API.**  :meth:`submit` takes a stream of
  :class:`LivenessRequest` items spanning any number of functions and
  answers them in order, routing each through the owning checker's batch
  engine so per-variable query plans are compiled once per function no
  matter how the stream interleaves.
* **Observability.**  :class:`ServiceStats` counts cache hits, misses,
  evictions, invalidations and answered queries — the numbers
  ``bench/table_service.py`` reports.  The same counters are registered
  (not copied) into a :class:`repro.obs.Observability` metrics registry
  — labelled per shard by the concurrent layer — so wire-level
  ``StatsRequest`` snapshots see them at zero hot-path cost; checker
  construction and out-of-SSA translation are bracketed in trace spans.
  All of it is recording-only and never alters an answer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api.handles import FunctionHandle
from repro.api.protocol import QueryKind
from repro.api.registry import FAST, get_engine
from repro.core.live_checker import FastLivenessChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.incremental import CfgDelta
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.ir.value import Variable
from repro.obs import Observability
from repro.utils import AtomicCounter

#: Default maximum number of resident checkers.
DEFAULT_CAPACITY = 64


@dataclass(frozen=True)
class LivenessRequest:
    """One liveness question addressed to a named function.

    ``kind`` is validated at construction (legacy ``"in"``/``"out"``
    strings are accepted and normalised to :class:`QueryKind`; anything
    else fails loudly instead of being accepted silently and rejected —
    or worse, dropped — only at answer time).
    """

    #: Name of the function the question is about.
    function: str
    #: :class:`QueryKind` (or one of the legacy strings ``"in"``/``"out"``).
    kind: QueryKind
    #: The variable queried.
    variable: Variable
    #: The block queried.
    block: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", QueryKind.coerce(self.kind))


#: The counter fields of :class:`ServiceStats`, in reporting order.
STAT_FIELDS = (
    "hits",
    "misses",
    "evictions",
    "cfg_invalidations",
    "instruction_invalidations",
    "queries",
    "destructions",
    "stale_handle_rejections",
    "cfg_incremental_applied",
    "cfg_incremental_fallbacks",
)


@dataclass
class ServiceStats:
    """Cache and traffic counters of one :class:`LivenessService`.

    Every field is an :class:`~repro.utils.AtomicCounter`, so the familiar
    ``stats.queries += 1`` call sites are lock-free-to-write *and* safe
    under the concurrent serving layer (:mod:`repro.concurrent`) — plain
    ``int`` fields lose updates when reader threads race on the
    read-modify-write.  Counters compare and format like ints, but the
    attributes are **live** objects: capture a point-in-time value with
    ``int(stats.misses)`` (or :meth:`as_dict`), not by binding the
    attribute.
    """

    #: Checker found resident in the cache.
    hits: AtomicCounter = field(default_factory=AtomicCounter)
    #: Checker had to be (re)built.
    misses: AtomicCounter = field(default_factory=AtomicCounter)
    #: Checkers dropped because the cache was over capacity.
    evictions: AtomicCounter = field(default_factory=AtomicCounter)
    #: Per-function CFG invalidations routed through the service.
    cfg_invalidations: AtomicCounter = field(default_factory=AtomicCounter)
    #: Per-function instruction-level invalidations routed through.
    instruction_invalidations: AtomicCounter = field(default_factory=AtomicCounter)
    #: Individual liveness questions answered.
    queries: AtomicCounter = field(default_factory=AtomicCounter)
    #: Out-of-SSA translations performed through :meth:`LivenessService.destruct`.
    destructions: AtomicCounter = field(default_factory=AtomicCounter)
    #: Requests rejected because they carried a stale function handle.
    stale_handle_rejections: AtomicCounter = field(default_factory=AtomicCounter)
    #: CFG notifications absorbed by patching the precomputation in place
    #: (a :class:`~repro.core.incremental.CfgDelta` the patcher accepted).
    cfg_incremental_applied: AtomicCounter = field(default_factory=AtomicCounter)
    #: Delta-carrying CFG notifications that still had to rebuild (tree
    #: shape changed, block edits, restored shims…) — the honest
    #: complement of :attr:`cfg_incremental_applied`.
    cfg_incremental_fallbacks: AtomicCounter = field(default_factory=AtomicCounter)

    @property
    def lookups(self) -> int:
        """Total checker lookups (hits + misses)."""
        return int(self.hits) + int(self.misses)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return int(self.hits) / self.lookups

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (ints, not counters) for JSON reports."""
        payload: dict[str, float] = {
            name: int(getattr(self, name)) for name in STAT_FIELDS
        }
        payload["hit_rate"] = self.hit_rate
        return payload

    @classmethod
    def aggregate(cls, parts: Iterable["ServiceStats"]) -> "ServiceStats":
        """A snapshot summing several stats objects (per-shard roll-up)."""
        total = cls()
        for part in parts:
            for name in STAT_FIELDS:
                getattr(total, name).add(int(getattr(part, name)))
        return total

    def reset(self) -> dict[str, int]:
        """Zero every counter; returns the counts they replaced.

        Each counter's get-and-set is atomic (one critical section per
        field), so an interval scrape — ``StatsRequest(reset=True)`` —
        attributes every concurrent increment to exactly one interval.
        """
        return {name: getattr(self, name).reset() for name in STAT_FIELDS}


class LivenessService:
    """Liveness queries for a whole :class:`~repro.ir.module.Module`.

    Parameters
    ----------
    module:
        Functions to serve.  More can be registered later with
        :meth:`register`; a plain iterable of functions works too.
    capacity:
        Maximum number of resident checkers (≥ 1).  Least-recently-used
        entries are evicted beyond that.
    obs:
        :class:`repro.obs.Observability` to record into; a private
        instance is created when omitted, so independent services never
        share instruments.  Pass one shared instance (the concurrent
        layer does) to get a whole-stack snapshot.
    obs_labels:
        Label dimensions stamped on every cache metric — the sharded
        layer passes ``{"shard": i}`` so snapshots separate per shard.
    """

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        capacity: int = DEFAULT_CAPACITY,
        obs: Observability | None = None,
        obs_labels: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self._functions: dict[str, Function] = {}
        self._checkers: OrderedDict[str, FastLivenessChecker] = OrderedDict()
        self._revisions: dict[str, int] = {}
        self._capacity = capacity
        self.stats = ServiceStats()
        self.obs = obs if obs is not None else Observability()
        labels = dict(obs_labels or {})
        # The cache/traffic counters the stats object already maintains
        # are *registered* as metrics rather than mirrored — snapshots
        # read the very same AtomicCounter objects, so the query hot path
        # pays nothing extra for observability (the single-thread
        # no-regression bench guard holds it to that).
        metrics = self.obs.metrics
        metrics.register_counter("service.cache.hits", self.stats.hits, **labels)
        metrics.register_counter(
            "service.cache.misses", self.stats.misses, **labels
        )
        metrics.register_counter(
            "service.cache.evictions", self.stats.evictions, **labels
        )
        metrics.register_counter(
            "engine.queries", self.stats.queries, engine=FAST, **labels
        )
        self._obs_precomputations = metrics.counter(
            "engine.precomputations", engine=FAST, **labels
        )
        self._obs_labels = labels
        if module is not None:
            for function in module:
                self.register(function)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, function: Function) -> Function:
        """Make ``function`` servable; names must be unique."""
        if function.name in self._functions:
            raise ValueError(f"duplicate function name {function.name!r}")
        self._functions[function.name] = function
        self._revisions[function.name] = 0
        return function

    def functions(self) -> list[str]:
        """Names of every registered function, in registration order."""
        return list(self._functions)

    def function(self, name: str) -> Function:
        """The registered function object (raises ``KeyError`` when unknown)."""
        self._require_known(name)
        return self._functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    # ------------------------------------------------------------------
    # Revisions and handles
    # ------------------------------------------------------------------
    def revision(self, name: str) -> int:
        """The function's current edit revision (0 until the first edit)."""
        self._require_known(name)
        return self._revisions[name]

    def handle(self, name: str) -> FunctionHandle:
        """Mint a :class:`FunctionHandle` pinned to the current revision."""
        return FunctionHandle(name=name, revision=self.revision(name))

    def check_handle(self, handle: FunctionHandle) -> Function:
        """Resolve a handle, rejecting unknown names and stale revisions.

        Unversioned handles (``revision=None``) always resolve; versioned
        ones must match the current revision exactly — an edit
        notification in between means the client's derived facts may be
        wrong, which is precisely what the ``STALE_HANDLE`` error exists
        to surface instead of a silently-wrong answer.
        """
        from repro.api.errors import StaleHandleError

        function = self.function(handle.name)
        current = self._revisions[handle.name]
        if handle.revision is not None and handle.revision != current:
            self.stats.stale_handle_rejections += 1
            raise StaleHandleError(
                f"handle {handle} is stale: function {handle.name!r} is at "
                f"revision {current}"
            )
        return function

    def _bump_revision(self, name: str) -> None:
        self._revisions[name] += 1

    # ------------------------------------------------------------------
    # The checker cache
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of resident checkers."""
        return self._capacity

    def resident(self) -> list[str]:
        """Functions with a live checker, least-recently-used first."""
        return list(self._checkers)

    def checker(self, name: str) -> FastLivenessChecker:
        """The (cached) checker for function ``name``.

        Builds and prepares one on a miss; touching an entry makes it
        most-recently-used.  May evict another function's checker.
        """
        cached = self._checkers.get(name)
        if cached is not None:
            self._checkers.move_to_end(name)
            self.stats.hits += 1
            return cached
        try:
            function = self._functions[name]
        except KeyError:
            raise KeyError(f"unknown function {name!r}") from None
        self.stats.misses += 1
        with self.obs.span("checker_build", function=name):
            checker = FastLivenessChecker(function)
            checker.prepare()
        self._obs_precomputations.add(1)
        self._checkers[name] = checker
        while len(self._checkers) > self._capacity:
            self._checkers.popitem(last=False)
            self.stats.evictions += 1
        return checker

    def evict(self, name: str) -> bool:
        """Drop one function's checker (True if it was resident).

        Purely a cache-geometry event: the function itself is unedited,
        so its revision — and every outstanding handle — stays valid.
        """
        return self._checkers.pop(name, None) is not None

    def clear(self) -> None:
        """Drop every resident checker (registrations are kept)."""
        self._checkers.clear()

    # ------------------------------------------------------------------
    # Snapshot export / import (the persist layer's surface)
    # ------------------------------------------------------------------
    def export_functions(self) -> list[tuple[str, int, str]]:
        """``(name, revision, printed source)``, in registration order.

        The printed text round-trips through the parser to the same
        function (the printer/parser fixpoint the wire layer already
        relies on), so re-registering these triples — with
        :meth:`import_function` — reproduces this service's observable
        state exactly.
        """
        return [
            (name, self._revisions[name], print_function(function))
            for name, function in self._functions.items()
        ]

    def import_function(self, name: str, revision: int, source: str) -> Function:
        """Register a function at an explicit revision (restore path).

        Unlike :meth:`register` — which is the *live* registration path
        and always starts at revision 0 — this reinstates a function
        exactly as a snapshot recorded it, revision included, so
        outstanding handle semantics survive a restore.
        """
        function = parse_function(source)
        if function.name != name:
            raise ValueError(
                f"snapshot names function {name!r} but its source parses "
                f"as {function.name!r}"
            )
        if name in self._functions:
            raise ValueError(f"duplicate function name {name!r}")
        self._functions[name] = function
        self._revisions[name] = revision
        return function

    def export_precomputations(self) -> list[tuple[str, object]]:
        """``(name, precomputation)`` of every *warm* checker, LRU order.

        Reads :attr:`FastLivenessChecker.resident_precomputation`, so
        exporting never builds anything — the snapshot captures the
        cache as it stands.  LRU order is preserved so a restore
        re-creates the same eviction priorities.
        """
        exported: list[tuple[str, object]] = []
        for name, checker in self._checkers.items():
            pre = checker.resident_precomputation
            if pre is not None:
                exported.append((name, pre))
        return exported

    def install_checker(self, name: str, checker: FastLivenessChecker) -> None:
        """Insert a pre-built checker as the most-recently-used entry.

        The restore path's counterpart to the :meth:`checker` miss path:
        no stats are bumped (a restore is not traffic), but capacity is
        still enforced — installing beyond it evicts LRU entries without
        counting them as traffic evictions either.
        """
        self._require_known(name)
        self._checkers[name] = checker
        self._checkers.move_to_end(name)
        while len(self._checkers) > self._capacity:
            self._checkers.popitem(last=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_live_in(self, function: str, var: Variable, block: str) -> bool:
        """Live-in query against one function, through the cached checker."""
        self.stats.queries += 1
        return self.checker(function).batch.is_live_in(var, block)

    def is_live_out(self, function: str, var: Variable, block: str) -> bool:
        """Live-out query against one function, through the cached checker."""
        self.stats.queries += 1
        return self.checker(function).batch.is_live_out(var, block)

    def submit(
        self, requests: Sequence[LivenessRequest | tuple[str, str, Variable, str]]
    ) -> list[bool]:
        """Answer a mixed multi-function request stream, in order.

        Each item is a :class:`LivenessRequest` or a plain
        ``(function, kind, variable, block)`` tuple with ``kind`` a
        :class:`QueryKind` (or a legacy ``"in"``/``"out"`` string).
        Consecutive requests for the same function share one cache
        lookup; every request shares the per-variable query plans the
        checker already holds.
        """
        answers: list[bool] = []
        current_name: str | None = None
        current_checker: FastLivenessChecker | None = None
        for request in requests:
            if isinstance(request, LivenessRequest):
                name, kind, var, block = (
                    request.function,
                    request.kind,
                    request.variable,
                    request.block,
                )
            else:
                name, kind, var, block = request
            if name != current_name:
                current_checker = self.checker(name)
                current_name = name
            assert current_checker is not None
            self.stats.queries += 1
            if kind == QueryKind.LIVE_IN:
                answers.append(current_checker.batch.is_live_in(var, block))
            elif kind == QueryKind.LIVE_OUT:
                answers.append(current_checker.batch.is_live_out(var, block))
            else:
                raise ValueError(f"unknown query kind {kind!r}")
        return answers

    # ------------------------------------------------------------------
    # Edit notifications, routed per function
    # ------------------------------------------------------------------
    def _require_known(self, function: str) -> None:
        # A typoed name must fail loudly here: silently "invalidating"
        # nothing would leave the real function's checker stale.
        if function not in self._functions:
            raise KeyError(f"unknown function {function!r}")

    def notify_cfg_changed(
        self, function: str, delta: "CfgDelta | None" = None
    ) -> None:
        """The function's CFG changed: patch or drop its precomputation.

        Without a delta this is the historical full invalidation.  With
        one, the cached checker tries the incremental patch first
        (:mod:`repro.core.incremental`) and the stats record which way it
        went — ``cfg_incremental_applied`` vs ``cfg_incremental_fallbacks``
        — so the bench tables report an honest hit rate, and the
        ``service.cfg.incremental_fallbacks`` metric counts fallbacks by
        ``reason``.  Either way the
        revision bumps: the *function* changed, so outstanding handles
        must go stale regardless of how cheaply the cache absorbed it.
        """
        self._require_known(function)
        self.stats.cfg_invalidations += 1
        self._bump_revision(function)
        cached = self._checkers.get(function)
        if cached is not None:
            result = cached.notify_cfg_changed(delta)
            if delta is not None:
                if result.applied:
                    self.stats.cfg_incremental_applied += 1
                else:
                    self.stats.cfg_incremental_fallbacks += 1
                    self.obs.counter(
                        "service.cfg.incremental_fallbacks",
                        reason=result.reason,
                        **self._obs_labels,
                    ).add(1)

    def notify_instructions_changed(self, function: str) -> None:
        """Instruction-level edits: drop the function's plans only."""
        self._require_known(function)
        self.stats.instruction_invalidations += 1
        self._bump_revision(function)
        cached = self._checkers.get(function)
        if cached is not None:
            cached.notify_instructions_changed()

    def notify_variable_changed(self, function: str, var: Variable) -> None:
        """One variable's chain changed (incremental def–use maintenance)."""
        self._require_known(function)
        self._bump_revision(function)
        cached = self._checkers.get(function)
        if cached is not None:
            cached.notify_variable_changed(var)

    # ------------------------------------------------------------------
    # Out-of-SSA translation
    # ------------------------------------------------------------------
    def destruct(
        self,
        function: str,
        engine: str = FAST,
        verify: bool = False,
        collect_decisions: bool = False,
    ):
        """Translate one registered function out of SSA form, in place.

        ``engine`` is resolved through the registry; with the default fast
        engine the pass runs through the function's *cached* checker so
        all of its interference queries share the per-variable
        :class:`~repro.core.plans.QueryPlan` cache the service already
        holds; critical-edge splitting (the pipeline's one CFG edit) is
        routed through :meth:`notify_cfg_changed`, and φ isolation
        maintains the checker's def–use chains incrementally through
        ``notify_variable_changed`` — no other resident function is
        touched.  Afterwards the function is no longer SSA, so its checker
        is evicted and its revision bumped (outstanding handles go stale);
        a later liveness query against it fails loudly when the def–use
        chains refuse the multi-definition program.

        Returns the :class:`~repro.ssadestruct.pipeline.DestructReport`.
        """
        from repro.ssadestruct.pipeline import destruct as run_destruct

        self._require_known(function)
        spec = get_engine(engine)  # unknown engines fail before any mutation
        fn = self._functions[function]
        # The fast engine reuses the service's resident checker (and its
        # warm plan cache) for the translation.
        checker = self.checker(function) if spec.name == FAST else None
        if checker is not None and checker.is_restored:
            # The pipeline borrows the checker's dominator tree, which a
            # snapshot-restored precomputation does not carry — swap in a
            # genuine rebuild before translating.
            self.evict(function)
            checker = self.checker(function)
        self.obs.counter("engine.destructs", engine=spec.name).add(1)
        try:
            with self.obs.span("destruct", function=function, engine=spec.name):
                report = run_destruct(
                    fn,
                    backend=spec,
                    checker=checker,
                    verify=verify,
                    collect_decisions=collect_decisions,
                    on_cfg_changed=lambda: self.notify_cfg_changed(function),
                )
        except Exception:
            # Past engine resolution, the pipeline mutates before it can
            # fail (edge splitting, φ isolation): invalidate pessimistically
            # so no handle or resident checker survives a half-translated
            # function.
            self.evict(function)
            self._bump_revision(function)
            raise
        self.evict(function)
        self.stats.destructions += 1
        # The lowering rewrote instructions wholesale: whatever the
        # translation did, every outstanding handle must go stale.
        self._bump_revision(function)
        return report

    def __repr__(self) -> str:
        return (
            f"LivenessService(functions={len(self._functions)}, "
            f"resident={len(self._checkers)}/{self._capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
