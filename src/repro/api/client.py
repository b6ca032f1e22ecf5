"""The compiler-server façade: one router in front of every placement.

:class:`CompilerClient` wraps the whole serving stack —
front-end compilation, the multi-function
:class:`~repro.service.LivenessService`, out-of-SSA translation and
register allocation — behind a single ``dispatch(request) -> response``
entry point speaking the protocol of :mod:`repro.api.protocol`:

* every function is addressed through a revisioned
  :class:`~repro.api.handles.FunctionHandle`; a request pinned to an old
  revision is answered with a ``STALE_HANDLE`` error, never a
  silently-stale liveness fact;
* every failure crosses the boundary as a structured
  :class:`~repro.api.errors.ApiError` inside the matching response —
  ``dispatch`` does not raise;
* :meth:`Router.dispatch_json` drives the same dispatcher from (and back
  to) wire-format JSON envelopes, so a service can be fronted by any
  transport or replayed from a request log.

The front door is written once, as :class:`Router`; the serial client,
the thread-sharded :class:`~repro.concurrent.client.ShardedClient` and
the multi-process :class:`~repro.concurrent.procs.ProcClient` differ
only in their :class:`Placement` — where the functions live and how the
parts holding them are locked, asked, installed, exported and scraped.

The batch path is deliberately thin: a :class:`BatchLiveness` stream is
answered through exactly the same per-checker batch engine
:meth:`LivenessService.submit` uses, with per-function variable-name
resolution cached per revision — ``bench/table_service.py --smoke``
guards that this layer stays within 10% of calling ``submit`` directly.
"""

from __future__ import annotations

import json
import threading
import zlib
from contextlib import nullcontext
from typing import Callable, Iterable

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    AllocateResponse,
    AllocationSummary,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    DestructResponse,
    DestructStats,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyKind,
    NotifyRequest,
    NotifyResponse,
    QueryKind,
    Request,
    Response,
    RESPONSE_FOR,
    StatsRequest,
    StatsResponse,
    attach_trace,
    decode_request,
    encode_response,
    trace_context,
)
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.value import Variable
from repro.obs import Observability
from repro.obs.metrics import metric_key
from repro.service.service import DEFAULT_CAPACITY, STAT_FIELDS, LivenessService

#: Signature of the linearization hook: called once per dispatch with
#: ``(request, response)``, under the request's locks where it has any.
Observer = Callable[[Request, Response], None]


def shard_of(name: str, shards: int) -> int:
    """The part index owning function ``name`` among ``shards`` parts.

    Uses ``crc32`` rather than ``hash()`` so the partition is stable
    across processes and ``PYTHONHASHSEED`` values — the differential
    harness replays a concurrent run in a fresh service and the routing
    must be identical.
    """
    return zlib.crc32(name.encode("utf-8")) % shards


def api_error(exc: Exception) -> ApiError:
    """The structured error an exception escaping a handler becomes."""
    if isinstance(exc, ProtocolError):
        return exc.error
    if isinstance(exc, KeyError):
        # The service's loud unknown-function failures surface here;
        # any other KeyError is an internal bug and must say so.
        if "unknown function" in str(exc):
            return ApiError(ErrorCode.UNKNOWN_FUNCTION, str(exc))
        return ApiError(ErrorCode.INTERNAL, f"KeyError: {exc}")
    return ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")


def failure_response(request, error: ApiError) -> Response:
    """The matching error-carrying response for a failed ``request``."""
    response_cls = RESPONSE_FOR.get(type(request), ErrorResponse)
    return response_cls(error=error)


#: The two successful liveness answers, indexed by the bit (responses
#: are frozen, so the lane hands out shared instances).
LIVENESS_ANSWERS = (LivenessResponse(value=False), LivenessResponse(value=True))


def liveness_query(name, revision, want_in, variable, block) -> LivenessQuery:
    """The typed request for one liveness-lane call."""
    return LivenessQuery(
        function=FunctionHandle(name, revision),
        kind=QueryKind.LIVE_IN if want_in else QueryKind.LIVE_OUT,
        variable=variable,
        block=block,
    )


def timed_lane(obs: Observability, histogram, answer):
    """Wrap a liveness answer core as a client's ``query_liveness`` lane.

    The returned callable runs ``answer(name, revision, want_in,
    variable, block, request)`` under a ``dispatch`` span and records
    its wall time in ``histogram`` (``dispatch.seconds``), so a lane
    query lands there exactly once, like every other request.
    """
    clock = obs.clock
    span = obs.tracer.span

    def query_liveness(name, revision, want_in, variable, block, request=None):
        start = clock()
        with span("dispatch", request="LivenessQuery"):
            result = answer(name, revision, want_in, variable, block, request)
        histogram.observe(clock() - start)
        return result

    return query_liveness


def dispatch_json_via(dispatch, payload, obs: "Observability | None" = None) -> dict:
    """Wire driver shared by every client: JSON envelope in and out.

    A payload that cannot even be decoded has no request type to pick a
    response from, so it comes back as an :class:`ErrorResponse` envelope
    — never an exception across the wire boundary.

    When ``obs`` is given and the request envelope carries a trace
    context, the whole dispatch runs under a root span with the caller's
    ``trace_id`` (yielding a structured timing tree in ``obs.tracer``),
    and the response envelope echoes ``{"trace_id": ...}`` back.  The
    echo is a pure function of the request payload — no clock value ever
    enters a response — and old payloads, which simply lack the trace
    key, flow through the untraced path unchanged.
    """
    if isinstance(payload, (str, bytes)):
        # Parse wire text exactly once: both the trace sniff and the
        # request decode below accept a parsed dict, so a text payload
        # must not pay for two full JSON parses.  Parse failures stay
        # with the payload — decode_request turns them into the
        # structured INVALID_REQUEST error.
        try:
            payload = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            pass
    trace_id = parent_span = None
    if obs is not None:
        trace_id, parent_span = trace_context(payload)
    try:
        request = decode_request(payload)
    except ProtocolError as exc:
        envelope = encode_response(ErrorResponse(error=exc.error))
    else:
        if trace_id is None:
            return encode_response(dispatch(request))
        attributes = {"request": type(request).__name__}
        if parent_span is not None:
            attributes["parent_span"] = parent_span
        with obs.request_trace("request", trace_id=trace_id, **attributes):
            envelope = encode_response(dispatch(request))
    if trace_id is not None:
        attach_trace(envelope, trace_id)
    return envelope


def _relabel(key: str, **extra) -> str:
    """Insert labels into a canonical ``name{k=v,...}`` metric key."""
    name, brace, inner = key.partition("{")
    labels: dict[str, object] = {}
    if brace:
        for pair in inner[:-1].split(","):
            label, _eq, value = pair.partition("=")
            labels[label] = value
    labels.update(extra)
    return metric_key(name, labels)


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
class Placement:
    """Where a router's functions live: ``parts`` indexed parts plus one registry.

    Functions are partitioned over the parts by :func:`shard_of` of their
    name.  The registry — registration order, ``name → index``, the
    duplicate checks and the consistent export cut — is written here
    once; a placement supplies only the hooks below.

    ==================  =================  ==============  ================
    hook                serial             thread shards   worker processes
    ==================  =================  ==============  ================
    ``_locked``         nothing            shard RWLocks   link mutexes
    ``_read_one``       nothing            shard read      link mutex
    ``_run``            handler, in place  handler, shard  pipe round trip
    ``_answer``         answer core        answer core     pipe round trip
    ``_answer_batch``   one pass           one pass        fan-out, merge
    ``_install``        register/import    per shard       to each worker
    ``_export_parts``   the service        every shard     every worker
    ``_stats_parts``    service counters   every shard     worker scrapes
    ==================  =================  ==============  ================

    ``_locked(indices, write)`` holds the locks of a sorted index list;
    ``_read_one(name)`` read-locks the one part owning ``name`` and
    returns ``(index, release)``.
    """

    def __init__(self, parts: int, per_part: int) -> None:
        self.parts = parts
        self._per_part = per_part
        #: Guards registration as a whole; acquired before any part lock.
        self._registry_lock = threading.Lock()
        self._order: list[str] = []
        #: name → part index, memoized at registration so routing is one
        #: dict probe.  Written only under the registry lock; read
        #: lock-free (entries are never changed).
        self._index: dict[str, int] = {}

    @property
    def capacity(self) -> int:
        """Total resident-checker budget (per-part share times parts)."""
        return self._per_part * self.parts

    def topology(self) -> dict:
        """Serving geometry for snapshot headers: shards/capacity."""
        return {"shards": self.parts, "capacity": self.capacity}

    def index_of(self, name: str) -> int:
        """The part index owning function ``name``."""
        index = self._index.get(name)
        return shard_of(name, self.parts) if index is None else index

    def indices(self, names: Iterable[str]) -> list[int]:
        """The sorted part indices owning ``names`` (the global lock order)."""
        if self.parts == 1:
            return [0]
        return sorted({self.index_of(name) for name in names})

    def functions(self) -> list[str]:
        """Names of every registered function, in registration order."""
        with self._registry_lock:
            return list(self._order)

    def register(self, function: Function) -> Function:
        """Make ``function`` servable (thread-safe; names must be unique)."""
        self.register_all([function])
        return function

    def register_all(self, functions, on_registered=None) -> list[FunctionHandle]:
        """Register several functions atomically (all or nothing).

        Duplicate names — against the registry *or* within the batch —
        fail before anything is registered.  Returns the freshly minted
        handles; ``on_registered``, if given, is called with them *while
        the locks are still held* — the linearization hook the
        trace-recording client needs (a concurrent query must not be
        able to slip between the registration and its observation).
        """
        handles = [FunctionHandle(name=function.name, revision=0) for function in functions]
        self._enter(
            [(function.name, 0, function) for function in functions],
            "batch",
            None if on_registered is None else lambda: on_registered(handles),
        )
        return handles

    def import_state(self, functions) -> None:
        """Reinstate exported ``(name, revision, source)`` triples.

        The restore-path mirror of :meth:`register_all`: all-or-nothing
        validation, global registration order preserved, but revisions
        land exactly as exported instead of starting at 0.
        """
        self._enter(
            [(name, int(revision), source) for name, revision, source in functions],
            "snapshot",
        )

    def _enter(self, entries, origin: str, on_entered=None) -> None:
        """Validate and install ``(name, revision, function or source)``."""
        names = [entry[0] for entry in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function name in {origin}: {names!r}")
        groups: dict[int, list] = {}
        for entry in entries:
            groups.setdefault(shard_of(entry[0], self.parts), []).append(entry)
        with self._registry_lock, self._locked(sorted(groups), True):
            for name in names:
                if name in self._index:
                    raise ValueError(f"duplicate function name {name!r}")
            self._install(groups)
            for name in names:
                self._order.append(name)
                self._index[name] = shard_of(name, self.parts)
            if on_entered is not None:
                on_entered()

    def export_state(self, pin=None):
        """A consistent cut of the whole placement's observable state.

        Holds the registry lock, then *every* part's read lock in index
        order — with all of them held no mutation is in flight anywhere,
        so the cut is a linearization point.  ``pin``, if given, is
        called **while the locks are held**; the durability layer passes
        ``lambda: wal.last_seq`` so the snapshot and the WAL position
        agree exactly (appends happen under the write locks, which are
        all excluded here).

        Returns ``(functions, precomps, pinned)``: the ``(name, revision,
        printed source)`` triples in registration order, the ``(name,
        precomputation)`` pairs of every warm checker the placement can
        hand over (part order, LRU within a part; worker processes hand
        over none), and ``pin``'s value (0 when absent).
        """
        with self._registry_lock, self._locked(range(self.parts), False):
            pinned = pin() if pin is not None else 0
            by_name = {}
            precomps: list[tuple[str, object]] = []
            for triples, warm in self._export_parts():
                for name, revision, source in triples:
                    by_name[name] = (name, int(revision), source)
                precomps.extend(warm)
            return [by_name[name] for name in self._order], precomps, pinned


class LocalPlacement(Placement):
    """In-process parts: one :class:`LivenessService` per index.

    The request handlers run directly on the owning part's service, under
    whatever locks the subclass's hooks took; this base class takes none
    (the serial placement).  Not thread-safe by itself — concurrent
    callers go through :class:`~repro.concurrent.sharded.ShardedService`.
    """

    def __init__(self, services) -> None:
        super().__init__(len(services), services[0].capacity)
        self._services = tuple(services)
        self._span = services[0].obs.tracer.span
        #: function name → (revision the map was built at, name → Variable).
        #: Safe for concurrent readers: entries are immutable tuples
        #: published with one atomic dict store, and edits cannot run
        #: concurrently with readers (the sharded layer write-locks them).
        self._variable_maps: dict[str, tuple[int, dict[str, Variable]]] = {}

    # ------------------------------------------------------------------
    # Locking: none (the serial placement)
    # ------------------------------------------------------------------
    def _locked(self, indices, write: bool):
        return _UNLOCKED

    def _read_one(self, name: str):
        return 0, _release_nothing

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _run(self, index: int, request: Request, handler) -> Response:
        return handler(self, self._services[index], request)

    def _answer(
        self,
        index: int,
        name: str,
        revision: int | None,
        want_in: bool,
        variable: str,
        block: str,
        request=None,
    ) -> bool:
        """The answer core every in-process liveness query shares.

        The hit path is a handful of dict probes and the kernel query.
        A miss — unknown function, stale handle, unknown variable or
        block — falls back to the resolution helpers, which raise the
        structured :class:`ProtocolError`.  The caller holds the part's
        read lock.
        """
        service = self._services[index]
        try:
            current = service.revision(name)
        except KeyError:
            current = None
        if current is None or (revision is not None and revision != current):
            _resolve_function(service, FunctionHandle(name, revision))
        cached = self._variable_maps.get(name)
        if cached is not None and cached[0] == current:
            variables = cached[1]
        else:
            variables = self._variable_map(service, name)
        var = variables.get(variable)
        if var is None:
            _unknown_variable(name, variable)
        function = service.function(name)
        if block not in function:
            _require_block(function, block)
        with self._span("checker_lookup", function=name):
            checker = service.checker(name)
        service.stats.queries += 1
        with self._span("kernel_query", kind="in" if want_in else "out"):
            batch = checker.batch
            return batch.is_live_in(var, block) if want_in else batch.is_live_out(var, block)

    def _answer_batch(self, queries) -> BatchLivenessResponse:
        """Answer a :class:`BatchLiveness` stream in one pass, in order.

        Answers flow through exactly the per-checker batch engines
        :meth:`LivenessService.submit` uses; handle validation, checker
        lookup and variable-name resolution are amortised to once per
        function per batch (a mid-batch stream cannot observe edits, so
        a validated handle stays valid for the rest of the dispatch),
        and the first failing query decides the batch's error.  Keeping
        this loop lean is what the dispatch-overhead bench guard
        measures.
        """
        values: list[bool] = []
        resolved: dict = {}
        live_in = QueryKind.LIVE_IN
        for query in queries:
            handle = query.function
            name = handle.name
            entry = resolved.get(name)
            if entry is None:
                service = self._services[self.index_of(name)]
                function = _resolve_function(service, handle)
                entry = (
                    handle.revision,
                    function,
                    service.checker(name).batch,
                    self._variable_map(service, name),
                    service,
                )
                resolved[name] = entry
            elif handle.revision != entry[0]:
                entry[4].check_handle(handle)
                entry = (handle.revision,) + entry[1:]
                resolved[name] = entry
            _, function, batch, variables, service = entry
            var = variables.get(query.variable)
            if var is None:
                _unknown_variable(name, query.variable)
            if query.block not in function:
                _require_block(function, query.block)
            service.stats.queries += 1
            if query.kind is live_in:
                values.append(batch.is_live_in(var, query.block))
            else:
                values.append(batch.is_live_out(var, query.block))
        return BatchLivenessResponse(values=tuple(values))

    def _variable_map(self, service: LivenessService, name: str) -> dict[str, Variable]:
        revision = service.revision(name)
        cached = self._variable_maps.get(name)
        if cached is not None and cached[0] == revision:
            return cached[1]
        mapping = {var.name: var for var in service.function(name).variables()}
        self._variable_maps[name] = (revision, mapping)
        return mapping

    # ------------------------------------------------------------------
    # Registry and stats hooks
    # ------------------------------------------------------------------
    def _install(self, groups) -> None:
        for index, entries in groups.items():
            service = self._services[index]
            for name, revision, payload in entries:
                if isinstance(payload, Function):
                    service.register(payload)
                else:
                    service.import_function(name, revision, payload)

    def _export_parts(self):
        return [
            (service.export_functions(), service.export_precomputations())
            for service in self._services
        ]

    def _stats_parts(self, reset: bool):
        # The services record into the router's Observability, so a part
        # adds counters only (no snapshot of its own).
        return [
            (index, None, service.stats.reset() if reset else service.stats.as_dict())
            for index, service in enumerate(self._services)
        ]

    # ------------------------------------------------------------------
    # Request handlers (the caller holds the part's lock)
    # ------------------------------------------------------------------
    def _live_set(self, service: LivenessService, request: LiveSetRequest) -> LiveSetResponse:
        function = _resolve_function(service, request.function)
        name = request.function.name
        block = _require_block(function, request.block)
        checker = service.checker(name)
        if request.kind == QueryKind.LIVE_IN:
            probe = checker.batch.is_live_in
        else:
            probe = checker.batch.is_live_out
        variables = checker.live_variables()
        service.stats.queries += len(variables)
        members = [var.name for var in variables if probe(var, block)]
        return LiveSetResponse(variables=tuple(sorted(members)))

    def _destruct(self, service: LivenessService, request: DestructRequest) -> DestructResponse:
        _resolve_function(service, request.function)
        name = request.function.name
        report = service.destruct(name, engine=request.engine, verify=request.verify)
        return DestructResponse(
            function=service.handle(name),
            stats=DestructStats.from_report(report),
        )

    def _allocate(self, service: LivenessService, request: AllocateRequest) -> AllocateResponse:
        from repro.regalloc.allocator import allocate

        from repro.api.registry import get_engine

        function = _resolve_function(service, request.function)
        name = request.function.name
        # Resolve the engine *before* handing the function to allocate():
        # past this point, any failure may have mutated it.
        spec = get_engine(request.engine)
        if spec.oracle_factory is None:
            spec.make_oracle(function)  # raises the structural UNSUPPORTED
        try:
            allocation = allocate(
                function,
                num_registers=request.num_registers,
                backend=request.engine,
                destruct=request.destruct,
            )
        except Exception:
            # The failure may have left the function half-edited;
            # invalidate pessimistically so no stale answer survives.
            service.notify_instructions_changed(name)
            service.notify_cfg_changed(name)
            raise
        # Allocation may split critical edges (a CFG edit) *and* rewrite
        # instructions (spill code, φ lowering) — the two notifications
        # invalidate different state (precomputation vs def–use chains),
        # so both fire whenever any edit actually happened; each also
        # marks outstanding handles stale.  An analysis-only allocation
        # (no splits, no spills, no destruction) edits nothing, so
        # handles and the resident checker stay valid.
        mutated = (
            allocation.reconstructed_ssa
            or allocation.edges_split > 0
            or allocation.spill_report is not None
            or request.destruct
        )
        if mutated:
            service.notify_instructions_changed(name)
            service.notify_cfg_changed(name)
        if request.destruct:
            # The function is no longer SSA; a rebuilt checker would fail
            # loudly, so do not keep one resident.
            service.evict(name)
        return AllocateResponse(
            function=service.handle(name),
            allocation=AllocationSummary.from_allocation(allocation),
        )

    def _notify_edit(self, service: LivenessService, request: NotifyRequest) -> NotifyResponse:
        _resolve_function(service, request.function)
        name = request.function.name
        if request.kind is NotifyKind.CFG:
            # A delta-carrying notification lets the service patch the
            # resident precomputation instead of discarding it; absent a
            # delta this is the historical full invalidation.
            service.notify_cfg_changed(name, delta=request.delta)
        else:
            service.notify_instructions_changed(name)
        return NotifyResponse(function=service.handle(name))

    def _evict(self, service: LivenessService, request: EvictRequest) -> EvictResponse:
        _resolve_function(service, request.function)
        name = request.function.name
        service.evict(name)
        # Cache geometry only: the revision — and therefore the handle —
        # is deliberately unchanged, and whether a checker was resident
        # is not reported (see EvictResponse).
        return EvictResponse(function=service.handle(name))


_UNLOCKED = nullcontext()


def _release_nothing() -> None:
    pass


def _resolve_function(service: LivenessService, handle: FunctionHandle) -> Function:
    if handle.name not in service:
        raise ProtocolError(
            ErrorCode.UNKNOWN_FUNCTION,
            f"no function named {handle.name!r} is registered",
        )
    return service.check_handle(handle)


def _unknown_variable(function_name: str, variable: str):
    raise ProtocolError(
        ErrorCode.UNKNOWN_VARIABLE,
        f"function {function_name!r} has no variable {variable!r}",
    )


def _require_block(function: Function, block: str) -> str:
    if block not in function:
        raise ProtocolError(
            ErrorCode.UNKNOWN_BLOCK,
            f"function {function.name!r} has no block {block!r}",
        )
    return block


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class Router:
    """The protocol front door, written once for every placement.

    Owns ``dispatch`` (the liveness lane for :class:`LivenessQuery`; for
    every other request the ``dispatch`` span, one ``dispatch.seconds``
    record, the never-raise guard and the observe-exactly-once
    bookkeeping), the request-type table, ``dispatch_json``, ``compile``
    and compile-and-register, and the :class:`StatsRequest` merge.  The
    registry surface (``export_state``/``import_state``/``topology``/
    ``functions``) is the placement's.

    Every dispatch is **linearizable**: it takes effect atomically at a
    single point in time (while its locks are held).  The optional
    ``observer`` is invoked exactly once per dispatch with ``(request,
    response)`` — for lock-protected requests *while the locks are still
    held*, which is what lets the differential concurrency harness
    record a total order whose serial replay must produce bit-identical
    responses.  Responses that depend on no mutable state (malformed
    requests, compile errors, duplicate-name rejections — duplicates are
    monotone: once taken, a name is never freed — and stats) are
    observed after the guard instead; they commute with every other
    operation.

    The serial and the thread-sharded client re-bind ``dispatch =
    Router.dispatch`` in their own namespaces, so tools that patch a
    class's own ``dispatch`` find it there.
    """

    def __init__(
        self, placement: Placement, obs: Observability, observer: Observer | None = None
    ) -> None:
        self._placement = placement
        self.obs = obs
        self._observer = observer
        self._observed = threading.local()
        self._dispatch_seconds = obs.histogram("dispatch.seconds")
        #: The liveness lane: ``(name, revision, want_in, variable, block,
        #: request=None) -> bool | LivenessResponse`` — the bit, or the
        #: error-carrying response; never raises.  Typed
        #: :class:`LivenessQuery` dispatch, JSON frames and bin2 frames
        #: all answer through it.
        self.query_liveness = timed_lane(obs, self._dispatch_seconds, self._liveness)
        #: Lazily-created session backing :meth:`dispatch_bytes`.
        self._default_bytes_session = None

    # ------------------------------------------------------------------
    # The registry surface (the placement's)
    # ------------------------------------------------------------------
    def functions(self) -> list[str]:
        """Registered names in registration order."""
        return self._placement.functions()

    def export_state(self, pin=None):
        """A consistent state cut — see :meth:`Placement.export_state`."""
        return self._placement.export_state(pin)

    def import_state(self, functions) -> None:
        """Reinstate exported ``(name, revision, source)`` triples."""
        self._placement.import_state(functions)

    def topology(self) -> dict:
        """Serving geometry for snapshot headers: shards/capacity."""
        return self._placement.topology()

    def compile(
        self, source: str, module_name: str = "module"
    ) -> tuple[FunctionHandle, ...]:
        """Compile and register ``source``; raise on failure.

        The exception-free equivalent is dispatching a
        :class:`CompileSourceRequest`.
        """
        response = self.dispatch(
            CompileSourceRequest(source=source, module_name=module_name)
        )
        if response.error is not None:
            raise ProtocolError(response.error.code, response.error.detail)
        assert response.functions is not None
        return response.functions

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer one protocol request; thread-safe, never raises."""
        if isinstance(request, LivenessQuery):
            handle = request.function
            result = self.query_liveness(
                handle.name,
                handle.revision,
                request.kind is QueryKind.LIVE_IN,
                request.variable,
                request.block,
                request,
            )
            return LIVENESS_ANSWERS[result] if result.__class__ is bool else result
        clock = self.obs.clock
        start = clock()
        observed = self._observed
        observed.seen = False
        with self.obs.span("dispatch", request=type(request).__name__):
            try:
                response = self._route(request)
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                response = failure_response(request, api_error(exc))
        # Requests that never reached a locked section (stateless errors)
        # are observed here; everything else was observed under its locks.
        if not observed.seen:
            self._notify(request, response)
        self._dispatch_seconds.observe(clock() - start)
        return response

    def dispatch_json(self, payload) -> dict:
        """Wire driver: JSON envelope in, JSON envelope out, thread-safe."""
        return dispatch_json_via(self.dispatch, payload, obs=self.obs)

    def bytes_session(self):
        """A fresh byte-speaking connection over this client.

        Each session owns one string table (connection state), so two
        independent byte callers need two sessions; many submitter
        threads may share one session when the wire server serializes
        ingestion.  The session answers in the caller's own framing —
        ``bin2`` frames or JSON text — and negotiates via the JSON
        ``hello`` envelope; liveness-query frames ride
        :attr:`query_liveness`, observed like every other request.
        """
        from repro.api.codec import BytesServerSession

        return BytesServerSession(
            self.dispatch, obs=self.obs, liveness=self.query_liveness
        )

    def dispatch_bytes(self, data) -> bytes:
        """Wire driver: one frame in, one frame out, never raises.

        Convenience over a lazily-created default session; transports
        serving several connections should create one
        :meth:`bytes_session` per connection instead.
        """
        if self._default_bytes_session is None:
            self._default_bytes_session = self.bytes_session()
        return self._default_bytes_session.dispatch_frame(data)

    def _notify(self, request: Request, response: Response) -> None:
        self._observed.seen = True
        if self._observer is not None:
            self._observer(request, response)

    def _liveness(self, name, revision, want_in, variable, block, request=None):
        """Answer one liveness query under the owning part's read lock.

        Calls the observer *under the lock* — building the
        ``(LivenessQuery, LivenessResponse)`` pair only when an observer
        is installed.  Returns the bit, or the error-carrying
        :class:`LivenessResponse`; never raises (a failing observer
        becomes an ``INTERNAL`` error).
        """
        placement = self._placement
        index, release = placement._read_one(name)
        try:
            try:
                result = placement._answer(
                    index, name, revision, want_in, variable, block, request
                )
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                result = LivenessResponse(error=api_error(exc))
            if self._observer is not None:
                if request is None:
                    request = liveness_query(name, revision, want_in, variable, block)
                self._observer(
                    request,
                    LIVENESS_ANSWERS[result] if result.__class__ is bool else result,
                )
        except Exception as exc:  # noqa: BLE001 - a failing observer
            result = LivenessResponse(error=api_error(exc))
        finally:
            release()
        return result

    def _route(self, request: Request) -> Response:
        entry = _ROUTES.get(type(request))
        if entry is None:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"unsupported request type {type(request).__name__}",
            )
        route, args = entry
        return route(self, request, *args)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _single(self, request, write: bool, handler) -> Response:
        """A one-function request, run at its part under that part's lock."""
        placement = self._placement
        index = placement.index_of(request.function.name)
        with placement._locked((index,), write):
            try:
                response = placement._run(index, request, handler)
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                response = failure_response(request, api_error(exc))
            self._notify(request, response)
        return response

    def _batch(self, request: BatchLiveness) -> BatchLivenessResponse:
        # Hold every involved part's read lock for the whole stream (one
        # linearization point; an empty batch locks nothing): the first
        # failing query decides the batch's error on every placement.
        queries = request.queries
        placement = self._placement
        names = (query.function.name for query in queries)
        with placement._locked(placement.indices(names), False):
            try:
                response = placement._answer_batch(queries)
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                response = BatchLivenessResponse(error=api_error(exc))
            self._notify(request, response)
        return response

    def _compile_source(self, request: CompileSourceRequest) -> CompileSourceResponse:
        from repro.frontend.compile import compile_source

        try:
            module = compile_source(request.source, name=request.module_name)
        except ValueError as exc:
            # Lexer, parser, lowering and SSA-verification failures are all
            # ValueError subclasses with positioned messages.
            raise ProtocolError(ErrorCode.COMPILE_ERROR, str(exc)) from None
        holder: list[CompileSourceResponse] = []

        def observe_registered(handles: list[FunctionHandle]) -> None:
            response = CompileSourceResponse(functions=tuple(handles))
            holder.append(response)
            self._notify(request, response)

        try:
            self._placement.register_all(list(module), on_registered=observe_registered)
        except ValueError as exc:
            # Duplicate names (against the registry or within the module).
            raise ProtocolError(ErrorCode.DUPLICATE_FUNCTION, str(exc)) from None
        return holder[0]

    def _stats(self, request: StatsRequest) -> StatsResponse:
        """Whole-stack introspection: every part's metrics in one snapshot.

        Lock-free by design — each counter read is individually atomic,
        and a stats request must never queue behind (or stall) serving
        traffic.  Snapshot first, reset second: with ``reset=True`` the
        response reports exactly the interval the reset closes.  Parts
        with their own metrics (worker processes) appear relabelled
        ``worker=i``; the ``stats`` roll-up sums every part's counters.
        """
        merged = self.obs.snapshot()
        totals = dict.fromkeys(STAT_FIELDS, 0)
        for index, snapshot, stats in self._placement._stats_parts(request.reset):
            for section, values in (snapshot or {}).items():
                target = merged.setdefault(section, {})
                for key, value in values.items():
                    target[_relabel(key, worker=index)] = value
            for name in STAT_FIELDS:
                totals[name] += int(stats.get(name, 0))
        for section in ("counters", "gauges", "histograms"):
            merged[section] = dict(sorted(merged[section].items()))
        lookups = totals["hits"] + totals["misses"]
        stats = dict(totals)
        stats["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        if request.reset:
            self.obs.metrics.reset()
        return StatsResponse(snapshot=merged, stats=stats)


#: The request-type switch: type → (route, extra route arguments).
#: Single-function requests name their read/write mode and the
#: in-process handler (worker processes answer them across the pipe).
_ROUTES = {
    LiveSetRequest: (Router._single, (False, LocalPlacement._live_set)),
    DestructRequest: (Router._single, (True, LocalPlacement._destruct)),
    AllocateRequest: (Router._single, (True, LocalPlacement._allocate)),
    NotifyRequest: (Router._single, (True, LocalPlacement._notify_edit)),
    EvictRequest: (Router._single, (True, LocalPlacement._evict)),
    BatchLiveness: (Router._batch, ()),
    CompileSourceRequest: (Router._compile_source, ()),
    StatsRequest: (Router._stats, ()),
}


class CompilerClient(Router):
    """Typed request/response façade over the compiler-server stack.

    The serial placement: one :class:`LivenessService`, no locks.
    Thread-safety contract: a ``CompilerClient`` is **single-threaded**
    — concurrent callers go through
    :class:`repro.concurrent.client.ShardedClient`.
    """

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        capacity: int = DEFAULT_CAPACITY,
        obs: Observability | None = None,
    ) -> None:
        self._service = LivenessService(capacity=capacity, obs=obs)
        # One Observability shared with the service, so a StatsRequest
        # sees the whole stack.
        super().__init__(LocalPlacement([self._service]), self._service.obs)
        if module is not None:
            self._placement.register_all(list(module))

    dispatch = Router.dispatch

    @property
    def service(self) -> LivenessService:
        """The underlying service (stats, cache introspection, …)."""
        return self._service

    def handle(self, name: str) -> FunctionHandle:
        """A fresh handle for ``name`` at its current revision."""
        return self._service.handle(name)
