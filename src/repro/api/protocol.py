"""The typed, versioned request/response protocol of the compiler server.

One tagged union of request dataclasses covers everything the serving
stack can be asked to do — point liveness queries, multi-function
batches, whole live sets, out-of-SSA translation, register allocation
and front-end compilation — and every request type has a matching
response type carrying either a payload or a structured
:class:`~repro.api.errors.ApiError` (never a raw exception).

Every request and response encodes to JSON and decodes back **losslessly**
(``decode(encode(x)) == x``), so a service can be driven over a wire,
logged, and replayed; the envelope carries :data:`PROTOCOL_VERSION` and
decoding rejects envelopes from a different major version with an
``INVALID_REQUEST`` error instead of misinterpreting them.  Each message
declares the wire kind of its fields once (``@message(...)``, see
:mod:`repro.api.schema`); its JSON body and its bin2 body are both
compiled from that table, and JSON bodies are type-checked field by
field.

Functions are addressed by :class:`~repro.api.handles.FunctionHandle`;
variables and blocks travel by *name* (strings are what survives a wire,
and names are unique within a function).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Callable, Union

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.registry import FAST
from repro.api.schema import (
    BITS,
    BOOL,
    COMPILED_HANDLE,
    EDGE,
    ERROR,
    HANDLE,
    HANDLE_REF,
    INT_MAP,
    JSON_OBJECT,
    STR,
    SVARINT,
    TRISTATE,
    dumps_compact,  # re-exported: the wire layer imports it from here
    enum,
    message,
    nullable,
    opt,
    record,
    required,
    seq,
)
from repro.core.incremental import CfgDelta

#: Version stamped on (and required in) every envelope.
PROTOCOL_VERSION = 1

#: One shared decoder for the whole wire layer (``json.loads`` builds a
#: fresh ``JSONDecoder`` whenever non-default options are involved).
_JSON_DECODER = json.JSONDecoder()


@unique
class QueryKind(str, Enum):
    """Validated liveness query kind (was a bare ``"in"``/``"out"`` string).

    A ``str`` enum, so ``QueryKind.LIVE_IN == "in"`` — call sites (and one
    release's worth of callers) that still compare against or pass the old
    strings keep working; :meth:`coerce` is the single validation point
    that replaces the old silent acceptance of unknown kinds.
    """

    LIVE_IN = "in"
    LIVE_OUT = "out"

    @classmethod
    def coerce(cls, value: "QueryKind | str") -> "QueryKind":
        """Normalise a kind, accepting the legacy strings; fail loudly."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown query kind {value!r}; expected "
                f"{[k.value for k in cls]}"
            ) from None


def _coerce_handle(function: "FunctionHandle | str") -> FunctionHandle:
    if isinstance(function, FunctionHandle):
        return function
    return FunctionHandle(name=function)


@unique
class NotifyKind(str, Enum):
    """Which invalidation a :class:`NotifyRequest` routes (paper contract:
    CFG edits drop the precomputation, instruction edits only the plans)."""

    CFG = "cfg"
    INSTRUCTIONS = "instructions"

    @classmethod
    def coerce(cls, value: "NotifyKind | str") -> "NotifyKind":
        """Normalise a kind; fail loudly on anything unknown."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown notify kind {value!r}; expected "
                f"{[k.value for k in cls]}"
            ) from None


# ----------------------------------------------------------------------
# Field kinds of the protocol's own types (see repro.api.schema)
# ----------------------------------------------------------------------
QUERY_KIND = enum(QueryKind, "query kind")
NOTIFY_KIND = enum(NotifyKind, "notify kind")
#: A CFG edit over named blocks (string nodes: wire-safe).  Block names
#: are inlined rather than interned: edit deltas name blocks, not
#: functions, and the same block name rarely repeats across requests.
CFG_DELTA = record(CfgDelta, seq(EDGE), seq(EDGE), seq(STR), seq(STR))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@message(HANDLE_REF, QUERY_KIND, STR, STR)
@dataclass(frozen=True)
class LivenessQuery:
    """One live-in/live-out question about one variable at one block."""

    function: FunctionHandle
    kind: QueryKind
    variable: str
    block: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", QueryKind.coerce(self.kind))


@message(seq(LivenessQuery.wire))
@dataclass(frozen=True)
class BatchLiveness:
    """An ordered stream of liveness questions spanning any number of
    functions, answered in order in one round trip."""

    queries: tuple[LivenessQuery, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))


@message(HANDLE_REF, STR, QUERY_KIND)
@dataclass(frozen=True)
class LiveSetRequest:
    """The whole live-in (or live-out) set of one block, by variable name."""

    function: FunctionHandle
    block: str
    kind: QueryKind = QueryKind.LIVE_IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", QueryKind.coerce(self.kind))


@message(HANDLE_REF, STR, BOOL)
@dataclass(frozen=True)
class DestructRequest:
    """Translate one function out of SSA form, in place, server-side."""

    function: FunctionHandle
    engine: str = FAST
    verify: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@message(HANDLE_REF, opt(SVARINT), STR, BOOL)
@dataclass(frozen=True)
class AllocateRequest:
    """Run the register-allocation pipeline on one function."""

    function: FunctionHandle
    num_registers: int | None = None
    engine: str = FAST
    destruct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@message(HANDLE_REF, NOTIFY_KIND, opt(CFG_DELTA, omit_none=True))
@dataclass(frozen=True)
class NotifyRequest:
    """Route one edit notification (the paper's invalidation contract)
    through the wire: bumps the function's revision, so every outstanding
    handle goes stale — the response carries a fresh one.

    CFG notifications may carry a :class:`~repro.core.incremental.CfgDelta`
    describing the edit (blocks are names here, so the delta is wire-safe);
    the service then tries to patch the resident precomputation instead of
    discarding it.  ``delta`` is ignored for instruction notifications and
    optional everywhere — an absent delta is the historical full
    invalidation (and is left out of the JSON body).  A delta given as its
    JSON object is decoded on construction."""

    function: FunctionHandle
    kind: NotifyKind = NotifyKind.INSTRUCTIONS
    delta: "CfgDelta | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", NotifyKind.coerce(self.kind))
        if self.delta is not None and not isinstance(self.delta, CfgDelta):
            object.__setattr__(self, "delta", CFG_DELTA.from_json(self.delta))


@message(HANDLE_REF)
@dataclass(frozen=True)
class EvictRequest:
    """Drop one function's resident checker (cache geometry only).

    Eviction does **not** bump the revision — a rebuilt checker answers
    identically, so outstanding handles stay valid; the response's handle
    is at the same revision the request found.
    """

    function: FunctionHandle

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@message(STR, STR)
@dataclass(frozen=True)
class CompileSourceRequest:
    """Compile mini-language source text and register every function."""

    source: str
    module_name: str = "module"


@message(BOOL)
@dataclass(frozen=True)
class StatsRequest:
    """Fetch the serving stack's metrics snapshot over the wire.

    ``reset=True`` additionally zeroes the instruments after the
    snapshot is taken — the read-and-reset is the interval-scraping
    idiom, built on :meth:`repro.utils.AtomicCounter.reset`'s
    snapshot-consistent get-and-set.  Introspection only: a stats
    request never touches functions, caches, or revisions, so it is
    response-invariant for every *other* request by construction.
    """

    reset: bool = False


# ----------------------------------------------------------------------
# Response payload records
# ----------------------------------------------------------------------
@message(STR, *[SVARINT] * 11)
@dataclass(frozen=True)
class DestructStats:
    """Wire-safe summary of one out-of-SSA translation."""

    engine: str = ""
    critical_edges_split: int = 0
    phis_isolated: int = 0
    parallel_copies: int = 0
    pairs_inserted: int = 0
    pairs_coalesced: int = 0
    classes_merged: int = 0
    interference_tests: int = 0
    liveness_queries: int = 0
    copies_emitted: int = 0
    temps_inserted: int = 0
    phis_removed: int = 0

    @classmethod
    def from_report(cls, report) -> "DestructStats":
        """Project a :class:`~repro.ssadestruct.pipeline.DestructReport`."""
        return cls(
            engine=report.backend,
            critical_edges_split=report.critical_edges_split,
            phis_isolated=report.phis_isolated,
            parallel_copies=report.parallel_copies,
            pairs_inserted=report.pairs_inserted,
            pairs_coalesced=report.pairs_coalesced,
            classes_merged=report.classes_merged,
            interference_tests=report.interference_tests,
            liveness_queries=report.liveness_queries,
            copies_emitted=report.copies_emitted,
            temps_inserted=report.temps_inserted,
            phis_removed=report.phis_removed,
        )


# Every key is required in the JSON body, defaults notwithstanding.
@message(*map(required, (INT_MAP, INT_MAP, SVARINT, SVARINT, SVARINT, seq(STR), BOOL)))
@dataclass(frozen=True)
class AllocationSummary:
    """Wire-safe summary of one register allocation, keyed by name."""

    #: Variable name → register number.
    registers: dict[str, int] = field(default_factory=dict)
    #: Spilled variable name → spill slot.
    spill_slots: dict[str, int] = field(default_factory=dict)
    registers_used: int = 0
    max_live: int = 0
    max_live_before_spill: int = 0
    #: Spilled variable names, in eviction order.
    spilled: tuple[str, ...] = ()
    reconstructed_ssa: bool = False

    @classmethod
    def from_allocation(cls, allocation) -> "AllocationSummary":
        """Project a :class:`~repro.regalloc.allocator.Allocation`."""
        return cls(
            registers={
                var.name: reg for var, reg in allocation.register_of.items()
            },
            spill_slots={
                var.name: slot
                for var, slot in allocation.spill_slot_of.items()
            },
            registers_used=allocation.registers_used,
            max_live=allocation.max_live,
            max_live_before_spill=allocation.max_live_before_spill,
            spilled=tuple(var.name for var in allocation.spilled),
            reconstructed_ssa=allocation.reconstructed_ssa,
        )


# ----------------------------------------------------------------------
# Responses — one per request type; payload XOR error
# ----------------------------------------------------------------------
@message(required(TRISTATE), ERROR)
@dataclass(frozen=True)
class LivenessResponse:
    """Answer to one :class:`LivenessQuery`."""

    value: bool | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(BITS), ERROR)
@dataclass(frozen=True)
class BatchLivenessResponse:
    """Answers to a :class:`BatchLiveness` stream, in request order."""

    values: tuple[bool, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(seq(STR)), ERROR)
@dataclass(frozen=True)
class LiveSetResponse:
    """The requested block's live set, as sorted variable names."""

    variables: tuple[str, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.variables is not None:
            object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(HANDLE), nullable(DestructStats.wire), ERROR)
@dataclass(frozen=True)
class DestructResponse:
    """Outcome of a :class:`DestructRequest`."""

    #: Handle at the function's *new* revision (the pass edits it).
    function: FunctionHandle | None = None
    stats: DestructStats | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(HANDLE), nullable(AllocationSummary.wire), ERROR)
@dataclass(frozen=True)
class AllocateResponse:
    """Outcome of an :class:`AllocateRequest`."""

    #: Handle at the function's *new* revision (allocation edits it).
    function: FunctionHandle | None = None
    allocation: AllocationSummary | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(HANDLE), ERROR)
@dataclass(frozen=True)
class NotifyResponse:
    """Outcome of a :class:`NotifyRequest`."""

    #: Handle at the function's *new* (bumped) revision.
    function: FunctionHandle | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(HANDLE), ERROR)
@dataclass(frozen=True)
class EvictResponse:
    """Outcome of an :class:`EvictRequest`.

    Deliberately does *not* say whether a checker was actually resident:
    cache geometry is unobservable through the protocol.  Residency at
    any instant depends on how concurrent readers' LRU touches happened
    to interleave, so reporting it would make responses diverge from
    their serial replay — the one thing the concurrent serving layer
    guarantees never happens.  (The same reasoning is why eviction does
    not bump revisions: a rebuilt checker answers identically.)
    """

    #: Handle at the function's *unchanged* revision (eviction never bumps).
    function: FunctionHandle | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(nullable(seq(COMPILED_HANDLE)), ERROR)
@dataclass(frozen=True)
class CompileSourceResponse:
    """Handles for every function a :class:`CompileSourceRequest` produced."""

    functions: tuple[FunctionHandle, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.functions is not None:
            object.__setattr__(self, "functions", tuple(self.functions))

    @property
    def ok(self) -> bool:
        return self.error is None


# Metrics snapshots are irregular nested dicts; in bin2 they ride as
# compact JSON blobs (still smaller than the JSON envelope, which pays the
# same text plus the envelope around it).
@message(nullable(JSON_OBJECT), opt(JSON_OBJECT), ERROR)
@dataclass(frozen=True)
class StatsResponse:
    """A canonical JSON metrics snapshot (see ``MetricsRegistry.snapshot``).

    ``snapshot`` is plain JSON data — key-sorted maps of counters,
    gauges and histograms — so it survives any number of wire hops
    losslessly; ``stats`` carries the service-level counter dict
    (per-shard hits/misses/evictions) for servers that expose one.
    """

    snapshot: dict | None = None
    stats: dict | None = None
    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@message(ERROR)
@dataclass(frozen=True)
class ErrorResponse:
    """Fallback response for requests that could not even be decoded.

    When a wire payload is malformed there is no request type to pick the
    matching response from; :meth:`repro.api.client.CompilerClient.dispatch_json`
    answers with one of these instead of raising across the boundary.
    """

    error: ApiError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: The request union, for type hints and isinstance dispatch.
Request = Union[
    LivenessQuery,
    BatchLiveness,
    LiveSetRequest,
    DestructRequest,
    AllocateRequest,
    NotifyRequest,
    EvictRequest,
    CompileSourceRequest,
    StatsRequest,
]

#: The response union.
Response = Union[
    LivenessResponse,
    BatchLivenessResponse,
    LiveSetResponse,
    DestructResponse,
    AllocateResponse,
    NotifyResponse,
    EvictResponse,
    CompileSourceResponse,
    StatsResponse,
]

#: The one message list: ``(tag, bin2 opcode, request class, response
#: class)``.  The JSON envelope carries the tag; a bin2 frame carries the
#: opcode, with ``0x80`` set on responses.  ``error`` is the response to
#: a request that could not be decoded at all.
MESSAGES: tuple[tuple[str, int, type | None, type], ...] = (
    ("liveness_query", 0x01, LivenessQuery, LivenessResponse),
    ("batch_liveness", 0x02, BatchLiveness, BatchLivenessResponse),
    ("live_set", 0x03, LiveSetRequest, LiveSetResponse),
    ("destruct", 0x04, DestructRequest, DestructResponse),
    ("allocate", 0x05, AllocateRequest, AllocateResponse),
    ("notify", 0x06, NotifyRequest, NotifyResponse),
    ("evict", 0x07, EvictRequest, EvictResponse),
    ("compile_source", 0x08, CompileSourceRequest, CompileSourceResponse),
    ("stats", 0x09, StatsRequest, StatsResponse),
    ("error", 0xFF, None, ErrorResponse),
)

#: Wire tag ↔ request class.
REQUEST_TYPES: dict[str, type] = {
    tag: request for tag, _op, request, _response in MESSAGES if request
}

#: Wire tag ↔ response class.
RESPONSE_TYPES: dict[str, type] = {
    tag: response for tag, _op, _request, response in MESSAGES
}

#: Request class → matching response class (the dispatcher's error path).
RESPONSE_FOR: dict[type, type] = {
    request: response for _tag, _op, request, response in MESSAGES if request
}

_TAG_OF: dict[type, str] = {
    cls: tag for types in (REQUEST_TYPES, RESPONSE_TYPES) for tag, cls in types.items()
}

#: tag → bound ``from_json`` decoder, built once at import so the wire
#: hot path does a single dict probe per message instead of a class
#: lookup plus attribute fetch (the dispatch-overhead bench guard in
#: ``bench/table_service.py --smoke`` is what holds this layer honest).
_REQUEST_DECODERS: dict[str, Callable] = {
    tag: cls.from_json for tag, cls in REQUEST_TYPES.items()
}
_RESPONSE_DECODERS: dict[str, Callable] = {
    tag: cls.from_json for tag, cls in RESPONSE_TYPES.items()
}


def _encode(message, expected: dict[str, type]) -> dict:
    tag = _TAG_OF.get(type(message))
    if tag is None or expected.get(tag) is not type(message):
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"cannot encode {type(message).__name__} here",
        )
    return {"api": PROTOCOL_VERSION, "type": tag, "body": message.to_json()}


def _decode(payload, decoders: dict[str, Callable]):
    if isinstance(payload, (str, bytes)):
        if isinstance(payload, bytes):
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, f"envelope is not JSON: {exc}"
                ) from None
        try:
            payload = _JSON_DECODER.decode(payload)
        except ValueError as exc:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"envelope is not JSON: {exc}"
            ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "envelope must be an object")
    version = payload.get("api")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"protocol version mismatch: got {version!r}, "
            f"this server speaks {PROTOCOL_VERSION}",
        )
    tag = payload.get("type")
    decoder = decoders.get(tag)
    if decoder is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown message type {tag!r}"
        )
    try:
        return decoder(payload["body"])
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"malformed {tag} body: {exc}"
        ) from None


def encode_request(request: Request) -> dict:
    """Versioned JSON-ready envelope for ``request``."""
    return _encode(request, REQUEST_TYPES)


def decode_request(payload) -> Request:
    """Inverse of :func:`encode_request`; accepts a dict or a JSON string."""
    return _decode(payload, _REQUEST_DECODERS)


def encode_response(response: Response) -> dict:
    """Versioned JSON-ready envelope for ``response``."""
    return _encode(response, RESPONSE_TYPES)


def decode_response(payload) -> Response:
    """Inverse of :func:`encode_response`; accepts a dict or a JSON string."""
    return _decode(payload, _RESPONSE_DECODERS)


# ----------------------------------------------------------------------
# Trace context — optional envelope sidecar, version-safe by design
# ----------------------------------------------------------------------
#: Envelope key carrying the optional trace context.  Decoding reads the
#: envelope's ``api``/``type``/``body`` and ignores everything else, so
#: old servers drop the key silently and old payloads (which simply lack
#: it) keep decoding — no protocol version bump needed.
TRACE_KEY = "trace"


def attach_trace(envelope: dict, trace_id: str, parent_span: str | None = None) -> dict:
    """Stamp a request envelope with a trace context; returns the envelope.

    A traced caller sets ``trace_id`` (and optionally the id of the span
    the request is issued under) so the server's timing tree can be tied
    back to the client's.
    """
    context: dict = {"trace_id": str(trace_id)}
    if parent_span is not None:
        context["parent_span"] = str(parent_span)
    envelope[TRACE_KEY] = context
    return envelope


def trace_context(payload) -> tuple[str | None, str | None]:
    """Leniently extract ``(trace_id, parent_span)`` from a wire payload.

    Observability must never fail a request: any payload — garbage text,
    a non-object, a mistyped trace field — yields ``(None, None)``
    rather than an exception, leaving the normal decode path to produce
    its structured error.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except (ValueError, TypeError):
            return (None, None)
    if not isinstance(payload, dict):
        return (None, None)
    context = payload.get(TRACE_KEY)
    if not isinstance(context, dict):
        return (None, None)
    trace_id = context.get("trace_id")
    parent_span = context.get("parent_span")
    return (
        trace_id if isinstance(trace_id, str) and trace_id else None,
        parent_span if isinstance(parent_span, str) and parent_span else None,
    )
