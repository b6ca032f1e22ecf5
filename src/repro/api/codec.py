"""Pluggable wire codecs: canonical JSON beside a binary v2 encoding.

Table C showed the serving stack spending ~15-25x the kernel's own query
time on JSON envelopes; this module is the direct attack.  Two codecs
are registered:

``json`` (:data:`CODEC_JSON`)
    The canonical envelope of :mod:`repro.api.protocol`, serialized as
    compact UTF-8 text.  Unchanged semantics, still the debug/compat
    default — a pre-codec client keeps working against a binary-capable
    server without knowing this module exists.

``bin2`` (:data:`CODEC_BIN2`)
    A length-prefixed binary encoding.  Every message is one frame::

        len(u32 little-endian) | payload

        payload = magic(0xB2) version(u8) opcode(u8) string-defs body

    so a stream reader takes exact-size chunks instead of scanning for
    JSON boundaries.  Hot integer fields are struct-packed: request tags
    are one-byte opcodes, revisions and counts are varints (zigzag for
    signed values), batch answers travel as packed bitsets.  Function
    names are **interned per connection**: the first frame that mentions
    a name carries ``(ref, name)`` in its string-definitions block, and
    every later frame sends just the integer ref.  The table is reset by
    the JSON ``hello`` handshake, so a reconnecting client (which starts
    a fresh :class:`StringInterner`) can never alias a stale ref.

Negotiation rides the existing versioned JSON envelope: the client sends
``{"api": 1, "type": "hello", "codecs": [...]}`` as text; a
binary-capable server answers with its pick, an older server rejects the
unknown ``hello`` type with a structured error — which the client treats
as "speak JSON".  Unknown codec names likewise fall back to JSON rather
than erroring; see :func:`negotiate_codec`.

Cache geometry stays unobservable in both encodings by construction:
the binary encoders are type-by-type projections of exactly the fields
``to_json`` exposes, so nothing about eviction, LRU order or checker
residency can leak through one codec that the other hides.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Sequence

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
    PROTOCOL_VERSION,
    QueryKind,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    decode_response,
    dumps_compact,
    encode_request,
    encode_response,
)

#: Registered codec names (the negotiation currency).
CODEC_JSON = "json"
CODEC_BIN2 = "bin2"

#: Envelope type of the negotiation handshake (JSON in both directions).
HELLO_TYPE = "hello"

#: First payload byte of every bin2 frame; no JSON text can reproduce it
#: in a position where the length prefix also matches (see is_bin2_frame).
BIN2_MAGIC = 0xB2

#: Upper bound on one frame's payload, a garbage-length guard.
MAX_FRAME = 16 * 1024 * 1024

_FRAME_HEADER = struct.Struct("<I")

# Request opcodes (one byte on the wire); responses are OP | 0x80 and
# the decode-failure fallback response is OP_ERROR_RESPONSE.
OP_LIVENESS_QUERY = 0x01
OP_BATCH_LIVENESS = 0x02
OP_LIVE_SET = 0x03
OP_DESTRUCT = 0x04
OP_ALLOCATE = 0x05
OP_NOTIFY = 0x06
OP_EVICT = 0x07
OP_COMPILE_SOURCE = 0x08
OP_STATS = 0x09
RESPONSE_BIT = 0x80
OP_ERROR_RESPONSE = 0xFF


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def _w_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _w_svarint(out: bytearray, value: int) -> None:
    # Zigzag, arbitrary precision: small magnitudes of either sign stay
    # one byte.
    _w_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _w_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _w_uvarint(out, len(raw))
    out += raw


def _truncated() -> ProtocolError:
    return ProtocolError(ErrorCode.INVALID_REQUEST, "truncated binary frame")


class _Reader:
    """Cursor over one frame's bytes; every read is bounds-checked."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data)

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise _truncated()
        self.pos = pos + 1
        return self.data[pos]

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        end = self.end
        if pos < end and data[pos] < 0x80:
            # One-byte varints (values below 128) are the common case.
            self.pos = pos + 1
            return data[pos]
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise _truncated()
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, "varint exceeds 64 bits"
                )
        self.pos = pos
        return result

    def svarint(self) -> int:
        zig = self.uvarint()
        return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1)

    def take(self, count: int) -> bytes:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise _truncated()
        self.pos = stop
        return self.data[pos:stop]

    def str_(self) -> str:
        raw = self.take(self.uvarint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"invalid UTF-8 in string: {exc}"
            ) from None

    def blob(self) -> bytes:
        return self.take(self.uvarint())

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"{self.end - self.pos} trailing bytes after message body",
            )


# The persist layer (:mod:`repro.persist`) frames its on-disk snapshot
# and WAL records with the same varint/string conventions as wire
# frames; these public aliases are its sanctioned entry points into the
# primitives above (the underscored names stay private to this module).
Reader = _Reader
write_uvarint = _w_uvarint
write_svarint = _w_svarint
write_str = _w_str


# ----------------------------------------------------------------------
# Per-connection string interning
# ----------------------------------------------------------------------
class StringInterner:
    """Encode side of the send-once string table (one per connection).

    The first :meth:`ref` for a string assigns the next id and appends
    ``(id, string)`` to the frame's definitions; later refs are just the
    id.  A definition is considered delivered once its frame has been
    handed to the transport, so an interner must live exactly as long as
    one connection — reconnecting means a fresh interner *and* a fresh
    ``hello`` (which resets the server's table).
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def ref(self, text: str, defs: list[tuple[int, str]]) -> int:
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self._ids)
            self._ids[text] = ident
            defs.append((ident, text))
        return ident

    def reset(self) -> None:
        self._ids.clear()

    def __len__(self) -> int:
        return len(self._ids)


class StringTable:
    """Decode side: refs defined by earlier frames of the connection.

    Append-only between resets, so a body may be decoded *after* later
    frames' definitions were ingested (the worker-pool case) — existing
    refs never change meaning mid-connection.
    """

    __slots__ = ("_strings",)

    def __init__(self) -> None:
        self._strings: dict[int, str] = {}

    def define(self, ident: int, text: str) -> None:
        known = self._strings.get(ident)
        if known is not None and known != text:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"string ref {ident} redefined ({known!r} -> {text!r})",
            )
        self._strings[ident] = text

    def lookup(self, ident: int) -> str:
        text = self._strings.get(ident)
        if text is None:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST,
                f"undefined string ref {ident} (table was reset?)",
            )
        return text

    def reset(self) -> None:
        self._strings.clear()

    def __len__(self) -> int:
        return len(self._strings)


# ----------------------------------------------------------------------
# Shared field encodings
# ----------------------------------------------------------------------
_KIND_CODE = {QueryKind.LIVE_IN: 0, QueryKind.LIVE_OUT: 1}
_KIND_OF = (QueryKind.LIVE_IN, QueryKind.LIVE_OUT)
_NOTIFY_CODE = {NotifyKind.CFG: 0, NotifyKind.INSTRUCTIONS: 1}
_NOTIFY_OF = (NotifyKind.CFG, NotifyKind.INSTRUCTIONS)


def _dec_kind(r: _Reader) -> QueryKind:
    code = r.u8()
    if code > 1:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown query kind code {code}"
        )
    return _KIND_OF[code]


def _enc_handle_ref(
    handle: FunctionHandle,
    out: bytearray,
    interner: StringInterner,
    defs: list[tuple[int, str]],
) -> None:
    # Requests intern the function name; responses (decoded out of order
    # under a worker pool) always inline theirs.
    _w_uvarint(out, interner.ref(handle.name, defs))
    revision = handle.revision
    if revision is None:
        out.append(0)
    else:
        out.append(1)
        _w_svarint(out, revision)


def _dec_handle_ref(r: _Reader, table: StringTable) -> FunctionHandle:
    name = table.lookup(r.uvarint())
    if r.u8():
        return FunctionHandle(name=name, revision=r.svarint())
    return FunctionHandle(name=name)


def _enc_handle_inline(handle: FunctionHandle | None, out: bytearray) -> None:
    if handle is None:
        out.append(0)
        return
    out.append(1)
    _w_str(out, handle.name)
    revision = handle.revision
    if revision is None:
        out.append(0)
    else:
        out.append(1)
        _w_svarint(out, revision)


def _dec_handle_inline(r: _Reader) -> FunctionHandle | None:
    if not r.u8():
        return None
    name = r.str_()
    if r.u8():
        return FunctionHandle(name=name, revision=r.svarint())
    return FunctionHandle(name=name)


def _enc_error(error: ApiError | None, out: bytearray) -> None:
    if error is None:
        out.append(0)
        return
    out.append(1)
    _w_str(out, error.code.value)
    _w_str(out, error.detail)


def _dec_error(r: _Reader) -> ApiError | None:
    if not r.u8():
        return None
    code = r.str_()
    detail = r.str_()
    return ApiError(code=ErrorCode(code), detail=detail)


def _enc_bool(value: bool, out: bytearray) -> None:
    out.append(1 if value else 0)


def _dec_bool(r: _Reader) -> bool:
    code = r.u8()
    if code > 1:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown boolean code {code}"
        )
    return code == 1


def _w_json_blob(out: bytearray, obj) -> None:
    if obj is None:
        out.append(0)
        return
    out.append(1)
    raw = dumps_compact(obj).encode("utf-8")
    _w_uvarint(out, len(raw))
    out += raw


def _r_json_blob(r: _Reader):
    if not r.u8():
        return None
    raw = r.blob()
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"malformed embedded JSON blob: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Request bodies
# ----------------------------------------------------------------------
def _enc_query_fields(query: LivenessQuery, out, interner, defs) -> None:
    _enc_handle_ref(query.function, out, interner, defs)
    out.append(_KIND_CODE[query.kind])
    _w_str(out, query.variable)
    _w_str(out, query.block)


def _dec_query_fields(r: _Reader, table: StringTable) -> LivenessQuery:
    handle = _dec_handle_ref(r, table)
    kind = _dec_kind(r)
    return LivenessQuery(
        function=handle, kind=kind, variable=r.str_(), block=r.str_()
    )


def _enc_batch(msg: BatchLiveness, out, interner, defs) -> None:
    _w_uvarint(out, len(msg.queries))
    for query in msg.queries:
        _enc_query_fields(query, out, interner, defs)


def _dec_batch(r: _Reader, table: StringTable) -> BatchLiveness:
    count = r.uvarint()
    return BatchLiveness(
        queries=tuple(_dec_query_fields(r, table) for _ in range(count))
    )


def _enc_live_set(msg: LiveSetRequest, out, interner, defs) -> None:
    _enc_handle_ref(msg.function, out, interner, defs)
    _w_str(out, msg.block)
    out.append(_KIND_CODE[msg.kind])


def _dec_live_set(r: _Reader, table: StringTable) -> LiveSetRequest:
    handle = _dec_handle_ref(r, table)
    block = r.str_()
    return LiveSetRequest(function=handle, block=block, kind=_dec_kind(r))


def _enc_destruct(msg: DestructRequest, out, interner, defs) -> None:
    _enc_handle_ref(msg.function, out, interner, defs)
    _w_str(out, msg.engine)
    _enc_bool(msg.verify, out)


def _dec_destruct(r: _Reader, table: StringTable) -> DestructRequest:
    return DestructRequest(
        function=_dec_handle_ref(r, table),
        engine=r.str_(),
        verify=_dec_bool(r),
    )


def _enc_allocate(msg: AllocateRequest, out, interner, defs) -> None:
    _enc_handle_ref(msg.function, out, interner, defs)
    if msg.num_registers is None:
        out.append(0)
    else:
        out.append(1)
        _w_svarint(out, msg.num_registers)
    _w_str(out, msg.engine)
    _enc_bool(msg.destruct, out)


def _dec_allocate(r: _Reader, table: StringTable) -> AllocateRequest:
    handle = _dec_handle_ref(r, table)
    num_registers = r.svarint() if r.u8() else None
    return AllocateRequest(
        function=handle,
        num_registers=num_registers,
        engine=r.str_(),
        destruct=_dec_bool(r),
    )


def _enc_notify(msg: NotifyRequest, out, interner, defs) -> None:
    _enc_handle_ref(msg.function, out, interner, defs)
    out.append(_NOTIFY_CODE[msg.kind])
    # A presence byte, then (when present) the delta's four block-name
    # lists, each uvarint-counted.  Block names are inlined rather than
    # interned: edit deltas name blocks, not functions, and the same
    # block name rarely repeats across requests.
    delta = msg.delta
    if delta is None:
        out.append(0)
        return
    out.append(1)
    for edges in (delta.added_edges, delta.removed_edges):
        _w_uvarint(out, len(edges))
        for source, target in edges:
            _w_str(out, source)
            _w_str(out, target)
    for blocks in (delta.added_blocks, delta.removed_blocks):
        _w_uvarint(out, len(blocks))
        for block in blocks:
            _w_str(out, block)


def _dec_notify(r: _Reader, table: StringTable) -> NotifyRequest:
    from repro.core.incremental import CfgDelta

    handle = _dec_handle_ref(r, table)
    code = r.u8()
    if code > 1:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown notify kind code {code}"
        )
    delta = None
    if r.u8():
        edge_lists = [
            [(r.str_(), r.str_()) for _ in range(r.uvarint())] for _ in range(2)
        ]
        block_lists = [
            [r.str_() for _ in range(r.uvarint())] for _ in range(2)
        ]
        delta = CfgDelta(
            added_edges=edge_lists[0],
            removed_edges=edge_lists[1],
            added_blocks=block_lists[0],
            removed_blocks=block_lists[1],
        )
    return NotifyRequest(function=handle, kind=_NOTIFY_OF[code], delta=delta)


def _enc_evict(msg: EvictRequest, out, interner, defs) -> None:
    _enc_handle_ref(msg.function, out, interner, defs)


def _dec_evict(r: _Reader, table: StringTable) -> EvictRequest:
    return EvictRequest(function=_dec_handle_ref(r, table))


def _enc_compile_source(msg: CompileSourceRequest, out, interner, defs) -> None:
    _w_str(out, msg.source)
    _w_str(out, msg.module_name)


def _dec_compile_source(r: _Reader, table: StringTable) -> CompileSourceRequest:
    return CompileSourceRequest(source=r.str_(), module_name=r.str_())


def _enc_stats_req(msg: StatsRequest, out, interner, defs) -> None:
    _enc_bool(msg.reset, out)


def _dec_stats_req(r: _Reader, table: StringTable) -> StatsRequest:
    return StatsRequest(reset=_dec_bool(r))


# ----------------------------------------------------------------------
# Response bodies
# ----------------------------------------------------------------------
def _enc_liveness_resp(msg: LivenessResponse, out) -> None:
    value = msg.value
    if value is None:
        out.append(2)
    elif value is True:
        out.append(1)
    elif value is False:
        out.append(0)
    else:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"cannot binary-encode liveness value {value!r}",
        )
    _enc_error(msg.error, out)


def _dec_liveness_resp(r: _Reader) -> LivenessResponse:
    code = r.u8()
    if code > 2:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown liveness value code {code}"
        )
    value = (False, True, None)[code]
    return LivenessResponse(value=value, error=_dec_error(r))


def _enc_batch_resp(msg: BatchLivenessResponse, out) -> None:
    values = msg.values
    if values is None:
        out.append(0)
    else:
        out.append(1)
        count = len(values)
        _w_uvarint(out, count)
        bits = bytearray((count + 7) >> 3)
        for index, value in enumerate(values):
            if value:
                bits[index >> 3] |= 1 << (index & 7)
        out += bits
    _enc_error(msg.error, out)


def _dec_batch_resp(r: _Reader) -> BatchLivenessResponse:
    values: tuple[bool, ...] | None = None
    if r.u8():
        count = r.uvarint()
        bits = r.take((count + 7) >> 3)
        values = tuple(
            bool(bits[index >> 3] & (1 << (index & 7))) for index in range(count)
        )
    return BatchLivenessResponse(values=values, error=_dec_error(r))


def _enc_live_set_resp(msg: LiveSetResponse, out) -> None:
    if msg.variables is None:
        out.append(0)
    else:
        out.append(1)
        _w_uvarint(out, len(msg.variables))
        for name in msg.variables:
            _w_str(out, name)
    _enc_error(msg.error, out)


def _dec_live_set_resp(r: _Reader) -> LiveSetResponse:
    variables: tuple[str, ...] | None = None
    if r.u8():
        variables = tuple(r.str_() for _ in range(r.uvarint()))
    return LiveSetResponse(variables=variables, error=_dec_error(r))


#: DestructStats integer fields, in wire order (engine travels first).
_DESTRUCT_FIELDS = (
    "critical_edges_split",
    "phis_isolated",
    "parallel_copies",
    "pairs_inserted",
    "pairs_coalesced",
    "classes_merged",
    "interference_tests",
    "liveness_queries",
    "copies_emitted",
    "temps_inserted",
    "phis_removed",
)


def _enc_destruct_resp(msg: DestructResponse, out) -> None:
    _enc_handle_inline(msg.function, out)
    stats = msg.stats
    if stats is None:
        out.append(0)
    else:
        out.append(1)
        _w_str(out, stats.engine)
        for field in _DESTRUCT_FIELDS:
            _w_svarint(out, getattr(stats, field))
    _enc_error(msg.error, out)


def _dec_destruct_resp(r: _Reader) -> DestructResponse:
    handle = _dec_handle_inline(r)
    stats = None
    if r.u8():
        engine = r.str_()
        values = {field: r.svarint() for field in _DESTRUCT_FIELDS}
        stats = DestructStats(engine=engine, **values)
    return DestructResponse(function=handle, stats=stats, error=_dec_error(r))


def _enc_allocate_resp(msg: AllocateResponse, out) -> None:
    _enc_handle_inline(msg.function, out)
    allocation = msg.allocation
    if allocation is None:
        out.append(0)
    else:
        out.append(1)
        _w_uvarint(out, len(allocation.registers))
        for name, register in allocation.registers.items():
            _w_str(out, name)
            _w_svarint(out, register)
        _w_uvarint(out, len(allocation.spill_slots))
        for name, slot in allocation.spill_slots.items():
            _w_str(out, name)
            _w_svarint(out, slot)
        _w_svarint(out, allocation.registers_used)
        _w_svarint(out, allocation.max_live)
        _w_svarint(out, allocation.max_live_before_spill)
        _w_uvarint(out, len(allocation.spilled))
        for name in allocation.spilled:
            _w_str(out, name)
        _enc_bool(allocation.reconstructed_ssa, out)
    _enc_error(msg.error, out)


def _dec_allocate_resp(r: _Reader) -> AllocateResponse:
    handle = _dec_handle_inline(r)
    allocation = None
    if r.u8():
        registers = {r.str_(): r.svarint() for _ in range(r.uvarint())}
        spill_slots = {r.str_(): r.svarint() for _ in range(r.uvarint())}
        registers_used = r.svarint()
        max_live = r.svarint()
        max_live_before_spill = r.svarint()
        spilled = tuple(r.str_() for _ in range(r.uvarint()))
        allocation = AllocationSummary(
            registers=registers,
            spill_slots=spill_slots,
            registers_used=registers_used,
            max_live=max_live,
            max_live_before_spill=max_live_before_spill,
            spilled=spilled,
            reconstructed_ssa=_dec_bool(r),
        )
    return AllocateResponse(
        function=handle, allocation=allocation, error=_dec_error(r)
    )


def _enc_handle_only_resp(msg, out) -> None:
    _enc_handle_inline(msg.function, out)
    _enc_error(msg.error, out)


def _dec_notify_resp(r: _Reader) -> NotifyResponse:
    return NotifyResponse(function=_dec_handle_inline(r), error=_dec_error(r))


def _dec_evict_resp(r: _Reader) -> EvictResponse:
    return EvictResponse(function=_dec_handle_inline(r), error=_dec_error(r))


def _enc_compile_resp(msg: CompileSourceResponse, out) -> None:
    if msg.functions is None:
        out.append(0)
    else:
        out.append(1)
        _w_uvarint(out, len(msg.functions))
        for handle in msg.functions:
            _enc_handle_inline(handle, out)
    _enc_error(msg.error, out)


def _dec_compile_resp(r: _Reader) -> CompileSourceResponse:
    functions: tuple[FunctionHandle, ...] | None = None
    if r.u8():
        count = r.uvarint()
        handles = []
        for _ in range(count):
            handle = _dec_handle_inline(r)
            if handle is None:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, "null handle in compile response"
                )
            handles.append(handle)
        functions = tuple(handles)
    return CompileSourceResponse(functions=functions, error=_dec_error(r))


def _enc_stats_resp(msg: StatsResponse, out) -> None:
    # Metrics snapshots are irregular nested dicts; they ride as compact
    # JSON blobs inside the binary frame (still smaller than the JSON
    # envelope, which pays the same blob plus the envelope around it).
    _w_json_blob(out, msg.snapshot)
    _w_json_blob(out, msg.stats)
    _enc_error(msg.error, out)


def _dec_stats_resp(r: _Reader) -> StatsResponse:
    return StatsResponse(
        snapshot=_r_json_blob(r), stats=_r_json_blob(r), error=_dec_error(r)
    )


def _enc_error_resp(msg: ErrorResponse, out) -> None:
    _enc_error(msg.error, out)


def _dec_error_resp(r: _Reader) -> ErrorResponse:
    return ErrorResponse(error=_dec_error(r))


# ----------------------------------------------------------------------
# Dispatch tables (built once at import, like the JSON tag tables)
# ----------------------------------------------------------------------
_BIN2_REQUEST_ENCODERS: dict[type, tuple[int, Callable]] = {
    LivenessQuery: (OP_LIVENESS_QUERY, _enc_query_fields),
    BatchLiveness: (OP_BATCH_LIVENESS, _enc_batch),
    LiveSetRequest: (OP_LIVE_SET, _enc_live_set),
    DestructRequest: (OP_DESTRUCT, _enc_destruct),
    AllocateRequest: (OP_ALLOCATE, _enc_allocate),
    NotifyRequest: (OP_NOTIFY, _enc_notify),
    EvictRequest: (OP_EVICT, _enc_evict),
    CompileSourceRequest: (OP_COMPILE_SOURCE, _enc_compile_source),
    StatsRequest: (OP_STATS, _enc_stats_req),
}

_BIN2_REQUEST_DECODERS: dict[int, Callable] = {
    OP_LIVENESS_QUERY: _dec_query_fields,
    OP_BATCH_LIVENESS: _dec_batch,
    OP_LIVE_SET: _dec_live_set,
    OP_DESTRUCT: _dec_destruct,
    OP_ALLOCATE: _dec_allocate,
    OP_NOTIFY: _dec_notify,
    OP_EVICT: _dec_evict,
    OP_COMPILE_SOURCE: _dec_compile_source,
    OP_STATS: _dec_stats_req,
}

_BIN2_RESPONSE_ENCODERS: dict[type, tuple[int, Callable]] = {
    LivenessResponse: (OP_LIVENESS_QUERY | RESPONSE_BIT, _enc_liveness_resp),
    BatchLivenessResponse: (OP_BATCH_LIVENESS | RESPONSE_BIT, _enc_batch_resp),
    LiveSetResponse: (OP_LIVE_SET | RESPONSE_BIT, _enc_live_set_resp),
    DestructResponse: (OP_DESTRUCT | RESPONSE_BIT, _enc_destruct_resp),
    AllocateResponse: (OP_ALLOCATE | RESPONSE_BIT, _enc_allocate_resp),
    NotifyResponse: (OP_NOTIFY | RESPONSE_BIT, _enc_handle_only_resp),
    EvictResponse: (OP_EVICT | RESPONSE_BIT, _enc_handle_only_resp),
    CompileSourceResponse: (OP_COMPILE_SOURCE | RESPONSE_BIT, _enc_compile_resp),
    StatsResponse: (OP_STATS | RESPONSE_BIT, _enc_stats_resp),
    ErrorResponse: (OP_ERROR_RESPONSE, _enc_error_resp),
}

_BIN2_RESPONSE_DECODERS: dict[int, Callable] = {
    OP_LIVENESS_QUERY | RESPONSE_BIT: _dec_liveness_resp,
    OP_BATCH_LIVENESS | RESPONSE_BIT: _dec_batch_resp,
    OP_LIVE_SET | RESPONSE_BIT: _dec_live_set_resp,
    OP_DESTRUCT | RESPONSE_BIT: _dec_destruct_resp,
    OP_ALLOCATE | RESPONSE_BIT: _dec_allocate_resp,
    OP_NOTIFY | RESPONSE_BIT: _dec_notify_resp,
    OP_EVICT | RESPONSE_BIT: _dec_evict_resp,
    OP_COMPILE_SOURCE | RESPONSE_BIT: _dec_compile_resp,
    OP_STATS | RESPONSE_BIT: _dec_stats_resp,
    OP_ERROR_RESPONSE: _dec_error_resp,
}

#: opcode → the JSON wire tag of the same message (for slow-request
#: reports and error details).
TAG_BY_OPCODE: dict[int, str] = {
    OP_LIVENESS_QUERY: "liveness_query",
    OP_BATCH_LIVENESS: "batch_liveness",
    OP_LIVE_SET: "live_set",
    OP_DESTRUCT: "destruct",
    OP_ALLOCATE: "allocate",
    OP_NOTIFY: "notify",
    OP_EVICT: "evict",
    OP_COMPILE_SOURCE: "compile_source",
    OP_STATS: "stats",
    OP_LIVENESS_QUERY | RESPONSE_BIT: "liveness_query",
    OP_BATCH_LIVENESS | RESPONSE_BIT: "batch_liveness",
    OP_LIVE_SET | RESPONSE_BIT: "live_set",
    OP_DESTRUCT | RESPONSE_BIT: "destruct",
    OP_ALLOCATE | RESPONSE_BIT: "allocate",
    OP_NOTIFY | RESPONSE_BIT: "notify",
    OP_EVICT | RESPONSE_BIT: "evict",
    OP_COMPILE_SOURCE | RESPONSE_BIT: "compile_source",
    OP_STATS | RESPONSE_BIT: "stats",
    OP_ERROR_RESPONSE: "error",
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _frame(opcode: int, defs: Sequence[tuple[int, str]], body: bytes | bytearray) -> bytes:
    payload = bytearray()
    payload.append(BIN2_MAGIC)
    payload.append(PROTOCOL_VERSION)
    payload.append(opcode)
    _w_uvarint(payload, len(defs))
    for ident, text in defs:
        _w_uvarint(payload, ident)
        _w_str(payload, text)
    payload += body
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"frame payload of {len(payload)} bytes exceeds {MAX_FRAME}",
        )
    return _FRAME_HEADER.pack(len(payload)) + bytes(payload)


def is_bin2_frame(data) -> bool:
    """Cheap, non-raising sniff: does ``data`` look like one bin2 frame?

    The length prefix must match the actual size and the first payload
    byte must be the magic — JSON text (whose first four bytes decode to
    an absurd length) can never satisfy both, so a binary-capable server
    tells the two codecs apart per frame with no negotiation state.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return False
    data = bytes(data) if not isinstance(data, bytes) else data
    if len(data) < 7:
        return False
    declared = _FRAME_HEADER.unpack_from(data)[0]
    return declared == len(data) - 4 and declared <= MAX_FRAME and data[4] == BIN2_MAGIC


def _open_frame(data: bytes) -> tuple[int, _Reader]:
    """Validate one frame's header; returns ``(opcode, reader at defs)``."""
    if len(data) < 7:
        raise _truncated()
    declared = _FRAME_HEADER.unpack_from(data)[0]
    if declared != len(data) - 4:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"frame length prefix says {declared} bytes, got {len(data) - 4}",
        )
    if declared > MAX_FRAME:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"frame payload of {declared} bytes exceeds {MAX_FRAME}",
        )
    if data[4] != BIN2_MAGIC:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"not a bin2 frame (magic byte {data[4]:#04x})",
        )
    version = data[5]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"protocol version mismatch: got {version!r}, "
            f"this server speaks {PROTOCOL_VERSION}",
        )
    return data[6], _Reader(data, 7)


def _read_defs(r: _Reader, table: StringTable) -> None:
    for _ in range(r.uvarint()):
        ident = r.uvarint()
        table.define(ident, r.str_())


# ----------------------------------------------------------------------
# Relay support (the multi-process coordinator in repro.concurrent.procs)
# ----------------------------------------------------------------------
#: Opcodes whose frames a coordinator may forward verbatim to the worker
#: owning the function they lead with: single-function requests whose
#: only string ref is the leading handle name, so a frame decodes
#: identically against any table that defines that one ref.
RELAY_OPCODES = frozenset((OP_LIVENESS_QUERY, OP_LIVE_SET, OP_EVICT))


def relay_route(data: bytes, body_pos: int, table: StringTable) -> tuple[int, str]:
    """The leading handle ref of an already-ingested single-function frame.

    Returns ``(ident, name)``.  Raises exactly the :class:`ProtocolError`
    the worker-side decoder would raise (same ``lookup``, same truncation
    message), so a coordinator that cannot route a frame answers with the
    identical error a single-process server produces.
    """
    r = _Reader(data, body_pos)
    ident = r.uvarint()
    return ident, table.lookup(ident)


def frame_defs(data: bytes) -> list[tuple[int, str]]:
    """The ``(ident, text)`` definition pairs an ingested frame carries."""
    r = _Reader(data, 7)
    return [(r.uvarint(), r.str_()) for _ in range(r.uvarint())]


def reframe_with_defs(
    opcode: int, defs: Sequence[tuple[int, str]], data: bytes, body_pos: int
) -> bytes:
    """Rebuild an ingested frame with an explicit definitions block.

    Used when a frame must be forwarded to a worker connection that has
    not seen the leading ref's definition yet (it arrived on an earlier
    frame this worker never received): the body bytes are reused
    verbatim, only the defs block is replaced.
    """
    return _frame(opcode, defs, data[body_pos:])


def encode_request_bin2(
    request: Request, interner: StringInterner | None = None
) -> bytes:
    """One bin2 frame for ``request``.

    With an ``interner`` (the per-connection case) function names are
    sent once and referenced after; without one, a throwaway table is
    used so the frame is self-contained.
    """
    entry = _BIN2_REQUEST_ENCODERS.get(type(request))
    if entry is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"cannot encode {type(request).__name__} here",
        )
    opcode, encoder = entry
    if interner is None:
        interner = StringInterner()
    defs: list[tuple[int, str]] = []
    body = bytearray()
    encoder(request, body, interner, defs)
    return _frame(opcode, defs, body)


def decode_request_bin2(data, table: StringTable | None = None) -> Request:
    """Inverse of :func:`encode_request_bin2`; raises :class:`ProtocolError`
    (never anything else) on any malformed input."""
    opcode, r = _open_frame(bytes(data))
    if table is None:
        table = StringTable()
    _read_defs(r, table)
    decoder = _BIN2_REQUEST_DECODERS.get(opcode)
    if decoder is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown binary request opcode {opcode:#04x}"
        )
    try:
        request = decoder(r, table)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"malformed binary {TAG_BY_OPCODE.get(opcode, hex(opcode))} body: {exc}",
        ) from None
    r.expect_end()
    return request


def encode_response_bin2(response: Response | ErrorResponse) -> bytes:
    """One bin2 frame for ``response`` (strings inline, no table).

    The two successful liveness answers are constant frames built once
    at import; everything else is encoded here.
    """
    if (
        response.__class__ is LivenessResponse
        and response.error is None
        and response.value.__class__ is bool
    ):
        return _LIVENESS_FRAMES[response.value]
    return _encode_response_bin2(response)


def _encode_response_bin2(response: Response | ErrorResponse) -> bytes:
    entry = _BIN2_RESPONSE_ENCODERS.get(type(response))
    if entry is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"cannot encode {type(response).__name__} here",
        )
    opcode, encoder = entry
    body = bytearray()
    encoder(response, body)
    return _frame(opcode, (), body)


#: The successful liveness answers carry no connection state, so their
#: frames are constants (indexed by the bit).
_LIVENESS_FRAMES = (
    _encode_response_bin2(LivenessResponse(value=False)),
    _encode_response_bin2(LivenessResponse(value=True)),
)


def decode_response_bin2(data) -> Response | ErrorResponse:
    """Inverse of :func:`encode_response_bin2`."""
    opcode, r = _open_frame(bytes(data))
    _read_defs(r, StringTable())
    decoder = _BIN2_RESPONSE_DECODERS.get(opcode)
    if decoder is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unknown binary response opcode {opcode:#04x}",
        )
    try:
        response = decoder(r)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"malformed binary {TAG_BY_OPCODE.get(opcode, hex(opcode))} body: {exc}",
        ) from None
    r.expect_end()
    return response


# ----------------------------------------------------------------------
# JSON as a codec (text framing of the canonical envelope)
# ----------------------------------------------------------------------
def encode_request_json(
    request: Request, interner: StringInterner | None = None
) -> bytes:
    """The canonical envelope as compact UTF-8 text (interner ignored)."""
    return dumps_compact(encode_request(request)).encode("utf-8")


def decode_request_json(data, table: StringTable | None = None) -> Request:
    from repro.api.protocol import decode_request

    return decode_request(data)


def encode_response_json(response: Response | ErrorResponse) -> bytes:
    return dumps_compact(encode_response(response)).encode("utf-8")


def decode_response_json(data) -> Response | ErrorResponse:
    return decode_response(data)


class WireCodec:
    """One registered encoding: four symmetrical byte-level entry points."""

    __slots__ = (
        "name",
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
        "stateful",
    )

    def __init__(
        self,
        name: str,
        encode_request: Callable,
        decode_request: Callable,
        encode_response: Callable,
        decode_response: Callable,
        stateful: bool,
    ) -> None:
        self.name = name
        self.encode_request = encode_request
        self.decode_request = decode_request
        self.encode_response = encode_response
        self.decode_response = decode_response
        self.stateful = stateful

    def __repr__(self) -> str:
        return f"WireCodec({self.name!r})"


#: The codec registry, in server preference order: a client that offers
#: several known codecs gets the first of *its* offers we support, and a
#: client that offers none gets JSON.
CODECS: dict[str, WireCodec] = {
    CODEC_BIN2: WireCodec(
        CODEC_BIN2,
        encode_request_bin2,
        decode_request_bin2,
        encode_response_bin2,
        decode_response_bin2,
        stateful=True,
    ),
    CODEC_JSON: WireCodec(
        CODEC_JSON,
        encode_request_json,
        decode_request_json,
        encode_response_json,
        decode_response_json,
        stateful=False,
    ),
}


# ----------------------------------------------------------------------
# Negotiation (always JSON, so it reaches pre-codec servers too)
# ----------------------------------------------------------------------
def hello_frame(offer: Sequence[str]) -> bytes:
    """The client's opening handshake, as versioned JSON text."""
    return dumps_compact(
        {"api": PROTOCOL_VERSION, "type": HELLO_TYPE, "codecs": list(offer)}
    ).encode("utf-8")


def hello_reply(chosen: str) -> bytes:
    """The server's answer: the chosen codec, plus everything it speaks."""
    return dumps_compact(
        {
            "api": PROTOCOL_VERSION,
            "type": HELLO_TYPE,
            "codec": chosen,
            "codecs": sorted(CODECS),
        }
    ).encode("utf-8")


def choose_codec(offered) -> str:
    """The server side of negotiation: first *offered* codec we speak.

    Anything unusable — a non-list, unknown names, an empty offer —
    falls back to :data:`CODEC_JSON` rather than erroring: negotiation
    must never strand a client without a working encoding.
    """
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if isinstance(name, str) and name in CODECS:
                return name
    return CODEC_JSON


def parse_hello_reply(raw) -> str | None:
    """The codec a server's reply selected, or ``None`` for "no deal".

    ``None`` covers every legacy outcome: an older server answering the
    unknown ``hello`` type with a structured error envelope, garbage, or
    a reply naming a codec this build does not know.
    """
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            raw = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return None
    if not isinstance(raw, dict) or raw.get("type") != HELLO_TYPE:
        return None
    chosen = raw.get("codec")
    if isinstance(chosen, str) and chosen in CODECS:
        return chosen
    return None


def negotiate_codec(transport: Callable[[bytes], bytes], offer: Sequence[str]) -> str:
    """Run the handshake over ``transport``; JSON on any failure."""
    try:
        reply = transport(hello_frame(offer))
    except Exception:  # noqa: BLE001 — negotiation must not raise
        return CODEC_JSON
    chosen = parse_hello_reply(reply)
    if chosen is not None and chosen in offer:
        return chosen
    return CODEC_JSON


# ----------------------------------------------------------------------
# Server side: one connection's byte-level dispatcher
# ----------------------------------------------------------------------
class IngestedFrame:
    """One submitted frame after the cheap arrival-order phase.

    The worker pool decodes bodies concurrently, but string definitions
    must be applied in arrival order (a ref may be used one frame after
    its definition).  :meth:`BytesServerSession.ingest` therefore runs at
    submit time and does only the cheap part — header validation plus the
    defs block — leaving the body parse, dispatch and response encode to
    :meth:`BytesServerSession.complete` on a worker thread.  Because the
    table is append-only between hellos, a body is still decodable after
    later frames extended the table.
    """

    __slots__ = ("data", "opcode", "binary", "error", "request_type", "body_pos")

    def __init__(
        self,
        data: bytes,
        opcode: int | None = None,
        binary: bool = True,
        error: ApiError | None = None,
        body_pos: int | None = None,
    ) -> None:
        self.data = data
        self.opcode = opcode
        self.binary = binary
        self.error = error
        self.body_pos = body_pos
        self.request_type = (
            TAG_BY_OPCODE.get(opcode) if opcode is not None else None
        )


class BytesServerSession:
    """The server half of one byte-speaking connection.

    Wraps a typed ``dispatch(request) -> response`` callable (a
    :class:`~repro.api.client.CompilerClient` or
    :class:`~repro.concurrent.client.ShardedClient`) with frame decode,
    per-frame codec detection (bin2 frames by magic, anything JSON-ish by
    text), the ``hello`` handshake, and per-codec wire metrics
    (``wire.bytes_in``/``wire.bytes_out`` counters and
    ``wire.encode_seconds``/``wire.decode_seconds`` histograms, labelled
    ``codec=...``).  Like every protocol boundary it **never raises**:
    garbage, truncated or mid-frame-corrupted input comes back as a
    structured error in the caller's own framing.

    One session is one connection: the string table is connection state,
    so concurrent *submitters* may share a session (ingest is serialized
    by the wire server), but two independent clients need two sessions.

    ``liveness`` is the client's liveness lane for the hottest message:
    ``(name, revision, want_in, variable, block) -> bool |
    LivenessResponse`` — the bit, or the error-carrying response — so a
    ``LivenessQuery`` frame is answered without building request or
    response objects.
    """

    def __init__(
        self,
        dispatch: Callable[[Request], Response],
        obs=None,
        liveness: Callable[..., bool | LivenessResponse] | None = None,
    ) -> None:
        from repro.obs import Observability

        self._dispatch = dispatch
        self._liveness = liveness
        self.obs = obs if obs is not None else Observability()
        self._table = StringTable()
        self._bytes_in = {
            name: self.obs.counter("wire.bytes_in", codec=name) for name in CODECS
        }
        self._bytes_out = {
            name: self.obs.counter("wire.bytes_out", codec=name) for name in CODECS
        }
        self._decode_seconds = {
            name: self.obs.histogram("wire.decode_seconds", codec=name)
            for name in CODECS
        }
        self._encode_seconds = {
            name: self.obs.histogram("wire.encode_seconds", codec=name)
            for name in CODECS
        }
        # Pre-bound hot-path instruments: the bin2 lane records four
        # metrics per frame, and at wire rates the dict probe + attribute
        # bind per record is a measurable slice of a request.
        self._bin2_in_add = self._bytes_in[CODEC_BIN2].add
        self._json_in_add = self._bytes_in[CODEC_JSON].add
        self._bin2_out_add = self._bytes_out[CODEC_BIN2].add
        self._bin2_decode_observe = self._decode_seconds[CODEC_BIN2].observe
        self._bin2_encode_observe = self._encode_seconds[CODEC_BIN2].observe

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the connection's string table (the reconnect contract)."""
        self._table.reset()

    @property
    def string_table(self) -> StringTable:
        """The connection's receive-side table (relay routing reads it)."""
        return self._table

    # ------------------------------------------------------------------
    # The two-phase path (wire-server integration)
    # ------------------------------------------------------------------
    def ingest(self, data) -> IngestedFrame:
        """Arrival-order phase: classify the frame, apply string defs.

        Cheap by design — called under the wire server's submit lock so
        definitions land in the exact order frames arrived.  Never
        raises; a malformed defs block becomes an error token the worker
        answers in kind.
        """
        try:
            if not isinstance(data, bytes):
                data = bytes(data)
            size = len(data)
            # Single-pass header sniff (the checks of is_bin2_frame and
            # _open_frame, fused): this runs under the submit lock, so
            # every instruction here serializes all submitters.
            if (
                size < 7
                or data[4] != BIN2_MAGIC
                or _FRAME_HEADER.unpack_from(data)[0] != size - 4
                or size - 4 > MAX_FRAME
            ):
                # JSON text (or garbage): the worker-side JSON path owns
                # both, producing the structured not-JSON error itself.
                self._json_in_add(size)
                return IngestedFrame(data, binary=False)
            self._bin2_in_add(size)
            if data[5] != PROTOCOL_VERSION:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST,
                    f"protocol version mismatch: got {data[5]!r}, "
                    f"this server speaks {PROTOCOL_VERSION}",
                )
            if size > 7 and data[7] == 0:
                # Zero definitions — the steady-state frame once the
                # connection's names are interned; skip the defs reader.
                return IngestedFrame(data, opcode=data[6], body_pos=8)
            r = _Reader(data, 7)
            _read_defs(r, self._table)
            # body_pos lets the worker skip the defs walk entirely.
            return IngestedFrame(data, opcode=data[6], body_pos=r.pos)
        except ProtocolError as exc:
            return IngestedFrame(b"", error=exc.error)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            return IngestedFrame(
                b"",
                error=ApiError(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
            )

    def complete(self, token: IngestedFrame) -> bytes:
        """Worker phase: decode the body, dispatch, encode the answer.

        Never raises; every failure becomes a structured error frame (or
        JSON error envelope for text callers).
        """
        try:
            if token.error is not None:
                if token.binary:
                    return self._error_frame(token.error)
                return self._json_error(token.error)
            if not token.binary:
                return self._complete_json(token.data)
            return self._complete_bin2(token)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            error = ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            try:
                if token.binary:
                    return self._error_frame(error)
                return self._json_error(error)
            except Exception:  # noqa: BLE001 — last resort, still shaped
                return _INTERNAL_ERROR_FRAME

    def dispatch_frame(self, data) -> bytes:
        """Serial entry point: one frame in, one frame out, never raises."""
        return self.complete(self.ingest(data))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _complete_bin2(self, token: IngestedFrame) -> bytes:
        clock = self.obs.clock
        opcode = token.opcode
        start = clock()
        body_pos = token.body_pos if token.body_pos is not None else 7
        r = _Reader(token.data, body_pos)
        if token.body_pos is None:
            _read_defs(r, self._table)
            body_pos = r.pos
        if opcode == OP_LIVENESS_QUERY and self._liveness is not None:
            frame = self._liveness_frame(r, clock, start)
            if frame is not None:
                return frame
            # Fall through re-reads the body generically below.
            r = _Reader(token.data, body_pos)
        decoder = _BIN2_REQUEST_DECODERS.get(opcode)
        if decoder is None:
            return self._error_frame(
                ApiError(
                    ErrorCode.INVALID_REQUEST,
                    f"unknown binary request opcode {opcode:#04x}",
                )
            )
        try:
            try:
                request = decoder(r, self._table)
                r.expect_end()
            except ProtocolError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST,
                    f"malformed binary "
                    f"{TAG_BY_OPCODE.get(opcode, hex(opcode))} body: {exc}",
                ) from None
        except ProtocolError as exc:
            return self._error_frame(exc.error)
        self._bin2_decode_observe(clock() - start)
        response = self._dispatch(request)
        start = clock()
        try:
            frame = encode_response_bin2(response)
        except ProtocolError as exc:
            return self._error_frame(exc.error)
        self._bin2_encode_observe(clock() - start)
        self._bin2_out_add(len(frame))
        return frame

    def _liveness_frame(self, r: _Reader, clock, start: float) -> bytes | None:
        """Hand-rolled lane for ``LivenessQuery`` frames.

        Parses the five fields without building a request object and
        hands them to the client's liveness lane, which answers with the
        bit (sent as a constant frame) or the error-carrying response.
        Returns ``None`` on a malformed body, so the generic decoder
        reports the exact structured error.
        """
        try:
            name = self._table.lookup(r.uvarint())
            revision = r.svarint() if r.u8() else None
            kind = r.u8()
            variable = r.str_()
            block = r.str_()
        except ProtocolError:
            return None
        if kind > 1 or r.pos != r.end:
            return None
        self._bin2_decode_observe(clock() - start)
        result = self._liveness(name, revision, kind == 0, variable, block)
        start = clock()
        if result.__class__ is bool:
            frame = _LIVENESS_FRAMES[result]
        else:
            frame = encode_response_bin2(result)
        self._bin2_encode_observe(clock() - start)
        self._bin2_out_add(len(frame))
        return frame

    def _complete_json(self, data: bytes) -> bytes:
        from repro.api.client import dispatch_json_via

        clock = self.obs.clock
        start = clock()
        parsed = None
        try:
            parsed = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            parsed = None
        if (
            isinstance(parsed, dict)
            and parsed.get("type") == HELLO_TYPE
            and parsed.get("api") == PROTOCOL_VERSION
        ):
            return self._hello(parsed)
        self._decode_seconds[CODEC_JSON].observe(clock() - start)
        envelope = dispatch_json_via(
            self._dispatch_guarded, parsed if parsed is not None else data,
            obs=self.obs,
        )
        start = clock()
        out = dumps_compact(envelope).encode("utf-8")
        self._encode_seconds[CODEC_JSON].observe(clock() - start)
        self._bytes_out[CODEC_JSON].add(len(out))
        return out

    def _dispatch_guarded(self, request: Request) -> Response:
        # The injected dispatch is a client's never-raising entry point;
        # this indirection only exists so a broken injection still comes
        # back as a structured error (complete's catch-all handles it).
        return self._dispatch(request)

    def _hello(self, parsed: dict) -> bytes:
        # A hello starts a (logical) connection: reset the string table
        # so a reconnecting client's fresh interner can never collide
        # with refs a previous life of the connection defined.
        self.reset()
        chosen = choose_codec(parsed.get("codecs"))
        out = hello_reply(chosen)
        self._bytes_out[CODEC_JSON].add(len(out))
        return out

    def _error_frame(self, error: ApiError) -> bytes:
        frame = encode_response_bin2(ErrorResponse(error=error))
        self._bytes_out[CODEC_BIN2].add(len(frame))
        return frame

    def _json_error(self, error: ApiError) -> bytes:
        out = dumps_compact(encode_response(ErrorResponse(error=error))).encode(
            "utf-8"
        )
        self._bytes_out[CODEC_JSON].add(len(out))
        return out


_INTERNAL_ERROR_FRAME = encode_response_bin2(
    ErrorResponse(error=ApiError(ErrorCode.INTERNAL, "encoder failure"))
)


# ----------------------------------------------------------------------
# Client side: a negotiating byte-level caller
# ----------------------------------------------------------------------
class BytesClient:
    """The client half of one connection over a ``bytes -> bytes`` transport.

    Sends a JSON ``hello`` offering ``offer`` (most preferred first) and
    speaks whatever the server picked: ``bin2`` against a binary-capable
    server, JSON against an older one (whose structured rejection of the
    unknown ``hello`` type *is* the fallback signal) or one that knows
    none of the offered codecs.  ``dispatch`` is typed-in/typed-out and
    never raises — transport failures and undecodable replies come back
    as structured errors in the matching response type.

    One instance is one connection (it owns the send-side string
    interner), and like a real connection it is not meant to be shared
    between threads — give each thread its own.
    """

    def __init__(
        self,
        transport: Callable[[bytes], bytes],
        offer: Sequence[str] = (CODEC_BIN2, CODEC_JSON),
    ) -> None:
        self._transport = transport
        self._interner = StringInterner()
        self.codec = negotiate_codec(transport, tuple(offer))

    def dispatch(self, request: Request) -> Response:
        """Answer one typed request over the wire; never raises."""
        from repro.api.client import failure_response

        try:
            if self.codec == CODEC_BIN2:
                raw = self._transport(
                    encode_request_bin2(request, self._interner)
                )
                if is_bin2_frame(raw):
                    return decode_response_bin2(raw)
                # A server that lost the negotiation state (or answered
                # garbage with a JSON error) still gets decoded.
                return decode_response(raw)
            raw = self._transport(encode_request_json(request))
            return decode_response(raw)
        except ProtocolError as exc:
            return failure_response(request, exc.error)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            return failure_response(
                request,
                ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"),
            )

    def __repr__(self) -> str:
        return f"BytesClient(codec={self.codec!r})"
