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
both are compiled from the same field table per message
(:mod:`repro.api.schema`), so nothing about eviction, LRU order or
checker residency can leak through one codec that the other hides.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Sequence

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.protocol import (
    MESSAGES,
    PROTOCOL_VERSION,
    ErrorResponse,
    EvictRequest,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    Request,
    Response,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.schema import (
    Body,
    Reader,
    dumps_compact,
    truncated,
    write_str,
    write_uvarint,
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

#: Set on the opcode of every response frame.
RESPONSE_BIT = 0x80

#: bin2 opcode → message class, for requests and for responses; both
#: derived from :data:`repro.api.protocol.MESSAGES`.
_REQUEST_OF: dict[int, type] = {
    opcode: request for _tag, opcode, request, _response in MESSAGES if request
}
_RESPONSE_OF: dict[int, type] = {
    opcode | RESPONSE_BIT: response for _tag, opcode, _request, response in MESSAGES
}
_OPCODE_OF: dict[type, int] = {
    cls: opcode
    for classes in (_REQUEST_OF, _RESPONSE_OF)
    for opcode, cls in classes.items()
}
#: opcode → the JSON wire tag of the same message (for slow-request
#: reports and error details).
_TAG_OF_OPCODE: dict[int, str] = {
    opcode | bit: tag for tag, opcode, _request, _response in MESSAGES
    for bit in (0, RESPONSE_BIT)
}
OP_LIVENESS_QUERY = _OPCODE_OF[LivenessQuery]


# The persist layer (:mod:`repro.persist`) frames its on-disk snapshot
# and WAL records with the same varint/string conventions as wire frames;
# ``Reader`` and the ``write_*`` primitives imported above are its
# sanctioned entry points.


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
# Framing
# ----------------------------------------------------------------------
def _frame(opcode: int, defs: Sequence[tuple[int, str]], body: bytes | bytearray) -> bytes:
    payload = bytearray()
    payload.append(BIN2_MAGIC)
    payload.append(PROTOCOL_VERSION)
    payload.append(opcode)
    write_uvarint(payload, len(defs))
    for ident, text in defs:
        write_uvarint(payload, ident)
        write_str(payload, text)
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


def _open_frame(data: bytes) -> tuple[int, Reader]:
    """Validate one frame's header; returns ``(opcode, reader at defs)``."""
    if len(data) < 7:
        raise truncated()
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
    return data[6], Reader(data, 7)


def _read_defs(r: Reader, table: StringTable) -> None:
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
RELAY_OPCODES = frozenset(
    _OPCODE_OF[cls] for cls in (LivenessQuery, LiveSetRequest, EvictRequest)
)


def relay_route(data: bytes, body_pos: int, table: StringTable) -> tuple[int, str]:
    """The leading handle ref of an already-ingested single-function frame.

    Returns ``(ident, name)``.  Raises exactly the :class:`ProtocolError`
    the worker-side decoder would raise (same ``lookup``, same truncation
    message), so a coordinator that cannot route a frame answers with the
    identical error a single-process server produces.
    """
    r = Reader(data, body_pos)
    ident = r.uvarint()
    return ident, table.lookup(ident)


def frame_defs(data: bytes) -> list[tuple[int, str]]:
    """The ``(ident, text)`` definition pairs an ingested frame carries."""
    r = Reader(data, 7)
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
    cls = type(request)
    opcode = _OPCODE_OF.get(cls)
    if opcode is None or opcode & RESPONSE_BIT:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"cannot encode {cls.__name__} here"
        )
    body = Body(interner if interner is not None else StringInterner())
    cls.wire.write(body, request)
    return _frame(opcode, body.defs, body)


def _read_body(cls, r: Reader, opcode: int):
    """Decode one message body of ``cls``; only :class:`ProtocolError`
    escapes, and the reader must end exactly at the frame's end."""
    try:
        message = cls.wire.read(r)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"malformed binary {_TAG_OF_OPCODE[opcode]} body: {exc}",
        ) from None
    r.expect_end()
    return message


def decode_request_bin2(data, table: StringTable | None = None) -> Request:
    """Inverse of :func:`encode_request_bin2`; raises :class:`ProtocolError`
    (never anything else) on any malformed input."""
    opcode, r = _open_frame(bytes(data))
    r.table = table if table is not None else StringTable()
    _read_defs(r, r.table)
    cls = _REQUEST_OF.get(opcode)
    if cls is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown binary request opcode {opcode:#04x}"
        )
    return _read_body(cls, r, opcode)


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
    cls = type(response)
    opcode = _OPCODE_OF.get(cls)
    if opcode is None or not opcode & RESPONSE_BIT:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"cannot encode {cls.__name__} here"
        )
    body = bytearray()
    cls.wire.write(body, response)
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
    cls = _RESPONSE_OF.get(opcode)
    if cls is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unknown binary response opcode {opcode:#04x}",
        )
    return _read_body(cls, r, opcode)


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
            _TAG_OF_OPCODE.get(opcode) if opcode is not None else None
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
            r = Reader(data, 7)
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
        r = Reader(token.data, body_pos, self._table)
        if token.body_pos is None:
            _read_defs(r, self._table)
            body_pos = r.pos
        if opcode == OP_LIVENESS_QUERY and self._liveness is not None:
            frame = self._liveness_frame(r, clock, start)
            if frame is not None:
                return frame
            # Fall through re-reads the body generically below.
            r = Reader(token.data, body_pos, self._table)
        cls = _REQUEST_OF.get(opcode)
        if cls is None:
            return self._error_frame(
                ApiError(
                    ErrorCode.INVALID_REQUEST,
                    f"unknown binary request opcode {opcode:#04x}",
                )
            )
        try:
            request = _read_body(cls, r, opcode)
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

    def _liveness_frame(self, r: Reader, clock, start: float) -> bytes | None:
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
