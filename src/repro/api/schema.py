"""One field table per wire message: both codecs derived from it.

Every message dataclass of :mod:`repro.api.protocol` declares the *kind*
of each of its fields once, in field order, with :func:`message`.  At
import the table is compiled — plain closures, no generated source —
into the message's four codec functions: ``to_json``/``from_json`` for
the canonical JSON body and ``write``/``read`` for the bin2 body.  Field
order is wire order in both codecs.

JSON rules, the same for every message:

* keys are field names; a field with a dataclass default may be left
  out (it then takes that default) unless its kind is :func:`required`
  or :func:`nullable`;
* every kind checks its JSON type — strings are ``str``, integers are
  ``int`` (not ``bool``, not ``float``), booleans are ``bool``,
  sequences are lists and records are objects.  A mistyped field raises
  ``TypeError``/``ValueError`` naming the field, which the envelope
  decoder turns into ``INVALID_REQUEST "malformed <tag> body: ..."``
  before dispatch.  A body that decodes therefore always bin2-encodes,
  which is what the WAL stores.

The bin2 primitives (varints, length-prefixed strings, the bounds-checked
:class:`Reader`) live here too; :mod:`repro.api.codec` frames whole
messages with them and :mod:`repro.persist` reuses them for its records.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from operator import attrgetter

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle

#: One shared compact encoder for the wire layer; the compact separators
#: drop the cosmetic whitespace from every envelope.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dumps_compact(obj) -> str:
    """Compact (separator-free) JSON text via the shared encoder instance."""
    return _JSON_ENCODER.encode(obj)


# ----------------------------------------------------------------------
# bin2 primitives
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def write_svarint(out: bytearray, value: int) -> None:
    # Zigzag, arbitrary precision: small magnitudes of either sign stay
    # one byte.
    write_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def _invalid(detail: str) -> ProtocolError:
    return ProtocolError(ErrorCode.INVALID_REQUEST, detail)


def truncated() -> ProtocolError:
    return _invalid("truncated binary frame")


class Reader:
    """Cursor over one frame's bytes; every read is bounds-checked.

    ``table`` is the connection's string table, for interned strings.
    """

    __slots__ = ("data", "pos", "end", "table")

    def __init__(self, data: bytes, pos: int = 0, table=None) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data)
        self.table = table

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise truncated()
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
                raise truncated()
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise _invalid("varint exceeds 64 bits")
        self.pos = pos
        return result

    def svarint(self) -> int:
        zig = self.uvarint()
        return (zig >> 1) if not zig & 1 else -((zig + 1) >> 1)

    def take(self, count: int) -> bytes:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise truncated()
        self.pos = stop
        return self.data[pos:stop]

    def str_(self) -> str:
        raw = self.take(self.uvarint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _invalid(f"invalid UTF-8 in string: {exc}") from None

    def blob(self) -> bytes:
        return self.take(self.uvarint())

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise _invalid(f"{self.end - self.pos} trailing bytes after message body")


class Body(bytearray):
    """A request body under construction.

    Interned strings are sent once per connection: the first mention
    appends ``(ref, text)`` to ``defs`` (the frame's definitions block)
    and every mention writes the ref assigned by ``interner``.
    """

    __slots__ = ("interner", "defs")

    def __init__(self, interner) -> None:
        super().__init__()
        self.interner = interner
        self.defs: list[tuple[int, str]] = []


# ----------------------------------------------------------------------
# Field kinds
# ----------------------------------------------------------------------
class Kind:
    """How one field's value travels in each codec.

    ``to_json`` maps a value to its JSON form (``None`` when the value
    is its own JSON form); ``from_json`` checks a JSON value and maps it
    back; ``write(out, value)`` and ``read(reader)`` are the bin2 pair.
    """

    __slots__ = ("to_json", "from_json", "write", "read", "required", "omit_none")

    def __init__(
        self, to_json, from_json, write, read, required=False, omit_none=False
    ) -> None:
        self.to_json = to_json
        self.from_json = from_json
        self.write = write
        self.read = read
        #: The JSON key must be present even when the field has a default.
        self.required = required
        #: ``to_json`` leaves the key out when the value is ``None``.
        self.omit_none = omit_none


def _type_error(expected: str, raw) -> TypeError:
    return TypeError(f"expected {expected}, got {type(raw).__name__}")


def _str_from_json(raw):
    if not isinstance(raw, str):
        raise _type_error("a string", raw)
    if not raw.isascii():
        # A lone surrogate survives JSON but not UTF-8: this raises
        # UnicodeEncodeError, a ValueError.
        raw.encode("utf-8")
    return raw


#: The integers a bin2 svarint round-trips: the reader refuses varints
#: longer than ten bytes, which the zigzag of any signed 64-bit value fits.
_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1


def _int_from_json(raw):
    if raw.__class__ is bool or not isinstance(raw, int):
        raise _type_error("an integer", raw)
    if not _INT_MIN <= raw <= _INT_MAX:
        raise ValueError(f"integer {raw} is outside the signed 64-bit range")
    return raw


def _bool_from_json(raw):
    if raw is not True and raw is not False:
        raise _type_error("a boolean", raw)
    return raw


def _list_from_json(raw):
    if not isinstance(raw, (list, tuple)):
        raise _type_error("a list", raw)
    return raw


def _object_from_json(raw):
    if not isinstance(raw, dict):
        raise _type_error("an object", raw)
    return raw


def _write_bool(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _read_bool(r: Reader) -> bool:
    code = r.u8()
    if code > 1:
        raise _invalid(f"unknown boolean code {code}")
    return code == 1


def _write_interned(out: Body, text: str) -> None:
    write_uvarint(out, out.interner.ref(text, out.defs))


def _read_interned(r: Reader) -> str:
    return r.table.lookup(r.uvarint())


STR = Kind(None, _str_from_json, write_str, Reader.str_)
#: A string sent once per connection and by ref after (requests only).
INTERNED = Kind(None, _str_from_json, _write_interned, _read_interned)
BOOL = Kind(None, _bool_from_json, _write_bool, _read_bool)
SVARINT = Kind(None, _int_from_json, write_svarint, Reader.svarint)


def required(kind: Kind) -> Kind:
    """``kind``, with its JSON key mandatory despite a field default."""
    return Kind(
        kind.to_json, kind.from_json, kind.write, kind.read,
        required=True, omit_none=kind.omit_none,
    )


def opt(kind: Kind, omit_none: bool = False) -> Kind:
    """``kind`` or ``None``: JSON ``null``, bin2 a presence byte first.

    With ``omit_none`` the JSON body leaves the key out instead of
    sending ``null``.
    """
    item_to, item_from, item_write, item_read = (
        kind.to_json, kind.from_json, kind.write, kind.read
    )

    def write(out: bytearray, value) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            item_write(out, value)

    return Kind(
        None if item_to is None else (lambda v: None if v is None else item_to(v)),
        lambda raw: None if raw is None else item_from(raw),
        write,
        lambda r: item_read(r) if r.u8() else None,
        omit_none=omit_none,
    )


def nullable(kind: Kind) -> Kind:
    """A response payload: ``opt(kind)`` whose JSON key must be present."""
    return required(opt(kind))


def seq(kind: Kind) -> Kind:
    """A tuple of ``kind``: a JSON list, bin2 a uvarint count first."""
    item_to, item_from, item_write, item_read = (
        kind.to_json, kind.from_json, kind.write, kind.read
    )

    def write(out: bytearray, values) -> None:
        write_uvarint(out, len(values))
        for value in values:
            item_write(out, value)

    return Kind(
        list if item_to is None else (lambda vs: [item_to(v) for v in vs]),
        lambda raw: tuple([item_from(v) for v in _list_from_json(raw)]),
        write,
        lambda r: tuple([item_read(r) for _ in range(r.uvarint())]),
    )


def enum(cls, what: str) -> Kind:
    """A member of the ``str`` enum ``cls``: its value in JSON, its
    definition index as one bin2 byte.  ``cls.coerce`` validates JSON."""
    members = tuple(cls)
    codes = {member: code for code, member in enumerate(members)}

    def read(r: Reader):
        code = r.u8()
        if code >= len(members):
            raise _invalid(f"unknown {what} code {code}")
        return members[code]

    return Kind(
        lambda member: member.value,
        cls.coerce,
        lambda out, member: out.append(codes[member]),
        read,
    )


#: Marks a JSON key that is absent, and a field that has no default.
_ABSENT = object()


def _default_of(spec):
    """A zero-argument callable giving a dataclass field's default, or
    :data:`_ABSENT` when the field has none (its JSON key is required)."""
    if spec.default is not MISSING:
        return lambda: spec.default
    if spec.default_factory is not MISSING:
        return spec.default_factory
    return _ABSENT


def record(cls, *kinds: Kind) -> Kind:
    """The kind of dataclass ``cls`` whose fields have ``kinds``, in order:
    a JSON object keyed by field name, bin2 the fields back to back."""
    specs = fields(cls)
    if len(specs) != len(kinds):
        raise TypeError(
            f"{cls.__name__} has {len(specs)} fields but {len(kinds)} kinds"
        )
    names = tuple(f.name for f in specs)
    # attrgetter gives a bare value for one name and a tuple for several.
    values_of = (
        attrgetter(*names) if len(names) > 1
        else lambda value: (getattr(value, names[0]),)
    )
    encoders = tuple((f.name, k.to_json, k.omit_none) for f, k in zip(specs, kinds))
    decoders = tuple(
        (f.name, k.from_json, _ABSENT if k.required else _default_of(f))
        for f, k in zip(specs, kinds)
    )
    writers = tuple(k.write for k in kinds)
    readers = tuple(k.read for k in kinds)

    def to_json(value) -> dict:
        body = {}
        for (name, encode, omit_none), item in zip(encoders, values_of(value)):
            if item is None and omit_none:
                continue
            body[name] = item if encode is None else encode(item)
        return body

    def from_json(body):
        _object_from_json(body)
        args = []
        for name, decode, default in decoders:
            raw = body.get(name, _ABSENT)
            if raw is _ABSENT:
                if default is _ABSENT:
                    raise KeyError(name)
                args.append(default())
                continue
            try:
                args.append(decode(raw))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        return cls(*args)

    def write(out: bytearray, value) -> None:
        for write_field, item in zip(writers, values_of(value)):
            write_field(out, item)

    def read(r: Reader):
        return cls(*[read_field(r) for read_field in readers])

    return Kind(to_json, from_json, write, read)


def message(*kinds: Kind):
    """Class decorator declaring a wire message's field kinds, in order.

    Compiles the table with :func:`record` and gives the class its
    ``to_json()`` method, its ``from_json(body)`` constructor, and
    ``wire`` — the compiled kind, for nesting and the bin2 codec.
    """

    def attach(cls):
        kind = record(cls, *kinds)
        cls.wire = kind
        cls.to_json = kind.to_json
        cls.from_json = staticmethod(kind.from_json)
        return cls

    return attach


# ----------------------------------------------------------------------
# Protocol-wide kinds
# ----------------------------------------------------------------------
#: A function handle in a request: the name is interned.
HANDLE_REF = record(FunctionHandle, INTERNED, opt(SVARINT))
#: A function handle in a response: the name travels inline (responses
#: may be decoded out of order under a worker pool).
HANDLE = record(FunctionHandle, STR, opt(SVARINT))


def _read_compiled_handle(r: Reader) -> FunctionHandle:
    if not r.u8():
        raise _invalid("null handle in compile response")
    return HANDLE.read(r)


#: An element of a compile response's handle list: encoded like a
#: nullable handle, but a null one is rejected on decode.
COMPILED_HANDLE = Kind(
    HANDLE.to_json, HANDLE.from_json, opt(HANDLE).write, _read_compiled_handle
)


def _error_from_json(raw) -> ApiError:
    _object_from_json(raw)
    error = ApiError.from_json(raw)
    if not isinstance(error.detail, str):
        raise ValueError(f"detail: {_type_error('a string', error.detail)}")
    return error


def _write_error(out: bytearray, error: ApiError) -> None:
    write_str(out, error.code.value)
    write_str(out, error.detail)


#: The error channel every response carries.
ERROR = opt(
    Kind(
        ApiError.to_json,
        _error_from_json,
        _write_error,
        lambda r: ApiError(code=ErrorCode(r.str_()), detail=r.str_()),
    )
)


def _tristate_from_json(raw):
    if raw is not None and raw is not True and raw is not False:
        raise _type_error("a boolean or null", raw)
    return raw


def _write_tristate(out: bytearray, value) -> None:
    if value is None:
        out.append(2)
    elif value is True:
        out.append(1)
    elif value is False:
        out.append(0)
    else:
        raise _invalid(f"cannot binary-encode liveness value {value!r}")


def _read_tristate(r: Reader):
    code = r.u8()
    if code > 2:
        raise _invalid(f"unknown liveness value code {code}")
    return (False, True, None)[code]


#: A liveness answer: true, false, or null when an error replaced it.
TRISTATE = Kind(None, _tristate_from_json, _write_tristate, _read_tristate)


def _write_bits(out: bytearray, values) -> None:
    count = len(values)
    write_uvarint(out, count)
    bits = bytearray((count + 7) >> 3)
    for index, value in enumerate(values):
        if value:
            bits[index >> 3] |= 1 << (index & 7)
    out += bits


def _read_bits(r: Reader) -> tuple[bool, ...]:
    count = r.uvarint()
    bits = r.take((count + 7) >> 3)
    return tuple(
        bool(bits[index >> 3] & (1 << (index & 7))) for index in range(count)
    )


#: Batch answers: a JSON list of booleans, bin2 a count and packed bits.
BITS = Kind(list, seq(BOOL).from_json, _write_bits, _read_bits)


def _int_map_from_json(raw) -> dict:
    return {
        _str_from_json(key): _int_from_json(value)
        for key, value in _object_from_json(raw).items()
    }


def _write_int_map(out: bytearray, mapping: dict) -> None:
    write_uvarint(out, len(mapping))
    for key, value in mapping.items():
        write_str(out, key)
        write_svarint(out, value)


#: A str → int map: a JSON object, bin2 a count then (string, svarint).
INT_MAP = Kind(
    dict,
    _int_map_from_json,
    _write_int_map,
    lambda r: {r.str_(): r.svarint() for _ in range(r.uvarint())},
)


def _write_json_object(out: bytearray, obj: dict) -> None:
    raw = dumps_compact(obj).encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def _read_json_object(r: Reader) -> dict:
    raw = r.blob()
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise _invalid(f"malformed embedded JSON blob: {exc}") from None


#: An irregular JSON object (a metrics snapshot): itself in JSON, a
#: length-prefixed compact JSON blob in bin2.
JSON_OBJECT = Kind(None, _object_from_json, _write_json_object, _read_json_object)


def _edge_from_json(raw) -> tuple[str, str]:
    if len(_list_from_json(raw)) != 2:
        raise ValueError(f"expected a [source, target] pair, got {len(raw)} items")
    return (_str_from_json(raw[0]), _str_from_json(raw[1]))


def _write_edge(out: bytearray, edge) -> None:
    write_str(out, edge[0])
    write_str(out, edge[1])


#: A CFG edge between named blocks: ``[source, target]`` / two strings.
EDGE = Kind(list, _edge_from_json, _write_edge, lambda r: (r.str_(), r.str_()))
