"""CRC-protected, length-prefixed record framing for on-disk state.

Snapshots and WAL segments are both flat sequences of *records* framed
the way :mod:`repro.api.codec` frames wire messages — a little-endian
``u32`` length prefix, varint/string primitives for the body — plus the
two things a durable file needs that a pipe does not:

* a ``u32`` CRC-32 of the payload, so a flipped bit anywhere in the body
  is detected before a single byte of it is interpreted;
* damage-tolerant scanning: :func:`scan_records` never raises.  It walks
  the file record by record and stops at the first torn, corrupt or
  malformed record, reporting *what* was wrong and *where* the clean
  prefix ends — which is exactly the truncation point crash recovery
  needs (a process dying mid-``write`` leaves a torn tail, not a clean
  EOF).

On-disk layout of one record::

    u32 length   | length of everything after this prefix (crc + payload)
    u32 crc32    | zlib.crc32 of the payload bytes
    payload      | magic (0xD5) | format version | record type | body

The payload leads with its own magic/version byte pair (mirroring the
``0xB2``/protocol-version lead-in of bin2 frames) so a file of the wrong
kind — or a record written by a future format — fails loudly as
structured damage instead of being misparsed.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

#: First payload byte of every persist record (bin2 frames use 0xB2).
PERSIST_MAGIC = 0xD5

#: On-disk format version; bump on any incompatible layout change.
PERSIST_VERSION = 2

#: Upper bound on one record's framed size — a garbage-length guard,
#: mirroring the wire codec's MAX_FRAME.
MAX_RECORD = 16 * 1024 * 1024

_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class RecordDamage:
    """Structured description of the first unreadable record in a file.

    ``offset`` is where the damaged record *starts* — everything before
    it scanned clean, so it doubles as the safe truncation point.
    """

    #: One of ``torn`` (file ends mid-record), ``crc`` (checksum
    #: mismatch), ``magic``/``version`` (not a record of this format)
    #: or ``oversize`` (length prefix exceeds :data:`MAX_RECORD`).
    kind: str
    #: Byte offset at which the damaged record starts.
    offset: int
    #: Human-readable detail for reports and the inspect CLI.
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} record at byte {self.offset}: {self.detail}"


@dataclass(frozen=True)
class ScanResult:
    """Every clean record of a byte string, plus the first damage (if any)."""

    #: ``(record_type, body, offset)`` triples in file order.
    records: tuple[tuple[int, bytes, int], ...]
    #: ``None`` when the whole input scanned clean.
    damage: RecordDamage | None

    @property
    def clean_length(self) -> int:
        """Bytes of clean prefix — the truncation point after damage."""
        if self.damage is not None:
            return self.damage.offset
        if not self.records:
            return 0
        _rectype, body, offset = self.records[-1]
        return offset + _HEADER.size + 3 + len(body)


def encode_record(rectype: int, body: bytes | bytearray) -> bytes:
    """One framed record: length + CRC + (magic, version, type, body)."""
    payload = bytes((PERSIST_MAGIC, PERSIST_VERSION, rectype)) + bytes(body)
    if len(payload) + 4 > MAX_RECORD:
        raise ValueError(
            f"record of {len(payload)} payload bytes exceeds {MAX_RECORD}"
        )
    return _HEADER.pack(len(payload) + 4, zlib.crc32(payload)) + payload


def scan_records(data: bytes) -> ScanResult:
    """Walk ``data`` record by record; never raises.

    Returns every record before the first damage.  Records *after* a
    damaged one are deliberately not salvaged: a CRC failure means the
    writer (or the medium) cannot be trusted past that point, which is
    the classic WAL recovery rule.
    """
    records: list[tuple[int, bytes, int]] = []
    pos = 0
    end = len(data)
    while pos < end:
        if end - pos < _HEADER.size:
            return ScanResult(
                tuple(records),
                RecordDamage(
                    "torn",
                    pos,
                    f"{end - pos} trailing bytes, record header needs "
                    f"{_HEADER.size}",
                ),
            )
        length, crc = _HEADER.unpack_from(data, pos)
        if length > MAX_RECORD or length < 7:
            return ScanResult(
                tuple(records),
                RecordDamage(
                    "oversize" if length > MAX_RECORD else "torn",
                    pos,
                    f"record length prefix {length} out of range",
                ),
            )
        body_start = pos + _HEADER.size
        body_end = pos + 4 + length
        if body_end > end:
            return ScanResult(
                tuple(records),
                RecordDamage(
                    "torn",
                    pos,
                    f"record declares {length} bytes but only "
                    f"{end - pos - 4} remain",
                ),
            )
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            return ScanResult(
                tuple(records),
                RecordDamage("crc", pos, "payload checksum mismatch"),
            )
        if payload[0] != PERSIST_MAGIC:
            return ScanResult(
                tuple(records),
                RecordDamage(
                    "magic",
                    pos,
                    f"payload leads with {payload[0]:#04x}, "
                    f"expected {PERSIST_MAGIC:#04x}",
                ),
            )
        if payload[1] != PERSIST_VERSION:
            return ScanResult(
                tuple(records),
                RecordDamage(
                    "version",
                    pos,
                    f"format version {payload[1]}, this build reads "
                    f"{PERSIST_VERSION}",
                ),
            )
        records.append((payload[2], payload[3:], pos))
        pos = body_end
    return ScanResult(tuple(records), None)
