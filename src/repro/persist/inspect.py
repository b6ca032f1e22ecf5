"""``python -m repro.persist.inspect`` — dump snapshots and WAL records.

Operational introspection for a state directory: which snapshots exist
(and whether they decode), what the WAL holds (sequence ranges, record
counts, request types), and any damage — torn tails, CRC hits — exactly
as recovery would classify it.  ``--json`` emits the same facts as one
machine-readable object for scripts and CI assertions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.persist.records import scan_records
from repro.persist.snapshot import (
    SNAPSHOT_RECORD_NAMES,
    decode_snapshot,
    list_snapshots,
)
from repro.persist.wal import decode_wal_body, list_segments

from repro.api.errors import ProtocolError


def inspect_directory(directory: str) -> dict:
    """Everything the CLI prints, as one JSON-ready dict; never raises."""
    report: dict = {"directory": directory, "snapshots": [], "wal": []}
    for seq, path in list_snapshots(directory):
        entry: dict = {
            "file": os.path.basename(path),
            "bytes": os.path.getsize(path),
        }
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            entry["error"] = str(exc)
            report["snapshots"].append(entry)
            continue
        state, damage = decode_snapshot(data)
        if state is not None:
            entry.update(
                valid=True,
                last_seq=state.last_seq,
                shards=state.shards,
                capacity=state.capacity,
                functions=len(state.functions),
                precomps=len(state.precomps),
                digest=state.digest(),
            )
        else:
            entry.update(valid=False, damage=str(damage))
        scan = scan_records(data)
        entry["records"] = [
            SNAPSHOT_RECORD_NAMES.get(rectype, f"0x{rectype:02x}")
            for rectype, _body, _offset in scan.records
        ]
        report["snapshots"].append(entry)
    for _first_seq, path in list_segments(directory):
        entry = {
            "file": os.path.basename(path),
            "bytes": os.path.getsize(path),
            "records": [],
        }
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            entry["error"] = str(exc)
            report["wal"].append(entry)
            continue
        scan = scan_records(data)
        for _rectype, body, offset in scan.records:
            try:
                seq, request = decode_wal_body(body)
            except ProtocolError as exc:
                entry["records"].append(
                    {"offset": offset, "error": exc.error.detail}
                )
                continue
            entry["records"].append(
                {
                    "seq": seq,
                    "type": type(request).__name__,
                    "offset": offset,
                }
            )
        if scan.damage is not None:
            entry["damage"] = {
                "kind": scan.damage.kind,
                "offset": scan.damage.offset,
                "detail": scan.damage.detail,
            }
        report["wal"].append(entry)
    return report


def _print_report(report: dict) -> None:
    print(f"state directory: {report['directory']}")
    if not report["snapshots"]:
        print("  (no snapshots)")
    for entry in report["snapshots"]:
        if entry.get("valid"):
            print(
                f"  {entry['file']}  {entry['bytes']}B  "
                f"seq={entry['last_seq']}  shards={entry['shards']}  "
                f"capacity={entry['capacity']}  "
                f"functions={entry['functions']}  "
                f"precomps={entry['precomps']}"
            )
            print(f"    digest {entry['digest']}")
        else:
            reason = entry.get("damage") or entry.get("error")
            print(f"  {entry['file']}  {entry['bytes']}B  INVALID: {reason}")
    if not report["wal"]:
        print("  (no WAL segments)")
    for entry in report["wal"]:
        records = entry.get("records", [])
        seqs = [r["seq"] for r in records if "seq" in r]
        span = f"seq {seqs[0]}..{seqs[-1]}" if seqs else "empty"
        print(f"  {entry['file']}  {entry['bytes']}B  {len(records)} records  {span}")
        for record in records:
            if "seq" in record:
                print(
                    f"    #{record['seq']:>6}  {record['type']}  "
                    f"@{record['offset']}"
                )
            else:
                print(f"    @{record['offset']}  MALFORMED: {record['error']}")
        damage = entry.get("damage")
        if damage:
            print(
                f"    DAMAGE: {damage['kind']} at byte {damage['offset']} — "
                f"{damage['detail']}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.persist.inspect",
        description="Dump the snapshots and WAL records of a state directory.",
    )
    parser.add_argument("directory", help="state directory to inspect")
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON object instead"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(args.directory):
        print(f"not a directory: {args.directory}", file=sys.stderr)
        return 2
    report = inspect_directory(args.directory)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_report(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
