"""Crash recovery: newest valid snapshot + WAL tail, never raising.

The contract mirrors the rest of the package: *damage is data, not an
exception*.  :func:`load_state` inspects a state directory and reports
what is recoverable — the newest snapshot that decodes clean (older ones
are tried when the newest is damaged), the WAL entries past it, and a
structured list of everything that had to be skipped or truncated.
:func:`recover` turns that into a live serving client: rebuild the
topology the snapshot recorded, reinstate the functions (revisions
intact), reinstall each warm checker from its snapshot arrays
(thread transport only — worker processes rebuild on demand), then
replay the WAL tail through the ordinary ``dispatch`` path.

The differential guarantee (what ``tests/persist`` proves): a server
that crashed — torn WAL tail included — and recovered answers every
probe bit-identically to a server that never crashed, because the
replayed tail is exactly the confirmed-mutation suffix the linearization
witness recorded and the snapshot is exactly the state at the pinned
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.persist.records import RecordDamage
from repro.persist.snapshot import SnapshotState, load_newest_snapshot
from repro.persist.wal import read_wal
from repro.persist.wal import repair as repair_wal


@dataclass(frozen=True)
class RecoveredState:
    """What :func:`load_state` found on disk."""

    #: The newest snapshot that decoded clean (``None`` when no usable
    #: snapshot exists — recovery then starts from an empty service).
    snapshot: SnapshotState | None
    #: Path the snapshot was read from (``None`` without one).
    snapshot_path: str | None
    #: WAL entries past the snapshot, ``(seq, request)`` in log order.
    entries: tuple[tuple[int, object], ...]
    #: Everything unreadable, in discovery order (snapshot damage first,
    #: then WAL damage) — empty for a clean shutdown.
    damage: tuple[RecordDamage, ...]
    #: Highest sequence number recovered (snapshot's when the tail is
    #: empty) — the position a resumed WAL should continue from.
    last_seq: int


@dataclass
class RecoveryReport:
    """What :func:`recover` did to produce a live client."""

    #: Where the state came from.
    directory: str
    #: Snapshot file used (``None`` when recovering from WAL alone).
    snapshot_path: str | None
    #: Functions reinstated from the snapshot.
    functions: int = 0
    #: Checkers reinstalled from snapshot precomputation arrays.
    checkers_restored: int = 0
    #: WAL entries replayed through dispatch.
    replayed: int = 0
    #: Replayed entries whose response carried an error (deterministic
    #: failures are legal history — they replay to the same error).
    replay_errors: int = 0
    #: Damage encountered while reading (torn tails, CRC hits, ...).
    damage: list[RecordDamage] = field(default_factory=list)
    #: The sequence number the resumed WAL should continue from.
    last_seq: int = 0


def load_state(directory: str) -> RecoveredState:
    """Read everything recoverable from ``directory``; never raises.

    Tries snapshots newest-first until one decodes clean, then reads the
    WAL strictly past that snapshot's pinned sequence (records the
    snapshot already covers are skipped by sequence number, so snapshot
    and log overlapping is harmless by construction).
    """
    state, path, snap_damage = load_newest_snapshot(directory)
    after = state.last_seq if state is not None else 0
    scan = read_wal(directory, after_seq=after)
    return RecoveredState(
        snapshot=state,
        snapshot_path=path,
        entries=scan.entries,
        damage=tuple(snap_damage) + scan.damage,
        last_seq=scan.last_seq,
    )


def restore_client(
    snapshot: SnapshotState | None, transport: str = "threads", **client_kwargs
):
    """A serving client holding ``snapshot``'s state; returns ``(client, n)``.

    The client is built with the topology the snapshot recorded (an
    explicit ``shards``/``capacity`` in ``client_kwargs`` wins; paper
    defaults without a snapshot), the functions are reinstated with
    their revisions, and — thread transport only — each warm checker is
    reinstalled from its snapshot arrays; ``n`` counts those.  Worker
    processes rebuild on demand instead: the arrays would have to cross
    a pipe into workers that rebuild anyway.  Shared by :func:`recover`
    and :class:`~repro.persist.replica.Replica`.
    """
    # Imported here, not at module level: repro.concurrent imports this
    # package's policy module, so a module-level import would be a cycle.
    from repro.core.live_checker import FastLivenessChecker
    from repro.persist.precomp import RestoredPrecomputation

    if snapshot is not None:
        client_kwargs.setdefault("shards", snapshot.shards)
        client_kwargs.setdefault("capacity", snapshot.capacity)
    if transport == "threads":
        from repro.concurrent.client import ShardedClient

        client = ShardedClient(**client_kwargs)
    elif transport == "procs":
        from repro.concurrent.procs import ProcClient

        if "shards" in client_kwargs:
            client_kwargs.setdefault("workers", client_kwargs.pop("shards"))
        client = ProcClient(**client_kwargs)
    else:
        raise ValueError(
            f"transport must be 'threads' or 'procs', got {transport!r}"
        )
    restored = 0
    if snapshot is None:
        return client, restored
    if snapshot.functions:
        client.import_state(
            [(f.name, f.revision, f.source) for f in snapshot.functions]
        )
    if transport == "threads":
        for pre_state in snapshot.precomps:
            try:
                function = client.service.function(pre_state.name)
            except KeyError:
                continue  # snapshot names a function its own IR lacks
            client.install_checker(
                pre_state.name,
                FastLivenessChecker.from_precomputation(
                    function, RestoredPrecomputation(pre_state)
                ),
            )
            restored += 1
    return client, restored


def recover(
    directory: str,
    transport: str = "threads",
    shards: int | None = None,
    capacity: int | None = None,
    repair: bool = False,
    **client_kwargs,
):
    """Rebuild a live serving client from a state directory.

    Parameters
    ----------
    transport:
        ``"threads"`` builds a
        :class:`~repro.concurrent.client.ShardedClient`, ``"procs"`` a
        :class:`~repro.concurrent.procs.ProcClient`.
    shards / capacity:
        Override the topology recorded in the snapshot header (defaults
        to exactly what the snapshot recorded; paper defaults when there
        is no snapshot).
    repair:
        Also *physically* truncate torn WAL tails and delete
        post-damage segments (:func:`repro.persist.wal.repair`), so a
        durability layer re-armed over this directory appends after a
        clean tail.
    client_kwargs:
        Extra keyword arguments for the client constructor (``obs``,
        ``observer``, ``timeout``...).

    Returns ``(client, report)``.  Never raises on *damage* — a torn
    tail or corrupt snapshot shows up in ``report.damage`` — but does
    propagate real environment failures (unspawnable workers, unwritable
    repair).
    """
    recovered = load_state(directory)
    report = RecoveryReport(
        directory=directory,
        snapshot_path=recovered.snapshot_path,
        damage=list(recovered.damage),
        last_seq=max(
            recovered.last_seq,
            recovered.snapshot.last_seq if recovered.snapshot else 0,
        ),
    )
    if repair and any(d.kind != "gap" for d in recovered.damage):
        repair_wal(directory)

    snapshot = recovered.snapshot
    if shards is not None:
        client_kwargs["shards"] = shards
    if capacity is not None:
        client_kwargs["capacity"] = capacity
    client, report.checkers_restored = restore_client(
        snapshot, transport, **client_kwargs
    )
    if snapshot is not None:
        report.functions = len(snapshot.functions)

    for _seq, request in recovered.entries:
        response = client.dispatch(request)
        report.replayed += 1
        if getattr(response, "error", None) is not None:
            report.replay_errors += 1
    return client, report
