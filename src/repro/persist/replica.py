"""Replica catch-up: a read-only follower tailing the primary's log.

A :class:`Replica` points at the primary's state directory (a shared
filesystem in spirit; the tests literally share a tmpdir), bootstraps
from the newest valid snapshot, and :meth:`catch_up` applies whatever
WAL entries have landed since — the exact replay path crash recovery
uses, so a caught-up follower answers every read query identically to
the primary *by the same argument that makes recovery correct*: the log
is a linearization of the primary's confirmed mutations.

Two deliberate asymmetries with the primary:

* **Reads only.**  Mutations must flow through the primary (whose WAL
  is the single source of truth); the replica answers them with a
  structured ``UNSUPPORTED`` error, never by forking history.
* **Torn tails are benign.**  The primary may be mid-append when the
  follower polls; the scan simply stops at the damage and the next
  :meth:`catch_up` picks up the completed record.  Only a *sequence
  gap* — the primary compacted away segments the follower had not
  applied yet — forces a re-bootstrap from the newest snapshot.

Divergence checking rides the state digest: both sides hash the same
observable state ((name, revision, source) in registration order — cache
geometry deliberately excluded), so :meth:`matches_primary` is one
string comparison against :func:`~repro.persist.durability.live_state_digest`
of the primary (or :meth:`SnapshotState.digest` of any snapshot).
"""

from __future__ import annotations

from repro.api.errors import ApiError, ErrorCode
from repro.api.protocol import (
    BatchLiveness,
    LivenessQuery,
    LiveSetRequest,
    Request,
    Response,
    StatsRequest,
)
from repro.obs import Observability
from repro.persist.durability import live_state_digest
from repro.persist.recovery import restore_client
from repro.persist.snapshot import load_newest_snapshot
from repro.persist.wal import read_wal

#: Request types a replica answers; everything else is read-only-rejected.
READ_REQUESTS = (LivenessQuery, BatchLiveness, LiveSetRequest, StatsRequest)


class Replica:
    """A read-only follower over a primary's snapshot + WAL directory."""

    def __init__(
        self,
        directory: str,
        obs: Observability | None = None,
        catch_up: bool = True,
    ) -> None:
        self.directory = directory
        self.obs = obs if obs is not None else Observability()
        self._client = None
        self._applied = 0
        self._obs_applied = self.obs.counter("replica.applied")
        self._obs_bootstraps = self.obs.counter("replica.bootstraps")
        self._obs_position = self.obs.gauge("replica.position")
        self._bootstrap()
        if catch_up:
            self.catch_up()

    # ------------------------------------------------------------------
    # Log following
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """(Re)build the inner server from the newest valid snapshot."""
        state, _path, _damage = load_newest_snapshot(self.directory)
        self._client, _restored = restore_client(state, obs=self.obs)
        self._applied = state.last_seq if state is not None else 0
        self._obs_bootstraps.add(1)
        self._obs_position.set(self._applied)

    def catch_up(self) -> int:
        """Apply every new WAL entry; returns how many were applied.

        Never raises on damage: a torn tail just ends this round.  A
        sequence gap (compaction outran this follower) triggers one
        re-bootstrap from the newest snapshot, then a re-tail.
        """
        scan = read_wal(self.directory, after_seq=self._applied)
        if scan.entries and scan.entries[0][0] > self._applied + 1:
            # The primary compacted past us: segments holding
            # (applied, first) were pruned after a snapshot covered
            # them.  Restart from that snapshot.
            self._bootstrap()
            scan = read_wal(self.directory, after_seq=self._applied)
            if scan.entries and scan.entries[0][0] > self._applied + 1:
                return 0  # still racing the compactor; try again later
        applied = 0
        for seq, request in scan.entries:
            self._client.dispatch(request)
            self._applied = seq
            applied += 1
        if applied:
            self._obs_applied.add(applied)
            self._obs_position.set(self._applied)
        return applied

    @property
    def position(self) -> int:
        """Sequence number of the last applied WAL entry."""
        return self._applied

    # ------------------------------------------------------------------
    # Serving (reads only)
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer read requests; reject mutations with ``UNSUPPORTED``."""
        from repro.api.client import failure_response

        if isinstance(request, READ_REQUESTS):
            return self._client.dispatch(request)
        return failure_response(
            request,
            ApiError(
                ErrorCode.UNSUPPORTED,
                "replica is read-only: mutations must go to the primary",
            ),
        )

    # ------------------------------------------------------------------
    # Divergence checking
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Digest of the replica's observable state (see module docstring)."""
        return live_state_digest(self._client)

    def matches_primary(self, primary) -> bool:
        """Digest comparison against a live primary client.

        ``primary`` is anything with the export surface (a
        ``ShardedClient`` / ``ProcClient``).  Equal digests mean the
        follower would answer every read identically — the stronger
        query-level claim the differential tests establish once, and the
        digest then polices cheaply forever.
        """
        return self.state_digest() == live_state_digest(primary)

    def close(self) -> None:
        """Release the inner server (idempotent)."""
        self._client = None

    def __repr__(self) -> str:
        return f"Replica({self.directory!r}, position={self._applied})"
