"""The durability front door: wire a serving client to disk.

:class:`Durability` owns one state directory holding snapshots and WAL
segments, and plugs into a serving client through the client's existing
``observer`` hook — the callback the differential harness already uses
as its linearization witness.  Usage::

    durability = Durability("/var/lib/repro")
    client = ShardedClient(functions, observer=durability.observer)
    durability.attach(client)          # baseline snapshot, then armed
    ...
    durability.snapshot()              # compaction point, any time
    durability.close()

Ordering is the subtle part, so it is pinned down here once:

* The observer is *installed* at construction but *armed* by
  :meth:`attach`.  Until armed it drops everything, so the constructor
  burst of registrations is captured by the baseline snapshot rather
  than logged.
* :meth:`attach` arms the log **before** taking the baseline snapshot.
  ``export_state`` reads the WAL position *while holding every shard
  lock* — no mutation is in flight at that instant, so the snapshot
  covers exactly the appends numbered ``<= pinned`` and recovery replays
  exactly those ``> pinned``.  A mutation racing with attach is thus
  either in the snapshot and skipped at replay, or absent from it and
  replayed — never both, never neither.
* :meth:`snapshot` is the compaction path: same pinned export, then the
  WAL rotates (so the just-covered segment stops being the append
  target) and segments/snapshots the new snapshot supersedes are pruned.
"""

from __future__ import annotations

import os
import threading

from repro.obs import Observability
from repro.persist.policy import is_replayable
from repro.persist.precomp import export_precomputation
from repro.persist.snapshot import (
    SnapshotState,
    list_snapshots,
    make_snapshot_state,
    state_digest,
    write_snapshot,
)
from repro.persist.wal import (
    DEFAULT_FSYNC_INTERVAL,
    DEFAULT_SEGMENT_BYTES,
    WriteAheadLog,
    prune_segments,
)

#: Snapshots kept after compaction (the newest plus one fallback, so a
#: crash *during* snapshot write still leaves a valid restore point).
KEEP_SNAPSHOTS = 2


def capture_state(client, pin=None) -> SnapshotState:
    """One :class:`SnapshotState` of a live client, locks held once.

    ``client`` is anything with the export surface (``export_state`` /
    ``topology``) — :class:`~repro.concurrent.client.ShardedClient` or
    :class:`~repro.concurrent.procs.ProcClient`.  ``pin``, if given, is
    called while every shard lock is held and its value becomes the
    snapshot's ``last_seq`` (0 when absent); :meth:`Durability.snapshot`
    passes the live WAL position.
    """
    functions, precomps, pinned = client.export_state(pin)
    return make_snapshot_state(
        **client.topology(),
        functions=functions,
        precomps=tuple(export_precomputation(name, pre) for name, pre in precomps),
        last_seq=pinned,
    )


def live_state_digest(client) -> str:
    """Digest of a live client's observable state (functions+revisions).

    Computed over the same bytes as :meth:`SnapshotState.digest`, so a
    replica can compare itself against a primary — or against a snapshot
    — without either side shipping its full state.
    """
    functions, _precomps, _pinned = client.export_state()
    return state_digest(functions)


class Durability:
    """Snapshots plus WAL for one serving client, in one directory."""

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        keep_snapshots: int = KEEP_SNAPSHOTS,
        obs: Observability | None = None,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._segment_bytes = segment_bytes
        self._keep_snapshots = max(1, keep_snapshots)
        self._obs = obs if obs is not None else Observability()
        self._wal: WriteAheadLog | None = None
        self._client = None
        self._armed = False
        self._snapshot_lock = threading.Lock()
        self._closed = False
        self._obs_snap_writes = self._obs.counter("snapshot.writes")
        self._obs_snap_bytes = self._obs.gauge("snapshot.bytes")
        self._obs_snap_functions = self._obs.gauge("snapshot.functions")
        self._obs_snap_precomps = self._obs.gauge("snapshot.precomps")

    # ------------------------------------------------------------------
    # The serving-side hook
    # ------------------------------------------------------------------
    def observer(self, request, response) -> None:
        """Client observer: log the pair iff armed and replay-worthy.

        Runs at the linearization point (shard locks held), so append
        order is a valid linearization of the run.  Pass this as the
        client's ``observer=``; compose manually when tracing too.
        """
        if not self._armed:
            return
        if not is_replayable(request, response):
            return
        self._wal.append(request)

    @property
    def wal(self) -> WriteAheadLog | None:
        """The underlying log (``None`` before :meth:`attach`)."""
        return self._wal

    @property
    def last_seq(self) -> int:
        """Sequence number of the last logged mutation (0 before attach)."""
        return self._wal.last_seq if self._wal is not None else 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, client, start_seq: int = 0) -> str:
        """Arm the log over ``client`` and write the baseline snapshot.

        ``start_seq`` is where the log resumes numbering — 0 for a fresh
        directory; recovery passes the last replayed sequence so new
        appends extend the history it just consumed.  Returns the
        baseline snapshot's path.
        """
        if self._closed:
            raise ValueError("durability layer is closed")
        if self._armed:
            raise ValueError("already attached")
        self._client = client
        if self._wal is None:
            self._wal = WriteAheadLog(
                self.directory,
                fsync=self._fsync,
                fsync_interval=self._fsync_interval,
                segment_bytes=self._segment_bytes,
                start_seq=start_seq,
                obs=self._obs,
            )
        self._armed = True  # before the snapshot — see module docstring
        return self.snapshot()

    def snapshot(self) -> str:
        """Write a snapshot at the current WAL position, then compact.

        The export pins the WAL position under every shard lock, so the
        snapshot and the ``pinned`` sequence agree exactly.  Afterwards
        the log rotates and segments fully covered by the new snapshot
        are deleted, as are snapshots older than the retention window.
        Returns the new snapshot's path.
        """
        if not self._armed:
            raise ValueError("not attached to a client")
        with self._snapshot_lock:
            wal = self._wal
            state = capture_state(self._client, pin=lambda: wal.last_seq)
            path = write_snapshot(self.directory, state)
            self._obs_snap_writes.add(1)
            self._obs_snap_bytes.set(os.path.getsize(path))
            self._obs_snap_functions.set(len(state.functions))
            self._obs_snap_precomps.set(len(state.precomps))
            wal.rotate()
            prune_segments(self.directory, state.last_seq)
            self._prune_snapshots()
            return path

    def _prune_snapshots(self) -> None:
        snapshots = list_snapshots(self.directory)
        for _seq, path in snapshots[: -self._keep_snapshots]:
            os.unlink(path)

    def close(self) -> None:
        """Disarm and flush; idempotent.  The client is not closed."""
        self._armed = False
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Durability":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Durability({self.directory!r}, armed={self._armed}, "
            f"last_seq={self.last_seq})"
        )
