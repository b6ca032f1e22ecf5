"""A writer-preferring reader/writer lock for the sharded serving layer.

The standard library has no RW lock; this one is built on a single
:class:`threading.Condition` and implements the policy the shard design
needs:

* any number of **readers** may hold the lock together — liveness queries
  against a shard are answered concurrently;
* a **writer** (edit notification, out-of-SSA translation, allocation,
  registration) is exclusive against readers and other writers;
* writers are **preferred**: once a writer is waiting, new readers queue
  behind it, so a steady query stream cannot starve edits.  Waiting
  readers are only admitted again when no writer is active or queued.

The lock is deliberately *not* reentrant — the concurrent layer never
nests acquisitions of the same shard (see the lock-order contract in
DESIGN.md), and non-reentrancy turns an ordering bug into a reproducible
deadlock the test watchdog reports instead of a silent self-upgrade.

Contention is observable: construct the lock with a :class:`LockMetrics`
and ``acquire_read``/``acquire_write`` themselves record **wait** time
(queueing for the lock — writer preference shows up here), so every
caller is measured, including the serving layer that takes the lock
without the context managers.  A reader records only when it actually
had to queue: the uncontended read fast path reads no clock.  The writer
also records **hold** time, from ``acquire_write`` to ``release_write``;
it is exclusive, so one timestamp field carries it across the two calls.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.obs import Observability


class LockMetrics:
    """Read/write wait and write hold histograms for one :class:`RWLock`."""

    __slots__ = ("clock", "read_wait", "write_wait", "write_hold")

    def __init__(self, obs: Observability, **labels) -> None:
        self.clock = obs.clock
        metrics = obs.metrics
        self.read_wait = metrics.histogram("lock.read.wait_seconds", **labels)
        self.write_wait = metrics.histogram("lock.write.wait_seconds", **labels)
        self.write_hold = metrics.histogram("lock.write.hold_seconds", **labels)


class RWLock:
    """Many concurrent readers XOR one exclusive writer, writers first."""

    def __init__(self, metrics: LockMetrics | None = None) -> None:
        #: The condition's own mutex, entered directly (a C-level
        #: ``with``) on the uncontended read paths.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._metrics = metrics
        #: Clock reading when the current writer acquired (metrics only).
        self._write_acquired = 0.0

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def acquire_read(self, timeout: float | None = None) -> bool:
        """Take the lock shared; ``False`` on timeout (no lock held)."""
        with self._mutex:
            # Uncontended fast path: no predicate lambda, no wait_for
            # machinery — this is the per-query cost of every read.
            if not self._writer_active and not self._writers_waiting:
                self._readers += 1
                return True
            metrics = self._metrics
            if metrics is not None:
                queued = metrics.clock()
            ok = self._cond.wait_for(
                lambda: not self._writer_active and not self._writers_waiting,
                timeout=timeout,
            )
            if ok:
                self._readers += 1
                if metrics is not None:
                    metrics.read_wait.observe(metrics.clock() - queued)
            return ok

    def release_read(self) -> None:
        with self._mutex:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._readers -= 1
            # Only a queued writer waits on "no readers": parked readers
            # wait for the writers, whose own exits wake them.
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def acquire_write(self, timeout: float | None = None) -> bool:
        """Take the lock exclusive; ``False`` on timeout (no lock held)."""
        metrics = self._metrics
        if metrics is not None:
            queued = metrics.clock()
        with self._cond:
            self._writers_waiting += 1
            ok = False
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer_active and not self._readers,
                    timeout=timeout,
                )
                if ok:
                    self._writer_active = True
                    if metrics is not None:
                        self._write_acquired = metrics.clock()
                        metrics.write_wait.observe(self._write_acquired - queued)
                return ok
            finally:
                self._writers_waiting -= 1
                if not ok and not self._writers_waiting:
                    # A timed-out (or interrupted) writer was the only
                    # thing holding readers back; without this wake-up
                    # readers parked on "no writer queued" sleep forever
                    # even though their predicate is now true.
                    self._cond.notify_all()

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            metrics = self._metrics
            if metrics is not None:
                metrics.write_hold.observe(metrics.clock() - self._write_acquired)
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Context managers
    # ------------------------------------------------------------------
    @contextmanager
    def read(self):
        """``with lock.read():`` — shared critical section."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """``with lock.write():`` — exclusive critical section."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # Introspection (tests and diagnostics only; inherently racy reads)
    # ------------------------------------------------------------------
    @property
    def readers(self) -> int:
        """Number of readers currently inside (snapshot)."""
        return self._readers

    @property
    def writer_active(self) -> bool:
        """Whether a writer currently holds the lock (snapshot)."""
        return self._writer_active

    def __repr__(self) -> str:
        return (
            f"RWLock(readers={self._readers}, writer={self._writer_active}, "
            f"waiting_writers={self._writers_waiting})"
        )
