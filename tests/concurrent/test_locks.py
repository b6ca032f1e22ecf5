"""Tests for the RW lock and the atomic counters under real threads."""

import sys
import threading
import time

import pytest

from repro.api import LivenessQuery, QueryKind, StatsRequest
from repro.concurrent import ShardedClient
from repro.concurrent.locks import LockMetrics, RWLock
from repro.obs import Observability
from repro.service import LivenessService, ServiceStats
from repro.service.service import STAT_FIELDS
from repro.utils import AtomicCounter
from tests.service.test_service import make_module

#: Generous per-test watchdog; a hang is a deadlock, not a slow machine.
WATCHDOG = 30.0


def join_all(threads, timeout=WATCHDOG):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    hung = sum(thread.is_alive() for thread in threads)
    if hung:
        pytest.fail(f"{hung} threads still running after {timeout}s (deadlock?)")


def spawn(target, count):
    threads = [
        threading.Thread(target=target, daemon=True) for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestAtomicCounter:
    def test_int_like_behaviour(self):
        counter = AtomicCounter()
        counter += 1
        counter += 2
        assert counter == 3
        assert counter > 2 and counter >= 3 and counter < 4 and counter <= 3
        assert counter != 4
        assert counter + 1 == 4 and 1 + counter == 4
        assert counter - 1 == 2 and 5 - counter == 2
        assert int(counter) == 3 and float(counter) == 3.0
        assert bool(counter) and not bool(AtomicCounter())
        assert f"{counter}" == "3" and f"{counter:04d}" == "0003"
        assert "AtomicCounter(3)" in repr(counter)
        counter.reset()
        assert counter == 0

    def test_comparisons_with_other_counters(self):
        a, b = AtomicCounter(2), AtomicCounter(3)
        assert a < b and b > a and a != b
        assert a == AtomicCounter(2)
        assert a.__eq__(object()) is NotImplemented

    def test_exact_totals_under_8_threads(self):
        counter = AtomicCounter()
        increments = 25_000

        def hammer():
            # (``counter += 1`` would rebind a closure local; the
            # augmented-assignment form is for *attributes*, as in
            # ``stats.queries += 1`` — covered below.)
            for _ in range(increments):
                counter.add(1)

        join_all(spawn(hammer, 8))
        assert counter == 8 * increments

    def test_add_returns_new_value_and_isub(self):
        counter = AtomicCounter(5)
        assert counter.add(3) == 8
        counter -= 2
        assert counter == 6


class TestServiceStatsThreadSafety:
    """Satellite regression: stats counters must not lose updates."""

    def test_stats_hammered_from_8_threads_exact_totals(self):
        stats = ServiceStats()
        increments = 10_000

        def hammer():
            for _ in range(increments):
                stats.queries += 1
                stats.hits += 1
                stats.misses += 1

        join_all(spawn(hammer, 8))
        assert stats.queries == 8 * increments
        assert stats.hits == 8 * increments
        assert stats.misses == 8 * increments
        assert stats.lookups == 16 * increments
        assert stats.hit_rate == 0.5

    def test_as_dict_is_plain_ints(self):
        stats = ServiceStats()
        stats.evictions += 2
        payload = stats.as_dict()
        assert payload["evictions"] == 2
        assert all(type(payload[name]) is int for name in STAT_FIELDS)
        assert type(payload["hit_rate"]) is float

    def test_aggregate_sums_parts(self):
        a, b = ServiceStats(), ServiceStats()
        a.hits += 3
        b.hits += 4
        b.queries += 1
        total = ServiceStats.aggregate([a, b])
        assert total.hits == 7 and total.queries == 1
        # Aggregation snapshots: later increments to parts do not leak in.
        a.hits += 10
        assert total.hits == 7

    def test_live_service_queries_from_threads_are_counted_exactly(self):
        import random

        from repro.synth import random_ssa_function

        rng = random.Random(3)
        function = random_ssa_function(rng, num_blocks=6, num_variables=3, name="f")
        service = LivenessService([function])
        var = function.variables()[0]
        block = function.entry.name
        per_thread = 2_000

        def hammer():
            for _ in range(per_thread):
                service.is_live_in("f", var, block)

        join_all(spawn(hammer, 8))
        assert service.stats.queries == 8 * per_thread


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(4, timeout=WATCHDOG)

        def reader():
            with lock.read():
                inside.wait()  # all 4 must be inside simultaneously

        join_all(spawn(reader, 4))

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        occupancy = AtomicCounter()
        writer_saw = []

        def writer():
            with lock.write():
                # Exclusive: the writer must be the only occupant.
                writer_saw.append(occupancy.add(1))
                time.sleep(0.001)
                occupancy.add(-1)

        def reader():
            with lock.read():
                occupancy.add(1)
                time.sleep(0.0005)
                occupancy.add(-1)

        threads = spawn(writer, 4) + spawn(reader, 8)
        join_all(threads)
        assert writer_saw and all(count == 1 for count in writer_saw)

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            with lock.write():
                writer_done.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert writer_started.wait(WATCHDOG)
        time.sleep(0.01)  # let the writer reach its wait
        # A new reader must queue behind the waiting writer.
        assert not lock.acquire_read(timeout=0.05)
        lock.release_read()
        assert writer_done.wait(WATCHDOG)
        thread.join(WATCHDOG)
        # With the writer gone, readers are admitted again.
        assert lock.acquire_read(timeout=WATCHDOG)
        lock.release_read()

    def test_acquire_write_timeout_under_reader(self):
        lock = RWLock()
        with lock.read():
            assert not lock.acquire_write(timeout=0.05)
        # Released: now it succeeds.
        assert lock.acquire_write(timeout=WATCHDOG)
        lock.release_write()

    def test_unbalanced_releases_fail_loudly(self):
        lock = RWLock()
        with pytest.raises(RuntimeError, match="release_read"):
            lock.release_read()
        with pytest.raises(RuntimeError, match="release_write"):
            lock.release_write()

    def test_repr_and_introspection(self):
        lock = RWLock()
        with lock.read():
            assert lock.readers == 1 and not lock.writer_active
        with lock.write():
            assert lock.writer_active
        assert "RWLock" in repr(lock)

    def test_timed_out_writer_wakes_queued_readers(self):
        """Regression: a writer timing out must notify queued readers.

        Pre-fix, ``acquire_write`` decremented ``_writers_waiting`` on
        the timeout path without a ``notify_all()``, so a reader parked
        on "no writer active or queued" behind the timed-out writer
        slept forever even though its predicate had become true (the
        original read hold does not block other readers).
        """
        lock = RWLock()
        assert lock.acquire_read()  # keeps the writer waiting until timeout
        reader_in = threading.Event()

        def late_reader():
            # Writer preference parks this behind the waiting writer.
            if lock.acquire_read(timeout=WATCHDOG):
                reader_in.set()
                lock.release_read()

        writer = threading.Thread(
            target=lambda: lock.acquire_write(timeout=0.5), daemon=True
        )
        writer.start()
        deadline = time.monotonic() + WATCHDOG
        while "waiting_writers=1" not in repr(lock):
            assert time.monotonic() < deadline, "writer never queued"
            time.sleep(0.001)
        reader = threading.Thread(target=late_reader, daemon=True)
        reader.start()
        time.sleep(0.05)  # let the reader park behind the writer
        # The writer times out at ~0.5s; the queued reader must proceed
        # promptly even though the original read hold never moves.
        assert reader_in.wait(5.0), (
            "reader stayed parked behind a timed-out writer (lost wakeup)"
        )
        join_all([writer, reader])
        lock.release_read()


class ParkingClock:
    """``time.perf_counter`` that flags the contended read branch.

    ``acquire_read`` reads the clock only once it has found the lock
    taken, still holding the lock's condition; a writer's
    ``release_write`` needs that condition, so it cannot run before the
    reader has parked in ``wait``.  Waiting on :attr:`parked` therefore
    orders "reader parked" before "writer releases" without sleeping.
    """

    def __init__(self) -> None:
        self.parked = threading.Event()

    def __call__(self) -> float:
        if sys._getframe(1).f_code.co_name == "acquire_read":
            self.parked.set()
        return time.perf_counter()


class TestLockMetrics:
    def test_uncontended_read_records_nothing(self):
        metrics = LockMetrics(Observability())
        lock = RWLock(metrics=metrics)
        with lock.read():
            pass
        assert metrics.read_wait.count == 0

    def test_write_records_wait_and_hold_once(self):
        metrics = LockMetrics(Observability())
        lock = RWLock(metrics=metrics)
        assert lock.acquire_write()
        lock.release_write()
        assert metrics.write_wait.count == 1
        assert metrics.write_hold.count == 1
        assert metrics.write_hold.sum >= 0.0

    def test_timed_out_writer_records_no_wait(self):
        metrics = LockMetrics(Observability())
        lock = RWLock(metrics=metrics)
        assert lock.acquire_read()
        assert not lock.acquire_write(timeout=0.01)
        lock.release_read()
        assert metrics.write_wait.count == 0
        assert metrics.write_hold.count == 0

    def test_parked_reader_wait_reaches_stats_through_the_client(self):
        module = make_module(4)
        clock = ParkingClock()
        client = ShardedClient(module, shards=2, obs=Observability(clock=clock))
        function = module.function("fn1")
        shard = client.service.shard_of(function.name)
        query = LivenessQuery(
            function=function.name,
            kind=QueryKind.LIVE_IN,
            variable=function.variables()[0].name,
            block=function.entry.name,
        )
        responses = []
        reader = threading.Thread(
            target=lambda: responses.append(client.dispatch(query)), daemon=True
        )
        with client.service.write_locked([function.name]):
            reader.start()
            assert clock.parked.wait(WATCHDOG), "reader never queued"
        join_all([reader])
        assert responses[0].ok
        snapshot = client.dispatch(StatsRequest()).snapshot
        wait = snapshot["histograms"][f"lock.read.wait_seconds{{shard={shard}}}"]
        assert wait["count"] == 1
        assert wait["sum"] > 0
        writes = snapshot["histograms"][f"lock.write.hold_seconds{{shard={shard}}}"]
        assert writes["count"] >= 1
        assert not any(
            key.startswith("lock.read.hold_seconds") for key in snapshot["histograms"]
        )
