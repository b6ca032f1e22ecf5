"""A sharded, thread-safe front door over :class:`~repro.service.LivenessService`.

One serial :class:`LivenessService` owns every function and every cached
checker; two clients editing and querying through it concurrently can
corrupt the LRU cache or read a half-invalidated checker.
:class:`ShardedService` makes concurrency a structural property instead:

* the module's functions are **partitioned across N shards** by a stable
  hash of the function name (``zlib.crc32``, so the partition does not
  depend on ``PYTHONHASHSEED``);
* each shard owns its *own* :class:`LivenessService` — its own function
  table, revision table, LRU checker cache and stats — behind a per-shard
  :class:`~repro.concurrent.locks.RWLock`;
* **queries** take the owning shard's read lock (many readers run
  together; the only shared mutations on that path — LRU touches, stats,
  lazily compiled query plans — are made safe below);
* **mutations** (edit notifications, out-of-SSA translation, register)
  take the shard's write lock and bump the function's revision while
  exclusive, so the revisioned :class:`~repro.api.handles.FunctionHandle`
  protocol is the synchronization currency: a reader that validated its
  handle under the read lock cannot observe a half-applied edit;
* **cross-shard batches** (:meth:`submit`) acquire every involved shard's
  read lock in shard-index order, answer the split sub-streams, and
  reassemble the answers in request order — the whole batch is one
  linearization point.

Why queries may share a shard
-----------------------------
A query's hot path *does* write: the checker-cache LRU order, the stats
counters, and the lazily compiled per-variable query plans.  Each is made
safe for concurrent readers a different way:

* checker lookup/build/eviction is serialized by a small per-shard mutex
  (:class:`_ShardService`), held only around the cache operation — never
  while answering;
* stats counters are :class:`~repro.utils.AtomicCounter` fields;
* plan/batch-mask compilation is a benign race: plans are immutable,
  derived from state frozen under the read lock, and published with a
  single (GIL-atomic) dict store — two readers may compile the same plan
  twice, but both results are identical and either may win.

Lock order (must hold everywhere, see DESIGN.md):
``registry lock → shard locks in increasing shard index → per-shard cache
mutex``.  No code path acquires a shard lock while holding a
higher-indexed shard's lock or any cache mutex.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from repro.api.client import LocalPlacement, shard_of
from repro.api.handles import FunctionHandle
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.value import Variable
from repro.obs import Observability
from repro.service.service import (
    DEFAULT_CAPACITY,
    LivenessRequest,
    LivenessService,
    ServiceStats,
)

#: Default shard count; small enough that per-shard LRU caches stay
#: useful, large enough that independent functions rarely contend.
DEFAULT_SHARDS = 4


class _ShardService(LivenessService):
    """One shard's service: a ``LivenessService`` safe for shared readers.

    The base class is written for one thread.  Under the sharded layer,
    *mutating* entry points only run under the shard's write lock, but
    queries run under the shared read lock — and a query still touches
    the LRU checker cache.  This subclass serializes exactly those cache
    operations behind a private mutex; everything else on the query path
    is already safe (atomic stats, immutable plans, benign rebuild races).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cache_mutex = threading.Lock()

    def checker(self, name: str):
        # Lock-free hit path: ``dict.get`` and ``move_to_end`` are single
        # C calls (atomic under the GIL), so the only cross-call hazard is
        # another reader evicting ``name`` between them — in which case
        # the checker we already hold stays perfectly valid and only the
        # LRU touch is skipped.  Misses (build + insert + evict, a
        # multi-step sequence) serialize on the mutex; it re-checks the
        # cache, so two racing misses build once.
        cached = self._checkers.get(name)
        if cached is not None:
            try:
                self._checkers.move_to_end(name)
            except KeyError:
                pass
            self.stats.hits += 1
            return cached
        with self._cache_mutex:
            return super().checker(name)

    def evict(self, name: str) -> bool:
        with self._cache_mutex:
            return super().evict(name)

    def clear(self) -> None:
        with self._cache_mutex:
            super().clear()

    def resident(self) -> list[str]:
        # The base class iterates the OrderedDict directly; under shared
        # readers another thread's miss can insert mid-iteration.  The
        # mutex makes the listing a consistent point-in-time snapshot.
        with self._cache_mutex:
            return super().resident()

    def export_precomputations(self) -> list[tuple[str, object]]:
        # Same iteration hazard as resident(): snapshot under the mutex.
        with self._cache_mutex:
            return super().export_precomputations()

    def install_checker(self, name: str, checker) -> None:
        with self._cache_mutex:
            super().install_checker(name, checker)


class _Shard:
    """One shard: its lock plus its service."""

    __slots__ = ("index", "lock", "service")

    def __init__(
        self,
        index: int,
        capacity: int,
        strategy: str,
        obs: Observability,
    ) -> None:
        from repro.concurrent.locks import LockMetrics, RWLock

        self.index = index
        self.lock = RWLock(metrics=LockMetrics(obs, shard=index))
        self.service = _ShardService(
            capacity=capacity,
            strategy=strategy,
            obs=obs,
            obs_labels={"shard": index},
        )


class _ShardLocks:
    """One ``with`` block holding the locks of the shards at ``indices``.

    ``indices`` must be sorted (the global lock order).  Acquisition
    runs under a ``shard_lock`` span; every lock taken is released in
    reverse on exit — exceptions included, and also when acquisition
    itself fails half-way.
    """

    __slots__ = ("locks", "write", "obs", "acquired")

    def __init__(self, service: "ShardedService", indices, write: bool) -> None:
        self.locks = [service._shards[index].lock for index in indices]
        self.write = write
        self.obs = service.obs
        self.acquired: list = []

    def __enter__(self) -> None:
        try:
            with self.obs.span("shard_lock", mode="write" if self.write else "read"):
                for lock in self.locks:
                    lock.acquire_write() if self.write else lock.acquire_read()
                    self.acquired.append(lock)
        except BaseException:
            self.__exit__()
            raise

    def __exit__(self, *exc_info) -> bool:
        while self.acquired:
            lock = self.acquired.pop()
            lock.release_write() if self.write else lock.release_read()
        return False


class ShardedService(LocalPlacement):
    """Thread-safe multi-function liveness serving, partitioned by name.

    Drop-in for :class:`~repro.service.LivenessService` where it matters
    (``register``/``submit``/``notify_*``/``destruct``/handles/stats),
    with the concurrency contract described in the module docstring.
    It is also the thread placement of
    :class:`~repro.concurrent.client.ShardedClient`: the registry
    (``register_all``, ``import_state``, the ``export_state`` cut) and
    the request handlers come from
    :class:`~repro.api.client.LocalPlacement`, run under the shard locks
    taken here.

    Parameters
    ----------
    module:
        Functions to serve (a :class:`Module` or iterable); more can be
        registered later.
    shards:
        Number of shards (≥ 1).
    capacity:
        Total resident-checker budget, divided evenly across shards
        (each shard gets at least 1).
    strategy:
        ``TargetSets`` strategy handed to every checker.
    obs:
        One :class:`repro.obs.Observability` shared by every shard's
        service and lock (metrics labelled ``shard=i``); a private
        instance is created when omitted.
    """

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        shards: int = DEFAULT_SHARDS,
        capacity: int = DEFAULT_CAPACITY,
        strategy: str = "exact",
        obs: Observability | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.obs = obs if obs is not None else Observability()
        per_shard = max(1, -(-capacity // shards))  # ceil division
        self._shards = tuple(
            _Shard(index, per_shard, strategy, self.obs)
            for index in range(shards)
        )
        super().__init__([shard.service for shard in self._shards])
        if module is not None:
            for function in module:
                self.register(function)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self.parts

    #: The shard index owning function ``name``.
    shard_of = LocalPlacement.index_of

    def service_for(self, name: str) -> LivenessService:
        """The (unlocked) shard service owning ``name`` — callers must
        hold the shard's lock (see :meth:`read_locked`/:meth:`write_locked`)."""
        return self._services[self.index_of(name)]

    def shard_services(self) -> tuple[LivenessService, ...]:
        """Every shard's service, by shard index."""
        return self._services

    # ------------------------------------------------------------------
    # Locking (the placement hooks and their public forms)
    # ------------------------------------------------------------------
    def _locked(self, indices, write: bool) -> "_ShardLocks":
        return _ShardLocks(self, indices, write)

    def _read_one(self, name: str):
        """Read-lock the one shard owning ``name``; return ``(index, release)``.

        The single-function query path: routing probes only the
        memoized name → index dict (atomic under the GIL; the hash for
        an unregistered name), and the lock is taken with a plain
        ``acquire_read`` under a ``shard_lock`` span.
        """
        index = self._index.get(name)
        if index is None:
            index = shard_of(name, self.parts)
        lock = self._shards[index].lock
        with self.obs.span("shard_lock", mode="read"):
            lock.acquire_read()
        return index, lock.release_read

    def read_locked(self, names: Iterable[str]) -> "_ShardLocks":
        """Hold the read lock of every shard owning one of ``names``.

        Locks are acquired in increasing shard index (the global lock
        order) and released in reverse, so any set of functions can be
        read atomically without deadlock.
        """
        return _ShardLocks(self, self.indices(names), write=False)

    def write_locked(self, names: Iterable[str]) -> "_ShardLocks":
        """Hold the write lock of every shard owning one of ``names``."""
        return _ShardLocks(self, self.indices(names), write=True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def function(self, name: str) -> Function:
        """The registered function object (``KeyError`` when unknown)."""
        with self.read_locked([name]):
            return self.service_for(name).function(name)

    def __contains__(self, name: str) -> bool:
        with self.read_locked([name]):
            return name in self.service_for(name)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._order)

    # ------------------------------------------------------------------
    # Revisions and handles
    # ------------------------------------------------------------------
    def revision(self, name: str) -> int:
        """The function's current edit revision."""
        with self.read_locked([name]):
            return self.service_for(name).revision(name)

    def handle(self, name: str) -> FunctionHandle:
        """Mint a handle pinned to the current revision."""
        with self.read_locked([name]):
            return self.service_for(name).handle(name)

    def check_handle(self, handle: FunctionHandle) -> Function:
        """Resolve a handle, rejecting unknown names and stale revisions."""
        with self.read_locked([handle.name]):
            return self.service_for(handle.name).check_handle(handle)

    # ------------------------------------------------------------------
    # Cache geometry
    # ------------------------------------------------------------------
    def resident(self) -> list[str]:
        """Every function with a live checker, grouped by shard."""
        names: list[str] = []
        for shard in self._shards:
            with shard.lock.read():
                names.extend(shard.service.resident())
        return names

    def evict(self, name: str) -> bool:
        """Drop one function's checker (revisions/handles stay valid)."""
        with self.write_locked([name]):
            return self.service_for(name).evict(name)

    def clear(self) -> None:
        """Drop every resident checker on every shard."""
        for shard in self._shards:
            with shard.lock.write():
                shard.service.clear()

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def install_checker(self, name: str, checker) -> None:
        """Install a pre-built checker on the owning shard (restore path)."""
        with self.write_locked([name]):
            self.service_for(name).install_checker(name, checker)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_live_in(self, function: str, var: Variable, block: str) -> bool:
        """Live-in query under the owning shard's read lock."""
        index, release = self._read_one(function)
        try:
            return self._services[index].is_live_in(function, var, block)
        finally:
            release()

    def is_live_out(self, function: str, var: Variable, block: str) -> bool:
        """Live-out query under the owning shard's read lock."""
        index, release = self._read_one(function)
        try:
            return self._services[index].is_live_out(function, var, block)
        finally:
            release()

    def submit(
        self, requests: Sequence[LivenessRequest | tuple[str, str, Variable, str]]
    ) -> list[bool]:
        """Answer a mixed multi-function stream, in request order.

        Every involved shard's read lock is acquired up front (in shard
        index order) and held for the duration — the whole batch is one
        linearization point — then the stream is answered *in order*
        against the owning shards' checkers, with per-function checker
        lookups amortized over runs exactly like the serial service.
        This path is the single-thread no-regression budget the
        concurrency bench guards, so it stays allocation-lean: one
        routing pass that only collects the involved shard set, then one
        answering pass.
        """
        from repro.api.protocol import QueryKind

        shard_index = self._index
        num_shards = self.parts
        services = self._services
        # Pass 1: the involved-shard set (shard lookups amortized over
        # runs of the same function name, the common stream shape).
        involved: set[int] = set()
        last_name: str | None = None
        for request in requests:
            name = (
                request.function
                if isinstance(request, LivenessRequest)
                else request[0]
            )
            if name != last_name:
                index = shard_index.get(name)
                if index is None:  # unregistered: routed, then fails loudly
                    index = shard_of(name, num_shards)
                involved.add(index)
                last_name = name
        # Pass 2: answer in request order under the read locks.
        answers: list[bool] = []
        live_in = QueryKind.LIVE_IN
        live_out = QueryKind.LIVE_OUT
        with _ShardLocks(self, sorted(involved), write=False):
            current_name: str | None = None
            batch = None
            stats = None
            for request in requests:
                if not isinstance(request, LivenessRequest):
                    request = LivenessRequest(*request)
                name = request.function
                if name != current_name:
                    index = shard_index.get(name)
                    if index is None:
                        index = shard_of(name, num_shards)
                    service = services[index]
                    batch = service.checker(name).batch
                    stats = service.stats
                    current_name = name
                assert batch is not None and stats is not None
                stats.queries += 1
                kind = request.kind
                if kind == live_in:
                    answers.append(batch.is_live_in(request.variable, request.block))
                elif kind == live_out:
                    answers.append(batch.is_live_out(request.variable, request.block))
                else:
                    raise ValueError(f"unknown query kind {kind!r}")
        return answers

    # ------------------------------------------------------------------
    # Edit notifications and mutating passes (write-locked)
    # ------------------------------------------------------------------
    def notify_cfg_changed(self, function: str, delta=None) -> None:
        """CFG edit: exclusive on the owning shard, bumps the revision.

        ``delta`` (a :class:`~repro.core.incremental.CfgDelta`, when the
        caller can describe the edit) is forwarded so the owning shard's
        service can patch the precomputation instead of dropping it.
        """
        with self.write_locked([function]):
            self.service_for(function).notify_cfg_changed(function, delta)

    def notify_instructions_changed(self, function: str) -> None:
        """Instruction edit: exclusive on the owning shard."""
        with self.write_locked([function]):
            self.service_for(function).notify_instructions_changed(function)

    def notify_variable_changed(self, function: str, var: Variable) -> None:
        """Single-variable edit: exclusive on the owning shard."""
        with self.write_locked([function]):
            self.service_for(function).notify_variable_changed(function, var)

    def destruct(self, function: str, **kwargs):
        """Out-of-SSA translation, exclusive on the owning shard."""
        with self.write_locked([function]):
            return self.service_for(function).destruct(function, **kwargs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """A snapshot summing every shard's counters."""
        return ServiceStats.aggregate(service.stats for service in self._services)

    def shard_stats(self) -> list[ServiceStats]:
        """Per-shard stats objects (live, not snapshots), by shard index."""
        return [service.stats for service in self._services]

    def __repr__(self) -> str:
        return (
            f"ShardedService(functions={len(self)}, shards={self.num_shards}, "
            f"capacity={self.capacity})"
        )
