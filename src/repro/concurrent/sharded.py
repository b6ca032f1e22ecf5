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
import zlib
from typing import Iterable, Sequence

from repro.api.handles import FunctionHandle
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
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


def shard_of(name: str, shards: int) -> int:
    """The shard index owning function ``name``.

    Uses ``crc32`` rather than ``hash()`` so the partition is stable
    across processes and ``PYTHONHASHSEED`` values — the differential
    harness replays a concurrent run in a fresh service and the routing
    must be identical.
    """
    return zlib.crc32(name.encode("utf-8")) % shards


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


class ShardedService:
    """Thread-safe multi-function liveness serving, partitioned by name.

    Drop-in for :class:`~repro.service.LivenessService` where it matters
    (``register``/``submit``/``notify_*``/``destruct``/handles/stats),
    with the concurrency contract described in the module docstring.

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
        self._strategy = strategy
        per_shard = max(1, -(-capacity // shards))  # ceil division
        self._shards = tuple(
            _Shard(index, per_shard, strategy, self.obs)
            for index in range(shards)
        )
        #: Guards the global registration-order list (and multi-function
        #: registration as a whole).  Acquired *before* any shard lock.
        self._registry_lock = threading.Lock()
        self._order: list[str] = []
        #: name → shard index, memoized at registration time so the hot
        #: submit path does one dict probe instead of a crc32 per request.
        #: Written only under the registry lock; read lock-free (a dict
        #: store is atomic under the GIL, and entries are never changed).
        self._shard_index: dict[str, int] = {}
        if module is not None:
            for function in module:
                self.register(function)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def capacity(self) -> int:
        """Total resident-checker budget (sum of shard capacities)."""
        return sum(shard.service.capacity for shard in self._shards)

    @property
    def strategy(self) -> str:
        """``TargetSets`` strategy handed to every shard's checkers."""
        return self._strategy

    def shard_of(self, name: str) -> int:
        """The shard index owning function ``name``."""
        index = self._shard_index.get(name)
        if index is None:
            index = shard_of(name, len(self._shards))
        return index

    def service_for(self, name: str) -> LivenessService:
        """The (unlocked) shard service owning ``name`` — callers must
        hold the shard's lock (see :meth:`read_locked`/:meth:`write_locked`)."""
        return self._shards[self.shard_of(name)].service

    def read_shard(self, name: str):
        """Read-lock the one shard owning ``name``; return ``(index, lock)``.

        The single-function query path: routing probes only the
        memoized ``_shard_index`` dict (atomic under the GIL; the hash
        for an unregistered name), and the lock is taken with a plain
        ``acquire_read`` under a ``shard_lock`` span.  The caller
        releases with ``lock.release_read()``.
        """
        index = self._shard_index.get(name)
        if index is None:
            index = shard_of(name, len(self._shards))
        lock = self._shards[index].lock
        with self.obs.span("shard_lock", mode="read"):
            lock.acquire_read()
        return index, lock

    def shard_services(self) -> tuple[LivenessService, ...]:
        """Every shard's service, by shard index (for per-shard clients)."""
        return tuple(shard.service for shard in self._shards)

    # ------------------------------------------------------------------
    # Lock helpers (the client layer builds on these)
    # ------------------------------------------------------------------
    def read_locked(self, names: Iterable[str]) -> "_ShardLocks":
        """Hold the read lock of every shard owning one of ``names``.

        Locks are acquired in increasing shard index (the global lock
        order) and released in reverse, so any set of functions can be
        read atomically without deadlock.
        """
        return _ShardLocks(self, self._indices(names), write=False)

    def write_locked(self, names: Iterable[str]) -> "_ShardLocks":
        """Hold the write lock of every shard owning one of ``names``."""
        return _ShardLocks(self, self._indices(names), write=True)

    def _indices(self, names: Iterable[str]) -> list[int]:
        return sorted({self.shard_of(name) for name in names})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, function: Function) -> Function:
        """Make ``function`` servable (thread-safe; names must be unique)."""
        self.register_all([function])
        return function

    def register_all(
        self, functions: Sequence[Function], on_registered=None
    ) -> list[FunctionHandle]:
        """Register several functions atomically (all or nothing).

        Duplicate names — against the service *or* within the batch —
        fail before anything is registered, mirroring the serial
        compile-and-register path.  Returns the freshly minted handles;
        ``on_registered``, if given, is called with them *while the locks
        are still held* — the linearization hook the trace-recording
        client needs (a concurrent query must not be able to slip between
        the registration and its observation).
        """
        names = [function.name for function in functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function name in batch: {names!r}")
        with self._registry_lock:
            with self.write_locked(names):
                for function in functions:
                    if function.name in self.service_for(function.name):
                        raise ValueError(
                            f"duplicate function name {function.name!r}"
                        )
                handles = []
                for function in functions:
                    service = self.service_for(function.name)
                    service.register(function)
                    self._order.append(function.name)
                    self._shard_index[function.name] = self.shard_of(
                        function.name
                    )
                    handles.append(service.handle(function.name))
                if on_registered is not None:
                    on_registered(handles)
                return handles

    def functions(self) -> list[str]:
        """Names of every registered function, in registration order."""
        with self._registry_lock:
            return list(self._order)

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
    # Snapshot export / import (the persist layer's surface)
    # ------------------------------------------------------------------
    def export_state(self, pin=None):
        """A consistent cut of the whole service's observable state.

        Acquires the registry lock, then *every* shard's read lock in
        index order — with all of them held no mutation is in flight
        anywhere, so the cut is a linearization point.  ``pin``, if
        given, is called **while the locks are held**; the durability
        layer passes ``lambda: wal.last_seq`` so the snapshot and the
        WAL position agree exactly (appends happen under shard write
        locks, which are all excluded here).

        Returns ``(functions, precomps, pinned)``: the
        ``(name, revision, printed source)`` triples in registration
        order, the ``(name, precomputation)`` pairs of every warm
        checker (shard order, LRU within a shard), and ``pin``'s value
        (0 when absent).
        """
        with self._registry_lock, _ShardLocks(self, range(self.num_shards), write=False):
            pinned = pin() if pin is not None else 0
            functions = []
            for name in self._order:
                service = self.service_for(name)
                functions.append(
                    (
                        name,
                        service.revision(name),
                        print_function(service.function(name)),
                    )
                )
            precomps: list[tuple[str, object]] = []
            for shard in self._shards:
                precomps.extend(shard.service.export_precomputations())
            return functions, precomps, pinned

    def import_state(self, functions) -> None:
        """Reinstate exported ``(name, revision, source)`` triples.

        The restore-path mirror of :meth:`register_all`: all-or-nothing
        validation, global registration order preserved, but revisions
        land exactly as exported instead of starting at 0.
        """
        triples = list(functions)
        names = [name for name, _revision, _source in triples]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function name in snapshot: {names!r}")
        with self._registry_lock, _ShardLocks(self, range(self.num_shards), write=True):
            for name in names:
                if name in self.service_for(name):
                    raise ValueError(f"duplicate function name {name!r}")
            for name, revision, source in triples:
                self.service_for(name).import_function(name, revision, source)
                self._order.append(name)
                self._shard_index[name] = self.shard_of(name)

    def install_checker(self, name: str, checker) -> None:
        """Install a pre-built checker on the owning shard (restore path)."""
        with self.write_locked([name]):
            self.service_for(name).install_checker(name, checker)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_live_in(self, function: str, var: Variable, block: str) -> bool:
        """Live-in query under the owning shard's read lock."""
        index, lock = self.read_shard(function)
        try:
            return self._shards[index].service.is_live_in(function, var, block)
        finally:
            lock.release_read()

    def is_live_out(self, function: str, var: Variable, block: str) -> bool:
        """Live-out query under the owning shard's read lock."""
        index, lock = self.read_shard(function)
        try:
            return self._shards[index].service.is_live_out(function, var, block)
        finally:
            lock.release_read()

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

        shard_index = self._shard_index
        num_shards = len(self._shards)
        shards = self._shards
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
                    service = shards[index].service
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
        return ServiceStats.aggregate(
            shard.service.stats for shard in self._shards
        )

    def shard_stats(self) -> list[ServiceStats]:
        """Per-shard stats objects (live, not snapshots), by shard index."""
        return [shard.service.stats for shard in self._shards]

    def __repr__(self) -> str:
        return (
            f"ShardedService(functions={len(self)}, shards={self.num_shards}, "
            f"capacity={self.capacity})"
        )
