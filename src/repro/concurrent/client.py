"""The thread-safe protocol front door: ``dispatch`` over a sharded service.

:class:`ShardedClient` speaks exactly the protocol of
:class:`~repro.api.client.CompilerClient` — same request/response types,
same structured errors, same never-raise boundary — but may be called
from any number of threads at once.  Internally it runs one serial
``CompilerClient`` per shard (each wrapping that shard's
:class:`~repro.service.LivenessService`) and brackets every request with
the owning shard's lock:

===========================  =======================================
request type                 locking
===========================  =======================================
``LivenessQuery``            read lock of the owning shard
``LiveSetRequest``           read lock of the owning shard
``BatchLiveness``            read locks of *every* involved shard,
                             acquired in shard-index order and held for
                             the whole batch (one linearization point)
``DestructRequest``          write lock of the owning shard
``AllocateRequest``          write lock of the owning shard
``CompileSourceRequest``     registry lock + write locks of the shards
                             receiving the new functions
===========================  =======================================

Every dispatch is thereby **linearizable**: it takes effect atomically at
a single point in time (while its locks are held).  The optional
``observer`` callback is invoked exactly once per dispatch with
``(request, response)`` — for lock-protected requests *while the locks
are still held*, which is what lets the differential concurrency harness
record a total order whose serial replay must produce bit-identical
responses.  Responses that depend on no mutable state (malformed
requests, compile errors, duplicate-name rejections — duplicates are
monotone: once taken, a name is never freed) are observed after the
guard instead; they commute with every other operation.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.api.client import (
    LIVENESS_ANSWERS,
    CompilerClient,
    answer_batch,
    api_error,
    dispatch_json_via,
    dispatch_liveness,
    failure_response,
    guarded_dispatch,
    timed_lane,
)
from repro.api.errors import ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    EvictRequest,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    NotifyRequest,
    QueryKind,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
)
from repro.concurrent.sharded import DEFAULT_SHARDS, ShardedService
from repro.ir.function import Function
from repro.ir.module import Module
from repro.obs import Observability
from repro.service.service import DEFAULT_CAPACITY

#: Signature of the linearization hook (see module docstring).
Observer = Callable[[Request, Response], None]


class ShardedClient:
    """Concurrent drop-in for :class:`~repro.api.client.CompilerClient`."""

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        shards: int = DEFAULT_SHARDS,
        capacity: int = DEFAULT_CAPACITY,
        strategy: str = "exact",
        observer: Observer | None = None,
        obs: Observability | None = None,
    ) -> None:
        # Observability is on by default (tracing included): the PR-5
        # differential harness runs against this default, which is what
        # proves recording never changes a response.
        self.obs = obs if obs is not None else Observability()
        self._sharded = ShardedService(
            shards=shards, capacity=capacity, strategy=strategy, obs=self.obs
        )
        # Per-shard clients share the stack's Observability but do not
        # time dispatch themselves — this front door does, so each
        # request lands in dispatch.seconds exactly once.
        self._clients = tuple(
            CompilerClient(service=service, obs=self.obs, record_dispatch=False)
            for service in self._sharded.shard_services()
        )
        self._dispatch_seconds = self.obs.histogram("dispatch.seconds")
        self._observer = observer
        #: The one liveness lane, thread-safe and observed:
        #: ``(name, revision, want_in, variable, block, request=None) ->
        #: bool | LivenessResponse``.  Typed, JSON and bin2 callers all
        #: end here; see :meth:`_liveness`.
        self.query_liveness = timed_lane(
            self.obs, self._dispatch_seconds, self._liveness
        )
        self._observed = threading.local()
        #: Lazily-created session backing :meth:`dispatch_bytes`.
        self._default_bytes_session = None
        if module is not None:
            self._sharded.register_all(list(module))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> ShardedService:
        """The underlying sharded service (stats, topology, locks)."""
        return self._sharded

    def handle(self, name: str) -> FunctionHandle:
        """A fresh handle for ``name`` at its current revision."""
        return self._sharded.handle(name)

    # ------------------------------------------------------------------
    # Snapshot export / import (delegated to the sharded service)
    # ------------------------------------------------------------------
    def export_state(self, pin=None):
        """A consistent state cut — see :meth:`ShardedService.export_state`."""
        return self._sharded.export_state(pin=pin)

    def import_state(self, functions) -> None:
        """Reinstate exported ``(name, revision, source)`` triples."""
        self._sharded.import_state(functions)

    def install_checker(self, name: str, checker) -> None:
        """Install a pre-built checker (snapshot-restore path)."""
        self._sharded.install_checker(name, checker)

    def topology(self) -> dict:
        """Serving geometry for snapshot headers: shards/capacity/strategy."""
        return {
            "shards": self._sharded.num_shards,
            "capacity": self._sharded.capacity,
            "strategy": self._sharded.strategy,
        }

    def compile(
        self, source: str, module_name: str = "module"
    ) -> tuple[FunctionHandle, ...]:
        """Compile and register ``source``; raise on failure."""
        response = self.dispatch(
            CompileSourceRequest(source=source, module_name=module_name)
        )
        if response.error is not None:
            raise ProtocolError(response.error.code, response.error.detail)
        assert response.functions is not None
        return response.functions

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer one protocol request; thread-safe, never raises."""
        if isinstance(request, LivenessQuery):
            return dispatch_liveness(self.query_liveness, request)
        clock = self.obs.clock
        start = clock()
        self._observed.seen = False
        with self.obs.span("dispatch", request=type(request).__name__):
            response = guarded_dispatch(request, self._dispatch, self._failure)
        # Requests that never reached a locked section (stateless errors)
        # are observed here; everything else was observed under its locks.
        if not getattr(self._observed, "seen", True):
            self._notify(request, response)
        self._dispatch_seconds.observe(clock() - start)
        return response

    def dispatch_json(self, payload) -> dict:
        """Wire driver: JSON envelope in, JSON envelope out, thread-safe."""
        return dispatch_json_via(self.dispatch, payload, obs=self.obs)

    def bytes_session(self):
        """A fresh byte-speaking connection over this client.

        One session per connection (the string table is connection
        state); many submitter threads may share one session when the
        wire server serializes ingestion.  Liveness-query frames ride
        :meth:`query_liveness`, observed like every other request.
        """
        from repro.api.codec import BytesServerSession

        return BytesServerSession(
            self.dispatch, obs=self.obs, liveness=self.query_liveness
        )

    def dispatch_bytes(self, data) -> bytes:
        """Wire driver: one frame in, one frame out, never raises."""
        if self._default_bytes_session is None:
            self._default_bytes_session = self.bytes_session()
        return self._default_bytes_session.dispatch_frame(data)

    def _liveness(self, name, revision, want_in, variable, block, request=None):
        """Answer one liveness query under the owning shard's read lock.

        Takes the lock directly, answers through the shard client's
        :meth:`CompilerClient.answer_liveness` core, and calls the
        observer *under the lock* — building the ``(LivenessQuery,
        LivenessResponse)`` pair only when an observer is installed.
        Returns the bit, or the error-carrying :class:`LivenessResponse`;
        never raises (a failing observer becomes an ``INTERNAL`` error).
        """
        index, lock = self._sharded.read_shard(name)
        try:
            try:
                result = self._clients[index].answer_liveness(
                    name, revision, want_in, variable, block
                )
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                result = LivenessResponse(error=api_error(exc))
            if self._observer is not None:
                if request is None:
                    request = LivenessQuery(
                        function=FunctionHandle(name, revision),
                        kind=QueryKind.LIVE_IN if want_in else QueryKind.LIVE_OUT,
                        variable=variable,
                        block=block,
                    )
                self._observer(
                    request,
                    LIVENESS_ANSWERS[result] if result.__class__ is bool else result,
                )
        except Exception as exc:  # noqa: BLE001 - a failing observer
            result = LivenessResponse(error=api_error(exc))
        finally:
            lock.release_read()
        return result

    _failure = staticmethod(failure_response)

    def _notify(self, request: Request, response: Response) -> None:
        self._observed.seen = True
        if self._observer is not None:
            self._observer(request, response)

    def _dispatch(self, request: Request) -> Response:
        if isinstance(request, LiveSetRequest):
            name = request.function.name
            with self._sharded.read_locked([name]):
                response = self._client_for(name).dispatch(request)
                self._notify(request, response)
                return response
        if isinstance(request, BatchLiveness):
            return self._batch(request)
        if isinstance(
            request, (DestructRequest, AllocateRequest, NotifyRequest, EvictRequest)
        ):
            name = request.function.name
            with self._sharded.write_locked([name]):
                response = self._client_for(name).dispatch(request)
                self._notify(request, response)
                return response
        if isinstance(request, CompileSourceRequest):
            return self._compile_source(request)
        if isinstance(request, StatsRequest):
            return self._stats(request)
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unsupported request type {type(request).__name__}",
        )

    def _client_for(self, name: str) -> CompilerClient:
        return self._clients[self._sharded.shard_of(name)]

    # ------------------------------------------------------------------
    # Cross-shard requests
    # ------------------------------------------------------------------
    def _batch(self, request: BatchLiveness) -> Response:
        queries = request.queries
        # Hold every involved shard's read lock for the whole stream and
        # answer it in one pass against the owning shards' clients: the
        # first failing query decides the batch's error, exactly as in
        # the serial client.  An empty batch locks nothing.
        with self._sharded.read_locked([query.function.name for query in queries]):
            try:
                response = answer_batch(queries, self._client_for)
            except Exception as exc:  # noqa: BLE001 - the boundary must hold
                response = BatchLivenessResponse(error=api_error(exc))
            self._notify(request, response)
            return response

    def _compile_source(
        self, request: CompileSourceRequest
    ) -> CompileSourceResponse:
        from repro.frontend.compile import compile_source

        try:
            module = compile_source(request.source, name=request.module_name)
        except ValueError as exc:
            raise ProtocolError(ErrorCode.COMPILE_ERROR, str(exc)) from None
        holder: list[CompileSourceResponse] = []

        def observe_registered(handles: list[FunctionHandle]) -> None:
            response = CompileSourceResponse(functions=tuple(handles))
            holder.append(response)
            self._notify(request, response)

        try:
            self._sharded.register_all(
                list(module), on_registered=observe_registered
            )
        except ValueError as exc:
            # Duplicate names (against the service or within the batch).
            raise ProtocolError(ErrorCode.DUPLICATE_FUNCTION, str(exc)) from None
        return holder[0]

    def _stats(self, request: StatsRequest) -> StatsResponse:
        """Whole-stack introspection: every shard's metrics in one snapshot.

        Lock-free by design — each counter read is individually atomic,
        and a stats request must never queue behind (or stall) serving
        traffic.  Observed post-guard: it reads no function state, so it
        commutes with every replayed operation.
        """
        response = StatsResponse(
            snapshot=self.obs.snapshot(),
            stats=self._sharded.stats.as_dict(),
        )
        if request.reset:
            for stats in self._sharded.shard_stats():
                stats.reset()
            self.obs.metrics.reset()
        return response

    def __repr__(self) -> str:
        return f"ShardedClient({self._sharded!r})"
