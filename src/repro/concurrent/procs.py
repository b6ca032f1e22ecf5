"""Multi-process scale-out of the sharded server: shards become processes.

The GIL makes the thread pool in :mod:`repro.concurrent.server` a
robustness feature, not a throughput one — ``BENCH_concurrency.json``
records wire req/s flat across 1/2/4/8 threads.  This module promotes
the PR-5 shard architecture to worker *processes*:

* each shard is a **worker process** running one serial
  :class:`~repro.service.LivenessService` +
  :class:`~repro.api.client.CompilerClient` behind its own
  :class:`~repro.api.codec.BytesServerSession` — a full single-process
  server, reached over a :func:`multiprocessing.Pipe`;
* the parent runs a **coordinator** (:class:`ProcClient`) that routes by
  the same crc32 :func:`~repro.concurrent.sharded.shard_of` partition,
  splits cross-worker ``BatchLiveness`` requests, and merges the answers
  back in request order, so there is still exactly one linearization
  point per request;
* the wire path **relays frames verbatim**: the coordinator mirrors the
  outer connection's string table (its own
  :class:`~repro.api.codec.BytesServerSession` ingests every frame), and
  single-function frames (``RELAY_OPCODES``) are forwarded byte-for-byte
  to the owning worker, whose session applies the very same definitions.
  Only when a worker has not seen the leading ref's definition (it
  arrived on a frame routed elsewhere) is the frame rebuilt with an
  explicit defs block — the body bytes are never touched.

Linearizability story (what the differential harness checks):

* typed requests hold the owning worker link's mutex for the whole
  send-await-observe window; cross-worker batches take the involved
  mutexes in index order — exactly the PR-5 shard-lock structure, so the
  :class:`TraceRecorder` observer records a valid linearization;
* :meth:`ProcClient.serve` (the wire loop) is a single-caller path:
  per-link FIFO plus in-list-order sends make list order itself a valid
  linearization.

Crash semantics (never a hang):

* a worker that dies mid-flight has every queued request answered with a
  structured ``INTERNAL`` error whose detail carries a recognizable
  marker (:func:`is_worker_failure`), in the caller's own framing;
* with ``auto_restart`` the link respawns the process, re-registers the
  worker's functions from printed IR, and replays the link's **confirmed
  mutation log** (notify/destruct/allocate whose responses proved they
  reached the worker), so the restarted state is exactly the state a
  serial replay of the successfully-answered requests produces.  Evicts
  are never logged: cache geometry is unobservable by contract.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import struct
import threading
from contextlib import ExitStack
from typing import Callable, Iterable, Sequence

from repro.api.client import (
    CompilerClient,
    dispatch_json_via,
    failure_response,
    guarded_dispatch,
)
from repro.api.codec import (
    RELAY_OPCODES,
    BytesServerSession,
    decode_request_bin2,
    decode_response_bin2,
    encode_request_bin2,
    encode_response_bin2,
    frame_defs,
    reframe_with_defs,
    relay_route,
)
from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    ErrorResponse,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    dumps_compact,
    encode_response,
)
from repro.concurrent.sharded import shard_of
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.obs import Observability
from repro.obs.metrics import metric_key
from repro.persist.policy import is_replayable, is_worker_failure
from repro.service.service import DEFAULT_CAPACITY, STAT_FIELDS, LivenessService

__all__ = [
    "DEFAULT_WORKERS",
    "ProcClient",
    "is_worker_failure",
]

#: Default worker-process count (mirrors the thread pool's default).
DEFAULT_WORKERS = 4

#: Frames buffered per link before :meth:`ProcClient.serve` flushes a
#: bundle — large enough to amortize one pipe write over many frames,
#: small enough to keep every worker busy while the stream is walked.
_SERVE_CHUNK = 256

_logger = logging.getLogger("repro.obs")

#: The JSON envelope types eligible for verbatim relay (the same
#: single-function requests as :data:`RELAY_OPCODES`).
_RELAY_JSON_TYPES = frozenset(("liveness_query", "live_set", "evict"))

# ----------------------------------------------------------------------
# Pipe message protocol (parent <-> worker)
# ----------------------------------------------------------------------
# Two message kinds ride ``Connection.send_bytes`` (which preserves
# message boundaries): a FRAMES bundle of wire frames the worker answers
# through its ``BytesServerSession`` one-for-one in order, and a CONTROL
# message (JSON header + raw payload tail) for everything else —
# registration, typed dispatch, stats, health, drain.  The worker
# processes messages strictly FIFO and replies FIFO, which is the
# invariant every ordering argument above leans on.
_MSG_FRAMES = 1
_MSG_CONTROL = 2
_U32 = struct.Struct("<I")


def _pack_frames(frames: Sequence[bytes]) -> bytes:
    out = bytearray((_MSG_FRAMES,))
    out += _U32.pack(len(frames))
    for frame in frames:
        out += _U32.pack(len(frame))
        out += frame
    return bytes(out)


def _unpack_frames(msg: bytes) -> list[bytes]:
    count = _U32.unpack_from(msg, 1)[0]
    frames = []
    pos = 5
    for _ in range(count):
        length = _U32.unpack_from(msg, pos)[0]
        pos += 4
        frames.append(bytes(msg[pos : pos + length]))
        pos += length
    return frames


def _pack_control(header: dict, payload: bytes = b"") -> bytes:
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return bytes(bytearray((_MSG_CONTROL,)) + _U32.pack(len(raw)) + raw + payload)


def _unpack_control(msg: bytes) -> tuple[dict, bytes]:
    length = _U32.unpack_from(msg, 1)[0]
    header = json.loads(msg[5 : 5 + length])
    return header, bytes(msg[5 + length :])


# ----------------------------------------------------------------------
# Failure markers
# ----------------------------------------------------------------------
def _crash_detail(index: int) -> str:
    return (
        f"worker {index} crashed; the request was answered with a "
        f"structured INTERNAL error"
    )


def _timeout_detail(index: int, timeout: float) -> str:
    return f"worker {index} did not answer within {timeout:g}s"


# ``is_worker_failure`` — whether an error marks a request lost to a
# worker crash/hang — is re-exported from :mod:`repro.persist.policy`,
# where it lives next to the rest of the replay policy: the differential
# harness, the WAL appender and this module's restart log must all make
# the same call, so there is exactly one definition.


# ----------------------------------------------------------------------
# Worker process main
# ----------------------------------------------------------------------
def _worker_main(conn, index: int, capacity: int, strategy: str) -> None:
    """One shard as a process: a full single-process server on a pipe.

    Top-level (not a closure) so the ``spawn`` start method can import
    it; state is built here, after the fork/spawn, so nothing mutable is
    shared with the parent.
    """
    obs = Observability()
    service = LivenessService(capacity=capacity, strategy=strategy, obs=obs)
    client = CompilerClient(service=service, obs=obs)
    session = client.bytes_session()
    served = 0
    while True:
        try:
            msg = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not msg:
            continue
        kind = msg[0]
        if kind == _MSG_FRAMES:
            frames = _unpack_frames(msg)
            replies = [session.dispatch_frame(frame) for frame in frames]
            served += len(frames)
            try:
                conn.send_bytes(_pack_frames(replies))
            except (BrokenPipeError, OSError):
                break
            continue
        if kind != _MSG_CONTROL:
            continue
        header, payload = _unpack_control(msg)
        op = header.get("op")
        if op == "crash":
            # Test-injected hard death: no reply, no cleanup — exactly
            # what a segfault looks like from the parent's side.
            os._exit(1)
        if op == "drain":
            try:
                conn.send_bytes(_pack_control({"ok": True, "served": served}))
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            reply, reply_payload = _worker_control(
                op, header, payload, service, client, session, obs, served
            )
        except Exception as exc:  # noqa: BLE001 — the worker must not die silently
            reply, reply_payload = (
                {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                b"",
            )
        served += 1
        try:
            conn.send_bytes(_pack_control(reply, reply_payload))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _worker_control(
    op, header, payload, service, client, session, obs, served
) -> tuple[dict, bytes]:
    if op == "dispatch":
        # Typed lane: the frame is self-contained (throwaway interner),
        # decoded against an isolated table so it can never collide with
        # the session table the relayed outer frames feed.
        request = decode_request_bin2(payload)
        response = client.dispatch(request)
        error_index = None
        if (
            header.get("error_index")
            and isinstance(request, BatchLiveness)
            and response.error is not None
        ):
            # Which position failed first?  Batch errors are
            # position-independent (they depend only on the query and
            # the function's state), so probing the queries one by one
            # finds the same first failure the batch hit.
            for position, query in enumerate(request.queries):
                if client.dispatch(query).error is not None:
                    error_index = position
                    break
        return (
            {"ok": True, "error_index": error_index},
            encode_response_bin2(response),
        )
    if op == "register":
        for text in header.get("sources", ()):
            service.register(parse_function(text))
        return {"ok": True}, b""
    if op == "export":
        # Snapshot surface: ``(name, revision, printed source)`` triples
        # in this worker's registration order (see
        # :meth:`LivenessService.export_functions`).
        return {"ok": True, "functions": service.export_functions()}, b""
    if op == "import":
        # Restore surface: reinstate exported triples, revisions intact.
        for name, revision, source in header.get("functions", ()):
            service.import_function(name, int(revision), source)
        return {"ok": True}, b""
    if op == "stats":
        snapshot = obs.snapshot()
        stats = service.stats.as_dict()
        if header.get("reset"):
            service.stats.reset()
            obs.metrics.reset()
        return {"ok": True, "snapshot": snapshot, "stats": stats}, b""
    if op == "reset":
        # The outer client re-helloed: forget the session table so the
        # fresh interner's refs can never collide with the old life.
        session.reset()
        return {"ok": True}, b""
    if op == "ping":
        return {"ok": True, "pid": os.getpid(), "served": served}, b""
    return {"ok": False, "error": f"unknown control op {op!r}"}, b""


# ----------------------------------------------------------------------
# Parent side: per-link plumbing
# ----------------------------------------------------------------------
_CRASHED = object()  # reply sentinel: the link died before answering


class _Reply:
    """One awaited pipe reply: a one-shot latch plus a resolution stamp."""

    __slots__ = ("_latch", "value", "resolved_at")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self.value = None
        self.resolved_at = 0.0

    def resolve(self, value, at: float) -> None:
        self.value = value
        self.resolved_at = at
        self._latch.release()

    def result(self, timeout: float | None = None):
        if not self._latch.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError("worker reply did not arrive in time")
        self._latch.release()
        return self.value


class _Link:
    """The parent's handle on one worker process."""

    __slots__ = (
        "index",
        "conn",
        "proc",
        "reader",
        "io_lock",
        "mutex",
        "pendings",
        "known",
        "baseline",
        "log",
        "alive",
        "inflight",
        "crashes",
        "restarts",
    )

    def __init__(self, index: int, obs: Observability) -> None:
        self.index = index
        self.conn = None
        self.proc = None
        self.reader = None
        #: Guards conn/pendings state transitions (short critical sections).
        self.io_lock = threading.Lock()
        #: The linearization mutex: typed dispatch holds it send-to-observe.
        self.mutex = threading.Lock()
        #: FIFO of unanswered sends (frames bundles and controls alike).
        self.pendings: list[_Reply] = []
        #: Outer-table idents this worker's session has definitions for.
        self.known: set[int] = set()
        #: ``(name, revision, printed IR)`` of every function on this
        #: worker, in its registration order — the restart recipe's
        #: first half.  Compaction folds the confirmed-mutation log into
        #: it (re-exporting the worker's state), so the recipe stays
        #: bounded no matter how long the deployment runs.
        self.baseline: list[tuple[str, int, str]] = []
        #: Confirmed mutating requests since the baseline, FIFO — the
        #: recipe's second half (the tail replayed on restart).
        self.log: list[Request] = []
        #: Set while the link accepts traffic; cleared on crash/drain.
        self.alive = threading.Event()
        self.inflight = obs.gauge("proc.inflight", worker=index)
        self.crashes = obs.counter("proc.crashes", worker=index)
        self.restarts = obs.counter("proc.restarts", worker=index)


class _CoordinatorSession(BytesServerSession):
    """The parent's outer-connection session.

    Identical to a single-process server session (same ingest, same
    typed/hello/error paths, same metrics) — the coordinator only adds
    the relay branch on top, reading the mirrored string table through
    the public :attr:`string_table` property.
    """


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ProcClient:
    """Multi-process drop-in for :class:`~repro.concurrent.ShardedClient`.

    Same protocol, same structured errors, same never-raise boundary —
    but every shard is a worker process, so CPU-bound serving scales with
    cores instead of saturating one GIL.  Construction spawns the
    workers; :meth:`close` (or the context manager) drains them.

    ``capacity`` is the whole deployment's checker budget, split
    per-worker with the same ceiling division :class:`ShardedService`
    uses per shard — a serial replay against ``ShardedClient(shards=N,
    capacity=C)`` therefore sees bit-identical cache behavior.
    """

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        workers: int = DEFAULT_WORKERS,
        capacity: int = DEFAULT_CAPACITY,
        strategy: str = "exact",
        observer: Callable[[Request, Response], None] | None = None,
        obs: Observability | None = None,
        auto_restart: bool = True,
        timeout: float = 60.0,
        start_method: str | None = None,
        compact_after: int = 64,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if compact_after < 1:
            raise ValueError(
                f"compact_after must be at least 1, got {compact_after}"
            )
        self.obs = obs if obs is not None else Observability()
        self._workers_n = workers
        self._per_worker = max(1, -(-capacity // workers))  # ceil division
        self._strategy = strategy
        self._observer = observer
        self._observed = threading.local()
        self._auto_restart = auto_restart
        self._timeout = timeout
        self._compact_after = compact_after
        self._closing = False
        #: Guards ``_closing`` and ``_restarting`` (restarts in progress):
        #: ``close`` waits those out, so its drain reaches every respawn.
        self._lifecycle = threading.Condition()
        self._restarting = 0
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        #: Guards the global registration order (acquired before mutexes).
        self._registry_lock = threading.Lock()
        self._names: dict[str, int] = {}
        self._order: list[str] = []
        self._dispatch_seconds = self.obs.histogram("dispatch.seconds")
        self._links = [_Link(index, self.obs) for index in range(workers)]
        for link in self._links:
            self._spawn(link)
            link.alive.set()
        #: The outer connection: ingests every frame (mirroring the
        #: client's string table) and answers the typed/JSON/hello/error
        #: paths itself through :meth:`dispatch`.
        self._session = _CoordinatorSession(self.dispatch, obs=self.obs)
        self._request_seconds = self.obs.histogram("wire.request_seconds")
        if module is not None:
            self._register_functions(list(module))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, link: _Link) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, link.index, self._per_worker, self._strategy),
            daemon=True,
            name=f"repro-proc-worker-{link.index}",
        )
        proc.start()
        child_conn.close()
        with link.io_lock:
            link.conn = parent_conn
            link.proc = proc
        reader = threading.Thread(
            target=self._read_loop,
            args=(link, parent_conn),
            daemon=True,
            name=f"repro-proc-reader-{link.index}",
        )
        link.reader = reader
        reader.start()

    def close(self, timeout: float = 5.0) -> None:
        """Drain every worker; terminate any that outlive the deadline.

        Idempotent: the first call does the drain-and-join work; any
        later call returns immediately (no second drain, no second
        deadline wait) — double-shutdown paths in servers and test
        teardowns must be cheap no-ops, never a second 5-second stall.
        """
        deadline = self.obs.clock() + timeout
        with self._lifecycle:
            if self._closing:
                return
            self._closing = True
            self._lifecycle.wait_for(lambda: not self._restarting, timeout)
        for link in self._links:
            link.alive.clear()
            try:
                with link.io_lock:
                    if link.conn is not None:
                        link.pendings.append(_Reply())
                        link.conn.send_bytes(_pack_control({"op": "drain"}))
            except (BrokenPipeError, OSError):
                pass
        for link in self._links:
            proc = link.proc
            if proc is None:
                continue
            proc.join(max(0.0, deadline - self.obs.clock()))
            if proc.is_alive():
                _logger.warning(
                    "worker %d did not drain within %.3fs; terminating",
                    link.index,
                    timeout,
                )
                proc.terminate()
                proc.join(1.0)
                if proc.is_alive():
                    proc.kill()
            with link.io_lock:
                if link.conn is not None:
                    try:
                        link.conn.close()
                    except OSError:
                        pass

    def __enter__(self) -> "ProcClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Link I/O
    # ------------------------------------------------------------------
    def _read_loop(self, link: _Link, conn) -> None:
        clock = self.obs.clock
        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError, ValueError, TypeError):
                # EOF/OSError: the worker died or drained.  ValueError/
                # TypeError: close() closed the Connection out from under
                # a blocked recv (its handle becomes None mid-read).
                break
            with link.io_lock:
                pending = link.pendings.pop(0) if link.pendings else None
            if pending is not None:
                link.inflight.dec()
                pending.resolve(msg, clock())
        self._on_link_down(link, conn)

    def _on_link_down(self, link: _Link, conn) -> None:
        with link.io_lock:
            if link.conn is not conn:
                return  # a stale reader of an already-replaced connection
            link.alive.clear()
            drained = list(link.pendings)
            link.pendings.clear()
        now = self.obs.clock()
        for pending in drained:
            link.inflight.dec()
            pending.resolve(_CRASHED, now)
        with self._lifecycle:
            if self._closing:
                return
            if self._auto_restart:
                self._restarting += 1
        link.crashes.add(1)
        _logger.warning(
            "worker %d crashed; %d in-flight request(s) answered with "
            "structured INTERNAL errors%s",
            link.index,
            len(drained),
            "; restarting" if self._auto_restart else "",
        )
        if self._auto_restart:
            try:
                self._restart(link)
            finally:
                with self._lifecycle:
                    self._restarting -= 1
                    self._lifecycle.notify_all()

    def _restart(self, link: _Link) -> None:
        """Respawn a dead worker and rebuild its state deterministically.

        The baseline — printed IR plus revisions, as compaction last
        exported it — is imported first, then the confirmed-mutation
        tail lands FIFO: the resulting state is the one a serial replay
        of this worker's successfully-answered requests produces (cache
        geometry aside, which is unobservable).
        """
        try:
            self._spawn(link)
        except Exception:  # noqa: BLE001 — a failed respawn leaves the link dead
            _logger.exception("worker %d respawn failed", link.index)
            return
        try:
            if link.baseline:
                self._post(
                    link,
                    _pack_control(
                        {
                            "op": "import",
                            "functions": [list(t) for t in link.baseline],
                        }
                    ),
                    force=True,
                )
            for request in list(link.log):
                self._post(
                    link,
                    _pack_control({"op": "dispatch"}, encode_request_bin2(request)),
                    force=True,
                )
        except (BrokenPipeError, OSError):
            # Died again already; the new reader will run this path again.
            return
        link.known.clear()  # the fresh session table has no definitions
        link.restarts.add(1)
        link.alive.set()

    def _post(self, link: _Link, msg: bytes, force: bool = False) -> _Reply:
        """Queue one message on a link; raises ``OSError`` when it is down."""
        with link.io_lock:
            if link.conn is None or (not force and not link.alive.is_set()):
                raise BrokenPipeError(f"worker {link.index} is down")
            pending = _Reply()
            link.pendings.append(pending)
            try:
                link.conn.send_bytes(msg)
            except (BrokenPipeError, OSError):
                if link.pendings and link.pendings[-1] is pending:
                    link.pendings.pop()
                raise
        link.inflight.inc()
        return pending

    def _send_ready(self, link: _Link, msg: bytes) -> _Reply:
        """`_post` that waits out an in-progress restart; raises shaped errors."""
        if not link.alive.wait(timeout=self._timeout):
            raise ProtocolError(ErrorCode.INTERNAL, _crash_detail(link.index))
        try:
            return self._post(link, msg)
        except (BrokenPipeError, OSError):
            raise ProtocolError(
                ErrorCode.INTERNAL, _crash_detail(link.index)
            ) from None

    def _await_control(self, link: _Link, pending: _Reply) -> tuple[dict, bytes]:
        try:
            raw = pending.result(self._timeout)
        except TimeoutError:
            raise ProtocolError(
                ErrorCode.INTERNAL, _timeout_detail(link.index, self._timeout)
            ) from None
        if raw is _CRASHED:
            raise ProtocolError(ErrorCode.INTERNAL, _crash_detail(link.index))
        header, payload = _unpack_control(raw)
        if not header.get("ok"):
            raise ProtocolError(
                ErrorCode.INTERNAL,
                f"worker {link.index} failed: {header.get('error')}",
            )
        return header, payload

    def _roundtrip(
        self, link: _Link, request: Request, want_error_index: bool = False
    ) -> tuple[Response, int | None]:
        msg = _pack_control(
            {"op": "dispatch", "error_index": want_error_index},
            encode_request_bin2(request),
        )
        pending = self._send_ready(link, msg)
        header, payload = self._await_control(link, pending)
        return decode_response_bin2(payload), header.get("error_index")

    # ------------------------------------------------------------------
    # Introspection / conveniences
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers_n

    def functions(self) -> list[str]:
        """Registered names in registration order."""
        with self._registry_lock:
            return list(self._order)

    def ping(self, index: int) -> dict:
        """Health-check one worker: ``{"pid": ..., "served": ...}``.

        Raises :class:`ProtocolError` when the worker is down/hung.
        """
        link = self._links[index]
        with link.mutex:
            pending = self._send_ready(link, _pack_control({"op": "ping"}))
            header, _payload = self._await_control(link, pending)
        return {"pid": header.get("pid"), "served": header.get("served")}

    def inject_crash(self, index: int) -> None:
        """Test hook: hard-kill worker ``index`` at its next message.

        Fire-and-forget (a crash never answers), so no pending is queued
        — the reader detects the EOF and runs the normal crash path.
        """
        link = self._links[index]
        try:
            with link.io_lock:
                if link.conn is not None:
                    link.conn.send_bytes(_pack_control({"op": "crash"}))
        except (BrokenPipeError, OSError):
            pass

    def worker_of(self, name: str) -> int:
        """The worker index owning function ``name`` (crc32 routing)."""
        return shard_of(name, self._workers_n)

    # ------------------------------------------------------------------
    # Snapshot export / import (the persist layer's surface)
    # ------------------------------------------------------------------
    def export_state(self, pin=None):
        """A consistent cut of the fleet's observable state.

        Holds the registry lock and *every* link mutex (in index order),
        so no mutation is in flight anywhere; ``pin``, if given, is
        called while they are held (the durability layer passes
        ``lambda: wal.last_seq``).  Returns ``(functions, precomps,
        pinned)`` like :meth:`ShardedService.export_state`, except
        ``precomps`` is always empty — worker checker caches live across
        a pipe and are rebuilt on demand, not serialized.

        Raises :class:`ProtocolError` if a worker is down or hung — a
        snapshot of half a fleet would be a lie.
        """
        with self._registry_lock:
            with ExitStack() as stack:
                for link in self._links:
                    stack.enter_context(link.mutex)
                pinned = pin() if pin is not None else 0
                posted = []
                for link in self._links:
                    posted.append(
                        (
                            link,
                            self._send_ready(
                                link, _pack_control({"op": "export"})
                            ),
                        )
                    )
                by_name: dict[str, tuple[str, int, str]] = {}
                for link, pending in posted:
                    header, _payload = self._await_control(link, pending)
                    for name, revision, source in header.get("functions") or ():
                        by_name[name] = (name, int(revision), source)
                functions = [by_name[name] for name in self._order]
                return functions, [], pinned

    def import_state(self, functions) -> None:
        """Reinstate exported ``(name, revision, source)`` triples.

        The restore-path mirror of :meth:`_register_functions`: same
        atomicity (a worker failure force-restarts every worker that
        already acknowledged, rolling the batch back), but revisions
        land exactly as exported and the triples join each link's
        restart baseline directly.
        """
        triples = [
            (name, int(revision), source)
            for name, revision, source in functions
        ]
        names = [name for name, _revision, _source in triples]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function name in snapshot: {names!r}")
        with self._registry_lock:
            per_worker: dict[int, list[tuple[str, int, str]]] = {}
            for triple in triples:
                per_worker.setdefault(
                    shard_of(triple[0], self._workers_n), []
                ).append(triple)
            involved = sorted(per_worker)
            with ExitStack() as stack:
                for index in involved:
                    stack.enter_context(self._links[index].mutex)
                for name in names:
                    if name in self._names:
                        raise ValueError(f"duplicate function name {name!r}")
                acked: list[_Link] = []
                try:
                    posted = []
                    for index in involved:
                        link = self._links[index]
                        msg = _pack_control(
                            {
                                "op": "import",
                                "functions": [
                                    list(t) for t in per_worker[index]
                                ],
                            }
                        )
                        posted.append((link, self._send_ready(link, msg)))
                    for link, pending in posted:
                        self._await_control(link, pending)
                        acked.append(link)
                except ProtocolError:
                    for link in acked:
                        self._force_restart(link)
                    raise
                for index in involved:
                    self._links[index].baseline.extend(per_worker[index])
                for name, _revision, _source in triples:
                    self._names[name] = shard_of(name, self._workers_n)
                    self._order.append(name)

    def topology(self) -> dict:
        """Serving geometry for snapshot headers: shards/capacity/strategy.

        Workers play the role shards play in-process; ``capacity`` is
        the whole fleet's budget (per-worker share times workers, the
        same stable-fixpoint sum :class:`ShardedService` reports).
        """
        return {
            "shards": self._workers_n,
            "capacity": self._per_worker * self._workers_n,
            "strategy": self._strategy,
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
    # Typed dispatch (the ShardedClient-compatible front door)
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer one protocol request; thread-safe, never raises."""
        clock = self.obs.clock
        start = clock()
        self._observed.seen = False
        with self.obs.span("dispatch", request=type(request).__name__):
            response = guarded_dispatch(request, self._dispatch, self._failure)
        if not getattr(self._observed, "seen", True):
            self._notify(request, response)
        self._dispatch_seconds.observe(clock() - start)
        return response

    def dispatch_json(self, payload) -> dict:
        """Wire driver: JSON envelope in, JSON envelope out, thread-safe."""
        return dispatch_json_via(self.dispatch, payload, obs=self.obs)

    _failure = staticmethod(failure_response)

    def _notify(self, request: Request, response: Response) -> None:
        self._observed.seen = True
        if self._observer is not None:
            self._observer(request, response)

    def _link_for(self, name: str) -> _Link:
        return self._links[shard_of(name, self._workers_n)]

    def _dispatch(self, request: Request) -> Response:
        if isinstance(request, (LivenessQuery, LiveSetRequest, EvictRequest)):
            link = self._link_for(request.function.name)
            with link.mutex:
                response, _index = self._roundtrip(link, request)
                self._notify(request, response)
                return response
        if isinstance(
            request, (DestructRequest, AllocateRequest, NotifyRequest)
        ):
            link = self._link_for(request.function.name)
            with link.mutex:
                response, _index = self._roundtrip(link, request)
                if is_replayable(request, response):
                    link.log.append(request)
                    if len(link.log) >= self._compact_after:
                        self._compact_link(link)
                self._notify(request, response)
                return response
        if isinstance(request, BatchLiveness):
            return self._batch(request)
        if isinstance(request, CompileSourceRequest):
            return self._compile_source(request)
        if isinstance(request, StatsRequest):
            return self._stats(request)
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unsupported request type {type(request).__name__}",
        )

    def _compact_link(self, link: _Link) -> None:
        """Fold the confirmed-mutation log into the baseline (mutex held).

        Re-exports the worker's state — printed IR plus revisions, which
        already embodies every logged mutation — and clears the log, so
        the restart recipe stays O(functions) instead of growing without
        bound with mutation traffic.  On any failure the old recipe is
        kept untouched: a restart then simply replays the longer tail,
        which is correct, just slower.
        """
        try:
            pending = self._post(link, _pack_control({"op": "export"}))
            header, _payload = self._await_control(link, pending)
        except (ProtocolError, BrokenPipeError, OSError):
            return
        functions = header.get("functions")
        if functions is None:
            return
        link.baseline = [
            (name, int(revision), source)
            for name, revision, source in functions
        ]
        link.log.clear()

    # ------------------------------------------------------------------
    # Cross-worker requests
    # ------------------------------------------------------------------
    def _batch(self, request: BatchLiveness) -> BatchLivenessResponse:
        queries = request.queries
        if not queries:
            return BatchLivenessResponse(values=())
        groups: dict[int, list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(
                shard_of(query.function.name, self._workers_n), []
            ).append(position)
        involved = sorted(groups)
        with ExitStack() as stack:
            for index in involved:
                stack.enter_context(self._links[index].mutex)
            # Fan out first (all workers chew their sub-batches in
            # parallel), then collect; per-link FIFO keeps this one
            # linearization point despite the concurrency underneath.
            posted = []
            for index in involved:
                link = self._links[index]
                sub = BatchLiveness(
                    queries=tuple(queries[pos] for pos in groups[index])
                )
                msg = _pack_control(
                    {"op": "dispatch", "error_index": True},
                    encode_request_bin2(sub),
                )
                posted.append((link, self._send_ready(link, msg)))
            answers: dict[int, tuple[Response, int | None]] = {}
            for link, pending in posted:
                header, payload = self._await_control(link, pending)
                answers[link.index] = (
                    decode_response_bin2(payload),
                    header.get("error_index"),
                )
            failing = [
                index
                for index in involved
                if answers[index][0].error is not None
            ]
            if failing:
                # The batch's error is the error of the globally-first
                # failing query, exactly as in the serial client (batch
                # errors are position-independent, so the winning
                # worker's sub-batch error *is* that query's error).
                def first_global(index: int) -> int:
                    sub_response, error_index = answers[index]
                    within = error_index if error_index is not None else 0
                    return groups[index][within]

                winner = min(failing, key=first_global)
                response = BatchLivenessResponse(
                    error=answers[winner][0].error
                )
                self._notify(request, response)
                return response
            values: list[bool] = [False] * len(queries)
            for index in involved:
                sub_response, _ = answers[index]
                assert sub_response.values is not None
                for pos, value in zip(groups[index], sub_response.values):
                    values[pos] = value
            response = BatchLivenessResponse(values=tuple(values))
            self._notify(request, response)
            return response

    def _register_functions(
        self,
        functions: Sequence[Function],
        on_registered: Callable[[list[FunctionHandle]], None] | None = None,
    ) -> list[FunctionHandle]:
        """Register functions atomically across workers (all or nothing).

        Mirrors :meth:`ShardedService.register_all` — same duplicate
        checks, same error messages, handles minted at revision 0 — so a
        serial replay against a ``ShardedClient`` sees identical
        responses.  If a worker dies mid-registration, every worker that
        already acknowledged is force-restarted (its rebuild recipe does
        not include the new functions), rolling the whole batch back.
        """
        names = [function.name for function in functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function name in batch: {names!r}")
        with self._registry_lock:
            per_worker: dict[int, list[tuple[str, str]]] = {}
            for function in functions:
                per_worker.setdefault(
                    shard_of(function.name, self._workers_n), []
                ).append((function.name, print_function(function)))
            involved = sorted(per_worker)
            with ExitStack() as stack:
                for index in involved:
                    stack.enter_context(self._links[index].mutex)
                for function in functions:
                    if function.name in self._names:
                        raise ValueError(
                            f"duplicate function name {function.name!r}"
                        )
                acked: list[_Link] = []
                try:
                    posted = []
                    for index in involved:
                        link = self._links[index]
                        msg = _pack_control(
                            {
                                "op": "register",
                                "sources": [
                                    source
                                    for _name, source in per_worker[index]
                                ],
                            }
                        )
                        posted.append((link, self._send_ready(link, msg)))
                    for link, pending in posted:
                        self._await_control(link, pending)
                        acked.append(link)
                except ProtocolError:
                    for link in acked:
                        self._force_restart(link)
                    raise
                for index in involved:
                    self._links[index].baseline.extend(
                        (name, 0, source)
                        for name, source in per_worker[index]
                    )
                for function in functions:
                    self._names[function.name] = shard_of(
                        function.name, self._workers_n
                    )
                    self._order.append(function.name)
                handles = [
                    FunctionHandle(name=function.name, revision=0)
                    for function in functions
                ]
                if on_registered is not None:
                    on_registered(handles)
                return handles

    def _force_restart(self, link: _Link) -> None:
        """Kill a worker so the crash path rebuilds it from its recipe."""
        link.alive.clear()
        proc = link.proc
        if proc is not None and proc.is_alive():
            proc.terminate()

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
            self._register_functions(
                list(module), on_registered=observe_registered
            )
        except ValueError as exc:
            raise ProtocolError(ErrorCode.DUPLICATE_FUNCTION, str(exc)) from None
        return holder[0]

    def _stats(self, request: StatsRequest) -> StatsResponse:
        """Aggregated introspection: every worker's metrics, relabelled.

        Worker snapshot keys gain a ``worker=i`` label (so one scrape
        shows per-worker wire/queue/cache series side by side); the
        ``stats`` roll-up sums the per-worker service counters exactly
        like :meth:`ShardedService.stats` sums shards.  Lock-free with
        respect to the mutexes — stats must never stall serving — and
        excluded from differential traffic for the same reason.
        """
        posted = []
        for link in self._links:
            try:
                posted.append(
                    (
                        link,
                        self._post(
                            link,
                            _pack_control(
                                {"op": "stats", "reset": bool(request.reset)}
                            ),
                        ),
                    )
                )
            except (BrokenPipeError, OSError):
                continue  # a dead worker contributes nothing to the scrape
        merged = self.obs.snapshot()
        totals = {name: 0 for name in STAT_FIELDS}
        for link, pending in posted:
            try:
                header, _payload = self._await_control(link, pending)
            except ProtocolError:
                continue
            snapshot = header.get("snapshot") or {}
            for section in ("counters", "gauges", "histograms"):
                target = merged.setdefault(section, {})
                for key, value in (snapshot.get(section) or {}).items():
                    target[_relabel(key, worker=link.index)] = value
            for name, value in (header.get("stats") or {}).items():
                if name in totals:
                    totals[name] += int(value)
        for section in ("counters", "gauges", "histograms"):
            merged[section] = dict(sorted(merged[section].items()))
        lookups = totals["hits"] + totals["misses"]
        stats = dict(totals)
        stats["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        if request.reset:
            self.obs.metrics.reset()
        return StatsResponse(snapshot=merged, stats=stats)

    # ------------------------------------------------------------------
    # The wire loop (single-caller serving path)
    # ------------------------------------------------------------------
    def serve(self, payloads: Sequence[bytes], timeout: float | None = None):
        """Answer a stream of wire frames through the worker fleet.

        Single-caller by contract (like one connection's socket reader):
        frames are walked in order, relayable ones are bundled per owning
        worker and pipelined, everything else (typed ops, hello, errors,
        unroutable frames) is answered at its stream position after the
        outstanding relay buffers are flushed.  Responses come back
        aligned with their requests — list order is the linearization.
        """
        if timeout is None:
            timeout = self._timeout
        clock = self.obs.clock
        deadline = clock() + timeout
        payloads = list(payloads)
        results: list = [None] * len(payloads)
        session = self._session
        table = session.string_table
        observe = self._request_seconds.observe
        # Per-link buffers: (slots, frames, binary flags, ingest times).
        buffers: dict[int, tuple[list, list, list, list]] = {}
        bundles: list = []

        def flush(index: int) -> None:
            buffer = buffers.pop(index, None)
            if buffer is None or not buffer[1]:
                return
            slots, frames, flags, starts = buffer
            link = self._links[index]
            try:
                pending = self._send_ready(link, _pack_frames(frames))
            except ProtocolError as exc:
                now = clock()
                for slot, flag, start in zip(slots, flags, starts):
                    results[slot] = _failure_bytes(exc.error, flag)
                    observe(now - start)
                return
            bundles.append((link, pending, slots, flags, starts))

        def flush_all() -> None:
            for index in sorted(buffers):
                flush(index)

        def buffer_frame(
            index: int, slot: int, frame: bytes, binary: bool, start: float
        ) -> None:
            buffer = buffers.get(index)
            if buffer is None:
                buffer = buffers[index] = ([], [], [], [])
            buffer[0].append(slot)
            buffer[1].append(frame)
            buffer[2].append(binary)
            buffer[3].append(start)
            if len(buffer[1]) >= _SERVE_CHUNK:
                flush(index)

        for slot, data in enumerate(payloads):
            start = clock()
            token = session.ingest(data)
            if token.error is not None:
                results[slot] = session.complete(token)
                observe(clock() - start)
                continue
            if token.binary:
                if token.opcode in RELAY_OPCODES:
                    self._relay_bin2(token, slot, start, buffer_frame, results)
                    if results[slot] is not None:
                        observe(clock() - start)
                    continue
                # Typed binary op (batch/mutation/compile/stats/unknown):
                # a stream-order barrier — flush, then answer in place
                # through the session's own generic path.
                flush_all()
                results[slot] = session.complete(token)
                observe(clock() - start)
                continue
            self._serve_json(
                token, slot, start, flush_all, buffer_frame, results, observe
            )
        flush_all()
        self._collect(bundles, results, deadline, observe)
        return results

    def _relay_bin2(
        self, token, slot: int, start: float, buffer_frame, results
    ) -> None:
        """Route one single-function frame; forward verbatim when possible."""
        session = self._session
        data = token.data
        body_pos = token.body_pos
        try:
            ident, name = relay_route(data, body_pos, session.string_table)
        except ProtocolError as exc:
            # Exactly the error the worker-side decoder would produce
            # (unroutable means undecodable: same lookup, same message).
            results[slot] = _failure_bytes(exc.error, True)
            return
        index = shard_of(name, self._workers_n)
        link = self._links[index]
        if data[7] != 0:
            # Defs-carrying frame: forward verbatim (the worker applies
            # the same definitions the parent just ingested) and record
            # what this worker now knows.
            link.known.update(ident for ident, _text in frame_defs(data))
        if ident not in link.known:
            # The ref was defined by a frame routed to another worker:
            # rebuild with an explicit defs block, body bytes untouched.
            defs = [(ident, name)] + frame_defs(data)
            data = reframe_with_defs(token.opcode, defs, data, body_pos)
            link.known.add(ident)
        buffer_frame(index, slot, data, True, start)

    def _serve_json(
        self, token, slot, start, flush_all, buffer_frame, results, observe
    ) -> None:
        session = self._session
        try:
            parsed = json.loads(token.data)
        except (ValueError, UnicodeDecodeError):
            parsed = None
        if isinstance(parsed, dict):
            if parsed.get("type") == "hello":
                # A hello restarts the logical connection everywhere:
                # barrier, reset every worker session table, forget the
                # known-ident sets, then let the session reset the
                # parent mirror and answer the negotiation itself.
                flush_all()
                for link in self._links:
                    link.known.clear()
                    try:
                        self._post(link, _pack_control({"op": "reset"}))
                    except (BrokenPipeError, OSError):
                        pass  # a restarted worker is already reset
                results[slot] = session.complete(token)
                observe(self.obs.clock() - start)
                return
            if parsed.get("type") in _RELAY_JSON_TYPES:
                name = None
                body = parsed.get("body")
                if isinstance(body, dict):
                    function = body.get("function")
                    if isinstance(function, dict) and isinstance(
                        function.get("name"), str
                    ):
                        name = function["name"]
                if name is not None:
                    # JSON frames carry no connection state: forward the
                    # original bytes, the worker parses and answers.
                    index = shard_of(name, self._workers_n)
                    buffer_frame(index, slot, token.data, False, start)
                    return
                # Malformed body: fall through — the typed path produces
                # the exact decode-error envelope a single process would.
        flush_all()
        results[slot] = session.complete(token)
        observe(self.obs.clock() - start)

    def _collect(self, bundles, results, deadline: float, observe) -> None:
        clock = self.obs.clock
        for link, pending, slots, flags, starts in bundles:
            try:
                raw = pending.result(max(0.0, deadline - clock()))
            except TimeoutError:
                error = ApiError(
                    ErrorCode.INTERNAL,
                    _timeout_detail(link.index, self._timeout),
                )
                now = clock()
                for slot, flag, start in zip(slots, flags, starts):
                    results[slot] = _failure_bytes(error, flag)
                    observe(now - start)
                continue
            if raw is _CRASHED:
                error = ApiError(ErrorCode.INTERNAL, _crash_detail(link.index))
                for slot, flag, start in zip(slots, flags, starts):
                    results[slot] = _failure_bytes(error, flag)
                    observe(pending.resolved_at - start)
                continue
            replies = _unpack_frames(raw)
            if len(replies) != len(slots):
                error = ApiError(
                    ErrorCode.INTERNAL,
                    f"worker {link.index} answered {len(replies)} of "
                    f"{len(slots)} frames",
                )
                for slot, flag, start in zip(slots, flags, starts):
                    results[slot] = _failure_bytes(error, flag)
                    observe(pending.resolved_at - start)
                continue
            resolved_at = pending.resolved_at
            for slot, reply, start in zip(slots, replies, starts):
                results[slot] = reply
                observe(resolved_at - start)

    def __repr__(self) -> str:
        return (
            f"ProcClient(workers={self._workers_n}, "
            f"functions={len(self._names)})"
        )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _failure_bytes(error: ApiError, binary: bool) -> bytes:
    """A structured error answer in the caller's own framing."""
    response = ErrorResponse(error=error)
    if binary:
        return encode_response_bin2(response)
    return dumps_compact(encode_response(response)).encode("utf-8")


def _relabel(key: str, **extra) -> str:
    """Insert labels into a canonical ``name{k=v,...}`` metric key."""
    name, brace, inner = key.partition("{")
    labels: dict[str, object] = {}
    if brace:
        for pair in inner[:-1].split(","):
            label, _eq, value = pair.partition("=")
            labels[label] = value
    labels.update(extra)
    return metric_key(name, labels)
