"""Multi-process scale-out of the sharded server: shards become processes.

The GIL makes the thread pool in :mod:`repro.concurrent.server` a
robustness feature, not a throughput one — ``BENCH_concurrency.json``
records wire req/s flat across 1/2/4/8 threads.  This module promotes
the PR-5 shard architecture to worker *processes*:

* each shard is a **worker process** running one serial
  :class:`~repro.api.client.CompilerClient` behind its own
  :class:`~repro.api.codec.BytesServerSession` — a full single-process
  server, reached over a :func:`multiprocessing.Pipe`;
* the parent runs a **coordinator** (:class:`ProcClient`): the shared
  :class:`~repro.api.client.Router` with the worker links as its
  placement.  It routes by the same crc32
  :func:`~repro.api.client.shard_of` partition, keeps the one registry,
  splits cross-worker ``BatchLiveness`` requests and merges the answers
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

* typed requests — the liveness lane included — hold the owning worker
  link's mutex for the whole send-await-observe window; cross-worker
  batches take the involved mutexes in index order — the router's own
  locking, with link mutexes for shard locks, so the observer records a
  valid linearization;
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
from typing import Iterable, Sequence

from repro.api.client import (
    CompilerClient,
    Observer,
    Placement,
    Router,
    liveness_query,
    shard_of,
)
from repro.api.codec import (
    RELAY_OPCODES,
    decode_request_bin2,
    decode_response_bin2,
    encode_request_bin2,
    encode_response_bin2,
    frame_defs,
    reframe_with_defs,
    relay_route,
)
from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.protocol import (
    BatchLiveness,
    BatchLivenessResponse,
    ErrorResponse,
    Request,
    Response,
    dumps_compact,
    encode_response,
)
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.obs import Observability
from repro.persist.policy import is_replayable, is_worker_failure
from repro.service.service import DEFAULT_CAPACITY

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
# installation, export, typed dispatch, stats, health, drain.  The worker
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
    client = CompilerClient(capacity=capacity, strategy=strategy, obs=obs)
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
                op, header, payload, client, session, served
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


def _worker_control(op, header, payload, client, session, served) -> tuple[dict, bytes]:
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
    if op == "install":
        # ``(name, revision, printed source)`` triples, revisions intact:
        # live registrations arrive at revision 0, restores as exported.
        client.import_state(header.get("functions", ()))
        return {"ok": True}, b""
    if op == "export":
        # Snapshot surface: this worker's triples in registration order.
        return {"ok": True, "functions": client.export_state()[0]}, b""
    if op == "stats":
        obs = client.obs
        snapshot = obs.snapshot()
        stats = client.service.stats.as_dict()
        if header.get("reset"):
            client.service.stats.reset()
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


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ProcClient(Placement, Router):
    """Multi-process drop-in for :class:`~repro.concurrent.ShardedClient`.

    Same protocol, same structured errors, same never-raise boundary —
    but every shard is a worker process, so CPU-bound serving scales with
    cores instead of saturating one GIL.  Construction spawns the
    workers; :meth:`close` (or the context manager) drains them.

    The client is its own placement: the shared
    :class:`~repro.api.client.Router` front door over the worker links
    (``Placement`` comes first so the registry surface is its own).

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
        observer: Observer | None = None,
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
        per_worker = max(1, -(-capacity // workers))  # ceil division
        Placement.__init__(self, workers, per_worker, strategy)
        Router.__init__(self, self, obs if obs is not None else Observability(), observer)
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
        self._links = [_Link(index, self.obs) for index in range(workers)]
        for link in self._links:
            self._spawn(link)
            link.alive.set()
        #: The outer connection: ingests every frame (mirroring the
        #: client's string table) and answers the typed/JSON/hello/error
        #: paths itself through :meth:`dispatch`; the relay reads the
        #: mirrored table through its :attr:`string_table`.
        self._session = self.bytes_session()
        self._request_seconds = self.obs.histogram("wire.request_seconds")
        if module is not None:
            self.register_all(list(module))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, link: _Link) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, link.index, self._per_part, self._strategy),
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
            # The reader exits on the dead worker's EOF.  Join it before
            # the pipe closes: a reader still between reads could
            # otherwise read from the next pipe that reuses this file
            # descriptor number and steal that link's replies.
            if link.reader is not None:
                link.reader.join(max(1.0, deadline - self.obs.clock()))
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
                    _pack_control({"op": "install", "functions": link.baseline}),
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

    # ------------------------------------------------------------------
    # Introspection / conveniences
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.parts

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
        return shard_of(name, self.parts)

    # ------------------------------------------------------------------
    # Placement hooks (the router calls these)
    # ------------------------------------------------------------------
    def _locked(self, indices, write: bool) -> ExitStack:
        # One mutex per link: reads and writes alike hold it for the
        # whole send-await-observe window.
        stack = ExitStack()
        for index in indices:
            stack.enter_context(self._links[index].mutex)
        return stack

    def _read_one(self, name: str):
        index = self.index_of(name)
        mutex = self._links[index].mutex
        mutex.acquire()
        return index, mutex.release

    def _answer(self, index, name, revision, want_in, variable, block, request=None):
        if request is None:
            request = liveness_query(name, revision, want_in, variable, block)
        return self._run(index, request, None)

    def _run(self, index: int, request: Request, handler=None) -> Response:
        """One request at its worker (link mutex held); logs confirmed edits."""
        link = self._links[index]
        msg = _pack_control({"op": "dispatch"}, encode_request_bin2(request))
        _header, payload = self._await_control(link, self._send_ready(link, msg))
        response = decode_response_bin2(payload)
        if is_replayable(request, response):
            link.log.append(request)
            if len(link.log) >= self._compact_after:
                self._compact_link(link)
        return response

    def _answer_batch(self, queries) -> BatchLivenessResponse:
        """Fan the batch out per worker (mutexes held), merge in order."""
        groups: dict[int, list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(
                shard_of(query.function.name, self.parts), []
            ).append(position)
        involved = sorted(groups)
        # Fan out first (all workers chew their sub-batches in parallel),
        # then collect; per-link FIFO keeps this one linearization point
        # despite the concurrency underneath.
        posted = []
        for index in involved:
            link = self._links[index]
            sub = BatchLiveness(queries=tuple(queries[pos] for pos in groups[index]))
            msg = _pack_control(
                {"op": "dispatch", "error_index": True}, encode_request_bin2(sub)
            )
            posted.append((link, self._send_ready(link, msg)))
        answers: dict[int, tuple[Response, int | None]] = {}
        for link, pending in posted:
            header, payload = self._await_control(link, pending)
            answers[link.index] = (
                decode_response_bin2(payload),
                header.get("error_index"),
            )
        failing = [index for index in involved if answers[index][0].error is not None]
        if failing:
            # The batch's error is the error of the globally-first failing
            # query, exactly as in-process (batch errors are
            # position-independent, so the winning worker's sub-batch
            # error *is* that query's error).
            def first_global(index: int) -> int:
                error_index = answers[index][1]
                return groups[index][error_index if error_index is not None else 0]

            winner = min(failing, key=first_global)
            return BatchLivenessResponse(error=answers[winner][0].error)
        values: list[bool] = [False] * len(queries)
        for index in involved:
            for pos, value in zip(groups[index], answers[index][0].values):
                values[pos] = value
        return BatchLivenessResponse(values=tuple(values))

    def _install(self, groups) -> None:
        """Install entries on their workers atomically (all or nothing).

        Handles are minted at revision 0 by the registry, so a serial
        replay against a ``ShardedClient`` sees identical responses.  If
        a worker dies mid-install, every worker that already
        acknowledged is force-restarted (its rebuild recipe does not
        include the new functions), rolling the whole batch back.
        """
        triples = {
            index: [
                (name, revision, payload if isinstance(payload, str) else print_function(payload))
                for name, revision, payload in entries
            ]
            for index, entries in groups.items()
        }
        acked: list[_Link] = []
        try:
            posted = []
            for index in sorted(triples):
                link = self._links[index]
                msg = _pack_control({"op": "install", "functions": triples[index]})
                posted.append((link, self._send_ready(link, msg)))
            for link, pending in posted:
                self._await_control(link, pending)
                acked.append(link)
        except ProtocolError:
            for link in acked:
                self._force_restart(link)
            raise
        for index, entries in triples.items():
            self._links[index].baseline.extend(entries)

    def _export_parts(self):
        """Every worker's triples; worker checker caches live across a
        pipe and are rebuilt on demand, so no precomputation is handed
        over.  Raises :class:`ProtocolError` if a worker is down or hung
        — a snapshot of half a fleet would be a lie."""
        posted = [
            (link, self._send_ready(link, _pack_control({"op": "export"})))
            for link in self._links
        ]
        return [
            (self._await_control(link, pending)[0].get("functions") or (), ())
            for link, pending in posted
        ]

    def _stats_parts(self, reset: bool):
        """Every live worker's metrics and counters (a dead worker
        contributes nothing to the scrape); never waits on a mutex."""
        posted = []
        for link in self._links:
            try:
                msg = _pack_control({"op": "stats", "reset": bool(reset)})
                posted.append((link, self._post(link, msg)))
            except (BrokenPipeError, OSError):
                continue
        parts = []
        for link, pending in posted:
            try:
                header, _payload = self._await_control(link, pending)
            except ProtocolError:
                continue
            parts.append((link.index, header.get("snapshot") or {}, header.get("stats") or {}))
        return parts

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

    def _force_restart(self, link: _Link) -> None:
        """Kill a worker so the crash path rebuilds it from its recipe."""
        link.alive.clear()
        proc = link.proc
        if proc is not None and proc.is_alive():
            proc.terminate()

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
        index = shard_of(name, self.parts)
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
                    index = shard_of(name, self.parts)
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
        return f"ProcClient(workers={self.parts}, functions={len(self._order)})"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _failure_bytes(error: ApiError, binary: bool) -> bytes:
    """A structured error answer in the caller's own framing."""
    response = ErrorResponse(error=error)
    if binary:
        return encode_response_bin2(response)
    return dumps_compact(encode_response(response)).encode("utf-8")
