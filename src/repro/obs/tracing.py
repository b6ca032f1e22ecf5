"""Request-scoped tracing: one request in, one structured timing tree out.

A :class:`Tracer` hands out :class:`Span` trees.  The client opens a
root span per request (:meth:`Tracer.request_trace`); every layer it
passes through — dispatch, shard-lock acquisition, checker-cache lookup,
the kernel query itself — brackets its work in :meth:`Tracer.span`.
Nesting is tracked with a :mod:`contextvars` context variable, so the
tree assembles itself without any layer knowing about the others, and
concurrent requests on different threads (the :class:`WireServer`
worker pool) never see each other's spans.

Two properties matter more than the feature itself:

* **response invariance** — spans only *read* the injected monotonic
  clock and *write* to the tracer's record buffer; nothing here can
  alter a response.  The PR-5 differential harness runs with tracing
  enabled to prove it.
* **negligible cost when idle** — with no active trace, ``span()``
  checks one context variable and returns one shared no-op context
  manager; no clock reads, no allocation, no generator frame.

Trace ids are deterministic (a per-tracer ``itertools.count``) unless a
caller supplies one explicitly — e.g. propagated off the wire envelope.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextvars import ContextVar
from typing import Callable, Iterator

#: The innermost open span for the *current* logical context (thread /
#: task).  Module-level so independent Tracer instances cannot nest
#: into each other's trees by accident: a span opened while a different
#: tracer's trace is active simply no-ops.
_ACTIVE_SPAN: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

#: How many finished traces a tracer retains (oldest evicted first).
DEFAULT_TRACE_CAPACITY = 64


class Span:
    """One timed region: name, attributes, duration, child spans."""

    __slots__ = ("name", "trace_id", "attributes", "start", "end", "children")

    def __init__(self, name: str, trace_id: str, start: float, **attributes) -> None:
        self.name = name
        self.trace_id = trace_id
        self.attributes = attributes
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> dict:
        """JSON-safe rendering of the span subtree rooted here."""
        node = {
            "name": self.name,
            "duration_seconds": self.duration,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.children:
            node["children"] = [child.as_dict() for child in self.children]
        return node

    def tree(self) -> dict:
        """The whole timing tree with its trace id, wire/log ready."""
        return {"trace_id": self.trace_id, "root": self.as_dict()}

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, trace_id={self.trace_id!r}, {state})"


class _NoopScope:
    """The shared context manager of an untraced region: does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopScope()


class _Scope:
    """Makes ``span`` the active span for one ``with`` block.

    On exit — exceptions included — the span's end time is stamped and
    the previously active span restored; a root scope then hands the
    finished tree to ``finish``.
    """

    __slots__ = ("span", "clock", "finish", "token")

    def __init__(self, span: Span, clock: Callable[[], float], finish=None) -> None:
        self.span = span
        self.clock = clock
        self.finish = finish
        self.token = None

    def __enter__(self) -> Span:
        self.token = _ACTIVE_SPAN.set(self.span)
        return self.span

    def __exit__(self, *exc_info) -> bool:
        self.span.end = self.clock()
        _ACTIVE_SPAN.reset(self.token)
        if self.finish is not None:
            self.finish(self.span)
        return False


class Tracer:
    """Builds span trees for requests and retains the finished ones.

    ``clock`` is the monotonic-clock seam: tests inject a fake clock to
    make durations deterministic, and the differential harness relies on
    the fact that *nothing else* in the tracer touches ambient state.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = DEFAULT_TRACE_CAPACITY,
        enabled: bool = True,
    ) -> None:
        self._clock = clock
        self.enabled = enabled
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._auto_ids = itertools.count(1)

    # -- root spans ------------------------------------------------------
    def request_trace(self, name: str, trace_id: str | None = None, **attributes):
        """Open a root span for one request; record the tree on exit.

        ``trace_id`` is honoured when the caller propagates one (say,
        off a wire envelope); otherwise a deterministic local id is
        minted.  When the tracer is disabled *and* no explicit id was
        supplied, this is the shared no-op (entering it yields ``None``)
        — but an explicit id always produces a trace, so wire callers
        asking to be traced get their tree even against a quiet default
        tracer.
        """
        if not self.enabled and trace_id is None:
            return _NOOP
        if trace_id is None:
            trace_id = f"local-{next(self._auto_ids)}"
        root = Span(name, trace_id, self._clock(), **attributes)
        return _Scope(root, self._clock, self._finish)

    # -- child spans -----------------------------------------------------
    def span(self, name: str, **attributes):
        """Bracket a timed region under the current trace, if any.

        Without an active trace this returns the shared no-op (entering
        it yields ``None``) after a single context-variable read — the
        instrumented hot paths stay hot.
        """
        parent = _ACTIVE_SPAN.get()
        if parent is None:
            return _NOOP
        child = Span(name, parent.trace_id, self._clock(), **attributes)
        parent.children.append(child)
        return _Scope(child, self._clock)

    def _finish(self, root: Span) -> None:
        with self._lock:
            self._finished.append(root)

    # -- retained traces -------------------------------------------------
    def finished_traces(self) -> list[Span]:
        """Finished root spans, oldest first (bounded by capacity)."""
        with self._lock:
            return list(self._finished)

    def find_trace(self, trace_id: str) -> Span | None:
        """The most recent finished trace with this id, if retained."""
        with self._lock:
            for root in reversed(self._finished):
                if root.trace_id == trace_id:
                    return root
        return None

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


def current_span() -> Span | None:
    """The innermost open span in this context, or ``None``."""
    return _ACTIVE_SPAN.get()
