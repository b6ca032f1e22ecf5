"""The thread-safe protocol front door: ``dispatch`` over a sharded service.

:class:`ShardedClient` speaks exactly the protocol of
:class:`~repro.api.client.CompilerClient` — same request/response types,
same structured errors, same never-raise boundary — but may be called
from any number of threads at once.  It is the shared
:class:`~repro.api.client.Router` over the thread placement, a
:class:`~repro.concurrent.sharded.ShardedService`: the request handlers
run directly on the owning shard's service, bracketed by the shard's
lock:

===========================  =======================================
request type                 locking
===========================  =======================================
``LivenessQuery``            read lock of the owning shard
``LiveSetRequest``           read lock of the owning shard
``BatchLiveness``            read locks of *every* involved shard,
                             acquired in shard-index order and held for
                             the whole batch (one linearization point)
``DestructRequest``,         write lock of the owning shard
``AllocateRequest``,
``NotifyRequest``,
``EvictRequest``
``CompileSourceRequest``     registry lock + write locks of the shards
                             receiving the new functions
===========================  =======================================

Every dispatch is thereby **linearizable**; the optional ``observer``
is invoked exactly once per dispatch, under the locks (see
:class:`~repro.api.client.Router`).
"""

from __future__ import annotations

from typing import Iterable

from repro.api.client import Observer, Router
from repro.api.handles import FunctionHandle
from repro.concurrent.sharded import DEFAULT_SHARDS, ShardedService
from repro.ir.function import Function
from repro.ir.module import Module
from repro.obs import Observability
from repro.service.service import DEFAULT_CAPACITY


class ShardedClient(Router):
    """Concurrent drop-in for :class:`~repro.api.client.CompilerClient`."""

    def __init__(
        self,
        module: Module | Iterable[Function] | None = None,
        shards: int = DEFAULT_SHARDS,
        capacity: int = DEFAULT_CAPACITY,
        observer: Observer | None = None,
        obs: Observability | None = None,
    ) -> None:
        # Observability is on by default (tracing included): the
        # differential harness runs against this default, which is what
        # proves recording never changes a response.
        obs = obs if obs is not None else Observability()
        self._sharded = ShardedService(shards=shards, capacity=capacity, obs=obs)
        super().__init__(self._sharded, obs, observer)
        if module is not None:
            self._sharded.register_all(list(module))

    dispatch = Router.dispatch

    @property
    def service(self) -> ShardedService:
        """The underlying sharded service (stats, topology, locks)."""
        return self._sharded

    def handle(self, name: str) -> FunctionHandle:
        """A fresh handle for ``name`` at its current revision."""
        return self._sharded.handle(name)

    def install_checker(self, name: str, checker) -> None:
        """Install a pre-built checker (snapshot-restore path)."""
        self._sharded.install_checker(name, checker)

    def __repr__(self) -> str:
        return f"ShardedClient({self._sharded!r})"
