"""repro.concurrent — sharded, thread-safe serving on top of the protocol.

PR 4 built the versioned request/response protocol and revisioned
function handles; this package makes them safe to drive from many
threads at once:

* :mod:`repro.concurrent.locks` — the writer-preferring
  :class:`RWLock` every shard is guarded by;
* :mod:`repro.concurrent.sharded` — :class:`ShardedService`, which
  partitions a module's functions across N shards (stable hash of the
  function name), each shard owning its own LRU checker cache behind its
  own reader/writer lock — the thread placement of the shared
  :class:`~repro.api.client.Router`;
* :mod:`repro.concurrent.client` — :class:`ShardedClient`, the router
  over that placement: the thread-safe ``dispatch``/``dispatch_json``
  front door with the linearization ``observer`` hook the differential
  concurrency harness records through;
* :mod:`repro.concurrent.server` — :func:`serve_loop` and
  :class:`WireServer`, the wire-level work queue + worker pool;
* :mod:`repro.concurrent.procs` — :class:`ProcClient`, the router over
  worker processes: the same crc32 shard partition and registry, but
  each shard is a worker *process* behind a pipe, so CPU-bound serving
  is no longer pinned under one GIL.

Dispatch, the request-type table, compile-and-register, the stats merge
and the registry (registration, ``import_state`` and the
``export_state`` cut) are written once in :mod:`repro.api.client`; the
placements here supply only locking, per-index answering, batching,
install/export and one stats part per index.

``bench/table_concurrency.py`` measures this layer; the differential
harness in ``tests/support/concurrency.py`` proves that every concurrent
run — thread-sharded or process-sharded — is bit-identical to its serial
replay.
"""

from repro.concurrent.client import ShardedClient
from repro.concurrent.locks import LockMetrics, RWLock
from repro.concurrent.procs import DEFAULT_WORKERS, ProcClient, is_worker_failure
from repro.concurrent.server import WireServer, serve_loop
from repro.concurrent.sharded import DEFAULT_SHARDS, ShardedService, shard_of

__all__ = [
    "DEFAULT_SHARDS",
    "DEFAULT_WORKERS",
    "LockMetrics",
    "ProcClient",
    "RWLock",
    "ShardedClient",
    "ShardedService",
    "WireServer",
    "is_worker_failure",
    "serve_loop",
    "shard_of",
]
