"""Per-layer timing from outside the program.

The tracer replaces public methods of each layer (``Function.build_cfg``,
``DepthFirstSearch.__init__``, ``ShardedClient.dispatch``, …) with
wrappers that time every call while recording is on.  Each thread keeps
a stack of open calls, so a call's *self time* is its duration minus the
time its traced callees took.  Nothing under ``src/`` changes; the
wrappers are removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: ``(module path, attribute path, metric, layer)`` of every traced call.
#: ``plan`` is only timed when the variable has no plan yet (a build).
TRACED = (
    ("repro.ir.function", "Function.build_cfg", "cfg.build_cfg", "cfg"),
    ("repro.cfg.dfs", "DepthFirstSearch.__init__", "cfg.dfs", "cfg"),
    ("repro.cfg.dominance", "DominatorTree.__init__", "cfg.dominators", "cfg"),
    ("repro.core.precompute", "LivenessPrecomputation.__init__", "core.precompute", "core"),
    ("repro.core.reduced_graph", "ReducedReachability.__init__", "core.reach", "core"),
    ("repro.core.targets", "TargetSets.__init__", "core.targets", "core"),
    ("repro.core.plans", "PlanCache.plan", "core.plans", "core"),
    ("repro.core.live_checker", "FastLivenessChecker.is_live_in", "core.query", "core"),
    ("repro.core.live_checker", "FastLivenessChecker.is_live_out", "core.query", "core"),
    ("repro.core.batch", "BatchQueryEngine.is_live_in", "core.query", "core"),
    ("repro.core.batch", "BatchQueryEngine.is_live_out", "core.query", "core"),
    ("repro.core.live_checker", "apply_cfg_delta", "core.patch", "core"),
    ("repro.ssa.defuse", "DefUseChains.__init__", "ssa.defuse", "ssa"),
    ("repro.liveness.dataflow", "DataflowLiveness.prepare", "liveness.prepare", "liveness"),
    ("repro.liveness.dataflow", "DataflowLiveness.is_live_in", "liveness.query", "liveness"),
    ("repro.liveness.dataflow", "DataflowLiveness.is_live_out", "liveness.query", "liveness"),
    ("repro.service.service", "LivenessService.checker", "service.checker", "service"),
    ("repro.service.service", "LivenessService.notify_instructions_changed", "service.notify", "service"),
    ("repro.service.service", "LivenessService.notify_cfg_changed", "service.notify", "service"),
    ("repro.concurrent.client", "ShardedClient.dispatch", "concurrent.dispatch", "concurrent"),
    ("repro.concurrent.locks", "RWLock.acquire_read", "concurrent.lock_acquire", "concurrent"),
    ("repro.concurrent.locks", "RWLock.acquire_write", "concurrent.lock_acquire", "concurrent"),
    ("repro.concurrent.server", "WireServer.submit", "concurrent.submit", "concurrent"),
    ("repro.api.client", "CompilerClient.dispatch", "api.client_dispatch", "api"),
    ("repro.api.codec", "BytesServerSession.ingest", "api.ingest", "api"),
    ("repro.api.codec", "BytesServerSession.complete", "api.complete", "api"),
    ("repro.api.codec", "encode_response_bin2", "api.bin2_encode", "api"),
    ("repro.persist.wal", "WriteAheadLog.append", "persist.wal_append", "persist"),
)

LAYERS = ("cfg", "core", "ssa", "liveness", "service", "concurrent", "api", "persist")


class Tracer:
    """Installs the timing wrappers and sums calls per metric."""

    def __init__(self) -> None:
        self.recording = False
        self._local = threading.local()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.layer_of = {metric: layer for _m, _a, metric, layer in TRACED}

    def _table(self) -> tuple[list, dict]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = defaultdict(lambda: [0, 0, 0])
            with self._tables_lock:
                self._tables.append(local.table)
        return stack, local.table

    def _wrap(self, original, metric: str, when=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording or (when is not None and not when(*args)):
                return original(*args, **kwargs)
            stack, table = tracer._table()
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = table[metric]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children

        return traced

    def install(self) -> None:
        """Put every wrapper in place (recording stays off)."""
        for module_name, path, metric, _layer in TRACED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            when = None
            if metric == "core.plans":
                when = lambda cache, var, *rest: var not in cache  # noqa: E731
            setattr(owner, attr, self._wrap(original, metric, when))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """``metric -> (calls, inclusive ns, self ns)`` over all threads."""
        merged: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for metric, row in list(table.items()):
                for index in range(3):
                    merged[metric][index] += row[index]
        return {metric: tuple(row) for metric, row in merged.items()}


def mean_us(totals: dict, metric: str, inclusive: bool = True) -> float:
    """Mean microseconds per call of ``metric`` (0 when never called)."""
    calls, incl, own = totals.get(metric, (0, 0, 0))
    return ((incl if inclusive else own) / calls) / 1000.0 if calls else 0.0


def layer_self_us(tracer: Tracer, totals: dict, ops: int) -> dict[str, float]:
    """Self time per operation of each layer, in microseconds."""
    per_layer = dict.fromkeys(LAYERS, 0)
    for metric, (_calls, _incl, own) in totals.items():
        per_layer[tracer.layer_of[metric]] += own
    return {layer: ns / ops / 1000.0 if ops else 0.0 for layer, ns in per_layer.items()}
