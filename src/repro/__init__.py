"""repro — Fast Liveness Checking for SSA-Form Programs.

A full reproduction of Boissinot, Hack, Grund, Dupont de Dinechin and
Rastello, *Fast Liveness Checking for SSA-Form Programs* (CGO 2008),
including every substrate the paper relies on: a small SSA IR with
construction and destruction passes, the CFG analyses (DFS, dominance,
reducibility), the conventional data-flow liveness baseline, and the
paper's liveness checker itself with its bitset engineering, plus the
benchmark harness reproducing the paper's tables.

Typical use::

    from repro import compile_source, FastLivenessChecker

    module = compile_source('''
    func count(n) {
        s = 0;
        while (n > 0) { s = s + n; n = n - 1; }
        return s;
    }
    ''')
    function = module.function("count")
    checker = FastLivenessChecker(function)
    s = function.variable_by_name("s.3")
    print(checker.is_live_in(s, "bb2"))

See ``DESIGN.md`` for the module map and ``EXPERIMENTS.md`` for the
reproduction of the paper's evaluation.

The names below are re-exported lazily (PEP 562): ``import repro`` or
``import repro.core`` loads no other subpackage, and each name imports
its home module on first access.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api (the versioned front door)
    "ApiError",
    "CompilerClient",
    "EngineSpec",
    "ErrorCode",
    "FunctionHandle",
    "QueryKind",
    "StatsRequest",
    "StatsResponse",
    "available_engines",
    "get_engine",
    "register_engine",
    # cfg
    "ControlFlowGraph",
    "DepthFirstSearch",
    "EdgeKind",
    "DominatorTree",
    "DominanceFrontiers",
    "is_reducible",
    # ir
    "Variable",
    "Instruction",
    "Phi",
    "ParallelCopy",
    "BasicBlock",
    "Function",
    "Module",
    "FunctionBuilder",
    "parse_function",
    "print_function",
    "verify_ssa",
    # ssa
    "DefUseChains",
    "construct_ssa",
    # ssadestruct (the staged out-of-SSA client)
    "destruct",
    "DestructReport",
    "InterferenceChecker",
    "verify_conventional_ssa",
    "verify_destructed",
    # liveness
    "LivenessOracle",
    "CountingOracle",
    "DataflowLiveness",
    # core (the paper)
    "LivenessPrecomputation",
    "ReducedReachability",
    "TargetSets",
    "FastLivenessChecker",
    "TransformationSession",
    # regalloc (the query-driven client)
    "Allocation",
    "allocate",
    "color_function",
    "compute_pressure",
    "max_live",
    "verify_allocation",
    # obs (metrics, tracing, wire-drivable introspection)
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "to_prometheus",
    # service (multi-function front door)
    "LivenessService",
    "LivenessRequest",
    "ServiceStats",
    # concurrent (sharded thread-safe + multi-process serving)
    "ProcClient",
    "ShardedClient",
    "ShardedService",
    "WireServer",
    "serve_loop",
    # frontend
    "compile_source",
    "compile_function",
]

#: Home module of every re-exported name.
_SOURCES = {
    "repro.api": (
        "ApiError", "CompilerClient", "EngineSpec", "ErrorCode", "FunctionHandle",
        "QueryKind", "StatsRequest", "StatsResponse", "available_engines",
        "get_engine", "register_engine",
    ),
    "repro.cfg": (
        "ControlFlowGraph", "DepthFirstSearch", "DominanceFrontiers",
        "DominatorTree", "EdgeKind", "is_reducible",
    ),
    "repro.concurrent": (
        "ProcClient", "ShardedClient", "ShardedService", "WireServer", "serve_loop",
    ),
    "repro.core": (
        "FastLivenessChecker", "LivenessPrecomputation", "ReducedReachability",
        "TargetSets", "TransformationSession",
    ),
    "repro.frontend": ("compile_function", "compile_source"),
    "repro.ir": (
        "BasicBlock", "Function", "FunctionBuilder", "Instruction", "Module",
        "ParallelCopy", "Phi", "Variable", "parse_function", "print_function",
        "verify_ssa",
    ),
    "repro.liveness": ("CountingOracle", "DataflowLiveness", "LivenessOracle"),
    "repro.obs": ("MetricsRegistry", "Observability", "Tracer", "to_prometheus"),
    "repro.regalloc": (
        "Allocation", "allocate", "color_function", "compute_pressure", "max_live",
        "verify_allocation",
    ),
    "repro.service": ("LivenessRequest", "LivenessService", "ServiceStats"),
    "repro.ssa": ("DefUseChains", "construct_ssa"),
    "repro.ssadestruct": (
        "DestructReport", "InterferenceChecker", "destruct",
        "verify_conventional_ssa", "verify_destructed",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
