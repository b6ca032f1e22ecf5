"""Table S — multi-function serving: cached service vs. per-query rebuild.

The paper's tables measure one function at a time; this table measures the
multi-function front door (:class:`repro.service.LivenessService`) under a
mixed workload: a module of many spec-profile-shaped functions and a
random interleaved stream of live-in/live-out requests across all of them.

Three ways of answering the same stream are timed:

* ``service`` — one :class:`LivenessService` with capacity for every
  function: each checker is built once on first touch and every later
  request hits the cache (the intended serving configuration);
* ``service_lru`` — the same service squeezed to a quarter of the module,
  so the LRU policy matters and the hit rate is what the cache geometry
  allows (the memory-bounded configuration);
* ``rebuild`` — a fresh :class:`~repro.core.FastLivenessChecker` built for
  *every request*, which is what "no serving layer" degenerates to when
  queries about many functions interleave and nothing is retained.

The ``rebuild`` column pays one full DFS + dominance + ``R``/``T``
precomputation per query; the ``service`` column pays it once per function
and then rides the cached query plans.  The gap is the constant-factor
argument of the paper, compounded across a module.

Run directly with ``python -m repro.bench.table_service [scale]``;
``--smoke`` selects the tiny CI profile, ``--json PATH`` overrides where
the machine-readable report (default ``BENCH_service.json``) is written.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field

from repro.bench.reporting import format_table, parse_bench_argv, write_json_report
from repro.core.live_checker import FastLivenessChecker
from repro.ir.function import Function
from repro.ir.module import Module
from repro.service import LivenessRequest, LivenessService
from repro.synth.spec_profiles import generate_function_with_blocks

#: Mode names in reporting order; ``rebuild`` is the speed-up baseline.
MODE_ORDER = ("service", "service_lru", "rebuild")

#: Default output path of the machine-readable report.
DEFAULT_JSON_PATH = "BENCH_service.json"


@dataclass(frozen=True)
class ServiceProfile:
    """One synthetic multi-function workload tier."""

    name: str
    #: Number of functions in the module (before the harness scale factor).
    functions: int
    #: Target block count per function (spec-profile shaped generator).
    target_blocks: int
    #: Number of requests in the mixed stream.
    queries: int


SERVICE_PROFILES: tuple[ServiceProfile, ...] = (
    ServiceProfile("mixed", functions=60, target_blocks=12, queries=2000),
    ServiceProfile("wide", functions=120, target_blocks=8, queries=3000),
)

#: The tiny profile CI smoke-runs (still ≥ 50 functions, so the headline
#: speed-up criterion is measured even in the cheap configuration).
SMOKE_PROFILES: tuple[ServiceProfile, ...] = (
    ServiceProfile("smoke", functions=50, target_blocks=6, queries=400),
)


@dataclass
class TableServiceRow:
    """Measured serving cost of one profile, per mode."""

    profile: str
    functions: int
    blocks: int
    variables: int
    queries: int
    #: Total wall-clock per mode, milliseconds.
    millis: dict[str, float] = field(default_factory=dict)
    #: Cache hit rate per service mode (absent for ``rebuild``).
    hit_rate: dict[str, float] = field(default_factory=dict)

    def speedup(self, mode: str, baseline: str = "rebuild") -> float:
        """How many times faster ``mode`` is than ``baseline``."""
        if not self.millis.get(mode):
            return 0.0
        return self.millis[baseline] / self.millis[mode]

    def as_dict(self) -> dict:
        """JSON-ready view, including the derived speed-ups."""
        return {
            "profile": self.profile,
            "functions": self.functions,
            "blocks": self.blocks,
            "variables": self.variables,
            "queries": self.queries,
            "millis": dict(self.millis),
            "hit_rate": dict(self.hit_rate),
            "speedup_vs_rebuild": {
                mode: self.speedup(mode)
                for mode in self.millis
                if mode != "rebuild"
            },
        }


def generate_service_module(
    profile: ServiceProfile, scale: int = 1, seed: int = 0
) -> Module:
    """A module of spec-shaped functions for one profile."""
    rng = random.Random(seed * 6271 + sum(map(ord, profile.name)))
    module = Module(f"service_{profile.name}")
    for index in range(profile.functions * scale):
        module.add_function(
            generate_function_with_blocks(
                rng,
                target_blocks=profile.target_blocks,
                name=f"{profile.name}_{index}",
            )
        )
    return module


def generate_request_stream(
    module: Module, queries: int, seed: int = 0
) -> list[LivenessRequest]:
    """A uniform random mixed stream over every function of the module."""
    rng = random.Random(seed * 104729 + len(module))
    functions = list(module)
    candidates: list[tuple[Function, list, list]] = []
    for function in functions:
        variables = function.variables()
        blocks = [block.name for block in function]
        if variables and blocks:
            candidates.append((function, variables, blocks))
    if not candidates:
        raise ValueError("module has no queryable function")
    stream = []
    for _ in range(queries):
        function, variables, blocks = rng.choice(candidates)
        stream.append(
            LivenessRequest(
                function=function.name,
                kind=rng.choice(("in", "out")),
                variable=rng.choice(variables),
                block=rng.choice(blocks),
            )
        )
    return stream


def _answer_by_rebuilding(
    module: Module, requests: list[LivenessRequest]
) -> list[bool]:
    """The no-serving-layer baseline: a fresh checker per request."""
    answers = []
    for request in requests:
        checker = FastLivenessChecker(module.function(request.function))
        if request.kind == "in":
            answers.append(checker.is_live_in(request.variable, request.block))
        else:
            answers.append(checker.is_live_out(request.variable, request.block))
    return answers


def measure_profile(
    profile: ServiceProfile,
    module: Module,
    requests: list[LivenessRequest],
    modes: tuple[str, ...] = MODE_ORDER,
) -> TableServiceRow:
    """Answer the same request stream once per mode, timing each."""
    row = TableServiceRow(
        profile=profile.name,
        functions=len(module),
        blocks=sum(len(function.blocks) for function in module),
        variables=sum(len(function.variables()) for function in module),
        queries=len(requests),
    )
    reference: list[bool] | None = None
    for mode in modes:
        if mode == "rebuild":
            start = time.perf_counter()
            answers = _answer_by_rebuilding(module, requests)
            row.millis[mode] = (time.perf_counter() - start) * 1000.0
        else:
            capacity = (
                max(1, len(module) // 4)
                if mode == "service_lru"
                else len(module)
            )
            service = LivenessService(module, capacity=capacity)
            start = time.perf_counter()
            answers = service.submit(requests)
            row.millis[mode] = (time.perf_counter() - start) * 1000.0
            row.hit_rate[mode] = service.stats.hit_rate
        if reference is None:
            reference = answers
        elif answers != reference:
            raise AssertionError(
                f"mode {mode!r} disagrees with {modes[0]!r} on profile "
                f"{profile.name!r}"
            )
    return row


def compute_table_service(
    scale: int = 1,
    seed: int = 0,
    profiles: tuple[ServiceProfile, ...] = SERVICE_PROFILES,
    modes: tuple[str, ...] = MODE_ORDER,
) -> list[TableServiceRow]:
    """Measure every profile with every mode."""
    rows = []
    for profile in profiles:
        module = generate_service_module(profile, scale=scale, seed=seed)
        requests = generate_request_stream(
            module, profile.queries * scale, seed=seed
        )
        rows.append(measure_profile(profile, module, requests, modes))
    return rows


def format_table_service(rows: list[TableServiceRow]) -> str:
    """Render the per-mode wall-clock comparison."""
    modes = [
        mode for mode in MODE_ORDER if mode in (rows[0].millis if rows else {})
    ]
    headers = ["Profile", "#Fn", "#Blocks", "#Vars", "#Q"]
    for mode in modes:
        headers.append(f"{mode} ms")
    for mode in modes:
        if mode != "rebuild":
            headers.append(f"{mode} hit%")
    for mode in modes:
        if mode != "rebuild":
            headers.append(f"rb/{mode}")
    table_rows = []
    for row in rows:
        cells: list[object] = [
            row.profile,
            row.functions,
            row.blocks,
            row.variables,
            row.queries,
        ]
        cells.extend(row.millis[mode] for mode in modes)
        cells.extend(
            100.0 * row.hit_rate.get(mode, 0.0)
            for mode in modes
            if mode != "rebuild"
        )
        cells.extend(
            row.speedup(mode) for mode in modes if mode != "rebuild"
        )
        table_rows.append(cells)
    return format_table(
        headers,
        table_rows,
        title=(
            "Table S — multi-function serving wall-clock per mode "
            "(rb/x: speed-up over rebuilding a checker per query)"
        ),
    )


@dataclass
class DispatchOverhead:
    """Measured cost of the ``CompilerClient.dispatch`` protocol layer."""

    #: Best-of-N wall-clock of ``LivenessService.submit`` (milliseconds).
    submit_millis: float
    #: Best-of-N wall-clock of the same stream through ``dispatch``.
    dispatch_millis: float

    @property
    def overhead(self) -> float:
        """Fractional overhead of dispatch over direct submit (0.05 = 5%)."""
        if not self.submit_millis:
            return 0.0
        return self.dispatch_millis / self.submit_millis - 1.0

    def as_dict(self) -> dict:
        return {
            "submit_millis": self.submit_millis,
            "dispatch_millis": self.dispatch_millis,
            "overhead": self.overhead,
        }


#: Bench guard: the protocol layer may cost at most this fraction on top
#: of calling ``LivenessService.submit`` directly.
MAX_DISPATCH_OVERHEAD = 0.10


def measure_dispatch_overhead(
    module: Module, requests: list[LivenessRequest], repeats: int = 5
) -> DispatchOverhead:
    """Time the same mixed stream through ``submit`` and ``dispatch``.

    The protocol mirror of the stream addresses functions through
    unversioned handles and variables by name — exactly what a wire
    client would send.  Both sides get one warm-up pass (so checker
    construction and name-map building are excluded, as in the steady
    serving state) and the best of ``repeats`` timed passes is kept.
    """
    from repro.api.client import CompilerClient
    from repro.api.protocol import BatchLiveness, LivenessQuery

    service = LivenessService(module, capacity=len(module))
    client = CompilerClient(module, capacity=len(module))
    batch = BatchLiveness(
        queries=tuple(
            LivenessQuery(
                function=request.function,
                kind=request.kind,
                variable=request.variable.name,
                block=request.block,
            )
            for request in requests
        )
    )
    direct = service.submit(requests)
    response = client.dispatch(batch)
    if response.error is not None:
        raise AssertionError(f"dispatch failed: {response.error}")
    if list(response.values) != direct:
        raise AssertionError("dispatch() and submit() disagree on the stream")
    submit_best = dispatch_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        service.submit(requests)
        submit_best = min(submit_best, time.perf_counter() - start)
        start = time.perf_counter()
        client.dispatch(batch)
        dispatch_best = min(dispatch_best, time.perf_counter() - start)
    return DispatchOverhead(
        submit_millis=submit_best * 1000.0,
        dispatch_millis=dispatch_best * 1000.0,
    )


def write_report(
    rows: list[TableServiceRow],
    path: str = DEFAULT_JSON_PATH,
    dispatch_overhead: DispatchOverhead | None = None,
) -> str:
    """Emit the machine-readable ``BENCH_service.json`` report."""
    payload = {
        "baseline": "rebuild",
        "rows": [row.as_dict() for row in rows],
    }
    if dispatch_overhead is not None:
        payload["dispatch_overhead"] = dispatch_overhead.as_dict()
    return write_json_report(path, "table_service", payload)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    scale, smoke, json_path = parse_bench_argv(
        argv if argv is not None else sys.argv[1:], DEFAULT_JSON_PATH
    )
    profiles = SMOKE_PROFILES if smoke else SERVICE_PROFILES
    rows = compute_table_service(scale=scale, profiles=profiles)
    print(format_table_service(rows))
    headline = rows[0]
    print(
        f"\n{headline.profile} profile: cached service is "
        f"{headline.speedup('service'):.1f}x per-query checker reconstruction "
        f"over {headline.functions} functions"
    )
    overhead = None
    if smoke:
        # Bench guard: the typed protocol layer must stay thin.  The same
        # mixed stream is answered through CompilerClient.dispatch() and
        # through LivenessService.submit() directly; more than
        # MAX_DISPATCH_OVERHEAD between them fails the smoke run.
        profile = profiles[0]
        module = generate_service_module(profile, scale=scale)
        requests = generate_request_stream(module, profile.queries * scale)
        overhead = measure_dispatch_overhead(module, requests)
        print(
            f"dispatch layer: submit {overhead.submit_millis:.1f} ms, "
            f"dispatch {overhead.dispatch_millis:.1f} ms "
            f"({overhead.overhead:+.1%} overhead)"
        )
        if overhead.overhead >= MAX_DISPATCH_OVERHEAD:
            print(
                f"FAIL: dispatch() adds {overhead.overhead:.1%} over "
                f"submit(), budget is {MAX_DISPATCH_OVERHEAD:.0%}"
            )
            return 1
    written = write_report(rows, json_path, dispatch_overhead=overhead)
    print(f"json report: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
