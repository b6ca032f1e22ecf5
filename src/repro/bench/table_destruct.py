"""Table D — out-of-SSA translation per interference backend.

The paper's Table 2 measures the liveness queries issued by SSA
destruction; this table measures the whole pass from
:mod:`repro.ssadestruct` with only the way interference questions are
answered swapped out:

* ``fast`` — Budimlić tests through the fast checker: a constant number
  of Algorithm-3 queries per test, nothing precomputed over the variable
  universe;
* ``dataflow`` — the same query stream answered by a conventional
  data-flow fixpoint computed once after φ isolation;
* ``graph`` — the conventional *structure*: build the full interference
  graph from per-point live sets up front, then answer pairs by lookup.

Destruction only ever asks about φ-related resources, so paying for an
interference graph over every variable at every point is exactly the
waste the paper's on-demand checker avoids; ``fast`` beating ``graph`` by
a wide margin on the large profile is this repo's analogue of the
paper's headline.  All backends make identical coalescing decisions
(asserted by the differential fuzz suite), so the comparison is purely
about the cost of answering.

Run directly with ``python -m repro.bench.table_destruct [scale]``;
``--smoke`` selects one tiny profile for CI, ``--json PATH`` overrides
where the machine-readable report (default ``BENCH_destruct.json``) is
written.
"""

from __future__ import annotations

import copy
import random
import sys
import time
from dataclasses import dataclass, field

from repro.api.registry import DATAFLOW, FAST, GRAPH
from repro.bench.reporting import format_table, parse_bench_argv, write_json_report
from repro.ir.function import Function
from repro.ssadestruct.pipeline import destruct
from repro.synth.spec_profiles import generate_function_with_blocks

#: Backend names in reporting order; ``graph`` is the speed-up baseline.
BACKEND_ORDER = (FAST, DATAFLOW, GRAPH)


@dataclass(frozen=True)
class DestructProfile:
    """One synthetic workload tier."""

    name: str
    #: Number of functions generated (before the harness scale factor).
    functions: int
    #: Target block count per function (spec-profile shaped generator).
    target_blocks: int


DESTRUCT_PROFILES: tuple[DestructProfile, ...] = (
    DestructProfile("small", functions=8, target_blocks=10),
    DestructProfile("medium", functions=5, target_blocks=40),
    DestructProfile("large", functions=3, target_blocks=160),
)

#: The tiny profile CI smoke-runs to catch bench-driver regressions fast.
SMOKE_PROFILES: tuple[DestructProfile, ...] = (
    DestructProfile("smoke", functions=2, target_blocks=8),
)

#: Default output path of the machine-readable report.
DEFAULT_JSON_PATH = "BENCH_destruct.json"


@dataclass
class TableDestructRow:
    """Measured destruction cost of one profile, per backend."""

    profile: str
    functions: int
    blocks: int
    phis: int
    pairs: int
    coalesced: int
    queries: int
    #: Total destruction wall-clock per backend, milliseconds.
    millis: dict[str, float] = field(default_factory=dict)

    def speedup(self, backend: str, baseline: str = GRAPH) -> float:
        """How many times faster ``backend`` is than ``baseline``."""
        if not self.millis.get(backend):
            return 0.0
        return self.millis[baseline] / self.millis[backend]

    def as_dict(self) -> dict:
        """JSON-ready view, including the derived speed-ups."""
        return {
            "profile": self.profile,
            "functions": self.functions,
            "blocks": self.blocks,
            "phis": self.phis,
            "pairs": self.pairs,
            "coalesced": self.coalesced,
            "queries": self.queries,
            "millis": dict(self.millis),
            "speedup_vs_graph": {
                backend: self.speedup(backend)
                for backend in self.millis
                if backend != GRAPH
            },
        }


def generate_profile_functions(
    profile: DestructProfile, scale: int = 1, seed: int = 0
) -> list[Function]:
    """The workload of one profile: spec-shaped structured SSA functions."""
    # str.hash is randomised per process; derive a stable per-profile offset.
    rng = random.Random(seed * 6449 + sum(map(ord, profile.name)))
    return [
        generate_function_with_blocks(
            rng, target_blocks=profile.target_blocks, name=f"{profile.name}_{index}"
        )
        for index in range(profile.functions * scale)
    ]


def measure_profile(
    profile: DestructProfile,
    functions: list[Function],
    backends: tuple[str, ...] = BACKEND_ORDER,
) -> TableDestructRow:
    """Destruct every function once per backend, timing the whole pass.

    Each backend gets its own deep copy of each function (destruction
    mutates: edge splitting, copy insertion, renaming), so the backends
    see identical inputs and, by determinism, make identical decisions.
    """
    row = TableDestructRow(
        profile=profile.name,
        functions=len(functions),
        blocks=sum(len(function.blocks) for function in functions),
        phis=0,
        pairs=0,
        coalesced=0,
        queries=0,
    )
    for backend in backends:
        total = 0.0
        phis = pairs = coalesced = queries = 0
        for function in functions:
            scratch = copy.deepcopy(function)
            start = time.perf_counter()
            report = destruct(scratch, backend=backend)
            total += time.perf_counter() - start
            phis += report.phis_isolated
            pairs += report.pairs_inserted
            coalesced += report.pairs_coalesced
            queries += report.liveness_queries
        row.millis[backend] = total * 1000.0
        # The structural figures coincide across backends (identical
        # decisions); keep the last measured set and the largest query
        # count (the graph backend reports none).
        row.phis, row.pairs, row.coalesced = phis, pairs, coalesced
        row.queries = max(row.queries, queries)
    return row


def compute_table_destruct(
    scale: int = 1,
    seed: int = 0,
    profiles: tuple[DestructProfile, ...] = DESTRUCT_PROFILES,
    backends: tuple[str, ...] = BACKEND_ORDER,
) -> list[TableDestructRow]:
    """Measure every profile with every backend."""
    rows = []
    for profile in profiles:
        functions = generate_profile_functions(profile, scale=scale, seed=seed)
        rows.append(measure_profile(profile, functions, backends))
    return rows


def format_table_destruct(rows: list[TableDestructRow]) -> str:
    """Render the per-backend wall-clock comparison."""
    backends = [
        backend
        for backend in BACKEND_ORDER
        if backend in (rows[0].millis if rows else {})
    ]
    headers = ["Profile", "#Fn", "#Blocks", "#Phis", "#Pairs", "Coal", "Queries"]
    for backend in backends:
        headers.append(f"{backend} ms")
    for backend in backends:
        if backend != GRAPH:
            headers.append(f"{backend}/graph")
    table_rows = []
    for row in rows:
        cells: list[object] = [
            row.profile,
            row.functions,
            row.blocks,
            row.phis,
            row.pairs,
            row.coalesced,
            row.queries,
        ]
        cells.extend(row.millis[backend] for backend in backends)
        cells.extend(
            row.speedup(backend) for backend in backends if backend != GRAPH
        )
        table_rows.append(cells)
    return format_table(
        headers,
        table_rows,
        title=(
            "Table D — out-of-SSA translation per interference backend "
            "(x/graph: speed-up over eager interference-graph construction)"
        ),
    )


def write_report(rows: list[TableDestructRow], path: str = DEFAULT_JSON_PATH) -> str:
    """Emit the machine-readable ``BENCH_destruct.json`` report."""
    return write_json_report(
        path,
        "table_destruct",
        {
            "baseline": GRAPH,
            "rows": [row.as_dict() for row in rows],
        },
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    scale, smoke, json_path = parse_bench_argv(
        argv if argv is not None else sys.argv[1:], DEFAULT_JSON_PATH
    )
    profiles = SMOKE_PROFILES if smoke else DESTRUCT_PROFILES
    rows = compute_table_destruct(scale=scale, profiles=profiles)
    print(format_table_destruct(rows))
    large = next((row for row in rows if row.profile == "large"), None)
    if large is not None:
        print(
            f"\nlarge profile: query-driven coalescing is "
            f"{large.speedup(FAST):.2f}x the eager interference-graph baseline"
        )
    written = write_report(rows, json_path)
    print(f"json report: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
