"""Table R — end-to-end register-allocation time per liveness backend.

The paper's tables measure the liveness *engines* under a recorded query
stream; this table measures a whole client: the allocator of
:mod:`repro.regalloc` run to completion — pressure, iterative spilling,
chordal coloring — with only the liveness backend swapped out:

* ``fast`` — :class:`~repro.core.FastLivenessChecker` with the batch
  engine; spill edits only rebuild def–use chains;
* ``dataflow`` — the conventional baseline, which must recompute its
  whole fixpoint after every spill rewrite (a fresh
  :class:`~repro.liveness.DataflowLiveness` per round).

On the smallest profile the precomputed sets win — few edits, cheap
fixpoint — which is the same break-even the paper reports for tiny
procedures.  As functions grow and the spiller iterates, the checker's
``R``/``T`` reuse takes over and the ``fast`` backend pulls ahead; the
``large`` profile is the headline number.

Run directly with ``python -m repro.bench.table_regalloc [scale]``
(``scale`` multiplies the per-profile function counts); ``--smoke``
selects one tiny profile for CI, ``--json PATH`` overrides where the
machine-readable report (default ``BENCH_regalloc.json``) is written.
"""

from __future__ import annotations

import copy
import random
import sys
import time
from dataclasses import dataclass, field

from repro.api.registry import DATAFLOW, FAST
from repro.bench.reporting import format_table, parse_bench_argv, write_json_report
from repro.ir.function import Function
from repro.regalloc.allocator import allocate
from repro.synth.spec_profiles import generate_function_with_blocks

#: Backend names in reporting order; ``dataflow`` is the speed-up baseline.
BACKEND_ORDER = (FAST, DATAFLOW)


@dataclass(frozen=True)
class RegallocProfile:
    """One synthetic workload tier."""

    name: str
    #: Number of functions generated (before the harness scale factor).
    functions: int
    #: Target block count per function (spec-profile shaped generator).
    target_blocks: int
    #: Register budget handed to the allocator (chosen to force spilling).
    num_registers: int


REGALLOC_PROFILES: tuple[RegallocProfile, ...] = (
    RegallocProfile("small", functions=6, target_blocks=10, num_registers=4),
    RegallocProfile("medium", functions=4, target_blocks=30, num_registers=6),
    RegallocProfile("large", functions=3, target_blocks=70, num_registers=8),
)

#: The tiny profile CI smoke-runs to catch bench-driver regressions fast.
SMOKE_PROFILES: tuple[RegallocProfile, ...] = (
    RegallocProfile("smoke", functions=2, target_blocks=8, num_registers=4),
)

#: Default output path of the machine-readable report.
DEFAULT_JSON_PATH = "BENCH_regalloc.json"


@dataclass
class TableRegallocRow:
    """Measured allocation cost of one profile, per backend."""

    profile: str
    functions: int
    blocks: int
    variables: int
    spills: int
    registers: int
    #: Total allocation wall-clock per backend, milliseconds.
    millis: dict[str, float] = field(default_factory=dict)

    def speedup(self, backend: str, baseline: str = DATAFLOW) -> float:
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
            "variables": self.variables,
            "spills": self.spills,
            "registers": self.registers,
            "millis": dict(self.millis),
            "speedup_vs_dataflow": {
                backend: self.speedup(backend)
                for backend in self.millis
                if backend != DATAFLOW
            },
        }


def generate_profile_functions(
    profile: RegallocProfile, scale: int = 1, seed: int = 0
) -> list[Function]:
    """The workload of one profile: spec-shaped structured SSA functions."""
    # str.hash is randomised per process; derive a stable per-profile offset.
    rng = random.Random(seed * 7919 + sum(map(ord, profile.name)))
    return [
        generate_function_with_blocks(
            rng, target_blocks=profile.target_blocks, name=f"{profile.name}_{index}"
        )
        for index in range(profile.functions * scale)
    ]


def measure_profile(
    profile: RegallocProfile,
    functions: list[Function],
    backends: tuple[str, ...] = BACKEND_ORDER,
) -> TableRegallocRow:
    """Allocate every function once per backend, timing the whole pipeline.

    Each backend gets its own deep copy of each function (allocation
    mutates: edge splitting and spill code), so the backends see
    identical inputs.
    """
    row = TableRegallocRow(
        profile=profile.name,
        functions=len(functions),
        blocks=sum(len(function.blocks) for function in functions),
        variables=sum(len(function.variables()) for function in functions),
        spills=0,
        registers=0,
    )
    for backend in backends:
        total = 0.0
        spills = 0
        registers = 0
        for function in functions:
            scratch = copy.deepcopy(function)
            start = time.perf_counter()
            allocation = allocate(
                scratch, num_registers=profile.num_registers, backend=backend
            )
            total += time.perf_counter() - start
            spills += len(allocation.spilled)
            registers = max(registers, allocation.registers_used)
        row.millis[backend] = total * 1000.0
        # All backends answer the same queries, so the spill/register
        # figures coincide; keep the last measured pair.
        row.spills = spills
        row.registers = registers
    return row


def compute_table_regalloc(
    scale: int = 1,
    seed: int = 0,
    profiles: tuple[RegallocProfile, ...] = REGALLOC_PROFILES,
    backends: tuple[str, ...] = BACKEND_ORDER,
) -> list[TableRegallocRow]:
    """Measure every profile with every backend."""
    rows = []
    for profile in profiles:
        functions = generate_profile_functions(profile, scale=scale, seed=seed)
        rows.append(measure_profile(profile, functions, backends))
    return rows


def format_table_regalloc(rows: list[TableRegallocRow]) -> str:
    """Render the per-backend wall-clock comparison."""
    backends = [
        backend for backend in BACKEND_ORDER if backend in (rows[0].millis if rows else {})
    ]
    headers = ["Profile", "#Fn", "#Blocks", "#Vars", "Spills", "Regs"]
    for backend in backends:
        headers.append(f"{backend} ms")
    for backend in backends:
        if backend != DATAFLOW:
            headers.append(f"{backend}/df")
    table_rows = []
    for row in rows:
        cells: list[object] = [
            row.profile,
            row.functions,
            row.blocks,
            row.variables,
            row.spills,
            row.registers,
        ]
        cells.extend(row.millis[backend] for backend in backends)
        cells.extend(
            row.speedup(backend) for backend in backends if backend != DATAFLOW
        )
        table_rows.append(cells)
    return format_table(
        headers,
        table_rows,
        title=(
            "Table R — allocator wall-clock per liveness backend "
            "(x/df: speed-up over the recompute-full-dataflow baseline)"
        ),
    )


def write_report(rows: list[TableRegallocRow], path: str = DEFAULT_JSON_PATH) -> str:
    """Emit the machine-readable ``BENCH_regalloc.json`` report."""
    return write_json_report(
        path,
        "table_regalloc",
        {
            "baseline": DATAFLOW,
            "rows": [row.as_dict() for row in rows],
        },
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    scale, smoke, json_path = parse_bench_argv(
        argv if argv is not None else sys.argv[1:], DEFAULT_JSON_PATH
    )
    profiles = SMOKE_PROFILES if smoke else REGALLOC_PROFILES
    rows = compute_table_regalloc(scale=scale, profiles=profiles)
    print(format_table_regalloc(rows))
    large = next((row for row in rows if row.profile == "large"), None)
    if large is not None:
        print(
            f"\nlarge profile: fast backend is {large.speedup(FAST):.2f}x the "
            "recompute-full-dataflow baseline"
        )
    written = write_report(rows, json_path)
    print(f"json report: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
