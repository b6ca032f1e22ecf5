"""Table I — incremental precomputation patching vs full rebuild.

PR 10's tentpole claim: when a CFG edit arrives *described* (a
:class:`~repro.core.incremental.CfgDelta`), the checker patches only the
dominance-preorder numbers and the ``R``/``T`` rows the edit can reach,
instead of recomputing the whole :class:`~repro.core.LivenessPrecomputation`.
This table measures that claim directly at the kernel level:

* ``incremental`` — :func:`~repro.core.incremental.apply_cfg_delta` on a
  warm precomputation, one single-edge delta at a time;
* ``rebuild`` — ``LivenessPrecomputation(graph)`` from scratch over the
  *same* post-edit graph (what every caller paid before this PR, and
  what fallback still pays).

The measured edits are back-edge insertions ``s -> t`` with ``t``
strictly dominating ``s`` — the shape the patcher is guaranteed to apply
(a dominator is a DFS-tree ancestor, and such an edge provably preserves
the dominator tree), so the two timings compare identical work.  Bit
identity of the patched state against a from-scratch rebuild is asserted
once per function, outside the timed region.

The edge-split column times the other patchable shape, splitting a random
edge ``s -> t`` into ``s -> n -> t`` (:meth:`CfgDelta.edge_split`), the
CFG edit SSA destruction and JIT passes make most.  Splits are chained on
one warm precomputation per function, and after each one the patched
state is checked against the very rebuild that was timed, outside the
timed region.

Honesty about the cases the patcher refuses: a separate probe drives
each profile's precomputation with *random* single-edge deltas (adds and
removals, no shape guarantee) through
:func:`~repro.core.incremental.update_precomputation` and reports the
observed fallback rate — the fraction of edits where the caller still
pays a full rebuild.

Run directly with ``python -m repro.bench.table_incremental [scale]``;
``--smoke`` selects one tiny profile for CI, ``--json PATH`` overrides
where the machine-readable report (default ``BENCH_incremental.json``)
is written.  The report carries ``floor``: the guarded margin the large
profile's speed-up must clear (validated by ``benchmarks/``).
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from dataclasses import dataclass

from repro.bench.reporting import format_table, parse_bench_argv, write_json_report
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph
from repro.core.incremental import CfgDelta, apply_cfg_delta, update_precomputation
from repro.core.precompute import LivenessPrecomputation
from repro.ir.function import Function
from repro.synth.spec_profiles import generate_function_with_blocks

#: The guarded margin: on the ``large`` profile, the median single-edge
#: patch must be at least this many times faster than the median rebuild.
#: Measured headroom is well above this (~7.5x); the floor only catches
#: the optimisation being silently lost, not jitter.
SPEEDUP_FLOOR = 3.0


@dataclass(frozen=True)
class IncrementalProfile:
    """One synthetic workload tier."""

    name: str
    #: Number of functions generated (before the harness scale factor).
    functions: int
    #: Target block count per function (spec-profile shaped generator).
    target_blocks: int
    #: Guaranteed-applied single-edge edits measured per function (capped
    #: by how many dominated pairs the function actually offers).
    edits: int
    #: Random unconstrained deltas driven through the fallback probe.
    probe_trials: int


INCREMENTAL_PROFILES: tuple[IncrementalProfile, ...] = (
    IncrementalProfile("small", functions=6, target_blocks=12, edits=6, probe_trials=40),
    IncrementalProfile("medium", functions=4, target_blocks=40, edits=10, probe_trials=40),
    IncrementalProfile("large", functions=3, target_blocks=120, edits=12, probe_trials=40),
)

#: The tiny profile CI smoke-runs to catch bench-driver regressions fast.
SMOKE_PROFILES: tuple[IncrementalProfile, ...] = (
    IncrementalProfile("smoke", functions=2, target_blocks=10, edits=4, probe_trials=12),
)

#: Default output path of the machine-readable report.
DEFAULT_JSON_PATH = "BENCH_incremental.json"


@dataclass
class TableIncrementalRow:
    """Measured patch-vs-rebuild cost of one profile."""

    profile: str
    functions: int
    blocks: int
    edges: int
    #: Guaranteed-shape edits measured (timed pairs).
    edits: int
    #: How many of the timed edits the patcher actually applied.
    applied: int
    #: Median cost of one incremental patch, milliseconds.
    incremental_ms: float = 0.0
    #: Median cost of one from-scratch rebuild of the same graph, ms.
    rebuild_ms: float = 0.0
    #: Edge splits timed (chained on one warm precomputation per function).
    splits: int = 0
    #: How many of the timed splits the patcher actually applied.
    splits_applied: int = 0
    #: Median cost of one split patch, milliseconds.
    split_ms: float = 0.0
    #: Median cost of one rebuild of the same post-split graph, ms.
    split_rebuild_ms: float = 0.0
    #: Fallback probe: random unconstrained deltas.
    probe_trials: int = 0
    probe_applied: int = 0
    probe_fallbacks: int = 0

    @property
    def speedup(self) -> float:
        """How many times faster one patch is than one rebuild."""
        if not self.incremental_ms:
            return 0.0
        return self.rebuild_ms / self.incremental_ms

    @property
    def split_speedup(self) -> float:
        """How many times faster one split patch is than one rebuild."""
        if not self.split_ms:
            return 0.0
        return self.split_rebuild_ms / self.split_ms

    @property
    def fallback_rate(self) -> float:
        """Observed fallback fraction under unconstrained random edits."""
        if not self.probe_trials:
            return 0.0
        return self.probe_fallbacks / self.probe_trials

    def as_dict(self) -> dict:
        """JSON-ready view, including the derived figures."""
        return {
            "profile": self.profile,
            "functions": self.functions,
            "blocks": self.blocks,
            "edges": self.edges,
            "edits": self.edits,
            "applied": self.applied,
            "incremental_ms": self.incremental_ms,
            "rebuild_ms": self.rebuild_ms,
            "speedup_vs_rebuild": self.speedup,
            "split": {
                "edits": self.splits,
                "applied": self.splits_applied,
                "patch_ms": self.split_ms,
                "rebuild_ms": self.split_rebuild_ms,
                "speedup_vs_rebuild": self.split_speedup,
            },
            "fallback_probe": {
                "trials": self.probe_trials,
                "applied": self.probe_applied,
                "fallbacks": self.probe_fallbacks,
                "fallback_rate": self.fallback_rate,
            },
        }


def generate_profile_functions(
    profile: IncrementalProfile, scale: int = 1, seed: int = 0
) -> list[Function]:
    """The workload of one profile: spec-shaped structured SSA functions."""
    # str.hash is randomised per process; derive a stable per-profile offset.
    rng = random.Random(seed * 104729 + sum(map(ord, profile.name)))
    return [
        generate_function_with_blocks(
            rng, target_blocks=profile.target_blocks, name=f"{profile.name}_{index}"
        )
        for index in range(profile.functions * scale)
    ]


def dominated_pairs(graph: ControlFlowGraph) -> list[tuple]:
    """Every ``(s, t)`` with ``t`` strictly dominating ``s`` and no edge yet.

    Adding ``s -> t`` for such a pair is always a DFS back edge of the
    warm precomputation and provably preserves the dominator tree, so
    :func:`apply_cfg_delta` applies it without a fallback.
    """
    dom = DominatorTree(graph)
    return [
        (source, target)
        for source in graph.nodes()
        for target in graph.nodes()
        if target != graph.entry
        and target != source
        and dom.dominates(target, source)
        and not graph.has_edge(source, target)
    ]


def assert_bit_identical(
    pre: LivenessPrecomputation, fresh: LivenessPrecomputation | None = None
) -> None:
    """The patched state must equal a from-scratch rebuild, bit for bit."""
    if fresh is None:
        fresh = LivenessPrecomputation(pre.graph.copy())
    assert pre.r_masks == fresh.r_masks and pre.t_masks == fresh.t_masks
    assert pre.reach.masks == fresh.reach.masks
    assert pre.targets.masks == fresh.targets.masks
    assert pre.maxnums == fresh.maxnums
    assert pre.is_back_target == fresh.is_back_target
    assert pre.storage_bits() == fresh.storage_bits()
    for node in pre.graph.nodes():  # node names are shared between the copies
        assert pre.num(node) == fresh.num(node), node
        assert pre.maxnum(node) == fresh.maxnum(node), node


def measure_function(
    function: Function,
    edits: int,
    rng: random.Random,
    incremental_samples: list[float],
    rebuild_samples: list[float],
) -> tuple[int, int]:
    """Time up to ``edits`` guaranteed-shape patches on one warm checker.

    Returns ``(timed, applied)``.  Each edit is timed twice over the
    same post-edit graph: once as a patch of the warm precomputation,
    once as a from-scratch rebuild (on a copy taken outside the timer).
    """
    graph = function.build_cfg()
    pre = LivenessPrecomputation(graph)
    candidates = dominated_pairs(graph)
    rng.shuffle(candidates)
    timed = applied = 0
    for source, target in candidates:
        if timed >= edits:
            break
        if pre.graph.has_edge(source, target):
            continue
        delta = CfgDelta.edge_added(source, target)
        start = time.perf_counter()
        result = apply_cfg_delta(pre, delta)
        incremental_samples.append((time.perf_counter() - start) * 1000.0)
        scratch = pre.graph.copy()
        start = time.perf_counter()
        LivenessPrecomputation(scratch)
        rebuild_samples.append((time.perf_counter() - start) * 1000.0)
        timed += 1
        if result.applied:
            applied += 1
        else:  # pragma: no cover - the shape guarantee failed; stay honest
            pre = LivenessPrecomputation(pre.graph)
    if applied:
        assert_bit_identical(pre)
    return timed, applied


def measure_splits(
    function: Function,
    edits: int,
    rng: random.Random,
    split_samples: list[float],
    rebuild_samples: list[float],
) -> tuple[int, int]:
    """Time ``edits`` chained edge splits on one warm precomputation.

    Returns ``(timed, applied)``.  Each split is timed as a patch, then
    the post-split graph (copied outside the timer) is timed as a rebuild,
    and the patched state is compared with that rebuild, untimed.
    """
    pre = LivenessPrecomputation(function.build_cfg())
    timed = applied = 0
    for index in range(edits):
        edges = pre.graph.edges()
        if not edges:
            break
        source, target = rng.choice(edges)
        delta = CfgDelta.edge_split(source, target, f"split.{index}")
        start = time.perf_counter()
        result = apply_cfg_delta(pre, delta)
        split_samples.append((time.perf_counter() - start) * 1000.0)
        scratch = pre.graph.copy()
        start = time.perf_counter()
        fresh = LivenessPrecomputation(scratch)
        rebuild_samples.append((time.perf_counter() - start) * 1000.0)
        timed += 1
        if result.applied:
            applied += 1
            assert_bit_identical(pre, fresh)
        else:  # pragma: no cover - a split fell back; stay honest
            pre = fresh
    return timed, applied


def probe_fallback_rate(
    function: Function, trials: int, rng: random.Random
) -> tuple[int, int, int]:
    """Drive random unconstrained deltas; count applied vs fallback.

    Uses :func:`update_precomputation` exactly as a caller would: on a
    fallback the returned fresh rebuild replaces the working state.
    Removal candidates that would disconnect the graph are skipped (they
    model deleting a block, which the delta vocabulary spells
    differently).  One delta in five splits a random edge.
    """
    pre = LivenessPrecomputation(function.build_cfg())
    attempted = applied = fallbacks = 0
    guard = 0
    while attempted < trials and guard < trials * 20:
        guard += 1
        graph = pre.graph
        nodes = graph.nodes()
        roll = rng.random()
        if roll < 0.2:
            edges = graph.edges()
            if not edges:
                continue
            source, target = rng.choice(edges)
            delta = CfgDelta.edge_split(source, target, f"probe.{guard}")
        elif roll < 0.6:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if target == graph.entry or graph.has_edge(source, target):
                continue
            delta = CfgDelta.edge_added(source, target)
        else:
            edges = graph.edges()
            if not edges:
                continue
            source, target = rng.choice(edges)
            probe = graph.copy()
            probe.remove_edge(source, target)
            if probe.unreachable_nodes():
                continue
            delta = CfgDelta.edge_removed(source, target)
        pre, result = update_precomputation(pre, delta)
        attempted += 1
        if result.applied:
            applied += 1
        else:
            fallbacks += 1
    return attempted, applied, fallbacks


def measure_profile(
    profile: IncrementalProfile,
    functions: list[Function],
    seed: int = 0,
) -> TableIncrementalRow:
    """Measure every function of one profile."""
    rng = random.Random(seed * 7907 + sum(map(ord, profile.name)))
    row = TableIncrementalRow(
        profile=profile.name,
        functions=len(functions),
        blocks=sum(len(function.blocks) for function in functions),
        edges=sum(function.build_cfg().num_edges() for function in functions),
        edits=0,
        applied=0,
    )
    incremental_samples: list[float] = []
    rebuild_samples: list[float] = []
    split_samples: list[float] = []
    split_rebuild_samples: list[float] = []
    for function in functions:
        timed, applied = measure_function(
            function, profile.edits, rng, incremental_samples, rebuild_samples
        )
        row.edits += timed
        row.applied += applied
        timed, applied = measure_splits(
            function, profile.edits, rng, split_samples, split_rebuild_samples
        )
        row.splits += timed
        row.splits_applied += applied
        attempted, probe_applied, probe_fallbacks = probe_fallback_rate(
            function, profile.probe_trials // max(len(functions), 1) + 1, rng
        )
        row.probe_trials += attempted
        row.probe_applied += probe_applied
        row.probe_fallbacks += probe_fallbacks
    if incremental_samples:
        row.incremental_ms = statistics.median(incremental_samples)
        row.rebuild_ms = statistics.median(rebuild_samples)
    if split_samples:
        row.split_ms = statistics.median(split_samples)
        row.split_rebuild_ms = statistics.median(split_rebuild_samples)
    return row


def compute_table_incremental(
    scale: int = 1,
    seed: int = 0,
    profiles: tuple[IncrementalProfile, ...] = INCREMENTAL_PROFILES,
) -> list[TableIncrementalRow]:
    """Measure every profile."""
    rows = []
    for profile in profiles:
        functions = generate_profile_functions(profile, scale=scale, seed=seed)
        rows.append(measure_profile(profile, functions, seed=seed))
    return rows


def format_table_incremental(rows: list[TableIncrementalRow]) -> str:
    """Render the patch-vs-rebuild comparison."""
    headers = [
        "Profile",
        "#Fn",
        "#Blocks",
        "#Edges",
        "Edits",
        "Applied",
        "patch ms",
        "rebuild ms",
        "rebuild/patch",
        "Splits",
        "split ms",
        "rebuild/split",
        "fallback%",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.profile,
                row.functions,
                row.blocks,
                row.edges,
                row.edits,
                row.applied,
                f"{row.incremental_ms:.4f}",
                f"{row.rebuild_ms:.4f}",
                row.speedup,
                row.splits_applied,
                f"{row.split_ms:.4f}",
                row.split_speedup,
                row.fallback_rate * 100.0,
            ]
        )
    return format_table(
        headers,
        table_rows,
        title=(
            "Table I — single-edge and edge-split CfgDelta patches vs full "
            "precomputation rebuild (medians; fallback%: unconstrained "
            "random edits the patcher refused)"
        ),
    )


def write_report(
    rows: list[TableIncrementalRow], path: str = DEFAULT_JSON_PATH
) -> str:
    """Emit the machine-readable ``BENCH_incremental.json`` report."""
    return write_json_report(
        path,
        "table_incremental",
        {
            "baseline": "rebuild",
            "floor": SPEEDUP_FLOOR,
            "rows": [row.as_dict() for row in rows],
        },
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    scale, smoke, json_path = parse_bench_argv(
        argv if argv is not None else sys.argv[1:], DEFAULT_JSON_PATH
    )
    profiles = SMOKE_PROFILES if smoke else INCREMENTAL_PROFILES
    rows = compute_table_incremental(scale=scale, profiles=profiles)
    print(format_table_incremental(rows))
    large = next((row for row in rows if row.profile == "large"), None)
    if large is not None:
        print(
            f"\nlarge profile: one incremental patch is {large.speedup:.1f}x "
            f"cheaper than one rebuild (floor {SPEEDUP_FLOOR:.1f}x, "
            f"fallback rate {large.fallback_rate:.0%} on random edits); "
            f"one edge split is {large.split_speedup:.1f}x cheaper"
        )
    written = write_report(rows, json_path)
    print(f"json report: {written}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
