"""Ablation — loop-nesting-forest variant of the checker (Section 8 outlook).

The paper suggests the technique "could take advantage of a precomputed
loop nesting forest".  This benchmark compares the T_q-based bitset query
(Algorithm 3) with the loop-forest query on the same recorded streams,
restricted to reducible procedures (the forest variant's domain).  A third
row replays the streams through the node-set Algorithms 1/2
(:class:`~tests.support.set_checker.SetBasedChecker`), which measures what the §5.1
bitset engineering buys per query.  Both variants must agree with
Algorithm 3 on every query; the untimed assertions run on every Python in
CI.
"""

import time

from repro.bench.reporting import format_table
from repro.core.precompute import LivenessPrecomputation
from tests.support.bitset_checker import BitsetChecker
from tests.support.loopforest import LoopForestChecker
from tests.support.set_checker import SetBasedChecker


def _reducible_procedures(workloads):
    for workload in workloads.values():
        for proc in workload.procedures:
            pre = LivenessPrecomputation(proc.function.build_cfg())
            if pre.reducible and proc.queries:
                yield proc, pre


def measure_variants(workloads, limit=20):
    bitset_ns = 0.0
    forest_ns = 0.0
    sets_ns = 0.0
    queries = 0
    mismatches = 0
    set_mismatches = 0
    for index, (proc, pre) in enumerate(_reducible_procedures(workloads)):
        if index >= limit:
            break
        bitset = BitsetChecker(pre)
        forest = LoopForestChecker(pre)
        sets = SetBasedChecker(pre)
        for kind, var, block in proc.queries:
            def_block = proc.defuse.def_block(var)
            uses = proc.defuse.use_blocks(var)
            use_nums = [pre.num(use) for use in uses]
            queries += 1

            start = time.perf_counter_ns()
            if kind == "in":
                from_bitset = bitset.is_live_in(pre.num(def_block), use_nums, pre.num(block))
            else:
                from_bitset = bitset.is_live_out(pre.num(def_block), use_nums, pre.num(block))
            bitset_ns += time.perf_counter_ns() - start

            start = time.perf_counter_ns()
            if kind == "in":
                from_forest = forest.is_live_in(def_block, uses, block)
            else:
                from_forest = forest.is_live_out(def_block, uses, block)
            forest_ns += time.perf_counter_ns() - start

            start = time.perf_counter_ns()
            if kind == "in":
                from_sets = sets.is_live_in(def_block, uses, block)
            else:
                from_sets = sets.is_live_out(def_block, uses, block)
            sets_ns += time.perf_counter_ns() - start

            if from_bitset != from_forest:
                mismatches += 1
            if from_bitset != from_sets:
                set_mismatches += 1
    return {
        "queries": queries,
        "bitset_ns": bitset_ns / max(queries, 1),
        "forest_ns": forest_ns / max(queries, 1),
        "sets_ns": sets_ns / max(queries, 1),
        "mismatches": mismatches,
        "set_mismatches": set_mismatches,
    }


def test_loop_forest_variant(benchmark, workloads, record_table):
    stats = benchmark.pedantic(measure_variants, args=(workloads,), iterations=1, rounds=1)

    table = format_table(
        ["Variant", "ns / query"],
        [
            ["T_q bitset query (Algorithm 3)", f"{stats['bitset_ns']:.0f}"],
            ["loop-nesting-forest query (Section 8)", f"{stats['forest_ns']:.0f}"],
            ["node-set query (Algorithms 1/2)", f"{stats['sets_ns']:.0f}"],
        ],
        title=(
            "Ablation — loop-forest and set variants "
            f"({stats['queries']} queries, {stats['mismatches']} forest and "
            f"{stats['set_mismatches']} set disagreements)"
        ),
    )
    record_table("ablation_loopforest", table)

    assert stats["queries"] > 0
    # The three formulations are interchangeable on reducible CFGs.
    assert stats["mismatches"] == 0
    assert stats["set_mismatches"] == 0
    # The bitset engineering pays off per query.
    assert stats["bitset_ns"] < stats["sets_ns"]
