"""Ablation — ordering of T_q and the reducible fast path (Section 4.1).

The paper orders the candidates of ``T_(q,a)`` by dominance, skips whole
dominance subtrees after a failed candidate, and on reducible CFGs stops
after the first candidate (Theorem 2).  This ablation quantifies how much
work the query loop does with and without those tricks, and how many
more candidates the Section 5.2 propagated ``T`` sets cost.  The library
builds only the exact Equation-1 sets; the propagated row reads its
masks from the test-side reference construction.
"""

import copy

from repro.bench.reporting import format_table
from repro.core.precompute import LivenessPrecomputation
from tests.support.bitset_checker import BitsetChecker
from tests.support.reference_precompute import reference_arrays


def _replay_counting(checker, pre, proc):
    """Replay a procedure's recorded queries, counting candidate tests."""
    bitset = checker
    candidates = 0
    queries = 0
    for kind, var, block in proc.queries:
        def_block = proc.defuse.def_block(var)
        use_nums = [pre.num(use) for use in proc.defuse.use_blocks(var)]
        if kind == "in":
            bitset.is_live_in(pre.num(def_block), use_nums, pre.num(block))
        else:
            bitset.is_live_out(pre.num(def_block), use_nums, pre.num(block))
        candidates += bitset.last_candidates_tested
        queries += 1
    return candidates, queries


def measure_candidate_counts(workloads):
    totals = {"fast": 0, "general": 0, "propagate": 0, "queries": 0}
    for workload in workloads.values():
        for proc in workload.procedures:
            graph = proc.function.build_cfg()
            exact_pre = LivenessPrecomputation(graph)
            propagate_pre = copy.copy(exact_pre)
            propagate_pre.t_masks = reference_arrays(graph, propagated=True).t_masks

            fast = BitsetChecker(exact_pre, reducible_fast_path=True)
            general = BitsetChecker(exact_pre, reducible_fast_path=False)
            propagated = BitsetChecker(propagate_pre, reducible_fast_path=False)

            candidates, queries = _replay_counting(fast, exact_pre, proc)
            totals["fast"] += candidates
            candidates, _ = _replay_counting(general, exact_pre, proc)
            totals["general"] += candidates
            candidates, _ = _replay_counting(propagated, propagate_pre, proc)
            totals["propagate"] += candidates
            totals["queries"] += queries
    return totals


def test_tq_ordering_and_fast_path(benchmark, workloads, record_table):
    totals = benchmark.pedantic(
        measure_candidate_counts, args=(workloads,), iterations=1, rounds=1
    )
    queries = max(totals["queries"], 1)
    table = format_table(
        ["Configuration", "Candidates tested / query"],
        [
            ["exact T, reducible fast path (paper §5.1)", totals["fast"] / queries],
            ["exact T, general loop", totals["general"] / queries],
            ["propagated T (Section 5.2 shortcut), general loop", totals["propagate"] / queries],
        ],
        title="Ablation — T_q ordering / fast path (candidates per query)",
    )
    record_table("ablation_tq_ordering", table)

    # Theorem 2: with the fast path a query never tests more than one
    # candidate on these (reducible) workloads.
    assert totals["fast"] <= totals["queries"]
    # Dropping the fast path can only increase work, and the propagated
    # sets can only add candidates.
    assert totals["general"] >= totals["fast"]
    assert totals["propagate"] >= totals["general"]
