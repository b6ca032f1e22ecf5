"""The inline-scan query kernel agrees with the ``next_set_bit`` loop.

:meth:`BitsetChecker.is_live_in_mask` / :meth:`is_live_out_mask` scan
``T_q >> (num(def) + 1)`` inline: lowest set bit first, then a jump past
``maxnum(t)``.  The reference below is the loop they replaced, one
:func:`~tests.support.bitset.next_set_bit_in_mask` call per candidate.
Answers *and* ``last_candidates_tested`` must agree on every
(variable, block) pair of the fuzz corpus, over the exact ``T`` masks and
the reference §5.2 propagated ones, with the reducible fast path on and
off; and the answers must match
data-flow liveness, with true answers actually present in the corpus.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import FastLivenessChecker, LivenessPrecomputation
from repro.liveness.dataflow import DataflowLiveness
from tests.support.bitset import next_set_bit_in_mask
from tests.support.bitset_checker import BitsetChecker
from tests.support.genfn import fuzz_function
from tests.support.reference_precompute import reference_arrays

CORPUS = 120


def reference_live_in(pre, fast_path, def_num, use_mask, query_num):
    maxnums, t_mask = pre.maxnums, pre.t_masks[query_num]
    max_dom = maxnums[def_num]
    if query_num <= def_num or max_dom < query_num:
        return False, 0
    tested = 0
    t = next_set_bit_in_mask(t_mask, def_num + 1)
    while 0 <= t <= max_dom:
        tested += 1
        if pre.r_masks[t] & use_mask:
            return True, tested
        if fast_path:
            return False, tested
        t = next_set_bit_in_mask(t_mask, maxnums[t] + 1)
    return False, tested


def reference_live_out(pre, def_num, use_mask, query_num):
    if query_num == def_num:
        return bool(use_mask & ~(1 << def_num)), 0
    maxnums, t_mask = pre.maxnums, pre.t_masks[query_num]
    max_dom = maxnums[def_num]
    if query_num <= def_num or max_dom < query_num:
        return False, 0
    if pre.is_back_target[query_num]:
        masked_uses = use_mask
    else:
        masked_uses = use_mask & ~(1 << query_num)
    tested = 0
    t = next_set_bit_in_mask(t_mask, def_num + 1)
    while 0 <= t <= max_dom:
        tested += 1
        if pre.r_masks[t] & (masked_uses if t == query_num else use_mask):
            return True, tested
        t = next_set_bit_in_mask(t_mask, maxnums[t] + 1)
    return False, tested


@pytest.mark.parametrize("targets", ["exact", "propagate"])
@pytest.mark.parametrize("fast_path", [True, False])
def test_kernel_matches_reference_answers_and_candidate_counts(targets, fast_path):
    # Kernel and loop read the same masks under the same flag; this pins
    # the scan mechanics, not soundness, so the fast path runs over the
    # propagated masks too (their answers are checked in
    # test_precompute_masks).
    multi_candidate = 0
    for index in range(CORPUS):
        function = fuzz_function(index)
        pre = LivenessPrecomputation(function.build_cfg())
        if targets == "propagate":
            pre = copy.copy(pre)
            pre.t_masks = reference_arrays(pre.graph, propagated=True).t_masks
        kernel = BitsetChecker(pre, reducible_fast_path=fast_path)
        checker = FastLivenessChecker(function)
        blocks = [pre.num(node) for node in pre.graph]
        for var in checker.live_variables():
            plan = checker.plans.plan(var)
            for query in blocks:
                got = kernel.is_live_in_mask(plan.def_num, plan.use_mask, query)
                want = reference_live_in(
                    pre, kernel.uses_fast_path, plan.def_num, plan.use_mask, query
                )
                assert (got, kernel.last_candidates_tested) == want
                got = kernel.is_live_out_mask(plan.def_num, plan.use_mask, query)
                want = reference_live_out(pre, plan.def_num, plan.use_mask, query)
                assert (got, kernel.last_candidates_tested) == want
                multi_candidate += kernel.last_candidates_tested > 1
    # The corpus must reach the subtree jump, or the counts prove nothing.
    assert multi_candidate > 0


@pytest.mark.parametrize("chunk", range(4))
def test_kernel_matches_dataflow_with_true_answers_present(chunk):
    true_in = true_out = 0
    for index in range(chunk, CORPUS, 4):
        function = fuzz_function(index)
        checker = FastLivenessChecker(function)
        dataflow = DataflowLiveness(function)
        for var in checker.live_variables():
            for block in function.blocks:
                live_in = checker.is_live_in(var, block)
                live_out = checker.is_live_out(var, block)
                assert live_in == dataflow.is_live_in(var, block), (index, var, block)
                assert live_out == dataflow.is_live_out(var, block), (index, var, block)
                true_in += live_in
                true_out += live_out
    assert true_in > 0 and true_out > 0
