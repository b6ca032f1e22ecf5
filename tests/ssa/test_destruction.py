"""Tests for SSA destruction (the paper's benchmarked client pass).

The key property is end-to-end semantic preservation, established with the
reference interpreter on hand-written programs (including the classic
lost-copy and swap problems) and on hundreds of random terminating
programs.  Structural assertions check that the pass really behaves like a
coalescing out-of-SSA translation: no φs remain, copies only appear where
interference demands them, and the liveness queries flow through whichever
oracle is plugged in.

The pass is :func:`repro.ssadestruct.destruct`.  Its report counts
parallel-copy *pairs*: each φ with *k* predecessors contributes ``k + 1``
pairs after isolation, and a pair that coalescing could not remove costs
one copy (:func:`copies_inserted`).
"""

import pytest

from repro.core import FastLivenessChecker
from repro.frontend import compile_source
from repro.ir import verify_function
from repro.ir.interp import execute
from repro.liveness import CountingOracle, DataflowLiveness
from repro.ssadestruct import destruct, phi_related_variables
from repro.synth import random_program_source
from tests.conftest import GCD_SOURCE, NESTED_SOURCE, SUM_LOOP_SOURCE
from tests.support.ssa_liveness import PathExplorationLiveness

LOST_COPY_SOURCE = """
func lost(n) {
    a = 0;
    i = 0;
    while (i < n) {
        a = i;
        i = i + 1;
    }
    return a;
}
"""

SWAP_SOURCE = """
func swapper(n) {
    x = 1;
    y = 2;
    i = 0;
    while (i < n) {
        t = x;
        x = y;
        y = t;
        i = i + 1;
    }
    return x * 10 + y;
}
"""


def compile_one(source: str):
    return list(compile_source(source))[0]


def copies_inserted(report) -> int:
    """Parallel-copy pairs coalescing could not remove (one copy each)."""
    return report.pairs_inserted - report.pairs_coalesced


def assert_destruction_preserves(source: str, arglists) -> None:
    function = compile_one(source)
    before = [execute(function, list(args)).observable() for args in arglists]
    report = destruct(function)
    verify_function(function)
    assert not function.phis()
    after = [execute(function, list(args)).observable() for args in arglists]
    assert before == after
    assert report.phis_isolated >= 1


class TestKnownHardCases:
    def test_simple_loop(self):
        assert_destruction_preserves(SUM_LOOP_SOURCE, [(0,), (1,), (7,)])

    def test_gcd(self):
        assert_destruction_preserves(GCD_SOURCE, [(48, 18), (17, 5), (0, 9)])

    def test_nested(self):
        assert_destruction_preserves(NESTED_SOURCE, [(0, 0), (2, 3), (4, 1)])

    def test_lost_copy_problem(self):
        """The φ result is live out of the loop: a naive copy placement
        would overwrite the value still needed after the loop."""
        assert_destruction_preserves(LOST_COPY_SOURCE, [(0,), (1,), (5,)])

    def test_swap_problem(self):
        """Two φs exchanging values each iteration require a parallel-copy
        temporary; sequential naive copies would collapse both to one value."""
        assert_destruction_preserves(SWAP_SOURCE, [(0,), (1,), (2,), (9,)])

    def test_phi_level_swap_needs_copies(self):
        """A direct φ-level swap (no source-level temporary) cannot coalesce
        both webs: the pass must fall back to edge copies, and the
        sequentialiser must order them (or introduce a temp) correctly."""
        from repro.ir import parse_function, verify_ssa

        text = """
        function swap(n) {
        entry:
          one = const 1
          two = const 2
          zero = const 0
          jump header
        header:
          x = phi [one : entry] [y : latch]
          y = phi [two : entry] [x : latch]
          i = phi [zero : entry] [inext : latch]
          cond = binop.cmplt i, n
          branch cond, latch, exit
        latch:
          inext = binop.add i, one
          jump header
        exit:
          t = binop.mul x, 10
          r = binop.add t, y
          return r
        }
        """
        function = parse_function(text)
        verify_ssa(function)
        expected = {n: execute(function, [n]).return_value for n in range(5)}
        assert expected[0] == 12 and expected[1] == 21 and expected[2] == 12
        report = destruct(function)
        verify_function(function)
        assert copies_inserted(report) >= 2
        for n, value in expected.items():
            assert execute(function, [n]).return_value == value

    def test_branchy_merge(self):
        source = """
        func pick(a, b, c) {
            if (c > 0) { r = a; } else { r = b; }
            if (c > 10) { r = r + 100; }
            return r;
        }
        """
        assert_destruction_preserves(source, [(1, 2, 5), (1, 2, -5), (1, 2, 50)])


class TestStructure:
    def test_no_phis_remain_and_function_is_valid(self):
        function = compile_one(NESTED_SOURCE)
        destruct(function)
        assert function.phis() == []
        verify_function(function)

    def test_loop_counter_web_is_fully_coalesced(self):
        """The classic induction-variable φ needs no copies at all."""
        function = compile_one(SUM_LOOP_SOURCE)
        report = destruct(function)
        assert report.phis_isolated == 2  # i and s merge at the header
        assert report.pairs_coalesced >= 4

    def test_critical_edges_are_split_when_needed(self):
        source = """
        func f(c, a) {
            x = 0;
            while (c > 0) {
                if (a > 0) { x = x + 1; }
                c = c - 1;
            }
            return x;
        }
        """
        function = compile_one(source)
        report = destruct(function)
        assert report.critical_edges_split >= 1
        verify_function(function)

    def test_report_counts_are_consistent(self):
        function = compile_one(NESTED_SOURCE)
        related = phi_related_variables(function)
        report = destruct(function)
        assert report.pairs_inserted == report.pairs_coalesced + copies_inserted(report)
        assert copies_inserted(report) >= 0
        assert report.interference_tests >= 0
        assert len(related) >= report.phis_isolated

    def test_phi_related_variables_helper(self):
        function = compile_one(SUM_LOOP_SOURCE)
        related = phi_related_variables(function)
        phi_results = {phi.result for phi in function.phis()}
        assert phi_results <= set(related)


class TestOracleIntegration:
    def test_queries_flow_through_the_supplied_oracle(self):
        function = compile_one(NESTED_SOURCE)
        counters = {}

        def factory(fn):
            oracle = CountingOracle(FastLivenessChecker(fn))
            counters["oracle"] = oracle
            return oracle

        report = destruct(function, oracle_factory=factory)
        oracle = counters["oracle"]
        assert oracle.total_queries > 0
        assert report.interference_tests > 0
        # Each Budimlić test issues at most one block-level liveness query
        # (plus local scans); structurally-decided tests issue none.
        assert oracle.total_queries <= report.interference_tests

    @pytest.mark.parametrize("engine", ["fast", "dataflow", "pathexpl"])
    def test_every_oracle_produces_equivalent_code(self, engine):
        factories = {
            "fast": lambda fn: FastLivenessChecker(fn),
            "dataflow": lambda fn: DataflowLiveness(fn),
            "pathexpl": lambda fn: PathExplorationLiveness(fn),
        }
        function = compile_one(SWAP_SOURCE)
        reference = [execute(function, [n]).observable() for n in range(5)]
        destruct(function, oracle_factory=factories[engine])
        after = [execute(function, [n]).observable() for n in range(5)]
        assert after == reference

    def test_prebuilt_dataflow_oracle_survives_isolation(self):
        """A prebuilt DataflowLiveness captures no variable universe until
        its fixpoint runs, so the fresh φ resources isolation invents are
        visible to it (regression: the universe was frozen at
        construction and queries on fresh resources raised KeyError)."""
        for source in (GCD_SOURCE, SUM_LOOP_SOURCE, NESTED_SOURCE, SWAP_SOURCE):
            function = compile_one(source)
            oracle = DataflowLiveness(function)
            report = destruct(function, oracle_factory=lambda fn: oracle)
            assert not function.phis()
            assert report.phis_isolated >= 1

    def test_different_oracles_make_identical_decisions(self):
        """The checker answers exactly like the data-flow sets, so the pass
        must produce the same copy counts with either engine."""
        for source in (GCD_SOURCE, SUM_LOOP_SOURCE, NESTED_SOURCE, SWAP_SOURCE):
            with_fast = compile_one(source)
            report_fast = destruct(with_fast, oracle_factory=FastLivenessChecker)
            with_dataflow = compile_one(source)
            report_dataflow = destruct(
                with_dataflow, oracle_factory=lambda fn: DataflowLiveness(fn)
            )
            assert copies_inserted(report_fast) == copies_inserted(report_dataflow)
            assert report_fast.pairs_coalesced == report_dataflow.pairs_coalesced


class TestRandomPrograms:
    def test_destruction_preserves_semantics_on_random_programs(self, rng):
        for index in range(60):
            source = random_program_source(rng)
            function = compile_one(source)
            args = [rng.randrange(-6, 7), rng.randrange(0, 7)]
            before = execute(function, args).observable()
            report = destruct(function)
            verify_function(function)
            assert not function.phis()
            after = execute(function, args).observable()
            assert before == after, f"case {index}:\n{source}"
            assert report.pairs_inserted >= copies_inserted(report)
