"""Tests for the Budimlić interference test."""

from repro.core import FastLivenessChecker
from repro.ir import parse_function
from repro.liveness import DataflowLiveness
from repro.ssa import DefUseChains
from repro.ssadestruct.interference import InterferenceChecker


def make_interference(function, oracle=None, defuse=None):
    oracle = oracle if oracle is not None else FastLivenessChecker(function, defuse=defuse)
    oracle.prepare()
    return InterferenceChecker(function, oracle, defuse=defuse)


class TestInterferenceChecker:
    def test_variable_never_interferes_with_itself(self, gcd_function):
        checker = make_interference(gcd_function)
        var = gcd_function.variables()[0]
        assert not checker.interfere(var, var)

    def test_disjoint_short_ranges_do_not_interfere(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              a = binop.add p, p
              b = binop.mul a, a
              c = binop.add b, b
              return c
            }
            """
        )
        checker = make_interference(function)
        a = function.variable_by_name("a")
        c = function.variable_by_name("c")
        # a's last use is the definition of b; c is defined later: no overlap.
        assert not checker.interfere(a, c)

    def test_overlapping_ranges_interfere(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              a = binop.add p, p
              b = binop.mul p, p
              c = binop.add a, b
              return c
            }
            """
        )
        checker = make_interference(function)
        a = function.variable_by_name("a")
        b = function.variable_by_name("b")
        assert checker.interfere(a, b)
        assert checker.interfere(b, a)

    def test_cross_block_interference_via_live_out(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              a = binop.add p, p
              jump next
            next:
              b = binop.mul p, p
              c = binop.add a, b
              return c
            }
            """
        )
        checker = make_interference(function)
        a = function.variable_by_name("a")
        b = function.variable_by_name("b")
        assert checker.interfere(a, b)

    def test_dominance_unrelated_definitions_do_not_interfere(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              branch p, left, right
            left:
              a = binop.add p, p
              jump join
            right:
              b = binop.mul p, p
              jump join
            join:
              m = phi [a : left] [b : right]
              return m
            }
            """
        )
        checker = make_interference(function)
        a = function.variable_by_name("a")
        b = function.variable_by_name("b")
        assert not checker.interfere(a, b)

    def test_counts_tests(self, gcd_function):
        checker = make_interference(gcd_function)
        variables = gcd_function.variables()
        checker.interfere(variables[0], variables[1])
        checker.interfere(variables[0], variables[2])
        assert checker.tests == 2

    def test_agrees_with_live_range_overlap_reference(self, rng):
        """Differential check against a brute-force 'live sets overlap' test."""
        from repro.synth import random_ssa_function

        for _ in range(10):
            function = random_ssa_function(rng, num_blocks=8, num_variables=3)
            defuse = DefUseChains(function)
            oracle = DataflowLiveness(function)
            oracle.prepare()
            checker = InterferenceChecker(function, oracle, defuse=defuse)
            variables = function.variables()
            live_sets = oracle.live_sets()
            for i, a in enumerate(variables):
                for b in variables[i + 1 :]:
                    # Reference: block-granular overlap — if both are live-out
                    # of some common block, they certainly interfere.
                    certainly = any(
                        a in live_sets.live_out[block] and b in live_sets.live_out[block]
                        for block in function.blocks
                    )
                    if certainly:
                        assert checker.interfere(a, b), (a.name, b.name)

