"""Degenerate and boundary cases for the checker.

The differential tests cover the broad behaviour; this module pins down the
corners that are easy to get wrong: single-block functions, self-loops,
variables without uses, uses only in the definition block, and queries at
the entry/exit extremes.
"""

from repro.cfg import ControlFlowGraph
from repro.core import FastLivenessChecker, LivenessPrecomputation
from repro.ir import parse_function
from tests.support.bitset_checker import BitsetChecker
from tests.support.set_checker import SetBasedChecker, row_nodes


class TestDegenerateGraphs:
    def test_single_node_graph(self):
        graph = ControlFlowGraph(entry="only")
        pre = LivenessPrecomputation(graph)
        checker = SetBasedChecker(pre)
        assert pre.reducible
        assert row_nodes(pre.t_masks, pre.domtree, "only") == ["only"]
        assert not checker.is_live_in("only", {"only"}, "only")
        # A use in the block itself never makes the variable live-out of it…
        assert not checker.is_live_out("only", {"only"}, "only")
        # …and with no uses at all everything is dead.
        assert not checker.is_live_out("only", set(), "only")

    def test_self_loop_single_block_after_entry(self):
        graph = ControlFlowGraph.from_edges([("e", "loop"), ("loop", "loop")], entry="e")
        pre = LivenessPrecomputation(graph)
        checker = SetBasedChecker(pre)
        bitset = BitsetChecker(pre)
        # A value defined in "e" and used in "loop" stays live around the
        # self loop: live-in and live-out at "loop".
        assert checker.is_live_in("e", {"loop"}, "loop")
        assert checker.is_live_out("e", {"loop"}, "loop")
        assert bitset.is_live_out(
            pre.num("e"), [pre.num("loop")], pre.num("loop")
        )
        # A value defined and used only inside "loop" is not live-out of it
        # under Definition 3: every path back to the use passes through the
        # definition again (Algorithm 2's first special case).
        assert not checker.is_live_out("loop", {"loop"}, "loop")

    def test_two_parallel_exits(self):
        graph = ControlFlowGraph.from_edges(
            [("a", "b"), ("a", "c")], entry="a"
        )
        pre = LivenessPrecomputation(graph)
        checker = SetBasedChecker(pre)
        assert checker.is_live_in("a", {"b"}, "b")
        assert not checker.is_live_in("a", {"b"}, "c")
        assert checker.is_live_out("a", {"b"}, "a")


class TestFunctionLevelCorners:
    def test_variable_without_uses_is_never_live(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              dead = binop.add p, p
              used = binop.mul p, p
              jump next
            next:
              return used
            }
            """
        )
        checker = FastLivenessChecker(function)
        dead = function.variable_by_name("dead")
        for block in function.blocks:
            assert not checker.is_live_in(dead, block)
            assert not checker.is_live_out(dead, block)

    def test_use_only_in_definition_block(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              a = binop.add p, p
              b = binop.mul a, a
              jump next
            next:
              return b
            }
            """
        )
        checker = FastLivenessChecker(function)
        a = function.variable_by_name("a")
        assert not checker.is_live_in(a, "entry")
        assert not checker.is_live_out(a, "entry")
        assert not checker.is_live_in(a, "next")

    def test_parameter_live_through_whole_loop(self):
        function = parse_function(
            """
            function f(n) {
            entry:
              zero = const 0
              jump header
            header:
              i = phi [zero : entry] [next : body]
              cond = binop.cmplt i, n
              branch cond, body, exit
            body:
              next = binop.add i, n
              jump header
            exit:
              return n
            }
            """
        )
        checker = FastLivenessChecker(function)
        n = function.variable_by_name("n")
        for block in ("header", "body", "exit"):
            assert checker.is_live_in(n, block), block
        assert checker.is_live_out(n, "entry")
        assert not checker.is_live_out(n, "exit")

    def test_queries_for_blocks_above_the_definition(self):
        function = parse_function(
            """
            function f(p) {
            entry:
              branch p, left, right
            left:
              x = const 1
              jump merge
            right:
              jump merge
            merge:
              y = phi [x : left] [p : right]
              return y
            }
            """
        )
        checker = FastLivenessChecker(function)
        x = function.variable_by_name("x")
        # x is defined in "left"; the entry and the other arm are outside
        # its dominance region, so it can never be live there.
        assert not checker.is_live_in(x, "entry")
        assert not checker.is_live_in(x, "right")
        assert not checker.is_live_out(x, "right")
        # The φ use is attributed to "left", so x dies on that edge: it is
        # neither live-in at the merge block nor live-out of "left"
        # (Definition 3 — no successor has it live-in).
        assert not checker.is_live_in(x, "merge")
        assert not checker.is_live_out(x, "left")

    def test_checker_live_sets_on_degenerate_function(self):
        function = parse_function(
            "function f() {\nentry:\n  x = const 1\n  return x\n}"
        )
        checker = FastLivenessChecker(function)
        sets = checker.live_sets()
        assert sets.live_in == {"entry": frozenset()}
        assert sets.live_out == {"entry": frozenset()}
        assert sets.average_live_in_size() == 0.0
