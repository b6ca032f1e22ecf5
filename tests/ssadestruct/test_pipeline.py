"""End-to-end destruct(): classics, reports, service and regalloc wiring."""

import pytest

from repro.core.live_checker import FastLivenessChecker
from repro.ir import Module, parse_function
from repro.ir.interp import execute
from repro.regalloc.allocator import allocate
from repro.regalloc.verify import verify_allocation
from repro.service import LivenessService
from repro.ssadestruct import BACKENDS, destruct, verify_destructed

LOST_COPY = """
function lostcopy(n) {
entry:
  x0 = const 1
  jump loop
loop:
  x = phi [x0 : entry] [x2 : loop]
  x2 = binop.add x, 1
  c = binop.cmplt x2, n
  branch c, loop, exit
exit:
  return x
}
"""

SWAP = """
function swap(n) {
entry:
  a0 = const 1
  b0 = const 2
  jump loop
loop:
  a = phi [a0 : entry] [b : loop]
  b = phi [b0 : entry] [a : loop]
  i = phi [n : entry] [i2 : loop]
  i2 = binop.sub i, 1
  c = binop.cmpgt i2, 0
  branch c, loop, exit
exit:
  r = binop.add a, b
  return r
}
"""


class TestClassics:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("text,args", [(LOST_COPY, [4]), (SWAP, [5])])
    def test_observable_equivalence(self, backend, text, args):
        function = parse_function(text)
        before = execute(function, args).observable()
        report = destruct(function, backend=backend, verify=True)
        assert execute(function, args).observable() == before
        assert report.phis_removed == report.phis_isolated > 0

    def test_lost_copy_keeps_the_result_copy(self):
        """The φ result is live out of its own block: it cannot be merged
        with the loop-carried operand, so at least one copy survives."""
        function = parse_function(LOST_COPY)
        report = destruct(function, backend="fast", verify=True)
        assert report.copies_emitted >= 1

    def test_swap_needs_a_temporary(self):
        function = parse_function(SWAP)
        report = destruct(function, backend="fast", verify=True)
        assert report.temps_inserted == 1
        assert report.copies_emitted == 3

    def test_report_shape(self):
        function = parse_function(SWAP)
        report = destruct(
            function, backend="fast", verify=True, collect_decisions=True
        )
        assert report.backend == "fast"
        assert report.pairs_inserted == report.pairs_coalesced + len(
            [d for d in report.decisions if not d.merged]
        )
        assert 0.0 < report.coalesced_fraction <= 1.0
        assert report.liveness_queries > 0
        assert report.interference_tests > 0
        verify_destructed(function)

    def test_unknown_backend_rejected(self):
        function = parse_function(SWAP)
        with pytest.raises(ValueError, match="unknown destruction backend"):
            destruct(function, backend="nope")


class TestPrebuiltChecker:
    def test_prebuilt_checker_is_invalidated_on_edge_split(self):
        function = parse_function(
            """
function f(p) {
entry:
  c = binop.cmpgt p, 0
  branch c, a, join
a:
  jump join
join:
  x = phi [p : entry] [c : a]
  return x
}
"""
        )
        checker = FastLivenessChecker(function)
        checker.prepare()
        events = []
        before = execute(function, [3]).observable()
        destruct(
            function,
            backend="fast",
            checker=checker,
            on_cfg_changed=lambda: events.append("cfg"),
            verify=True,
        )
        assert events == ["cfg"]  # the critical edge entry→join was split
        assert execute(function, [3]).observable() == before


class TestServiceEntryPoint:
    def test_destruct_through_the_service(self):
        module = Module("m")
        module.add_function(parse_function(SWAP))
        module.add_function(parse_function(LOST_COPY))
        service = LivenessService(module)
        swap = module.function("swap")
        before = execute(swap, [5]).observable()
        report = service.destruct("swap", verify=True)
        assert report.backend == "fast"
        assert execute(swap, [5]).observable() == before
        assert service.stats.destructions == 1
        # The destructed function's checker is gone; others are untouched.
        assert "swap" not in service.resident()

    def test_destruct_unknown_function_fails_loudly(self):
        service = LivenessService()
        with pytest.raises(KeyError):
            service.destruct("missing")

    def test_destructed_function_queries_fail_loudly(self):
        module = Module("m")
        module.add_function(parse_function(SWAP))
        service = LivenessService(module)
        service.destruct("swap")
        function = module.function("swap")
        var = function.variables()[0]
        with pytest.raises(ValueError, match="defined more than once"):
            service.is_live_in("swap", var, function.entry.name)


class TestRegallocAcceptsDestructed:
    @pytest.mark.parametrize("text,args", [(LOST_COPY, [4]), (SWAP, [6])])
    def test_allocate_reconstructs_ssa(self, text, args):
        function = parse_function(text)
        before = execute(function, args).observable()
        destruct(function, verify=True)
        allocation = allocate(function)
        assert allocation.reconstructed_ssa
        result = verify_allocation(function, allocation)
        assert result.ok, result.errors
        assert execute(function, args).observable() == before

    def test_ssa_input_is_not_reconstructed(self):
        function = parse_function(SWAP)
        allocation = allocate(function)
        assert not allocation.reconstructed_ssa

    def test_prebuilt_backend_refuses_non_ssa_input(self):
        from repro.regalloc.allocator import make_backend

        function = parse_function(SWAP)
        destruct(function)
        with pytest.raises(ValueError, match="non-SSA"):
            allocate(function, backend=make_backend("fast", function))
