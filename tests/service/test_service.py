"""Tests for the multi-function liveness service."""

import random

import pytest

from repro.core import FastLivenessChecker
from repro.ir.module import Module
from repro.service import LivenessRequest, LivenessService
from repro.synth import random_ssa_function


def make_module(count=6, seed=1, num_blocks=6):
    rng = random.Random(seed)
    module = Module("test")
    for index in range(count):
        module.add_function(
            random_ssa_function(
                rng,
                num_blocks=num_blocks,
                num_variables=3,
                name=f"fn{index}",
            )
        )
    return module


def sample_requests(module, count, seed=7):
    rng = random.Random(seed)
    functions = list(module)
    requests = []
    for _ in range(count):
        function = rng.choice(functions)
        requests.append(
            LivenessRequest(
                function=function.name,
                kind=rng.choice(("in", "out")),
                variable=rng.choice(function.variables()),
                block=rng.choice([block.name for block in function]),
            )
        )
    return requests


class TestRegistration:
    def test_module_functions_are_registered(self):
        module = make_module(4)
        service = LivenessService(module)
        assert len(service) == 4
        assert service.functions() == [fn.name for fn in module]
        assert "fn0" in service and "nope" not in service

    def test_duplicate_registration_rejected(self):
        module = make_module(2)
        service = LivenessService(module)
        with pytest.raises(ValueError, match="duplicate"):
            service.register(module.function("fn0"))

    def test_unknown_function_raises(self):
        service = LivenessService(make_module(1))
        with pytest.raises(KeyError, match="unknown function"):
            service.checker("missing")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            LivenessService(capacity=0)


class TestCheckerCache:
    def test_checker_is_cached_and_counted(self):
        service = LivenessService(make_module(3))
        first = service.checker("fn0")
        assert service.stats.misses == 1 and service.stats.hits == 0
        assert service.checker("fn0") is first
        assert service.stats.hits == 1
        assert service.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        service = LivenessService(make_module(3), capacity=2)
        service.checker("fn0")
        service.checker("fn1")
        service.checker("fn0")  # fn1 is now least recently used
        service.checker("fn2")  # evicts fn1
        assert service.resident() == ["fn0", "fn2"]
        assert service.stats.evictions == 1
        # Touching the evicted function rebuilds (a miss, not a hit).
        # (int() takes a snapshot; the counter attribute itself is a live
        # AtomicCounter.)
        misses = int(service.stats.misses)
        service.checker("fn1")
        assert service.stats.misses == misses + 1

    def test_evict_and_clear(self):
        service = LivenessService(make_module(2))
        service.checker("fn0")
        assert service.evict("fn0")
        assert not service.evict("fn0")
        service.checker("fn0")
        service.checker("fn1")
        service.clear()
        assert service.resident() == []


class TestQueries:
    def test_answers_match_standalone_checkers(self):
        module = make_module(5, seed=3)
        service = LivenessService(module)
        requests = sample_requests(module, 150)
        answers = service.submit(requests)
        for request, answer in zip(requests, answers):
            checker = FastLivenessChecker(module.function(request.function))
            if request.kind == "in":
                expected = checker.is_live_in(request.variable, request.block)
            else:
                expected = checker.is_live_out(request.variable, request.block)
            assert answer == expected, request

    def test_submit_accepts_plain_tuples(self):
        module = make_module(2)
        service = LivenessService(module)
        request = sample_requests(module, 1)[0]
        as_tuple = (request.function, request.kind, request.variable, request.block)
        assert service.submit([as_tuple]) == service.submit([request])

    def test_submit_rejects_unknown_kind(self):
        module = make_module(1)
        service = LivenessService(module)
        request = sample_requests(module, 1)[0]
        with pytest.raises(ValueError, match="unknown query kind"):
            service.submit([(request.function, "sideways", request.variable, request.block)])

    def test_single_query_entry_points(self):
        module = make_module(2)
        service = LivenessService(module)
        function = module.function("fn0")
        var = function.variables()[0]
        block = function.entry.name
        checker = FastLivenessChecker(function)
        assert service.is_live_in("fn0", var, block) == checker.is_live_in(var, block)
        assert service.is_live_out("fn0", var, block) == checker.is_live_out(var, block)
        assert service.stats.queries == 2

    def test_submit_works_under_eviction_pressure(self):
        module = make_module(6, seed=9)
        roomy = LivenessService(module, capacity=len(module))
        tight = LivenessService(module, capacity=2)
        requests = sample_requests(module, 200, seed=11)
        assert tight.submit(requests) == roomy.submit(requests)
        assert tight.stats.evictions > 0
        assert tight.stats.hit_rate < roomy.stats.hit_rate


class TestEditRouting:
    def test_instruction_edit_keeps_precomputation(self):
        module = make_module(2)
        service = LivenessService(module)
        checker = service.checker("fn0")
        pre = checker.precomputation
        service.notify_instructions_changed("fn0")
        assert service.stats.instruction_invalidations == 1
        assert service.checker("fn0").precomputation is pre

    def test_cfg_edit_drops_precomputation(self):
        module = make_module(2)
        service = LivenessService(module)
        checker = service.checker("fn0")
        pre = checker.precomputation
        service.notify_cfg_changed("fn0")
        assert service.stats.cfg_invalidations == 1
        assert service.checker("fn0").precomputation is not pre

    def test_notifications_for_absent_checkers_are_noops(self):
        service = LivenessService(make_module(1))
        service.notify_cfg_changed("fn0")
        service.notify_instructions_changed("fn0")
        function = next(iter(make_module(1)))
        service.notify_variable_changed("fn0", function.variables()[0])
        assert service.resident() == []

    def test_notifications_for_unknown_functions_fail_loudly(self):
        service = LivenessService(make_module(1))
        function = next(iter(make_module(1)))
        with pytest.raises(KeyError, match="unknown function"):
            service.notify_cfg_changed("typo")
        with pytest.raises(KeyError, match="unknown function"):
            service.notify_instructions_changed("typo")
        with pytest.raises(KeyError, match="unknown function"):
            service.notify_variable_changed("typo", function.variables()[0])
        # A rejected notification must not bump the invalidation counters.
        assert service.stats.cfg_invalidations == 0
        assert service.stats.instruction_invalidations == 0

    def test_variable_change_routes_to_plan_cache(self):
        module = make_module(2)
        service = LivenessService(module)
        function = module.function("fn0")
        var = function.variables()[0]
        checker = service.checker("fn0")
        checker.plans.plan(var)
        service.notify_variable_changed("fn0", var)
        assert var not in checker.plans

    def test_stats_as_dict_round_trip(self):
        service = LivenessService(make_module(1))
        service.checker("fn0")
        payload = service.stats.as_dict()
        assert payload["misses"] == 1
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert "LivenessService" in repr(service)


def applicable_delta(function):
    """A CfgDelta the incremental patcher is guaranteed to apply.

    Adding ``s -> t`` where ``t`` strictly dominates ``s`` is always a
    DFS back edge of the cached precomputation (a dominator is a DFS-tree
    ancestor) and provably preserves the dominator tree.
    """
    from repro.cfg.dominance import DominatorTree
    from repro.core.incremental import CfgDelta

    cfg = function.build_cfg()
    dom = DominatorTree(cfg)
    for source in cfg.nodes():
        for target in cfg.nodes():
            if (
                target != cfg.entry
                and target != source
                and dom.dominates(target, source)
                and not cfg.has_edge(source, target)
            ):
                return CfgDelta.edge_added(source, target)
    return None


class TestEngineMetrics:
    def test_engine_metrics_keep_the_fast_label(self):
        module = make_module(2)
        requests = sample_requests(module, 10)
        service = LivenessService(module, obs_labels={"shard": 0})
        service.submit(requests)
        counters = service.obs.snapshot()["counters"]
        assert counters["engine.queries{engine=fast,shard=0}"] == 10
        assert counters["engine.precomputations{engine=fast,shard=0}"] == len(
            {request.function for request in requests}
        )


class TestIncrementalRouting:
    def test_delta_is_patched_into_the_cached_checker(self):
        module = make_module(2, num_blocks=8)
        service = LivenessService(module)
        delta = applicable_delta(module.function("fn0"))
        assert delta is not None, "corpus should offer a dominated pair"
        checker = service.checker("fn0")
        pre = checker.precomputation
        revision = service.revision("fn0")
        service.notify_cfg_changed("fn0", delta)
        assert service.stats.cfg_incremental_applied.value == 1
        assert service.stats.cfg_incremental_fallbacks.value == 0
        # Patched in place: same precomputation object, still resident.
        assert service.checker("fn0").precomputation is pre
        # The function still changed: handles must observe a new revision.
        assert service.revision("fn0") > revision
        assert service.stats.cfg_invalidations == 1

    def test_fallback_delta_drops_the_precomputation(self):
        from repro.core.incremental import CfgDelta

        module = make_module(2, num_blocks=8)
        service = LivenessService(module)
        pre = service.checker("fn0").precomputation
        service.notify_cfg_changed("fn0", CfgDelta.block_added("zzz.new"))
        assert service.stats.cfg_incremental_fallbacks.value == 1
        assert service.stats.cfg_incremental_applied.value == 0
        assert service.checker("fn0").precomputation is not pre

    def test_no_delta_keeps_the_historical_counters(self):
        module = make_module(1)
        service = LivenessService(module)
        service.checker("fn0")
        service.notify_cfg_changed("fn0")
        assert service.stats.cfg_invalidations == 1
        assert service.stats.cfg_incremental_applied.value == 0
        assert service.stats.cfg_incremental_fallbacks.value == 0

    def test_delta_for_absent_checker_counts_nothing(self):
        module = make_module(1, num_blocks=8)
        service = LivenessService(module)
        delta = applicable_delta(module.function("fn0"))
        service.notify_cfg_changed("fn0", delta)  # nothing resident
        assert service.stats.cfg_incremental_applied.value == 0
        assert service.stats.cfg_incremental_fallbacks.value == 0
        assert service.stats.cfg_invalidations == 1

    def test_incremental_counters_in_stats_dict(self):
        service = LivenessService(make_module(1))
        payload = service.stats.as_dict()
        assert payload["cfg_incremental_applied"] == 0
        assert payload["cfg_incremental_fallbacks"] == 0

    def test_fallbacks_are_counted_by_reason(self):
        from repro.api.client import CompilerClient
        from repro.api.handles import FunctionHandle
        from repro.api.protocol import NotifyRequest, StatsRequest

        module = make_module(1, seed=3, num_blocks=14)
        deltas = fallback_deltas(module.function("fn0"))
        assert set(deltas) == set(FALLBACK_REASONS)
        client = CompilerClient(module)
        for reason in FALLBACK_REASONS:
            # A fallback drops the precomputation: rebuild it to patch.
            client.service.checker("fn0").prepare()
            response = client.dispatch(
                NotifyRequest(
                    function=FunctionHandle("fn0"), kind="cfg", delta=deltas[reason]
                )
            )
            assert response.error is None
        stats = client.dispatch(StatsRequest())
        counters = stats.snapshot["counters"]
        for reason in FALLBACK_REASONS:
            assert counters[f"service.cfg.incremental_fallbacks{{reason={reason}}}"] == 1
        assert stats.stats["cfg_incremental_fallbacks"] == len(FALLBACK_REASONS)
        assert stats.stats["cfg_incremental_applied"] == 0


#: One fallback of each kind a single-edge or block delta can cause.
FALLBACK_REASONS = ("dfs-change", "dominators-changed", "tree-edge-removed", "block-edit")


def fallback_deltas(function):
    """``reason -> CfgDelta`` that makes the patcher fall back for that reason.

    Every candidate is probed against a fresh precomputation of the
    function's CFG, so each delta is valid against the unedited function.
    """
    from repro.core.incremental import CfgDelta, apply_cfg_delta
    from repro.core.precompute import LivenessPrecomputation

    cfg = function.build_cfg()
    candidates = [CfgDelta.block_added("zzz.new")]
    candidates += [CfgDelta.edge_removed(s, t) for s, t in cfg.edges()]
    candidates += [
        CfgDelta.edge_added(s, t)
        for s in cfg.nodes()
        for t in cfg.nodes()
        if t != cfg.entry and not cfg.has_edge(s, t)
    ]
    found = {}
    for delta in candidates:
        reason = apply_cfg_delta(LivenessPrecomputation(cfg.copy()), delta).reason
        if reason in FALLBACK_REASONS:
            found.setdefault(reason, delta)
    return found


class TestCapacityRegression:
    def test_single_slot_cache_does_not_evict_its_own_query(self):
        # Regression guard for the capacity bound: a capacity-1 service
        # must answer a full batch against one function without ever
        # evicting the checker it is actively using.
        module = make_module(1, num_blocks=8)
        service = LivenessService(module, capacity=1)
        function = module.function("fn0")
        requests = [
            LivenessRequest("fn0", kind, var, block.name)
            for var in function.variables()
            for block in function
            for kind in ("in", "out")
        ]
        answers = service.submit(requests)
        assert len(answers) == len(requests)
        assert service.stats.misses == 1
        assert service.stats.evictions == 0

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_nonpositive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            LivenessService(capacity=capacity)
