"""Unit tests for ShardedService and ShardedClient (single- and multi-thread)."""

import random
import threading

import pytest

from repro.api.errors import StaleHandleError
from repro.api.protocol import (
    BatchLiveness,
    CompileSourceRequest,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
)
from repro.concurrent import ShardedClient, ShardedService, shard_of
from repro.ir.module import Module
from repro.service import LivenessRequest, LivenessService
from repro.synth import random_ssa_function
from tests.support.concurrency import canonical_response

from .test_locks import join_all, spawn


def make_module(count=8, seed=1, num_blocks=6):
    rng = random.Random(seed)
    module = Module("test")
    for index in range(count):
        module.add_function(
            random_ssa_function(
                rng, num_blocks=num_blocks, num_variables=3, name=f"fn{index}"
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


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for name in ("fn0", "a", "zzz", "entry"):
                index = shard_of(name, shards)
                assert 0 <= index < shards
                assert index == shard_of(name, shards)  # pure

    def test_functions_partition_across_shards(self):
        module = make_module(16)
        service = ShardedService(module, shards=4)
        for function in module:
            expected = service.shard_of(function.name)
            owning = service.service_for(function.name)
            assert function.name in owning
            assert owning is service.shard_services()[expected]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedService(shards=0)
        with pytest.raises(ValueError, match="capacity"):
            ShardedService(capacity=0)

    def test_capacity_is_divided_across_shards(self):
        service = ShardedService(shards=4, capacity=8)
        assert service.capacity == 8
        assert all(s.capacity == 2 for s in service.shard_services())
        # Every shard gets at least one slot even under tiny budgets.
        tiny = ShardedService(shards=4, capacity=2)
        assert all(s.capacity >= 1 for s in tiny.shard_services())


class TestRegistration:
    def test_register_and_lookup(self):
        module = make_module(5)
        service = ShardedService(module, shards=3)
        assert len(service) == 5
        assert service.functions() == [fn.name for fn in module]
        assert "fn0" in service and "nope" not in service
        assert service.function("fn1").name == "fn1"

    def test_duplicates_rejected_atomically(self):
        module = make_module(2)
        service = ShardedService(module, shards=2)
        with pytest.raises(ValueError, match="duplicate"):
            service.register(module.function("fn0"))
        extra = make_module(3, seed=9)
        # Batch with one duplicate: nothing of it must land.
        with pytest.raises(ValueError):
            service.register_all(
                [extra.function("fn2"), module.function("fn1")]
            )
        assert "fn2" not in service
        assert len(service) == 2

    def test_unknown_function_raises(self):
        service = ShardedService(make_module(1))
        with pytest.raises(KeyError, match="unknown function"):
            service.function("missing")


class TestHandles:
    def test_revision_bumps_route_to_owning_shard_only(self):
        module = make_module(6)
        service = ShardedService(module, shards=3)
        before = {name: service.revision(name) for name in service.functions()}
        service.notify_cfg_changed("fn0")
        service.notify_instructions_changed("fn0")
        assert service.revision("fn0") == before["fn0"] + 2
        for name in service.functions():
            if name != "fn0":
                assert service.revision(name) == before[name]

    def test_stale_handle_rejected(self):
        service = ShardedService(make_module(2), shards=2)
        handle = service.handle("fn0")
        service.notify_instructions_changed("fn0")
        with pytest.raises(StaleHandleError):
            service.check_handle(handle)
        assert service.check_handle(service.handle("fn0")).name == "fn0"

    def test_eviction_does_not_bump(self):
        service = ShardedService(make_module(2), shards=2)
        handle = service.handle("fn0")
        fn = service.function("fn0")
        service.is_live_in("fn0", fn.variables()[0], fn.entry.name)
        assert service.evict("fn0") in (True, False)
        assert service.check_handle(handle).name == "fn0"  # still valid


class TestQueries:
    def test_submit_matches_serial_service(self):
        # Same module object for both: queries never mutate, and
        # LivenessRequest.variable is identity-keyed.
        module = make_module(10, seed=3)
        serial = LivenessService(module)
        sharded = ShardedService(module, shards=4)
        requests = sample_requests(module, 300)
        assert sharded.submit(requests) == serial.submit(requests)

    def test_submit_accepts_tuples_and_empty(self):
        module = make_module(2)
        service = ShardedService(module, shards=2)
        request = sample_requests(module, 1)[0]
        as_tuple = (request.function, request.kind, request.variable, request.block)
        assert service.submit([as_tuple]) == service.submit([request])
        assert service.submit([]) == []

    def test_point_queries_match_serial(self):
        module = make_module(4, seed=5)
        serial = LivenessService(module)
        sharded = ShardedService(module, shards=3)
        for function in module:
            for var in function.variables()[:2]:
                for block in list(function)[:3]:
                    assert sharded.is_live_in(
                        function.name, var, block.name
                    ) == serial.is_live_in(function.name, var, block.name)
                    assert sharded.is_live_out(
                        function.name, var, block.name
                    ) == serial.is_live_out(function.name, var, block.name)

    def test_submit_under_eviction_pressure(self):
        module = make_module(8, seed=9)
        roomy = ShardedService(module, shards=2, capacity=16)
        tight = ShardedService(module, shards=2, capacity=2)
        requests = sample_requests(module, 200, seed=11)
        assert tight.submit(requests) == roomy.submit(requests)
        assert tight.stats.evictions > 0

    def test_stats_aggregate_across_shards(self):
        module = make_module(6)
        service = ShardedService(module, shards=3)
        service.submit(sample_requests(module, 50))
        total = service.stats
        assert total.queries == 50
        assert total.lookups == sum(
            part.lookups for part in service.shard_stats()
        )
        assert "ShardedService" in repr(service)


class TestDestruct:
    def test_destruct_matches_serial_service(self):
        serial_service = LivenessService(make_module(4, seed=21))
        sharded = ShardedService(make_module(4, seed=21), shards=2)
        a = serial_service.destruct("fn1", verify=True)
        b = sharded.destruct("fn1", verify=True)
        assert a.copies_emitted == b.copies_emitted
        assert a.phis_removed == b.phis_removed
        assert sharded.revision("fn1") > 0
        assert sharded.stats.destructions == 1


class TestShardedClientParity:
    """Single-threaded: the sharded client is bit-identical to the serial one."""

    def make_clients(self, count=8, seed=13, shards=3):
        from repro.api.client import CompilerClient

        serial = CompilerClient(make_module(count, seed=seed))
        sharded = ShardedClient(make_module(count, seed=seed), shards=shards)
        return serial, sharded, make_module(count, seed=seed)

    def test_mixed_request_stream_parity(self):
        serial, sharded, module = self.make_clients()
        rng = random.Random(99)
        infos = {
            fn.name: (
                [v.name for v in fn.variables()],
                [b.name for b in fn],
            )
            for fn in module
        }
        names = list(infos)
        for _ in range(200):
            name = rng.choice(names)
            variables, blocks = infos[name]
            roll = rng.random()
            if roll < 0.5:
                request = LivenessQuery(
                    function=name,
                    kind=rng.choice(("in", "out")),
                    variable=rng.choice(variables + ["bogus"]),
                    block=rng.choice(blocks + ["bogus"]),
                )
            elif roll < 0.7:
                request = BatchLiveness(
                    queries=tuple(
                        LivenessQuery(
                            function=rng.choice(names),
                            kind="in",
                            variable=rng.choice(variables),
                            block=rng.choice(blocks),
                        )
                        for _ in range(rng.randrange(0, 5))
                    )
                )
            elif roll < 0.8:
                request = LiveSetRequest(
                    function=name, block=rng.choice(blocks), kind="out"
                )
            elif roll < 0.9:
                request = NotifyRequest(
                    function=name, kind=rng.choice(("cfg", "instructions"))
                )
            else:
                request = EvictRequest(function=name)
            assert canonical_response(serial.dispatch(request)) == (
                canonical_response(sharded.dispatch(request))
            ), request

    def test_compile_source_registers_across_shards(self):
        sharded = ShardedClient(shards=4)
        handles = sharded.compile(
            "func one(a) { return a; } func two(b) { return b; }"
        )
        assert [handle.name for handle in handles] == ["one", "two"]
        assert sharded.service.functions() == ["one", "two"]
        # Re-registering any of them is a structured duplicate error.
        response = sharded.dispatch(
            CompileSourceRequest(source="func one(x) { return x; }")
        )
        assert response.error is not None
        assert response.error.code == "duplicate_function"
        assert sharded.service.functions() == ["one", "two"]

    def test_compile_error_is_structured(self):
        sharded = ShardedClient(shards=2)
        response = sharded.dispatch(CompileSourceRequest(source="func ("))
        assert response.error is not None
        assert response.error.code == "compile_error"

    def test_unsupported_request_type(self):
        sharded = ShardedClient(shards=2)
        response = sharded.dispatch(object())
        assert response.error is not None
        assert response.error.code == "invalid_request"
        assert "ShardedClient" in repr(sharded)


class TestConcurrentSmoke:
    """Thread smoke tests; the deep coverage lives in the fuzz/harness suites."""

    def test_concurrent_disjoint_queries(self):
        module = make_module(8, seed=31)
        sharded = ShardedService(module, shards=4)
        serial = LivenessService(module)
        streams = [sample_requests(module, 100, seed=40 + i) for i in range(6)]
        expected = [serial.submit(stream) for stream in streams]
        results = {}

        def work(index):
            results[index] = sharded.submit(streams[index])

        join_all(
            spawn_indexed(work, len(streams))
        )
        for index, answer in enumerate(expected):
            assert results[index] == answer

    def test_concurrent_edits_and_queries_do_not_corrupt(self):
        module = make_module(6, seed=51)
        sharded = ShardedService(module, shards=3, capacity=3)
        names = sharded.functions()
        stop = threading.Event()

        def editor():
            rng = random.Random(1)
            for _ in range(200):
                name = rng.choice(names)
                if rng.random() < 0.5:
                    sharded.notify_instructions_changed(name)
                else:
                    sharded.notify_cfg_changed(name)
            stop.set()

        def querier():
            rng = random.Random(2)
            requests = sample_requests(module, 20, seed=3)
            while not stop.is_set():
                sharded.submit(requests)

        join_all(spawn(editor, 1) + spawn(querier, 4))
        # The edits above invalidated caches but never changed IR, so a
        # fresh serial service over the same functions must agree.
        serial = LivenessService(module)
        requests = sample_requests(module, 100, seed=5)
        assert sharded.submit(requests) == serial.submit(requests)


def spawn_indexed(target, count):
    threads = [
        threading.Thread(target=target, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestDeltaRouting:
    def test_delta_forwards_to_the_owning_shard(self):
        from repro.core.incremental import CfgDelta
        from tests.service.test_service import applicable_delta

        module = make_module(4, num_blocks=8)
        sharded = ShardedService(module, shards=2)
        function = module.function("fn1")
        delta = applicable_delta(function)
        assert delta is not None
        shard_service = sharded.service_for("fn1")
        pre = shard_service.checker("fn1").precomputation
        revision = sharded.revision("fn1")
        sharded.notify_cfg_changed("fn1", delta)
        assert sharded.stats.cfg_incremental_applied.value == 1
        assert shard_service.checker("fn1").precomputation is pre
        assert sharded.revision("fn1") > revision
        # A block-level delta on another function falls back.
        sharded.service_for("fn2").checker("fn2")
        sharded.notify_cfg_changed("fn2", CfgDelta.block_added("zzz"))
        assert sharded.stats.cfg_incremental_fallbacks.value == 1
