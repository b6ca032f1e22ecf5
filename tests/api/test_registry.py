"""The engine registry: lookup, capabilities, third-party plug-in, and
the three built-ins as seen from the wire."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.client import CompilerClient
from repro.api.codec import CODEC_BIN2, CODEC_JSON, BytesClient
from repro.api.errors import ErrorCode, ProtocolError
from repro.api.protocol import AllocateRequest, DestructRequest, LivenessQuery
from repro.api.registry import (
    DATAFLOW,
    FAST,
    GRAPH,
    EngineCapabilities,
    EngineSpec,
    UnknownEngineError,
    available_engines,
    engine_specs,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.concurrent import ShardedClient
from repro.liveness.dataflow import DataflowLiveness
from tests.service.test_service import make_module


class TestBuiltins:
    def test_builtin_engines_are_registered(self):
        assert set(available_engines()) >= {FAST, DATAFLOW, GRAPH}
        assert [spec.name for spec in engine_specs()] == list(available_engines())

    def test_capability_table(self):
        assert get_engine(FAST).capabilities.supports_edits
        # Batching is not declared: clients use ``oracle.batch`` when present.
        assert not hasattr(get_engine(FAST).capabilities, "batch_queries")
        assert not get_engine(DATAFLOW).capabilities.supports_edits
        assert get_engine(GRAPH).capabilities.per_point_sets

    def test_oracle_factories_produce_working_oracles(self, gcd_function):
        for name in (FAST, DATAFLOW):
            oracle = get_engine(name).make_oracle(gcd_function)
            oracle.prepare()
            var = gcd_function.variables()[0]
            block = next(iter(gcd_function.blocks))
            assert oracle.is_live_in(var, block) in (True, False)

    def test_graph_engine_has_no_oracle(self, gcd_function):
        with pytest.raises(ProtocolError) as exc:
            get_engine(GRAPH).make_oracle(gcd_function)
        assert exc.value.error.code == ErrorCode.UNSUPPORTED


class TestLookup:
    def test_unknown_engine_is_value_error_and_protocol_error(self):
        with pytest.raises(UnknownEngineError) as exc:
            get_engine("phlogiston")
        assert isinstance(exc.value, ValueError)
        assert exc.value.error.code == ErrorCode.UNKNOWN_ENGINE
        assert "phlogiston" in exc.value.error.detail

    def test_duplicate_registration_rejected(self):
        spec = get_engine(FAST)
        with pytest.raises(ValueError, match="already registered"):
            register_engine(spec)
        # replace=True swaps in place without growing the table.
        before = available_engines()
        register_engine(spec, replace=True)
        assert available_engines() == before


class TestThirdPartyPlugin:
    """A custom oracle registers once and is selectable everywhere."""

    def _register(self):
        return register_engine(
            EngineSpec(
                name="thirdparty",
                oracle_factory=lambda fn: DataflowLiveness(fn),
                capabilities=EngineCapabilities(non_ssa_input=True),
                description="test-only engine",
            )
        )

    def test_pluggable_in_allocator_and_destruct(self, gcd_function):
        import copy

        from repro.regalloc.allocator import allocate
        from repro.regalloc.verify import verify_allocation
        from repro.ssadestruct import destruct

        self._register()
        try:
            function = copy.deepcopy(gcd_function)
            allocation = allocate(function, num_registers=4, backend="thirdparty")
            assert allocation.backend == "thirdparty"
            assert verify_allocation(function, allocation).ok
            report = destruct(copy.deepcopy(gcd_function), backend="thirdparty")
            assert report.backend == "thirdparty"
            assert report.phis_removed == report.phis_isolated
        finally:
            assert unregister_engine("thirdparty")

    def test_third_party_decisions_match_builtin(self, nested_function):
        import copy

        from repro.ir.printer import print_function
        from repro.ssadestruct import destruct

        self._register()
        try:
            with_builtin = copy.deepcopy(nested_function)
            with_plugin = copy.deepcopy(nested_function)
            destruct(with_builtin, backend=FAST)
            destruct(with_plugin, backend="thirdparty")
            assert print_function(with_builtin) == print_function(with_plugin)
        finally:
            assert unregister_engine("thirdparty")


class TestFourBuiltins:
    """The retired ``mask`` engine is an unknown name at every boundary."""

    def test_mask_is_not_registered(self):
        assert "mask" not in available_engines()
        with pytest.raises(UnknownEngineError):
            get_engine("mask")

    def test_importing_the_library_does_not_load_numpy(self):
        code = (
            "import sys, repro, repro.concurrent, repro.persist, repro.api.codec; "
            "sys.exit('numpy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert result.returncode == 0, "importing repro loaded numpy"

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BIN2])
    @pytest.mark.parametrize("client_cls", [CompilerClient, ShardedClient])
    @pytest.mark.parametrize(
        "make_request",
        [
            lambda name: DestructRequest(function=name, engine="mask"),
            lambda name: AllocateRequest(function=name, num_registers=4, engine="mask"),
        ],
        ids=["destruct", "allocate"],
    )
    def test_mask_requests_get_unknown_engine_over_the_wire(
        self, codec, client_cls, make_request
    ):
        module = make_module(2)
        client = client_cls(module)
        peer = BytesClient(client.bytes_session().dispatch_frame, offer=(codec,))
        assert peer.codec == codec
        response = peer.dispatch(make_request("fn0"))
        assert response.error is not None
        assert response.error.code is ErrorCode.UNKNOWN_ENGINE
        # Rejected before any mutation: the function still answers queries.
        function = module.function("fn0")
        query = LivenessQuery(
            function="fn0",
            kind="in",
            variable=function.variables()[0].name,
            block=function.entry.name,
        )
        assert peer.dispatch(query).ok
