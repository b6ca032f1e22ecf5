"""Tests for the synthetic workload generators."""

import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cfg import is_reducible
from repro.frontend import compile_source
from repro.ir import verify_ssa
from repro.ir.interp import execute
from repro.ssa import DefUseChains
from repro.synth import (
    ProgramGeneratorConfig,
    SPEC_PROFILES,
    generate_benchmark_functions,
    random_cfg,
    random_irreducible_cfg,
    random_program_source,
    random_reducible_cfg,
    random_ssa_function,
    sample_block_count,
)
from repro.synth.spec_profiles import TOTAL_PROFILE, profile_by_name


class TestRandomCfg:
    def test_requested_block_count_is_exact_for_reducible(self, rng):
        for blocks in (1, 2, 5, 17, 40):
            graph = random_reducible_cfg(rng, blocks)
            assert len(graph) == blocks
            graph.validate()

    def test_invalid_block_count_rejected(self, rng):
        with pytest.raises(ValueError):
            random_reducible_cfg(rng, 0)

    def test_reducible_generator_is_reducible(self, rng):
        assert all(
            is_reducible(random_reducible_cfg(rng, rng.randrange(2, 30)))
            for _ in range(20)
        )

    def test_irreducible_generator_mostly_irreducible(self, rng):
        irreducible = sum(
            not is_reducible(random_irreducible_cfg(rng, 12)) for _ in range(20)
        )
        assert irreducible >= 15

    def test_mixed_generator_entry_has_no_preds(self, rng):
        for _ in range(20):
            graph = random_cfg(rng, rng.randrange(2, 20))
            assert not graph.predecessors(graph.entry)

    def test_determinism_per_seed(self):
        a = random_cfg(random.Random(5), 15)
        b = random_cfg(random.Random(5), 15)
        assert a.edges() == b.edges()

    def test_edges_per_block_in_spec_range(self, rng):
        """§6.1: CFGs are sparse, about 1.3 edges per block on average."""
        ratios = []
        for _ in range(30):
            graph = random_reducible_cfg(rng, 40)
            ratios.append(graph.num_edges() / len(graph))
        assert 1.0 < statistics.mean(ratios) < 1.9


class TestRandomSsaFunction:
    def test_functions_verify(self, rng):
        for _ in range(15):
            function = random_ssa_function(rng, num_blocks=rng.randrange(2, 20))
            verify_ssa(function)

    def test_block_and_variable_knobs(self, rng):
        function = random_ssa_function(rng, num_blocks=12, num_variables=6)
        assert len(function.blocks) >= 12
        assert len(function.variables()) >= 6

    def test_reducible_only_mode(self, rng):
        for _ in range(10):
            function = random_ssa_function(rng, num_blocks=10, allow_irreducible=False)
            assert is_reducible(function.build_cfg())


class TestProgramGenerator:
    def test_programs_compile_verify_and_terminate(self, rng):
        for _ in range(15):
            source = random_program_source(rng)
            function = list(compile_source(source))[0]
            verify_ssa(function)
            trace = execute(function, [rng.randrange(10), rng.randrange(10)])
            assert trace.steps > 0

    def test_size_scales_with_config(self, rng):
        small = ProgramGeneratorConfig(num_statements=2, max_depth=1)
        large = ProgramGeneratorConfig(num_statements=20, max_depth=3)
        small_blocks = []
        large_blocks = []
        for _ in range(8):
            small_blocks.append(
                len(list(compile_source(random_program_source(rng, small)))[0].blocks)
            )
            large_blocks.append(
                len(list(compile_source(random_program_source(rng, large)))[0].blocks)
            )
        assert statistics.mean(large_blocks) > statistics.mean(small_blocks)

    def test_generator_is_deterministic_per_seed(self):
        assert random_program_source(random.Random(3)) == random_program_source(
            random.Random(3)
        )


class TestSpecProfiles:
    def test_ten_benchmarks_with_published_totals(self):
        assert len(SPEC_PROFILES) == 10
        assert sum(p.procedures for p in SPEC_PROFILES) == TOTAL_PROFILE.procedures == 4823
        assert sum(p.sum_blocks for p in SPEC_PROFILES) == TOTAL_PROFILE.sum_blocks == 169825
        assert sum(p.queries for p in SPEC_PROFILES) == TOTAL_PROFILE.queries == 2683555

    def test_profile_lookup(self):
        assert profile_by_name("176.gcc").procedures == 2019
        with pytest.raises(KeyError):
            profile_by_name("999.nope")

    def test_block_count_sampler_tracks_profile(self, rng):
        profile = profile_by_name("197.parser")
        samples = [sample_block_count(rng, profile) for _ in range(3000)]
        assert max(samples) <= profile.max_blocks
        assert min(samples) >= 3
        share_le_32 = sum(s <= 32 for s in samples) / len(samples)
        assert abs(share_le_32 - profile.pct_blocks_le_32 / 100) < 0.15

    def test_generate_benchmark_functions(self):
        functions = generate_benchmark_functions(profile_by_name("181.mcf"), scale=4)
        assert len(functions) == 4
        for function in functions:
            verify_ssa(function)
            chains = DefUseChains(function)
            assert len(chains) > 0

    def test_generation_is_deterministic(self):
        first = generate_benchmark_functions(SPEC_PROFILES[0], scale=2, seed=1)
        second = generate_benchmark_functions(SPEC_PROFILES[0], scale=2, seed=1)
        assert [len(f.blocks) for f in first] == [len(f.blocks) for f in second]

    def test_generation_does_not_depend_on_the_hash_seed(self):
        # Two processes with different string-hash randomisation must
        # generate the same functions.
        code = (
            "import hashlib\n"
            "from repro.ir import print_function\n"
            "from repro.synth import generate_benchmark_functions\n"
            "from repro.synth.spec_profiles import profile_by_name\n"
            "functions = generate_benchmark_functions("
            "profile_by_name('181.mcf'), scale=3, seed=2008)\n"
            "text = '\\n'.join(print_function(f) for f in functions)\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        src = str(Path(repro.__file__).parents[1])
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1, digests


class TestIrreducibleWorkloadCoverage:
    """Regression: the benchmark population must contain irreducible CFGs.

    The paper's SPEC workload has (rare) irreducible regions; a purely
    structured synthetic population would never drive the checker through
    its loop-forest fallback (the general multi-candidate ``T_q`` loop),
    so that path would be dead in every table.  Pinned here so a future
    generator rewrite cannot silently lose the coverage.
    """

    def test_benchmark_population_contains_irreducible_cfgs(self):
        from repro.synth.spec_profiles import IRREDUCIBLE_PERIOD

        profile = profile_by_name("181.mcf")
        functions = generate_benchmark_functions(
            profile, scale=IRREDUCIBLE_PERIOD, seed=0
        )
        irreducible = [
            f for f in functions if not is_reducible(f.build_cfg())
        ]
        assert irreducible, (
            "benchmark population must include at least one irreducible CFG"
        )
        for function in irreducible:
            verify_ssa(function)

    def test_workload_replays_queries_through_the_loop_forest_path(self):
        """On an irreducible workload procedure, the fast checker (whose
        reducible fast path cannot apply everywhere) must still agree with
        the conventional engine on the recorded destruction queries."""
        from repro.bench.workload import build_workload
        from repro.core import FastLivenessChecker
        from repro.liveness import DataflowLiveness
        from repro.synth.spec_profiles import IRREDUCIBLE_PERIOD

        profile = profile_by_name("181.mcf")
        workload = build_workload(profile, scale=IRREDUCIBLE_PERIOD, seed=0)
        irreducible = [
            proc
            for proc in workload.procedures
            if not is_reducible(proc.function.build_cfg())
        ]
        assert irreducible, "workload must contain an irreducible procedure"
        # A φ-free straggler records no queries; at least one irreducible
        # procedure must, and every recorded stream must replay cleanly.
        with_queries = [proc for proc in irreducible if proc.queries]
        assert with_queries, "no irreducible procedure recorded any queries"
        for proc in with_queries:
            checker = FastLivenessChecker(proc.function)
            dataflow = DataflowLiveness(proc.function)
            for kind, var, block in proc.queries:
                if kind == "in":
                    assert checker.is_live_in(var, block) == dataflow.is_live_in(
                        var, block
                    )
                else:
                    assert checker.is_live_out(var, block) == dataflow.is_live_out(
                        var, block
                    )

    def test_force_irreducible_knob(self, rng):
        hits = sum(
            not is_reducible(
                random_ssa_function(rng, num_blocks=12, force_irreducible=True)
                .build_cfg()
            )
            for _ in range(10)
        )
        assert hits >= 8


class TestGenfnSupportGenerator:
    """The shared test-suite generator (tests/support/genfn.py)."""

    def test_knobs_and_validity(self):
        from tests.support.genfn import GenSpec, generate_function

        function = generate_function(
            11, GenSpec(blocks=10, pool_variables=5, loop_depth=2)
        )
        verify_ssa(function)
        assert len(function.blocks) >= 10

    def test_irreducible_knob_is_honoured(self):
        from tests.support.genfn import GenSpec, generate_function

        for seed in range(6):
            function = generate_function(
                400 + seed, GenSpec(blocks=8, irreducible=True)
            )
            assert not is_reducible(function.build_cfg())

    def test_executable_mode_always_terminates(self):
        from tests.support.genfn import GenSpec, generate_function

        for seed in range(8):
            function = generate_function(
                500 + seed,
                GenSpec(blocks=9, loop_depth=3, irreducible=(seed % 2 == 0)),
            )
            for args in ([0, 0], [9, 2], [-3, 8]):
                trace = execute(function, args, max_steps=20_000)
                assert trace.steps > 0

    def test_loop_free_spec_has_no_back_edges(self):
        from repro.cfg.dfs import DepthFirstSearch
        from tests.support.genfn import GenSpec, generate_function

        function = generate_function(77, GenSpec(blocks=8, loop_depth=0))
        dfs = DepthFirstSearch(function.build_cfg())
        assert not dfs.back_edges()
