"""Tests for the benchmark harness itself (workloads, tables, formatting)."""

import pytest

from repro.bench.reporting import format_table
from repro.bench.table1 import compute_row as table1_row, compute_table1, format_table1
from repro.bench.table2 import compute_row as table2_row, compute_table2, format_table2
from repro.bench.workload import RecordingOracle, build_workload
from repro.core import FastLivenessChecker
from repro.frontend import compile_source
from repro.ir import verify_ssa
from repro.synth.spec_profiles import profile_by_name
from tests.conftest import GCD_SOURCE


@pytest.fixture(scope="module")
def small_workload():
    return build_workload(profile_by_name("181.mcf"), scale=3, seed=11)


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 7]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "1.23" in text
        # title + header + separator + two data rows
        assert len(lines) == 5
        # header and separator have the same width
        assert len(lines[1]) == len(lines[2])

    def test_format_table_without_title(self):
        text = format_table(["a"], [[1]])
        assert text.splitlines()[0].strip() == "a"


class TestRecordingOracle:
    def test_records_queries_in_order(self):
        function = compile_source(GCD_SOURCE).function("gcd")
        oracle = RecordingOracle(FastLivenessChecker(function))
        oracle.prepare()
        var = oracle.live_variables()[0]
        entry = function.entry.name
        oracle.is_live_in(var, entry)
        oracle.is_live_out(var, entry)
        assert [kind for kind, _, _ in oracle.queries] == ["in", "out"]
        assert oracle.queries[0][1] is var


class TestWorkload:
    def test_build_workload_structure(self, small_workload):
        assert small_workload.scale == 3
        assert len(small_workload.procedures) == 3
        assert small_workload.total_blocks == sum(
            proc.num_blocks for proc in small_workload.procedures
        )
        for proc in small_workload.procedures:
            # The retained function is still valid SSA (destruction ran on a copy).
            verify_ssa(proc.function)
            assert proc.function.phis() or not proc.phi_related
            # Recorded queries reference variables and blocks of the function.
            block_names = set(proc.function.blocks)
            variable_ids = {id(v) for v in proc.function.variables()}
            for kind, var, block in proc.queries:
                assert kind in ("in", "out")
                assert block in block_names
                assert id(var) in variable_ids

    def test_workload_total_queries(self, small_workload):
        assert small_workload.total_queries == sum(
            len(proc.queries) for proc in small_workload.procedures
        )


class TestTable1:
    def test_row_statistics_are_consistent(self, small_workload):
        row = table1_row(small_workload)
        assert row.benchmark == "181.mcf"
        assert row.procedures == 3
        assert row.sum_blocks == small_workload.total_blocks
        assert 0 <= row.pct_le_32 <= 100
        assert row.pct_le_32 <= row.pct_le_64
        assert row.pct_uses_le_1 <= row.pct_uses_le_4 <= 100
        assert row.max_blocks >= row.avg_blocks / 2

    def test_compute_and_format_table1(self, small_workload):
        rows = compute_table1(
            profiles=(small_workload.profile,),
            workloads={small_workload.profile.name: small_workload},
        )
        text = format_table1(rows)
        assert "181.mcf" in text
        assert "Table 1" in text


class TestTable2:
    def test_row_measurements_are_positive_and_shaped(self, small_workload):
        row = table2_row(small_workload)
        assert row.procedures == 3
        assert row.native_precompute_ns > 0
        assert row.new_precompute_ns > 0
        assert row.queries == small_workload.total_queries
        assert row.precompute_speedup > 0
        assert row.combined_speedup > 0
        # Individual checker queries are slower than set lookups in Python,
        # exactly as in the paper.
        if row.queries:
            assert row.query_speedup < 1.5

    def test_compute_and_format_table2(self, small_workload):
        rows = compute_table2(
            profiles=(small_workload.profile,),
            workloads={small_workload.profile.name: small_workload},
        )
        text = format_table2(rows)
        assert "181.mcf" in text
        assert "Table 2" in text
        assert "(paper)" in text


class TestCommandLineEntryPoints:
    def test_table1_main_prints_all_benchmarks(self, capsys):
        from repro.bench import table1

        assert table1.main(["1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "176.gcc" in output and "300.twolf" in output

    @pytest.mark.parametrize("module", ["repro.bench.table1", "repro.bench.table2"])
    def test_python_m_runs_without_runtime_warning(self, module):
        """``repro.bench`` must not import its table modules eagerly.

        If it did, ``python -m`` would find the module already in
        ``sys.modules`` and warn about unpredictable behaviour; with
        ``-W error::RuntimeWarning`` that warning is a failure.
        """
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "Table" in result.stdout
