"""Benchmark harness: regenerate the paper's tables and figures.

Each module computes the rows of one paper artefact on the synthetic
SPEC-shaped workload and returns them together with the paper's published
values, so the pytest-benchmark drivers under ``benchmarks/`` (and the
``python -m repro.bench.table1`` / ``table2`` entry points) can print a
side-by-side comparison.  See EXPERIMENTS.md for the recorded results.

The package re-exports nothing: importing a table module eagerly here
would put it in ``sys.modules`` before ``python -m`` runs it as
``__main__``, which makes the interpreter warn about unpredictable
behaviour.  Import the table modules themselves.
"""
