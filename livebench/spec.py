"""``spec``: the paper's Table 2 setting, closed loop, one thread.

For every function of a seeded SPEC-shaped population the checker is
built from scratch (``FastLivenessChecker(fn).prepare()`` plus one query
plan per distinct queried variable, charged to precompute) and the
function's recorded SSA-destruction stream is replayed.  Data-flow
liveness restricted to the φ-related variables, as in LAO, runs the same
streams in alternating passes; its answers, computed once in setup, are
the oracle.  One operation is one function analysed by the checker.
"""

from __future__ import annotations

from repro.core import FastLivenessChecker
from repro.core.precompute import LivenessPrecomputation
from repro.liveness.dataflow import DataflowLiveness

from livebench.common import (
    CHUNK_S,
    Calibration,
    Measurement,
    clock,
    latency_metrics,
    operation_latencies,
    run_passes,
)
from livebench.inputs import Digest, answer_all, spec_procedures

#: Block-count strata per SPEC profile (ten profiles) and programs per
#: stratum: two programs share each target size, so the slowest functions,
#: which set op_p99_us, are never a single draw.
STRATA = 8
DRAWS = 2
#: How this workload's time grows with the calibration kernel's (see
#: :mod:`livebench.common`).
SLOWDOWN_EXPONENT = 0.88


class SpecState:
    def __init__(self, seed: int, tick) -> None:
        self.procedures = spec_procedures(seed, STRATA, "spec", DRAWS, tick)
        digest = Digest()
        self.expected = []
        self.distinct = []
        bits = 0
        for proc in self.procedures:
            tick()
            digest.add(proc.profile.name)
            digest.add_function(proc.function)
            digest.add_queries(proc.queries)
            self.expected.append(answer_all(_dataflow(proc), proc.queries))
            self.distinct.append(list(dict.fromkeys(var for _k, var, _b in proc.queries)))
            bits += LivenessPrecomputation(proc.function.build_cfg()).storage_bits()
        self.digest = digest.hexdigest()
        self.precompute_bits = bits / len(self.procedures)
        self.queries = sum(len(proc.queries) for proc in self.procedures)

    def close(self) -> None:
        pass


def _dataflow(proc) -> DataflowLiveness:
    engine = DataflowLiveness(proc.function, variables=proc.phi_related)
    engine.prepare()
    return engine


def setup(seed: int, root: str, index: int, tick) -> SpecState:
    return SpecState(seed, tick)


def _checker_pass(state: SpecState, m: Measurement, calibration: Calibration) -> None:
    true_answers = 0
    failed = 0
    chunk = []
    for proc, distinct, expected in zip(state.procedures, state.distinct, state.expected):
        start = clock()
        checker = FastLivenessChecker(proc.function)
        checker.prepare()
        plan = checker.plans.plan
        for var in distinct:
            plan(var)
        mid = clock()
        answers = answer_all(checker, proc.queries)
        end = clock()
        chunk.append(end - start)
        if sum(chunk) >= CHUNK_S:
            m.record(chunk, sum(chunk), calibration.next())
            chunk = []
        name = proc.profile.name
        m.add(f"{name}:checker_pre", mid - start)
        m.add(f"{name}:checker_query", end - mid)
        if answers != expected:
            failed += 1
        true_answers += sum(answers)
    if chunk:
        m.record(chunk, sum(chunk), calibration.next())
    m.ops += len(state.procedures)
    m.attempted += len(state.procedures)
    m.failed += failed
    m.counts.append(
        {
            "precomputations": len(state.procedures),
            "queries": state.queries,
            "true_answers": true_answers,
        }
    )


def _dataflow_pass(state: SpecState, m: Measurement, calibration: Calibration) -> None:
    baseline = m.baseline
    chunk = []
    for proc, expected in zip(state.procedures, state.expected):
        start = clock()
        engine = _dataflow(proc)
        mid = clock()
        answers = answer_all(engine, proc.queries)
        end = clock()
        chunk.append(end - start)
        if sum(chunk) >= CHUNK_S:
            baseline.record(chunk, sum(chunk), calibration.next())
            chunk = []
        m.other_s += end - start
        m.add("dataflow_pre", mid - start)
        m.add("dataflow_query", end - mid)
        name = proc.profile.name
        m.add(f"{name}:dataflow_pre", mid - start)
        m.add(f"{name}:dataflow_query", end - mid)
        if answers != expected:
            m.failed += 1
    if chunk:
        baseline.record(chunk, sum(chunk), calibration.next())
    baseline.ops += len(state.procedures)
    m.attempted += len(state.procedures)


def measure(state: SpecState, seconds: float) -> Measurement:
    def one_pass(m: Measurement, calibration: Calibration) -> None:
        _checker_pass(state, m, calibration)
        _dataflow_pass(state, m, calibration)

    baseline = Measurement(exponent=SLOWDOWN_EXPONENT)
    return run_passes(
        seconds, one_pass, Measurement(exponent=SLOWDOWN_EXPONENT, baseline=baseline)
    )


def end_to_end(state: SpecState, m: Measurement) -> dict:
    metrics = latency_metrics(m)
    # The paper's combined speed-up: data-flow time over checker time on
    # the same functions and streams, each function at its median.
    metrics["vs_dataflow_x"] = sum(operation_latencies(m.baseline)) / sum(operation_latencies(m))
    return metrics


def table2(state: SpecState, m: Measurement) -> dict:
    """Per-profile speed-ups (data-flow ÷ checker) beside the paper's."""
    rows = {}
    for profile in dict.fromkeys(proc.profile for proc in state.procedures):
        s = {key.split(":", 1)[1]: value for key, value in m.sums.items()
             if key.startswith(profile.name + ":")}
        rows[profile.name] = {
            "precompute_x": s["dataflow_pre"] / s["checker_pre"],
            "query_x": s["dataflow_query"] / s["checker_query"],
            "combined_x": (s["dataflow_pre"] + s["dataflow_query"])
            / (s["checker_pre"] + s["checker_query"]),
            "paper_precompute_x": profile.precompute_speedup,
            "paper_query_x": profile.query_speedup,
            "paper_combined_x": profile.combined_speedup,
        }
    return rows


def report(state: SpecState, m: Measurement) -> dict:
    return {"table2": table2(state, m)}


def per_layer(state: SpecState, untraced: Measurement, traced: Measurement, totals, tracer) -> dict:
    passes = len(untraced.counts)
    metrics = {
        "core.precompute_bits": state.precompute_bits,
        "liveness.dataflow_precompute_us": untraced.sums["dataflow_pre"] * 1e6
        / (passes * len(state.procedures)),
        "liveness.dataflow_query_ns": untraced.sums["dataflow_query"] * 1e9
        / (passes * state.queries),
    }
    for name, row in table2(state, untraced).items():
        for key in ("precompute_x", "query_x", "combined_x"):
            metrics[f"table2.{name}.{key}"] = row[key]
    return metrics
