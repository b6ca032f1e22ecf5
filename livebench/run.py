"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 livebench/run.py --workload spec --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload twice (``setup_s`` is the
median), measures for ``--seconds`` and prints every end-to-end metric
named in ``BENCHMARK.json``.  Times are reported at reference machine
speed (see :mod:`livebench.common`); the report line also gives them as
plain wall-clock values.  ``--trace 1`` measures half the time with
the program as is and half with every layer's public entry points
wrapped by :mod:`livebench.tracer`, and prints every per-layer metric;
the difference between the halves is ``obs.trace_overhead``.

Every answer is checked against an oracle other than the checker under
test, outside the timed region.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is a JSON report with the input digest, the environment,
the program counts of one pass, ``fail_ratio`` and workload extras
(Table 2 for ``spec``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spec", "serve", "jit")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tracer_metrics(tracer_module, tracer, totals, untraced, traced) -> dict:
    """Per-layer metrics every workload derives from the trace alone."""
    mean_us = tracer_module.mean_us
    metrics = {
        "cfg.build_cfg_us": mean_us(totals, "cfg.build_cfg"),
        "cfg.dfs_us": mean_us(totals, "cfg.dfs"),
        "cfg.dominators_us": mean_us(totals, "cfg.dominators"),
        "core.reach_us": mean_us(totals, "core.reach"),
        "core.targets_us": mean_us(totals, "core.targets"),
        "core.precompute_us": mean_us(totals, "core.precompute"),
        "core.lower_us": mean_us(totals, "core.precompute", inclusive=False),
        "ssa.defuse_us": mean_us(totals, "ssa.defuse"),
        "core.plans_us": mean_us(totals, "core.plans"),
        "core.query_ns": mean_us(totals, "core.query", inclusive=False) * 1000.0,
        "service.notify_us": mean_us(totals, "service.notify"),
        "concurrent.lock_wait_ns": mean_us(totals, "concurrent.lock_acquire") * 1000.0,
        "persist.wal_append_us": mean_us(totals, "persist.wal_append"),
    }
    untraced_op = untraced.busy_ref_s / untraced.ops
    traced_op = traced.busy_ref_s / traced.ops
    metrics["obs.trace_overhead"] = traced_op / untraced_op - 1.0
    self_us = tracer_module.layer_self_us(tracer, totals, traced.ops)
    for layer, value in self_us.items():
        metrics[f"self.{layer}_us"] = value
    traced_all = (traced.busy_s + traced.other_s) / traced.ops
    metrics["self.rest_us"] = traced_all * 1e6 - sum(self_us.values())
    for key, value in untraced.counts[0].items():
        metrics[f"count.{key}"] = value
    return metrics


def _traced(workload, args, report: dict, problems: list[str]):
    """Half the time as is, half with the layer wrappers recording."""
    from livebench import tracer as tracer_module
    from livebench.common import untimed

    state = workload.setup(args.seed, ROOT, 0, untimed)
    digests = [state.digest]
    try:
        m = workload.measure(state, args.seconds / 2)
        extras = workload.extras(state) if hasattr(workload, "extras") else {}
    finally:
        state.close()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        state = workload.setup(args.seed, ROOT, 1, untimed)
        digests.append(state.digest)
        try:
            tracer.recording = True
            traced = workload.measure(state, args.seconds / 2)
        finally:
            tracer.recording = False
            state.close()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    metrics = _tracer_metrics(tracer_module, tracer, totals, m, traced)
    metrics.update(workload.per_layer(state, m, traced, totals, tracer))
    metrics.update(extras)
    if extras and extras.get("ladder.monotone") != 1.0:
        problems.append("serve ladder is not monotone")
    report["trace_calls"] = {name: row[0] for name, row in sorted(totals.items())}
    m.failed += traced.failed
    m.attempted += traced.attempted
    return state, m, metrics, digests


def _untraced(workload, args, report: dict):
    """``SETUPS`` set-ups, then one measurement of ``--seconds``."""
    from livebench.common import SetupClock, latency_metrics, rss_peak_mb, slowness

    setup_s, digests, probes = [], [], []
    state = None
    slowness()  # the first call runs cold
    for index in range(SETUPS):
        if state is not None:
            state.close()
        timer = SetupClock(workload.SLOWDOWN_EXPONENT)
        state = workload.setup(args.seed, ROOT, index, timer.tick)
        timer.stop()
        setup_s.append((timer.wall_s, timer.reference_s))
        digests.append(state.digest)
        probes.append(getattr(state, "dataflow_probe", None))
    if probes[0] is not None:
        # A data-flow timing taken during set-up is noisy alone: use the
        # median over the set-ups, like setup_s.
        state.dataflow_probe = statistics.median(probes)
    try:
        m = workload.measure(state, args.seconds)
        metrics = workload.end_to_end(state, m)
    finally:
        state.close()
    metrics["setup_s"] = statistics.median(scaled for _wall, scaled in setup_s)
    metrics["rss_peak_mb"] = rss_peak_mb()
    report["wall_clock"] = dict(
        latency_metrics(m, at_reference=False),
        setup_s=statistics.median(wall for wall, _scaled in setup_s),
    )
    report["slowness"] = statistics.median(m.slowness)
    return state, m, metrics, digests


def run(args) -> tuple[dict, dict, list[str], dict]:
    """Set up, measure and check one workload.

    Returns the metrics, the attempted/failed tally, the problems found
    and the report.
    """
    workload = importlib.import_module(f"livebench.{args.workload}")
    problems: list[str] = []
    report: dict = {}
    if args.trace:
        state, m, metrics, digests = _traced(workload, args, report, problems)
    else:
        state, m, metrics, digests = _untraced(workload, args, report)
    if len(set(digests)) != 1:
        problems.append(f"inputs differ between set-ups of one seed: {digests}")
    if not m.counts_repeat:
        problems.append("program counts differ between passes")
    expected_counts = getattr(state, "expected_counts", None)
    if expected_counts is not None and m.counts[0] != expected_counts:
        problems.append(f"pass counts {m.counts[0]} differ from the oracle's {expected_counts}")
    report.update(
        digest=digests[0],
        passes=len(m.counts),
        counts=m.counts[0],
        counts_repeat=m.counts_repeat,
        fail_ratio=m.failed / m.attempted,
        **workload.report(state, m),
    )
    return metrics, {"attempted": m.attempted, "failed": m.failed}, problems, report


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(source, "repro")) or not os.path.isfile(spec_path):
        print(f"livebench: no repro sources under {source}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    with open(spec_path, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    from livebench.common import environment, pin_to_one_core

    allowed_cores = pin_to_one_core()
    metrics, tally, problems, report = run(args)
    unknown = sorted(set(metrics) - {item["name"] for item in declared})
    if unknown:
        problems.append(f"metrics missing from BENCHMARK.json: {unknown}")
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        problems=problems,
        environment=dict(environment(ROOT), allowed_cores=allowed_cores),
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not problems and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            item["name"]: {"value": float(metrics.get(item["name"], 0.0)), "unit": item["unit"]}
            for item in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
