"""``jit``: an optimizer that edits a function while it asks about liveness.

Each function gets a seeded script of :class:`TransformationSession`
steps: one edit followed by a handful of live-in/out queries.  About 70%
of the edits are ``insert_copy``/``add_use``, about 15% add or remove a
branch edge the incremental patcher can absorb, and about 15% split an
edge, which forces a rebuild.  Setup builds each script on a scratch
copy and replays it once under ``TransformationSession(track_dataflow=
True)``, whose data-flow cross-check gives the expected answers; timed
passes replay it on fresh deep copies with the checker alone.  One
operation is one edit or one query.

``vs_dataflow_x`` compares the checker with data-flow liveness kept
current after every edit: each pass also replays :data:`TRACKED`
functions (in turn) under the tracked session, right after their
checker replays, and the tracked replays' extra time is the data-flow
share.
"""

from __future__ import annotations

import copy
import statistics

from repro.core.invalidation import TransformationSession
from repro.core.precompute import LivenessPrecomputation

from livebench.common import (
    Calibration,
    Measurement,
    clock,
    latency_metrics,
    run_passes,
)
from livebench.inputs import CFG_EDITS, Digest, apply_step, jit_script, spec_functions

#: Functions per SPEC profile, rounds of ``EDIT_MIX`` (20 edits each) per
#: function, and queries after each edit.
PER_PROFILE = 3
ROUNDS = 2
QUERIES_PER_STEP = 10
#: Functions per pass also replayed with data-flow liveness tracked.
TRACKED = 3

#: How this workload's time grows with the calibration kernel's (see
#: :mod:`livebench.common`).
SLOWDOWN_EXPONENT = 0.84

#: Program counts every timed pass must reproduce exactly.
COUNTS = ("precomputations", "patches", "fallbacks", "queries")


class JitState:
    def __init__(self, seed: int, tick) -> None:
        self.functions = [fn for _p, fn in spec_functions(seed, PER_PROFILE, "jit", tick=tick)]
        self.scripts = []
        for fn in self.functions:
            tick()
            self.scripts.append(jit_script(seed, fn, ROUNDS, QUERIES_PER_STEP))
        digest = Digest()
        for function, script in zip(self.functions, self.scripts):
            digest.add_function(function)
            digest.add(*script)
        self.digest = digest.hexdigest()
        self.precompute_bits = sum(
            LivenessPrecomputation(fn.build_cfg()).storage_bits() for fn in self.functions
        ) / len(self.functions)
        self.ops = sum(len(script) for script in self.scripts)
        # The oracle replay: the session cross-checks every answer
        # against data-flow liveness and raises on a disagreement.
        self.expected = []
        #: Per op: "q", "instr", "patch" or "rebuild" (what the edit cost).
        self.op_kinds = []
        self.oracle_failures = 0
        #: Program counts of one replay; every timed pass must match them.
        self.expected_counts = dict.fromkeys(COUNTS, 0)
        start = clock()
        for function, script in zip(self.functions, self.scripts):
            tick()
            session = TransformationSession(copy.deepcopy(function), track_dataflow=True)
            names = {var.name: var for var in session.defuse.variables()}
            answers, kinds = [], []
            for op in script:
                patches = session.stats.checker_incremental_updates
                try:
                    answer = apply_step(session, names, op)
                except AssertionError:
                    self.oracle_failures += 1
                    answer = None
                if op[0] == "q":
                    answers.append(answer)
                    kinds.append("q")
                elif op[0] in CFG_EDITS:
                    patched = session.stats.checker_incremental_updates > patches
                    kinds.append("patch" if patched else "rebuild")
                else:
                    kinds.append("instr")
            self.expected.append(answers)
            self.op_kinds.append(kinds)
            self._count(session)
        self.oracle_s = clock() - start

    def _count(self, session: TransformationSession, counts: dict | None = None) -> None:
        counts = self.expected_counts if counts is None else counts
        stats = session.stats
        counts["precomputations"] += stats.checker_precomputations
        counts["patches"] += stats.checker_incremental_updates
        # Every CFG edit the patcher refused paid a precomputation.
        counts["fallbacks"] += stats.checker_precomputations - 1
        counts["queries"] += stats.queries

    def close(self) -> None:
        pass


def setup(seed: int, root: str, index: int, tick) -> JitState:
    return JitState(seed, tick)


def _replay(session: TransformationSession, script) -> tuple[list, int, list[float]]:
    """Run ``script``; returns the answers, the failures and op end times."""
    names = {var.name: var for var in session.defuse.variables()}
    answers, marks = [], [clock()]
    failed = 0
    for op in script:
        try:
            answer = apply_step(session, names, op)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            failed += 1
            answer = None
        marks.append(clock())
        if op[0] == "q":
            answers.append(answer)
    return answers, failed, marks


def _pass(state: JitState, m: Measurement, calibration: Calibration) -> None:
    counts = dict.fromkeys(COUNTS, 0)
    # TRACKED functions per pass also replay under the tracked session,
    # the profiles taken in turn, so that every run of ten passes or more
    # compares the engines on the same functions, however fast it went.
    n = len(state.functions)
    profiles = n // PER_PROFILE
    order = [p * PER_PROFILE + j for j in range(PER_PROFILE) for p in range(profiles)]
    first = len(m.counts) * TRACKED
    tracked = {order[(first + k) % n] for k in range(TRACKED)}
    for index, (function, script, expected, kinds) in enumerate(
        zip(state.functions, state.scripts, state.expected, state.op_kinds)
    ):
        session = TransformationSession(copy.deepcopy(function), track_dataflow=False)
        answers, failed, marks = _replay(session, script)
        checker_s = marks[-1] - marks[0]
        latencies = [end - begin for begin, end in zip(marks, marks[1:])]
        checker_scale = m.record(latencies, checker_s, calibration.next())
        for kind, latency in zip(kinds, latencies):
            m.add(kind, latency)
            m.add(f"{kind}:n", 1)
        failed += sum(a != e for a, e in zip(answers, expected))
        m.failed += failed
        state._count(session, counts)
        if index in tracked:
            session = TransformationSession(copy.deepcopy(function), track_dataflow=True)
            answers, failed, marks = _replay(session, script)
            tracked_s = marks[-1] - marks[0]
            m.other_s += tracked_s
            tracked_scale = m.scale(calibration.next())
            m.sample(index, (checker_s / checker_scale, tracked_s / tracked_scale))
            m.failed += failed + sum(a != e for a, e in zip(answers, expected))
            m.attempted += len(script)
    m.ops += state.ops
    m.attempted += state.ops
    m.counts.append(counts)


def measure(state: JitState, seconds: float) -> Measurement:
    return run_passes(
        seconds,
        lambda m, calibration: _pass(state, m, calibration),
        Measurement(failed=state.oracle_failures, exponent=SLOWDOWN_EXPONENT),
    )


def end_to_end(state: JitState, m: Measurement) -> dict:
    metrics = latency_metrics(m)
    # The tracked replay pays for the checker *and* for data-flow
    # liveness recomputed after every edit.  Summed over the functions,
    # each at its median, like Table 2: a median over functions followed
    # the seed's smallest functions, whose ratios vary most.
    checker_s = tracked_s = 0.0
    for samples in m.series.values():
        checker_s += statistics.median(c for c, _t in samples)
        tracked_s += statistics.median(t for _c, t in samples)
    metrics["vs_dataflow_x"] = tracked_s / checker_s - 1.0
    return metrics


def report(state: JitState, m: Measurement) -> dict:
    return {
        "oracle_replay_s": state.oracle_s,
        "oracle_failures": state.oracle_failures,
        "ops_per_pass": state.ops,
    }


def _mean_us(m: Measurement, kind: str) -> float:
    n = m.sums.get(f"{kind}:n", 0)
    return m.sums.get(kind, 0.0) / n * 1e6 if n else 0.0


def per_layer(state: JitState, untraced: Measurement, traced, totals, tracer) -> dict:
    patches = untraced.sums.get("patch:n", 0)
    rebuilds = untraced.sums.get("rebuild:n", 0)
    return {
        "core.precompute_bits": state.precompute_bits,
        "core.patch_us": _mean_us(untraced, "patch"),
        "core.rebuild_us": _mean_us(untraced, "rebuild"),
        "core.instr_edit_us": _mean_us(untraced, "instr"),
        "core.patch_ratio": patches / (patches + rebuilds) if patches + rebuilds else 0.0,
    }
