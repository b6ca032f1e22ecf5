"""``serve``: compiler-server traffic over the whole serving stack.

A module of SPEC-shaped functions sits in a :class:`ShardedClient` (8
shards, capacity above the module size, so every checker stays warm
after setup) behind ``WireServer(workers=1)``, with a ``Durability`` WAL
(``fsync="never"``) attached through the client's observer hook.  One
caller thread keeps a fixed window of :data:`WINDOW` frames outstanding
on one connection (closed loop).  The mix is mostly bin2 ``LivenessQuery``
frames, some ``BatchLiveness`` and ``LiveSetRequest``, a share of
JSON-framed queries and about 1% ``NotifyRequest(instructions)`` writes,
which drop query plans and def–use chains and append to the WAL.  One
operation is one request, timed from submit to response.

Expected answers come from data-flow liveness in setup.  A warm-up pass
checks every decoded response against them and keeps the response bytes;
timed passes compare bytes and decode only what differs.
"""

from __future__ import annotations

import os
import shutil
import statistics
from collections import deque

from repro.api.codec import (
    StringInterner,
    decode_request_bin2,
    decode_request_json,
    decode_response_bin2,
    encode_request_bin2,
    encode_request_json,
    encode_response_bin2,
    encode_response_json,
    is_bin2_frame,
)
from repro.api.protocol import (
    BatchLiveness,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    NotifyRequest,
    StatsRequest,
    decode_response,
)
from repro.concurrent import ShardedClient, WireServer
from repro.core import FastLivenessChecker
from repro.core.precompute import LivenessPrecomputation
from repro.liveness.dataflow import DataflowLiveness
from repro.persist.durability import Durability

from livebench.common import Measurement, clock, latency_metrics, run_passes
from livebench.inputs import Digest, answer_all, rng_for, spec_procedures

#: Functions per SPEC profile, requests per pass, frames in flight, shards.
#: With more than one frame in flight the caller wakes for a response
#: while the worker still holds the GIL for the next frame, and waits up
#: to the 5 ms switch interval for it: the tail then measures the
#: interpreter's scheduler (p99 swung 1.5-4 ms between passes of one
#: seed with 8 in flight).  With one, the caller sleeps until its
#: response is ready and a request's latency is its own path through
#: the stack plus one thread hand-off.
PER_PROFILE = 8
REQUESTS = 6000
WINDOW = 1
#: Requests between two runs of the calibration kernel (about
#: ``common.CHUNK_S`` of work), and how this workload's time grows with
#: the kernel's (see :mod:`livebench.common`).
CHUNK = 64
SLOWDOWN_EXPONENT = 0.78
SHARDS = 8
#: Queries per ``BatchLiveness`` request.
BATCH = 8
#: Request kinds and their percentage of the stream.
MIX = (("query", 80), ("json", 9), ("batch", 6), ("live_set", 4), ("notify", 1))
#: Queries the layer ladder times on every rung, and how often.
LADDER_SAMPLE = 1000
LADDER_REPEATS = 7


class ServeState:
    def __init__(self, seed: int, root: str, index: int, tick) -> None:
        procedures = [
            p for p in spec_procedures(seed, PER_PROFILE, "serve", tick=tick) if p.queries
        ]
        self.functions = [proc.function for proc in procedures]
        digest = Digest()
        oracles = {}
        ratios = []
        for proc in procedures:
            tick()
            digest.add_function(proc.function)
            start = clock()
            oracle = DataflowLiveness(proc.function)
            oracle.prepare()
            answer_all(oracle, proc.queries)
            mid = clock()
            checker = FastLivenessChecker(proc.function)
            checker.prepare()
            answer_all(checker, proc.queries)
            ratios.append((mid - start) / (clock() - mid))
            oracles[proc.function.name] = oracle
        #: Data-flow ÷ checker, cold, on each function's query stream: the
        #: median over functions, so one variable-heavy function cannot
        #: decide it.
        self.dataflow_probe = statistics.median(ratios)
        self.precompute_bits = sum(
            LivenessPrecomputation(fn.build_cfg()).storage_bits() for fn in self.functions
        ) / len(self.functions)
        self._build_requests(seed, procedures, oracles, digest)
        self.digest = digest.hexdigest()

        self.directory = os.path.join(root, ".livebench_tmp", f"wal-{os.getpid()}-{index}")
        shutil.rmtree(self.directory, ignore_errors=True)
        self.durability = Durability(self.directory, fsync="never")
        self.client = ShardedClient(
            self.functions,
            shards=SHARDS,
            capacity=len(self.functions) + SHARDS,
            observer=self.durability.observer,
        )
        self.durability.attach(self.client)
        self.server = WireServer(
            self.client.dispatch_json,
            workers=1,
            obs=self.client.obs,
            bytes_session=self.client.bytes_session(),
        )
        self.server.start()
        self.setup_failures = self._warm_up()

    def _build_requests(self, seed, procedures, oracles, digest) -> None:
        """The request stream: frames plus what each one must answer."""
        rng = rng_for(seed, "serve-mix")
        interner = StringInterner()
        self.frames: list[bytes] = []
        self.expected: list[object] = []
        self.kinds: list[str] = []
        #: ``(request, answer)`` of the bin2 single queries (the ladder's).
        self.single_queries: list[tuple] = []

        def query():
            proc = rng.choice(procedures)
            kind, var, block = rng.choice(proc.queries)
            oracle = oracles[proc.function.name]
            value = oracle.is_live_in(var, block) if kind == "in" else oracle.is_live_out(var, block)
            name = proc.function.name
            return LivenessQuery(function=name, kind=kind, variable=var.name, block=block), value

        # Exact shares of every request kind, in a seeded order; writes and
        # live-set requests visit the functions in turn, so the heavy
        # requests weigh the same in every seed's stream.
        kinds = [kind for kind, share in MIX for _ in range(REQUESTS * share // 100)]
        rng.shuffle(kinds)
        turns = {"notify": 0, "live_set": 0}
        live_sets = {}
        for kind in kinds:
            if kind in turns:
                function = self.functions[turns[kind] % len(self.functions)]
                turns[kind] += 1
            if kind == "notify":
                request, expected = NotifyRequest(function=function.name), None
            elif kind == "batch":
                pairs = [query() for _ in range(BATCH)]
                request = BatchLiveness(queries=tuple(q for q, _v in pairs))
                expected = tuple(v for _q, v in pairs)
            elif kind == "live_set":
                block = rng.choice([b.name for b in function])
                live_kind = rng.choice(("in", "out"))
                if function.name not in live_sets:
                    live_sets[function.name] = oracles[function.name].live_sets()
                live = live_sets[function.name]
                members = (live.live_in if live_kind == "in" else live.live_out)[block]
                request = LiveSetRequest(function=function.name, block=block, kind=live_kind)
                expected = tuple(sorted(var.name for var in members))
            else:
                request, expected = query()
            if kind == "json":
                frame = encode_request_json(request)
            else:
                frame = encode_request_bin2(request, interner)
            if kind == "query":
                self.single_queries.append((request, expected))
            digest.add(frame)
            self.frames.append(frame)
            self.expected.append(expected)
            self.kinds.append(kind)

    def answer_ok(self, index: int, raw: bytes) -> bool:
        """Does ``raw`` carry exactly the oracle's answer for ``index``?"""
        try:
            response = decode_response_bin2(raw) if is_bin2_frame(raw) else decode_response(raw)
        except Exception:  # noqa: BLE001 - an undecodable answer is a failure
            return False
        if response.error is not None:
            return False
        kind = self.kinds[index]
        if kind == "notify":
            return True
        if kind == "batch":
            return tuple(response.values) == self.expected[index]
        if kind == "live_set":
            return tuple(response.variables) == self.expected[index]
        return response.value == self.expected[index]

    def _warm_up(self) -> int:
        """One untimed pass: builds every checker, checks every answer."""
        responses = self.run_stream(self.frames)
        failures = 0
        self.expected_bytes: list[bytes | None] = []
        for index, raw in enumerate(responses):
            if not self.answer_ok(index, raw):
                failures += 1
            self.expected_bytes.append(None if self.kinds[index] == "notify" else raw)
        return failures

    def run_stream(self, frames, m: Measurement | None = None, calibration=None) -> list[bytes]:
        """Push ``frames`` with ``WINDOW`` in flight; return the responses.

        With a measurement the frames go in chunks of :data:`CHUNK`, and
        every chunk is recorded with its slowness.
        """
        if m is None:
            return self._window(frames, [])
        responses = []
        for first in range(0, len(frames), CHUNK):
            latencies = []
            begin = clock()
            responses.extend(self._window(frames[first:first + CHUNK], latencies))
            m.record(latencies, clock() - begin, calibration.next())
        return responses

    def _window(self, frames, latencies: list) -> list[bytes]:
        submit = self.server.submit
        responses = []
        pending: deque = deque()
        total = len(frames)
        sent = 0
        while sent < total or pending:
            while sent < total and len(pending) < WINDOW:
                started = clock()
                pending.append((started, submit(frames[sent])))
                sent += 1
            started, ticket = pending.popleft()
            responses.append(ticket.result(60.0))
            latencies.append(clock() - started)
        return responses

    def counts(self) -> dict:
        stats = self.client.service.stats
        return {
            "cache_hits": int(stats.hits),
            "cache_misses": int(stats.misses),
            "queries": int(stats.queries),
            "instruction_invalidations": int(stats.instruction_invalidations),
            "wal_appends": self.durability.last_seq,
        }

    def close(self) -> None:
        self.server.stop()
        self.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.directory))
        except OSError:
            pass  # another set-up's directory is still there


def setup(seed: int, root: str, index: int, tick) -> ServeState:
    return ServeState(seed, root, index, tick)


def _pass(state: ServeState, m: Measurement, calibration) -> None:
    before = state.counts()
    responses = state.run_stream(state.frames, m, calibration)
    after = state.counts()
    for index, (raw, expected) in enumerate(zip(responses, state.expected_bytes)):
        if raw != expected and not state.answer_ok(index, raw):
            m.failed += 1
    m.ops += len(responses)
    m.attempted += len(responses)
    m.counts.append({key: after[key] - before[key] for key in after})


def measure(state: ServeState, seconds: float) -> Measurement:
    return run_passes(
        seconds, lambda m, calibration: _pass(state, m, calibration),
        Measurement(failed=state.setup_failures, exponent=SLOWDOWN_EXPONENT),
    )


def end_to_end(state: ServeState, m: Measurement) -> dict:
    metrics = latency_metrics(m)
    metrics["vs_dataflow_x"] = state.dataflow_probe
    return metrics


def report(state: ServeState, m: Measurement) -> dict:
    return {
        "requests_per_pass": len(state.frames),
        "mix": {kind: state.kinds.count(kind) for kind in sorted(set(state.kinds))},
        "window": WINDOW,
        "fast_lane": "off: the durability observer routes every frame through full dispatch",
    }


# ----------------------------------------------------------------------
# Traced-run extras: the layer ladder, codec costs, program histograms
# ----------------------------------------------------------------------
def _per_call_ns(calls) -> float:
    """Mean cost of one call in ``calls``, in nanoseconds."""
    start = clock()
    for call, args in calls:
        call(*args)
    return (clock() - start) / len(calls) * 1e9


def _interleaved(rungs: dict) -> dict:
    """Median over ``LADDER_REPEATS`` rounds of every rung, rungs taken in turn.

    Taking the rungs round-robin exposes each to the same machine
    conditions, so a slow moment cannot reorder the ladder.
    """
    samples = {name: [] for name in rungs}
    for _ in range(LADDER_REPEATS):
        for name, measure in rungs.items():
            samples[name].append(measure())
    return {name: statistics.median(values) for name, values in samples.items()}


def ladder(state: ServeState) -> dict:
    """Per-query cost of one liveness query on every rung of the stack."""
    sample = state.single_queries[:LADDER_SAMPLE]
    sharded = state.client.service
    kernel, service, shard, dispatch, frames = [], [], [], [], []
    session = state.client.bytes_session()
    interner = StringInterner()
    for request, _expected in sample:
        name = request.function.name
        var = sharded.function(name).variable_by_name(request.variable)
        owner = sharded.service_for(name)
        live_in = request.kind == "in"
        batch = owner.checker(name).batch
        kernel.append((batch.is_live_in if live_in else batch.is_live_out, (var, request.block)))
        service.append((owner.is_live_in if live_in else owner.is_live_out, (name, var, request.block)))
        shard.append((sharded.is_live_in if live_in else sharded.is_live_out, (name, var, request.block)))
        dispatch.append((state.client.dispatch, (request,)))
        frames.append((session.dispatch_frame, (encode_request_bin2(request, interner),)))
    stream = [frame for frame, kind in zip(state.frames, state.kinds) if kind == "query"]
    stream = stream[:LADDER_SAMPLE]

    def pooled() -> float:
        start = clock()
        state.run_stream(stream)
        return (clock() - start) / len(stream) * 1e9

    return _interleaved(
        {
            "ladder.kernel_ns": lambda: _per_call_ns(kernel),
            "service.query_ns": lambda: _per_call_ns(service),
            "concurrent.sharded_query_ns": lambda: _per_call_ns(shard),
            "api.dispatch_ns": lambda: _per_call_ns(dispatch),
            "api.frame_bin2_ns": lambda: _per_call_ns(frames),
            "ladder.pooled_ns": pooled,
        }
    )


RUNGS = (
    "ladder.kernel_ns",
    "service.query_ns",
    "concurrent.sharded_query_ns",
    "api.dispatch_ns",
    "api.frame_bin2_ns",
    "ladder.pooled_ns",
)
INCREMENTS = (
    "ladder.service_inc_ns",
    "ladder.sharded_inc_ns",
    "ladder.dispatch_inc_ns",
    "ladder.frame_inc_ns",
    "ladder.pooled_inc_ns",
)


def codec_costs(state: ServeState) -> dict:
    """Per-message cost of each codec's public entry points."""
    sample = state.single_queries[:LADDER_SAMPLE]
    bin2 = [encode_request_bin2(request) for request, _v in sample]
    json_frames = [encode_request_json(request) for request, _v in sample]
    responses = [LivenessResponse(value=value) for _r, value in sample]
    session = state.client.bytes_session()
    return _interleaved(
        {
            "api.bin2_decode_ns": lambda: _per_call_ns([(decode_request_bin2, (f,)) for f in bin2]),
            "api.bin2_encode_ns": lambda: _per_call_ns(
                [(encode_response_bin2, (r,)) for r in responses]
            ),
            "api.json_decode_ns": lambda: _per_call_ns(
                [(decode_request_json, (f,)) for f in json_frames]
            ),
            "api.json_encode_ns": lambda: _per_call_ns(
                [(encode_response_json, (r,)) for r in responses]
            ),
            "api.frame_json_ns": lambda: _per_call_ns(
                [(session.dispatch_frame, (f,)) for f in json_frames]
            ),
        }
    )


def _histogram_mean(histograms: dict, name: str, scale: float, **labels) -> float:
    count = total = 0
    for key, body in histograms.items():
        if key.split("{", 1)[0] != name:
            continue
        if any(f"{k}={v}" not in key for k, v in labels.items()):
            continue
        count += body["count"]
        total += body["sum"]
    return total / count * scale if count else 0.0


def program_stats(state: ServeState) -> dict:
    """The program's own histograms, read through one ``StatsRequest``."""
    raw = state.run_stream([encode_request_json(StatsRequest())])[0]
    histograms = decode_response(raw).snapshot["histograms"]
    return {
        "xcheck.lock_wait_ns": _histogram_mean(histograms, "lock.read.wait_seconds", 1e9),
        "xcheck.queue_wait_us": _histogram_mean(histograms, "wire.queue_seconds", 1e6),
        "xcheck.bin2_decode_ns": _histogram_mean(histograms, "wire.decode_seconds", 1e9, codec="bin2"),
        "xcheck.bin2_encode_ns": _histogram_mean(histograms, "wire.encode_seconds", 1e9, codec="bin2"),
    }


def extras(state: ServeState) -> dict:
    """Ladder, codec and program-histogram metrics (untraced state)."""
    metrics = ladder(state)
    metrics.update(codec_costs(state))
    metrics.update(program_stats(state))
    for lower, upper, increment in zip(RUNGS, RUNGS[1:], INCREMENTS):
        metrics[increment] = metrics[upper] - metrics[lower]
    metrics["ladder.monotone"] = float(all(metrics[i] >= 0 for i in INCREMENTS))
    return metrics


def per_layer(state: ServeState, untraced: Measurement, traced: Measurement, totals, tracer) -> dict:
    counts = untraced.counts[0]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    complete_calls, complete_ns, _own = totals.get("api.complete", (0, 0, 0))
    wait_us = 0.0
    if complete_calls and traced.latencies:
        mean_latency_us = sum(traced.latencies) / len(traced.latencies) * 1e6
        wait_us = mean_latency_us - complete_ns / complete_calls / 1000.0
    return {
        "core.precompute_bits": state.precompute_bits,
        "service.hit_ratio": counts["cache_hits"] / lookups if lookups else 0.0,
        "concurrent.pool_wait_us": wait_us,
    }
