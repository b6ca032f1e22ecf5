"""Shared measurement helpers: the timed loop, percentiles, environment.

The benchmark runs on shared machines whose speed swings by 2-3x,
often within a fraction of a second (neighbours on the same host).  A
fixed pure-Python calibration kernel that touches nothing of the
program therefore runs between short chunks of timed work, a few
milliseconds each: the kernel's time against :data:`REFERENCE_KERNEL_S`
is the machine's *slowness*, a chunk's slowness is the mean of the
kernel runs around it, and timing metrics are reported at reference
speed.  Kernel runs a whole pass apart miss most swings: one
function's checker time, calibrated that way, spread twice as wide as
with a kernel run around every function.

The program slows by less than the kernel when the machine is slow:
its time grows as ``slowness ** exponent``, with an exponent of about
0.88 for ``spec``, 0.84 for ``jit`` and 0.78 for ``serve`` (2-vCPU
x86-64 VM, CPython 3.11, slowness between 1 and 2.2; from runs spent
mostly at full and mostly at half speed, since a fit within operations
reads 0.1-0.15 lower when the kernel times are noisy).  Each workload's ``SLOWDOWN_EXPONENT`` holds its exponent, and a
chunk's times are divided by its slowness to that power; scaling by
the slowness itself read ``spec`` 12% and ``serve`` 17% fast in runs
spent mostly at half speed.  On a machine where the kernel takes
exactly the reference time the values are the plain wall-clock ones;
the report line carries those too.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

clock = time.perf_counter

#: Seconds the (warm) calibration kernel takes at reference speed: about
#: its time on an unloaded core of a 2-vCPU x86-64 VM under CPython 3.11.
REFERENCE_KERNEL_S = 0.0021


def _kernel() -> int:
    """Dict, list and big-int work in the proportions of the program's loops."""
    table: dict[int, int] = {}
    masks = []
    acc = 0
    for i in range(7000):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        mask = (i * 2654435761) & 0xFFFFFFFF
        if mask & (1 << (i & 31)):
            acc ^= mask
        masks.append(mask >> 3)
    return acc + len(masks) + len(table)


def _kernel_slowness(runs: int) -> float:
    """The best of ``runs`` kernel times over the reference (> 1: slower).

    The garbage collector is held off, so that a collection the
    program's allocations made due is not charged to the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(runs):
            start = clock()
            _kernel()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best / REFERENCE_KERNEL_S


def slowness() -> float:
    """This moment's slowness: the best of three kernel runs."""
    return _kernel_slowness(3)


#: Timed work between two calibration-kernel runs, in seconds: short
#: enough that the machine rarely changes speed within it, long enough
#: that the kernel costs less than the work.
CHUNK_S = 0.003


class Calibration:
    """The slowness of consecutive chunks of timed work.

    The kernel runs once when the calibration starts and once at every
    :meth:`next`; a chunk's slowness is given by the runs before and
    after it.
    """

    def __init__(self) -> None:
        _kernel_slowness(1)  # the first run is cold
        self._last = _kernel_slowness(1)

    def next(self) -> tuple[float, float]:
        """The kernel's slowness before and after the chunk that just ended."""
        before, self._last = self._last, _kernel_slowness(1)
        return before, self._last


#: Set-up work between two calibration-kernel runs, in seconds.
TICK_S = 0.05


def untimed() -> None:
    """The ``tick`` of a set-up no :class:`SetupClock` times."""


class SetupClock:
    """Set-up time, as measured and at reference speed.

    Set-up code calls :meth:`tick` between units of work (a function
    generated, an oracle built).  Every :data:`TICK_S` of work the
    kernel runs, and the segment before it is scaled like a chunk of
    timed work; kernel runs are not counted.  Set-up takes seconds, long
    enough for the machine to change speed several times.
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.wall_s = self.reference_s = 0.0
        self._slowness = slowness()
        self._start = clock()

    def tick(self, last: bool = False) -> None:
        now = clock()
        if now - self._start < TICK_S and not last:
            return
        after = _kernel_slowness(1)
        segment = now - self._start
        self.wall_s += segment
        self.reference_s += segment / ((self._slowness + after) / 2) ** self.exponent
        self._slowness = after
        self._start = clock()

    def stop(self) -> None:
        """Count the last segment."""
        self.tick(last=True)


@dataclass
class Measurement:
    """What one timed region of a workload produced."""

    #: Operations completed and the seconds they took (sum of chunk
    #: times), as measured and at reference speed.
    ops: int = 0
    busy_s: float = 0.0
    busy_ref_s: float = 0.0
    #: Timed work beside the operations (the data-flow passes of ``spec``).
    other_s: float = 0.0
    #: Per-operation latency samples in seconds, as measured and at
    #: reference speed.
    latencies: array = field(default_factory=lambda: array("d"))
    reference: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    #: Program counts per pass; every pass must report the same ones.
    counts: list[dict] = field(default_factory=list)
    #: Workload-specific sums (engine times, per-kind op times, …).
    sums: dict = field(default_factory=dict)
    #: ``(ops, latency samples, busy_s, other_s, busy_ref_s)`` after every pass.
    marks: list[tuple] = field(default_factory=list)
    #: Workload-specific samples kept one by one (per-function times, …).
    series: dict = field(default_factory=dict)
    #: The mean slowness of every calibrated chunk.
    slowness: list[float] = field(default_factory=list)
    #: How the workload's time grows with the kernel's: a chunk run at
    #: slowness ``s`` is scaled by ``s ** exponent`` (each workload's
    #: ``SLOWDOWN_EXPONENT``).
    exponent: float = 1.0
    #: The baseline engine's operations, timed in the same passes (``spec``).
    baseline: Measurement | None = None

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def sample(self, key, value: float) -> None:
        self.series.setdefault(key, []).append(value)

    def record(self, latencies, busy: float, chunk: tuple[float, float]) -> float:
        """One chunk: its operations' latencies and busy time.

        ``chunk`` is the kernel's slowness before and after it
        (:meth:`Calibration.next`); their mean is the chunk's slowness.
        Returns the chunk's :meth:`scale`.
        """
        scale = self.scale(chunk)
        self.latencies.extend(latencies)
        self.reference.extend(sample / scale for sample in latencies)
        self.busy_s += busy
        self.busy_ref_s += busy / scale
        self.slowness.append((chunk[0] + chunk[1]) / 2)
        return scale

    def scale(self, chunk: tuple[float, float]) -> float:
        """What a time taken during ``chunk`` is divided by."""
        return ((chunk[0] + chunk[1]) / 2) ** self.exponent

    @property
    def counts_repeat(self) -> bool:
        return all(counts == self.counts[0] for counts in self.counts)

    def pass_deltas(self) -> list[tuple]:
        """Per pass: ``(ops, busy_s, other_s, busy_ref_s)`` it added."""
        deltas, previous = [], (0, 0, 0.0, 0.0, 0.0)
        for mark in self.marks:
            deltas.append(
                (mark[0] - previous[0], mark[2] - previous[2], mark[3] - previous[3],
                 mark[4] - previous[4])
            )
            previous = mark
        return deltas


def run_passes(seconds: float, one_pass, measurement: Measurement) -> Measurement:
    """Run whole passes until ``seconds`` of wall time have gone by.

    The heap set-up left behind (inputs, oracles, expected answers) is
    collected once and then frozen, so that the collections the timed
    passes trigger do not scan it: how much the benchmark keeps for its
    checks must not show in the program's times.
    """
    m = measurement
    gc.collect()
    gc.freeze()
    try:
        deadline = clock() + seconds
        calibration = Calibration()
        while True:
            one_pass(m, calibration)
            for done in (m, m.baseline):
                if done is not None:
                    done.marks.append(
                        (done.ops, len(done.latencies), done.busy_s, done.other_s, done.busy_ref_s)
                    )
            if clock() >= deadline:
                return m
    finally:
        gc.unfreeze()


#: Integration cells per value in :func:`percentile`.
CELLS_PER_VALUE = 16


def percentile(ordered, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile of sorted ``ordered``.

    A weighted mean of the order statistics: value ``i`` (from 1) weighs
    the mass a Beta((n+1)p, (n+1)(1-p)) distribution puts on
    ((i-1)/n, i/n], integrated by the midpoint rule.  Among 160
    functions the 99th percentile sits between the three largest; a
    nearest-rank pick follows whichever one the seed made largest, this
    estimate averages them.
    """
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    cells = CELLS_PER_VALUE * n
    weights = [0.0] * n
    for cell in range(cells):
        x = (cell + 0.5) / cells
        log_density = (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta
        if log_density > -40.0:
            weights[cell // CELLS_PER_VALUE] += math.exp(log_density)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def operation_latencies(m: Measurement, at_reference: bool = True) -> list[float]:
    """Every operation's latency: the median of its samples over the passes.

    Every pass replays the same operations in the same order, so sample
    ``i`` of each pass belongs to operation ``i``.  A garbage collection,
    a late thread hand-off or a chunk during which the machine changed
    speed cannot move the median of ten samples.  With ``at_reference``
    the samples are scaled to reference speed.  Sorted.
    """
    samples = m.reference if at_reference else m.latencies
    passes, start = [], 0
    for mark in m.marks:
        passes.append(samples[start:mark[1]])
        start = mark[1]
    return sorted(statistics.median(column) for column in zip(*passes))


def latency_metrics(m: Measurement, at_reference: bool = True) -> dict:
    """``ops_per_s``, ``op_p50_us`` and ``op_p99_us`` of one measurement.

    All three come from :func:`operation_latencies`: throughput is the
    operations of one pass over the sum of their latencies.
    """
    latencies = operation_latencies(m, at_reference)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_us": percentile(latencies, 50) * 1e6,
        "op_p99_us": percentile(latencies, 99) * 1e6,
    }


def pin_to_one_core() -> list[int]:
    """Keep the whole process on one core; returns the cores it was allowed.

    The two cores of a shared machine run at different speeds at any
    moment, and a thread moved between them mid-chunk escapes the
    calibration kernel, which times the core it runs on.  On one core
    the kernel times the core the program runs on, and ``serve``'s
    caller and worker threads hand off on that core too.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[0]})
    except (AttributeError, OSError):
        return list(range(os.cpu_count() or 1))
    return allowed


def rss_peak_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: str) -> dict:
    """The environment block recorded with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        cores = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cores = list(range(os.cpu_count() or 1))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "affinity_cores": cores,
        "cpu_count": os.cpu_count(),
        "commit": _commit(root),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "switch_interval_s": sys.getswitchinterval(),
        "platform": platform.platform(),
    }
