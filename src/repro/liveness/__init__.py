"""Liveness engines and the common oracle interface.

Two interchangeable ways of answering "is variable ``a`` live-in/out at
block ``q``?" are provided:

* :class:`~repro.liveness.dataflow.DataflowLiveness` — the conventional
  backward data-flow analysis with a postorder-initialised worklist stack
  and sorted-array live sets.  This models the paper's "native" LAO
  baseline (Section 6.2).
* :class:`repro.core.FastLivenessChecker` — the paper's contribution
  (defined in :mod:`repro.core`).

Both implement :class:`~repro.liveness.oracle.LivenessOracle`, so the
SSA destruction pass, the differential tests and the benchmark harness can
swap engines freely.  :class:`~repro.liveness.oracle.CountingOracle` wraps
any engine and counts queries, which the Table 2 harness uses to report
queries-per-variable figures.
"""

from repro.liveness.dataflow import DataflowLiveness
from repro.liveness.oracle import CountingOracle, LivenessOracle, LiveSets
from repro.liveness.ranges import interference_pairs, per_point_live_sets

__all__ = [
    "LivenessOracle",
    "CountingOracle",
    "LiveSets",
    "DataflowLiveness",
    "per_point_live_sets",
    "interference_pairs",
]
