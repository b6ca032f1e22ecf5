"""SSA register allocation driven by fast liveness queries.

This package is the JIT-style *client* the paper argues for: a register
allocator that never materialises global live sets and instead asks the
liveness oracle on demand — batched through
:class:`repro.core.batch.BatchQueryEngine` where it matters.

* :mod:`repro.regalloc.pressure` — per-block and per-definition-point
  register pressure, and MaxLive.
* :mod:`repro.regalloc.chordal` — optimal greedy coloring in dominator
  preorder (SSA interference graphs are chordal).
* :mod:`repro.regalloc.spill` — iterative furthest-next-use spilling
  down to a register budget; instruction edits only, so the checker's
  precomputation survives every round.
* :mod:`repro.regalloc.allocator` — the driver composing the above with
  SSA destruction, behind pluggable liveness backends.
* :mod:`repro.regalloc.verify` — an independent validator built solely
  on the conventional data-flow analysis.
"""

from repro.regalloc.allocator import (
    Allocation,
    LivenessBackend,
    allocate,
    make_backend,
)
from repro.regalloc.chordal import Coloring, color_function
from repro.regalloc.pressure import (
    BlockLiveness,
    BlockPressure,
    PressureInfo,
    compute_pressure,
    max_live,
)
from repro.regalloc.spill import SpillReport, lower_pressure
from repro.regalloc.verify import (
    VerificationResult,
    per_point_live_sets,
    verify_allocation,
)

__all__ = [
    "Allocation",
    "BlockLiveness",
    "BlockPressure",
    "Coloring",
    "LivenessBackend",
    "PressureInfo",
    "SpillReport",
    "VerificationResult",
    "allocate",
    "color_function",
    "compute_pressure",
    "lower_pressure",
    "make_backend",
    "max_live",
    "per_point_live_sets",
    "verify_allocation",
]
