"""The paper's contribution: fast liveness checking for SSA-form programs.

The package is organised to mirror the paper:

* :mod:`repro.core.reduced_graph` — the reduced graph ``G̃`` and the
  reduced-reachability sets ``R_v`` (Definition 4, Section 5.2).
* :mod:`repro.core.targets` — the relevant back-edge-target sets ``T_v``
  (Definition 5, Equation 1, Theorem 3, Section 5.2), built exactly by
  one Equation-1 pass in DFS preorder.
* :mod:`repro.core.precompute` — :class:`LivenessPrecomputation`, bundling
  DFS, dominance, ``R`` and ``T`` for one CFG.  This is the part that is
  *independent of variables* and survives program transformations.
  ``R`` and ``T`` are held only as int masks indexed by dominance-preorder
  number (Section 5.1).
* :mod:`repro.core.live_checker` — :class:`FastLivenessChecker`, the public
  oracle tying a function's def–use chains to the precomputation and
  answering each query with Algorithm 3 (with the Theorem-2 fast path on
  reducible CFGs).
* :mod:`repro.core.invalidation` — a transformation session demonstrating
  which edits preserve the precomputation (all of them except CFG edits).
* :mod:`repro.core.incremental` — :class:`CfgDelta` and
  :func:`apply_cfg_delta`: described CFG edits patched into an existing
  precomputation (only the reachable ``R``/``T`` rows), with a provable
  fallback to a full rebuild when the preorder numbering is invalidated.
* :mod:`repro.core.plans` — :class:`QueryPlan` / :class:`PlanCache`, the
  precompiled numeric form of one variable's def–use chain (def number,
  dominance interval, use mask), shared by the single-query, batch and
  register-allocation layers.
* :mod:`repro.core.batch` — :class:`BatchQueryEngine`, answering many
  ``(variable, block)`` queries in one pass by adding hot-target masks on
  top of the shared plans; this is what makes whole-program clients
  such as :mod:`repro.regalloc` affordable.
"""

from repro.core.batch import BatchQueryEngine
from repro.core.incremental import CfgDelta, UpdateResult, apply_cfg_delta
from repro.core.invalidation import TransformationSession
from repro.core.live_checker import FastLivenessChecker
from repro.core.plans import PlanCache, QueryPlan
from repro.core.precompute import LivenessPrecomputation
from repro.core.reduced_graph import ReducedReachability
from repro.core.targets import TargetSets

__all__ = [
    "BatchQueryEngine",
    "ReducedReachability",
    "TargetSets",
    "PlanCache",
    "QueryPlan",
    "LivenessPrecomputation",
    "FastLivenessChecker",
    "TransformationSession",
    "CfgDelta",
    "UpdateResult",
    "apply_cfg_delta",
]
