"""SSA machinery: def–use chains and construction.

* :class:`~repro.ssa.defuse.DefUseChains` — the per-variable ``def(a)`` /
  ``uses(a)`` information the checker consumes, with φ uses attributed to
  predecessor blocks per Definition 1 of the paper.
* :func:`~repro.ssa.construction.construct_ssa` — Cytron-style SSA
  construction (φ placement at iterated dominance frontiers + renaming).

Out-of-SSA translation lives in :mod:`repro.ssadestruct`.
"""

from repro.ssa.construction import construct_ssa
from repro.ssa.defuse import DefUseChains, VariableDefUse

__all__ = [
    "DefUseChains",
    "VariableDefUse",
    "construct_ssa",
]
