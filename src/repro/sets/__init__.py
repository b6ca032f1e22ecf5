"""Set data structures of the data-flow liveness baseline.

The "native" LAO liveness analysis the paper compares against represents
live sets as sorted dense arrays of pointers and uses Briggs--Torczon
sparse sets for the local (per-block) analysis.  This package provides
Python counterparts of both.  (The checker's own ``R_v``/``T_v`` bitsets
are plain ``int`` masks; see :mod:`repro.core.reduced_graph`.)

* :class:`~repro.sets.sparse_set.SparseSet` -- the Briggs & Torczon sparse
  set (O(1) insert/member/clear, iteration proportional to cardinality).
* :class:`~repro.sets.sorted_set.SortedArraySet` -- a sorted dense array
  with binary-search membership, the representation used by the baseline
  data-flow liveness for global live sets.
"""

from repro.sets.sorted_set import SortedArraySet
from repro.sets.sparse_set import SparseSet

__all__ = ["SparseSet", "SortedArraySet"]
