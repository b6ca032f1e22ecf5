"""Control-flow-graph substrate.

Everything the fast liveness checker needs from the compiler lives here and
depends *only* on graph structure, never on instructions or variables:

* :class:`~repro.cfg.graph.ControlFlowGraph` -- a rooted directed graph with
  deterministic iteration order.
* :class:`~repro.cfg.dfs.DepthFirstSearch` -- spanning tree, pre/post
  numbering and the tree/back/forward/cross edge classification of
  Section 2.1 / Figure 1.
* :class:`~repro.cfg.dominance.DominatorTree` -- immediate dominators,
  ``dom``/``sdom`` queries and the dominance-preorder numbering
  (``num``/``maxnum``) that Algorithm 3 relies on.
* :class:`~repro.cfg.domfrontier.DominanceFrontiers` -- Cytron-style
  frontiers for SSA construction.
* :func:`~repro.cfg.reducibility.is_reducible` -- the back-edge based
  reducibility test of Section 2.1, plus an independent interval (T1/T2)
  based check used for validation.
"""

from repro.cfg.dfs import DepthFirstSearch, EdgeKind
from repro.cfg.domfrontier import DominanceFrontiers
from repro.cfg.dominance import DominatorTree
from repro.cfg.graph import ControlFlowGraph, Edge
from repro.cfg.reducibility import is_reducible, is_reducible_by_intervals

__all__ = [
    "ControlFlowGraph",
    "Edge",
    "DepthFirstSearch",
    "EdgeKind",
    "DominatorTree",
    "DominanceFrontiers",
    "is_reducible",
    "is_reducible_by_intervals",
]
