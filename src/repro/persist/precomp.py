"""Serializable form of a checker's precomputation, and its restore shim.

The expensive half of a cold start is rebuilding each resident checker's
:class:`~repro.core.precompute.LivenessPrecomputation` — DFS, dominator
tree, the quadratic reduced-reachability closure and the target sets.
The *query* engines, however, only ever touch the flat numeric view that
precomputation exposes: ``maxnums`` / ``r_masks`` /
``t_masks`` / ``is_back_target`` indexed by dominance-preorder number,
plus the name↔number mapping and the ``reducible`` flag.  That view is
a few arrays of integers — exactly what a snapshot can carry.

:class:`RestoredPrecomputation` duck-types that numeric surface; a
checker built over it (:meth:`FastLivenessChecker.from_precomputation`)
answers every liveness query, live-set sweep and batch identically to a
freshly built one, because the arrays *are* the freshly built ones —
:func:`export_precomputation` reads them off a live checker and the
round trip is value-identical by construction.  What the shim does *not*
carry are the object views (``domtree``/``reach``/``dfs``): passes that
need those — out-of-SSA destruction shares the checker's dominator tree
— get a real rebuild first (the service swaps restored checkers out
before ``destruct``), and any CFG-edit notification drops the shim
entirely, falling back to a genuine recompute.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrecompState:
    """The numeric precomputation of one function, as plain values."""

    #: Function name the arrays belong to.
    name: str
    #: Whether the CFG was reducible (arms the Theorem-2 fast path).
    reducible: bool
    #: Block names by dominance-preorder number (index = number).
    order: tuple[str, ...]
    #: ``maxnums[n]`` — largest preorder number in node n's subtree.
    maxnums: tuple[int, ...]
    #: ``r_masks[n]`` — reduced-reachability bit mask of node n.
    r_masks: tuple[int, ...]
    #: ``t_masks[n]`` — back-edge-target bit mask of node n.
    t_masks: tuple[int, ...]
    #: Bit ``i`` set ⇔ node number ``i`` is a DFS back-edge target.
    back_mask: int


class _RestoredGraph:
    """Just enough of ``ControlFlowGraph``: the node listing."""

    __slots__ = ("_order",)

    def __init__(self, order: list[str]) -> None:
        self._order = order

    def nodes(self) -> list[str]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)


class RestoredPrecomputation:
    """The flat-array query surface, rebuilt from snapshot values.

    Attribute-compatible with :class:`LivenessPrecomputation` everywhere
    the numeric engines look (:mod:`repro.core.live_checker`,
    :mod:`repro.core.plans`, :mod:`repro.core.batch`): the four arrays,
    ``reducible``, ``graph.nodes()``, the ``numbering`` dict and the
    ``num``/``node_of`` mapping helpers.  The object views (``domtree``, ``reach``, ``dfs``)
    are deliberately absent — see the module docstring.
    """

    #: Marks the shim so the service can swap it for a real rebuild
    #: before passes that need the object views (out-of-SSA destruct).
    restored = True

    def __init__(self, state: PrecompState) -> None:
        self.maxnums = list(state.maxnums)
        self.r_masks = list(state.r_masks)
        self.t_masks = list(state.t_masks)
        self.is_back_target = [
            bool((state.back_mask >> index) & 1)
            for index in range(len(state.order))
        ]
        self.reducible = state.reducible
        self._order = list(state.order)
        self.numbering = {name: index for index, name in enumerate(self._order)}
        self.graph = _RestoredGraph(self._order)

    def num(self, node: str) -> int:
        """Dominance-preorder number of ``node`` (``KeyError`` if unknown)."""
        return self.numbering[node]

    def maxnum(self, node: str) -> int:
        """Largest preorder number inside ``node``'s dominance subtree."""
        return self.maxnums[self.numbering[node]]

    def node_of(self, number: int) -> str:
        """Inverse of :meth:`num`."""
        return self._order[number]

    def num_blocks(self) -> int:
        """Number of CFG nodes the arrays cover."""
        return len(self._order)

    def __repr__(self) -> str:
        return (
            f"RestoredPrecomputation(blocks={len(self._order)}, "
            f"reducible={self.reducible})"
        )


def export_precomputation(name: str, pre) -> PrecompState:
    """Read the numeric view off a live (or restored) precomputation.

    Works identically for :class:`LivenessPrecomputation` and
    :class:`RestoredPrecomputation` — both expose the same arrays and
    mapping helpers — which is what makes restore → re-snapshot
    byte-identical: re-exporting a restored shim reproduces the very
    values the snapshot carried.
    """
    count = len(pre.maxnums)
    back_mask = 0
    for index, flag in enumerate(pre.is_back_target):
        if flag:
            back_mask |= 1 << index
    return PrecompState(
        name=name,
        reducible=bool(pre.reducible),
        order=tuple(str(pre.node_of(index)) for index in range(count)),
        maxnums=tuple(pre.maxnums),
        r_masks=tuple(pre.r_masks),
        t_masks=tuple(pre.t_masks),
        back_mask=back_mask,
    )
