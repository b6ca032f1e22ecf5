"""The reduced graph ``G̃`` and reduced reachability ``R_v`` (Definition 4).

Removing the DFS back edges from a CFG yields an acyclic *reduced graph*.
The set ``R_v`` contains every node reachable from ``v`` inside the reduced
graph (including ``v`` itself, via the trivial path).  Section 3.2 of the
paper uses these sets to answer the easy half of a liveness query — a
back-edge-free path from the query block to a use proves liveness outright —
and Section 5.2 notes they can be computed in a single sweep because
reverse postorder is a topological order of ``G̃``.

The sets are raw ``int`` bit masks in one list, ``masks``, indexed by the
*dominance-tree preorder number* of each block (Section 5.1), because that
is the numbering the query algorithm needs: it lets ``T_q ∩ sdom(def(a))``
be expressed as a contiguous index interval.  The masks are the only
representation: readers index them by ``num(v)``.
"""

from __future__ import annotations

from repro.cfg.dfs import DepthFirstSearch
from repro.cfg.dominance import DominatorTree


def reach_sweep(
    dfs: DepthFirstSearch,
    numbers: list[int],
    masks: list[int],
    dirty: set[int] | None = None,
) -> dict[int, int]:
    """Definition 4 in one DFS-postorder pass over ``masks``, in place.

    Postorder is a reverse topological order of ``G̃``, so every reduced
    successor's row is final before it is read; an edge ``v → w`` is a
    back edge exactly when ``w`` finishes no earlier than ``v``.  With
    ``dirty`` ``None`` every row is written.  Otherwise only the rows of
    the ids in ``dirty`` (sources of edited edges) and of nodes with a
    reduced successor whose row changed are recomputed, and the result
    maps the number of every row that changed to its old mask.
    """
    succ_ids, post = dfs.succ_ids, dfs.post
    changed: dict[int, int] = {}
    moved: set[int] = set()
    for node in dfs.post_order:
        succs = succ_ids[node]
        if dirty is not None and node not in dirty and moved.isdisjoint(succs):
            continue
        finish = post[node]
        number = numbers[node]
        mask = 1 << number
        for succ in succs:
            if post[succ] < finish:
                mask |= masks[numbers[succ]]
        if dirty is None:
            masks[number] = mask
        elif mask != masks[number]:
            changed[number] = masks[number]
            masks[number] = mask
            moved.add(node)
    return changed


class ReducedReachability:
    """Per-node reduced-reachability masks ``R_v``."""

    def __init__(self, dfs: DepthFirstSearch, domtree: DominatorTree) -> None:
        #: ``masks[n]`` = bit mask of ``R_v`` for the node numbered ``n``.
        self.masks: list[int] = [0] * len(domtree)
        reach_sweep(dfs, domtree.numbers, self.masks)

    def storage_bits(self) -> int:
        """Payload bits of all ``R_v`` rows, each rounded up to 64-bit words."""
        return len(self.masks) * ((len(self.masks) + 63) // 64) * 64

    def __len__(self) -> int:
        return len(self.masks)
