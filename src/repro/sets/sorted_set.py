"""Sorted dense-array sets with binary-search membership.

The paper describes the LAO global liveness sets as "sorted dense arrays of
pointers (to variables)" whose membership test is a binary search taking
logarithmic time in the cardinality (Section 6.2).  The baseline data-flow
liveness engine in :mod:`repro.liveness.dataflow` uses this representation
for its per-block live-in/live-out sets so that the query-time comparison in
Table 2 measures the same operations the paper measured: a binary-search
lookup for the native analysis versus a bitset scan plus def-use traversal
for the new one.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator


class SortedArraySet:
    """A set of hashable, orderable keys stored as a sorted list.

    The element type is generic in practice (the liveness baseline stores
    variable indices), but elements must be mutually comparable because the
    membership test is ``bisect``-based.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable = ()) -> None:
        self._items = sorted(set(items))

    def __contains__(self, item) -> bool:
        slot = bisect.bisect_left(self._items, item)
        return slot < len(self._items) and self._items[slot] == item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedArraySet):
            return self._items == other._items
        if isinstance(other, (set, frozenset)):
            return set(self._items) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SortedArraySet({self._items!r})"

    def add(self, item) -> bool:
        """Insert ``item`` keeping the array sorted.

        Returns ``True`` if the element was actually inserted, ``False`` if
        it was already present.  The boolean return lets the data-flow solver
        detect fixpoint changes without a separate lookup.
        """
        slot = bisect.bisect_left(self._items, item)
        if slot < len(self._items) and self._items[slot] == item:
            return False
        self._items.insert(slot, item)
        return True

    def discard(self, item) -> bool:
        """Remove ``item`` if present; return whether a removal happened."""
        slot = bisect.bisect_left(self._items, item)
        if slot < len(self._items) and self._items[slot] == item:
            del self._items[slot]
            return True
        return False

    def update(self, items: Iterable) -> bool:
        """Union in ``items``; return ``True`` if the set grew."""
        changed = False
        for item in items:
            changed |= self.add(item)
        return changed

    def copy(self) -> "SortedArraySet":
        """Return an independent copy."""
        clone = SortedArraySet()
        clone._items = list(self._items)
        return clone

    def clear(self) -> None:
        """Remove all elements."""
        self._items.clear()

    def as_list(self) -> list:
        """Return the members as a new sorted list."""
        return list(self._items)

    def storage_bits(self, pointer_bits: int = 32) -> int:
        """Payload bits of a C implementation: one pointer per member.

        Used by the memory break-even ablation, which compares this against
        :meth:`repro.core.precompute.LivenessPrecomputation.storage_bits` as
        the paper's Section 6.1 discussion does (array of 32-bit pointers
        vs. one bit per basic block).
        """
        return len(self._items) * pointer_bits
