"""Fixed-universe bitsets over dominance-preorder numbers (test reference).

The paper (Section 5.1) stores ``R_v`` and ``T_v`` as bitsets over the
blocks, numbered in dominance-tree preorder.  The library keeps each row
as a raw ``int`` mask (:mod:`repro.core.reduced_graph`,
:mod:`repro.core.targets`).  :class:`BitSet` wraps such an integer together
with its universe size and checks every element against it; the literal
reference construction (:mod:`tests.support.reference_precompute`) builds
its sets from it, and :meth:`BitSet.next_set_bit` is the paper's
``bitset_next_set``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def next_set_bit_in_mask(mask: int, start: int) -> int:
    """Smallest set bit of ``mask`` at position ``>= start``, or ``-1``.

    The raw-integer counterpart of :meth:`BitSet.next_set_bit`, used by the
    candidate-scan oracle of the kernel tests.  Returns ``-1`` when
    exhausted (the paper's ``MAX_INT`` sentinel).
    """
    if start > 0:
        mask >>= start
    else:
        start = 0
    if mask == 0:
        return -1
    return start + ((mask & -mask).bit_length() - 1)


class BitSet:
    """A mutable set of small non-negative integers drawn from ``range(universe)``.

    Parameters
    ----------
    universe:
        Exclusive upper bound on the elements the set may contain.
    items:
        Optional initial elements.

    The representation is a single Python integer ``_bits`` whose *i*-th bit
    is set iff *i* is a member.  All mutating operations validate their
    arguments against the universe so that indexing bugs in callers surface
    immediately instead of silently corrupting liveness answers.
    """

    __slots__ = ("_universe", "_bits")

    def __init__(self, universe: int, items: Iterable[int] = ()) -> None:
        if universe < 0:
            raise ValueError(f"universe must be non-negative, got {universe}")
        self._universe = universe
        self._bits = 0
        for item in items:
            self.add(item)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, universe: int) -> "BitSet":
        """Return a set containing every element of ``range(universe)``."""
        result = cls(universe)
        if universe:
            result._bits = (1 << universe) - 1
        return result

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "BitSet":
        """Build a set from a raw integer bit mask (the ``R``/``T`` views)."""
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if universe < mask.bit_length():
            raise ValueError(
                f"mask has bits beyond universe {universe}: {mask:#x}"
            )
        result = cls(universe)
        result._bits = mask
        return result

    def copy(self) -> "BitSet":
        """Return a shallow copy (bitsets hold only integers, so this is deep)."""
        result = BitSet(self._universe)
        result._bits = self._bits
        return result

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """The exclusive upper bound on members."""
        return self._universe

    @property
    def mask(self) -> int:
        """The raw integer bit mask (read-only view)."""
        return self._bits

    def _check(self, item: int) -> None:
        if not 0 <= item < self._universe:
            raise ValueError(
                f"element {item} outside universe [0, {self._universe})"
            )

    def __contains__(self, item: int) -> bool:
        if not 0 <= item < self._universe:
            return False
        return bool(self._bits >> item & 1)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSet):
            return NotImplemented
        return self._bits == other._bits and self._universe == other._universe

    def __hash__(self) -> int:
        return hash((self._universe, self._bits))

    def __repr__(self) -> str:
        return f"BitSet(universe={self._universe}, items={sorted(self)})"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, item: int) -> None:
        """Insert ``item`` (must lie inside the universe)."""
        self._check(item)
        self._bits |= 1 << item

    def discard(self, item: int) -> None:
        """Remove ``item`` if present; no error if absent."""
        if 0 <= item < self._universe:
            self._bits &= ~(1 << item)

    def remove(self, item: int) -> None:
        """Remove ``item``; raise :class:`KeyError` if it is not a member."""
        if item not in self:
            raise KeyError(item)
        self._bits &= ~(1 << item)

    def clear(self) -> None:
        """Remove all elements."""
        self._bits = 0

    def update(self, other: "BitSet | Iterable[int]") -> None:
        """In-place union with another bitset or iterable of elements."""
        if isinstance(other, BitSet):
            self._require_same_universe(other)
            self._bits |= other._bits
        else:
            for item in other:
                self.add(item)

    def intersection_update(self, other: "BitSet") -> None:
        """In-place intersection with another bitset over the same universe."""
        self._require_same_universe(other)
        self._bits &= other._bits

    def difference_update(self, other: "BitSet") -> None:
        """In-place difference with another bitset over the same universe."""
        self._require_same_universe(other)
        self._bits &= ~other._bits

    # ------------------------------------------------------------------
    # Pure set algebra
    # ------------------------------------------------------------------
    def _require_same_universe(self, other: "BitSet") -> None:
        if self._universe != other._universe:
            raise ValueError(
                "bitset universes differ: "
                f"{self._universe} vs {other._universe}"
            )

    def union(self, other: "BitSet") -> "BitSet":
        """Return a new set containing members of either operand."""
        self._require_same_universe(other)
        result = BitSet(self._universe)
        result._bits = self._bits | other._bits
        return result

    def intersection(self, other: "BitSet") -> "BitSet":
        """Return a new set containing members of both operands."""
        self._require_same_universe(other)
        result = BitSet(self._universe)
        result._bits = self._bits & other._bits
        return result

    def difference(self, other: "BitSet") -> "BitSet":
        """Return a new set containing members of ``self`` not in ``other``."""
        self._require_same_universe(other)
        result = BitSet(self._universe)
        result._bits = self._bits & ~other._bits
        return result

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def isdisjoint(self, other: "BitSet") -> bool:
        """True iff the two sets share no element."""
        self._require_same_universe(other)
        return (self._bits & other._bits) == 0

    def intersects(self, other: "BitSet") -> bool:
        """True iff the two sets share at least one element.

        This is the ``R_t ∩ uses(a) ≠ ∅`` test at the heart of Algorithm 1.
        """
        return not self.isdisjoint(other)

    def issubset(self, other: "BitSet") -> bool:
        """True iff every member of ``self`` is a member of ``other``."""
        self._require_same_universe(other)
        return (self._bits & ~other._bits) == 0

    def issuperset(self, other: "BitSet") -> bool:
        """True iff every member of ``other`` is a member of ``self``."""
        return other.issubset(self)

    # ------------------------------------------------------------------
    # Algorithm-3 primitives
    # ------------------------------------------------------------------
    def next_set_bit(self, start: int) -> int | None:
        """Return the smallest member ``>= start`` or ``None`` if there is none.

        This is the paper's ``bitset_next_set`` (which returns ``MAX_INT``
        when exhausted); returning ``None`` is the Pythonic equivalent.
        ``start`` may exceed the universe, in which case ``None`` is
        returned.
        """
        if start < 0:
            start = 0
        if start >= self._universe:
            return None
        shifted = self._bits >> start
        if shifted == 0:
            return None
        low = shifted & -shifted
        return start + low.bit_length() - 1

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        """Iterate members ``m`` with ``start <= m <= stop`` in ascending order.

        Algorithm 3 walks ``T[q]`` restricted to the preorder interval
        ``[num(def), maxnum(def)]``; this helper expresses that scan.
        """
        position = start
        while True:
            member = self.next_set_bit(position)
            if member is None or member > stop:
                return
            yield member
            position = member + 1

    # ------------------------------------------------------------------
    # Memory accounting (used by the memory break-even ablation)
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Number of payload bits a C implementation would allocate.

        The paper rounds each per-block bitset up to whole machine words; we
        report the universe rounded up to 64-bit words so the memory
        break-even ablation (Section 6.1 discussion) can be reproduced
        deterministically, independent of CPython object overhead.
        """
        words = (self._universe + 63) // 64
        return words * 64
