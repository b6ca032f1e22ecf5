"""Algorithm 3 with a candidate counter and a fast-path switch (test reference).

Section 5.1 of the paper engineers Algorithm 1 into a tight loop over two
bitsets and the def–use chain:

* blocks are numbered in dominance-tree preorder, so the nodes strictly
  dominated by ``def(a)`` form the contiguous interval
  ``(num(def), maxnum(def)]`` and ``T_q ∩ sdom(def(a))`` never has to be
  materialised — the query shifts the bits up to ``num(def)`` out of
  ``T[q]`` and takes the lowest remaining set bit, inline, until it
  passes ``maxnum(def)``;
* after testing a candidate ``t``, its whole dominance subtree can be
  skipped (any ``t'`` dominated by ``t`` satisfies ``R_t' ⊆ R_t``), which
  is the ``t = maxnum(t) + 1`` jump at the bottom of the loop;
* on reducible CFGs Theorem 2 guarantees the most-dominating candidate —
  the first set bit in the interval — already decides the query, so the
  ``while`` degenerates into an ``if`` (footnote 1).  That fast path is
  exposed as ``reducible_fast_path`` and benchmarked by the ordering
  ablation.

The checker works purely on the *numeric* view of the precomputation: the
flat ``r_masks``/``t_masks``/``maxnums``/``is_back_target`` arrays indexed
by dominance-preorder number, with uses passed as one raw integer mask.
A query is a handful of word-level integer operations — no ``node_of``
translation, no :class:`~tests.support.bitset.BitSet` dispatch.

This is the *reference* kernel: it counts the candidates each query
inspects (``last_candidates_tested``, read by the T_q-ordering ablation)
and can switch the Theorem-2 fast path off.  The serving door,
:meth:`FastLivenessChecker.is_live_in
<repro.core.live_checker.FastLivenessChecker.is_live_in>` and its
live-out twin, run the same scan in one frame without the counter, and
the tests hold the two to identical answers.  The ``Sequence[int]``
entry points below are kept for callers (and tests) that hold use
numbers rather than a mask.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.precompute import LivenessPrecomputation


class BitsetChecker:
    """Algorithm 3 plus its live-out counterpart, operating on block numbers."""

    def __init__(
        self,
        precomputation: LivenessPrecomputation,
        reducible_fast_path: bool = True,
    ) -> None:
        self._pre = precomputation
        self._maxnums = precomputation.maxnums
        self._r_masks = precomputation.r_masks
        self._t_masks = precomputation.t_masks
        self._is_back_target = precomputation.is_back_target
        # Theorem 2 relies on the exact Definition-5 sets being totally
        # ordered by dominance (Lemma 3), which holds on a reducible CFG.
        self._fast_path = reducible_fast_path and precomputation.reducible
        #: Number of candidate back-edge targets inspected by the last
        #: query; the T_q-ordering ablation aggregates this counter.
        self.last_candidates_tested = 0

    @property
    def precomputation(self) -> LivenessPrecomputation:
        """The shared variable-independent precomputation."""
        return self._pre

    @property
    def uses_fast_path(self) -> bool:
        """True when the reducible-CFG single-candidate fast path is active."""
        return self._fast_path

    # ------------------------------------------------------------------
    # Algorithm 3 on raw integer masks (the hot path)
    # ------------------------------------------------------------------
    def is_live_in_mask(self, def_num: int, use_mask: int, query_num: int) -> bool:
        """Live-in check with the uses given as one bit mask.

        ``def_num`` is ``num(def(a))``, ``use_mask`` has bit ``num(u)`` set
        for every use block ``u``, ``query_num`` is ``num(q)``.
        """
        maxnums = self._maxnums
        max_dom = maxnums[def_num]
        if query_num <= def_num or max_dom < query_num:
            self.last_candidates_tested = 0
            return False
        r_masks = self._r_masks
        # T_q with every bit up to num(def) shifted out; the scan takes the
        # lowest remaining bit until it leaves the interval (def, maxnum(def)].
        start = def_num + 1
        candidates = self._t_masks[query_num] >> start << start
        tested = 0
        while candidates:
            t = (candidates & -candidates).bit_length() - 1
            if t > max_dom:
                break
            tested += 1
            if r_masks[t] & use_mask:
                self.last_candidates_tested = tested
                return True
            if self._fast_path:
                # Theorem 2: on reducible CFGs the first (most dominating)
                # candidate already decides the query.
                break
            # Skip t's dominance subtree: it cannot reach more than t.
            skip = maxnums[t] + 1
            candidates = candidates >> skip << skip
        self.last_candidates_tested = tested
        return False

    def is_live_out_mask(self, def_num: int, use_mask: int, query_num: int) -> bool:
        """Live-out check (Algorithm 2) with the uses given as one bit mask."""
        if query_num == def_num:
            self.last_candidates_tested = 0
            return bool(use_mask & ~(1 << def_num))
        maxnums = self._maxnums
        max_dom = maxnums[def_num]
        if query_num <= def_num or max_dom < query_num:
            self.last_candidates_tested = 0
            return False
        r_masks = self._r_masks
        start = def_num + 1
        candidates = self._t_masks[query_num] >> start << start
        tested = 0
        while candidates:
            t = (candidates & -candidates).bit_length() - 1
            if t > max_dom:
                break
            tested += 1
            hit = r_masks[t] & use_mask
            # A use in the query block itself only counts when q can be
            # left and re-entered, i.e. when q is a back-edge target.
            if hit and (t != query_num or hit & ~(1 << t) or self._is_back_target[t]):
                self.last_candidates_tested = tested
                return True
            skip = maxnums[t] + 1
            candidates = candidates >> skip << skip
        self.last_candidates_tested = tested
        return False

    # ------------------------------------------------------------------
    # Sequence entry points (tests, callers without a prebuilt mask)
    # ------------------------------------------------------------------
    def is_live_in(self, def_num: int, use_nums: Sequence[int], query_num: int) -> bool:
        """Live-in check on dominance-preorder block numbers."""
        use_mask = 0
        for use in use_nums:
            use_mask |= 1 << use
        return self.is_live_in_mask(def_num, use_mask, query_num)

    def is_live_out(self, def_num: int, use_nums: Sequence[int], query_num: int) -> bool:
        """Live-out check on dominance-preorder block numbers."""
        use_mask = 0
        for use in use_nums:
            use_mask |= 1 << use
        return self.is_live_out_mask(def_num, use_mask, query_num)
