"""Incremental maintenance of the precomputation under CFG edits.

The paper's headline is that :class:`~repro.core.precompute.LivenessPrecomputation`
survives every program transformation *except* CFG edits.  Until now a CFG
edit meant throwing the whole object away — DFS, dominator tree, the
quadratic ``R``/``T`` closure — even when the edit was one edge of a
thousand-block function, which is exactly the hot path of a JIT-style
invalidation workload.  This module narrows that cost: a
:class:`CfgDelta` describes the edit, and :func:`apply_cfg_delta` patches
only the rows the edit can actually change, falling back to a full
rebuild whenever the delta invalidates the dominance-preorder numbering
in a way no closed form covers.

The edge patch path rests on three observations:

1. **DFS preservation.**  The traversal visits successors in insertion
   order and new edges are appended *after* a node's existing successors
   (both :meth:`ControlFlowGraph.add_edge` and the IR's jump→branch edits
   do this).  So re-running the DFS on the edited graph reproduces the
   old traversal exactly unless (a) a *tree* edge was removed, or (b) an
   added edge ``s → t`` points at a node that the old DFS discovered only
   after ``s`` finished — the one case where the new edge would become a
   tree edge.  Both conditions are O(1) interval tests on the old
   preorder/postorder numbers, and when they fail we fall back.  When
   they hold, the new edge's kind (back/forward/cross) follows from the
   same intervals and *no other edge changes kind*.

2. **Dominator preservation.**  If every edited edge ``s → t`` satisfies
   ``t dom s`` (an O(1) interval test on the old tree), the dominator
   tree is provably unchanged: any path using the edge already passed
   through ``t`` before reaching ``s``, so splicing the edge in or out
   never changes which nodes a path must cross.  Otherwise we rerun the
   Cooper–Harvey–Kennedy fixpoint on the edited graph — reusing the old
   DFS's reverse postorder, which step 1 guarantees is still a genuine
   RPO — and compare: identical immediate dominators mean the preorder
   numbering (children sorted by RPO index) is bit-identical, so
   ``num``/``maxnum`` and every cached
   :class:`~repro.core.plans.QueryPlan` stay valid.  A mismatch falls
   back.

3. **Dirty-row sweeps.**  With numbering preserved, only ``R``/``T``
   rows can change.  ``R`` is patched in one DFS-postorder pass that
   recomputes a row iff its node sources an edited non-back edge or a
   reduced successor's row changed (back-edge edits never touch ``R`` —
   back edges are not in the reduced graph).  ``T`` is patched in one
   DFS-preorder pass that recomputes ``T_v`` iff ``R_v`` changed, an
   edited back edge's source lies in ``R_v`` (old or new), or a
   recomputed ``T_w`` with ``w ∈ T_v`` changed — the Theorem-3 ordering
   guarantees every ``T_w`` a row depends on is final before the row is
   visited.  Rows are recomputed with the builder's exact Equation-1
   step — or, when the edit only adds back edges, grown by the ``T``
   rows they already fold in (``T`` is transitive and only grows) — so
   incremental patching is only offered for the ``"exact"``
   strategy (``"propagate"`` over-approximates and falls back).  Each
   row is written once: ``pre.r_masks``/``pre.t_masks`` *are* the
   ``reach``/``targets`` masks their ``BitSet`` views read.

Every result is provably bit-identical to a from-scratch rebuild of the
edited graph; ``tests/core/test_incremental.py`` checks exactly that on
randomized edit sequences with the dataflow engine as a second oracle.

Of the block-level edits, only the edge split ``s → t ⇒ s → n → t``
(:meth:`CfgDelta.edge_split`, the CFG edit SSA destruction and JIT passes
make most) is patched, in place and in closed form: the DFS and the
dominator tree keep everything but gain ``n``, so every ``R``/``T`` row
gets one bit inserted at ``n``'s number (see :func:`_apply_split`).  The
numbering moves, which the result reports as ``renumbered`` so callers
drop their query plans.  Any other node-set change falls back.  The
fallback is *honest*: :func:`apply_cfg_delta` reports why, and the
service layer counts applied-vs-fallback so the benchmark's speedup claim
carries its real hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.cfg.dfs import EdgeKind
from repro.cfg.dominance import _immediate_dominators_iterative
from repro.cfg.graph import ControlFlowGraph, Edge, Node
from repro.cfg.reducibility import is_reducible
from repro.core.targets import back_edge_groups, equation1_row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.precompute import LivenessPrecomputation


def _edge_tuples(edges: Iterable) -> tuple[tuple[Node, Node], ...]:
    return tuple((source, target) for source, target in edges)


@dataclass(frozen=True)
class CfgDelta:
    """A completed CFG edit, as the invalidation hot path describes it.

    The delta names what changed — it does not perform the edit.  Edge
    additions are assumed to have appended the new successor *after* the
    source's existing ones (the only order
    :meth:`~repro.cfg.graph.ControlFlowGraph.add_edge` and the IR's
    terminator edits produce), which is what the DFS-preservation test
    relies on.  Removals are processed before additions.

    Nodes are whatever the CFG uses (block names for IR functions,
    integers for synthetic graphs); only string nodes travel over the
    wire (:class:`repro.api.protocol.NotifyRequest`).
    """

    added_edges: tuple[tuple[Node, Node], ...] = ()
    removed_edges: tuple[tuple[Node, Node], ...] = ()
    added_blocks: tuple[Node, ...] = ()
    removed_blocks: tuple[Node, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "added_edges", _edge_tuples(self.added_edges))
        object.__setattr__(self, "removed_edges", _edge_tuples(self.removed_edges))
        object.__setattr__(self, "added_blocks", tuple(self.added_blocks))
        object.__setattr__(self, "removed_blocks", tuple(self.removed_blocks))

    # ------------------------------------------------------------------
    # Convenience constructors (the common single-edit deltas)
    # ------------------------------------------------------------------
    @classmethod
    def edge_added(cls, source: Node, target: Node) -> "CfgDelta":
        """The delta of one ``add_edge(source, target)``."""
        return cls(added_edges=((source, target),))

    @classmethod
    def edge_removed(cls, source: Node, target: Node) -> "CfgDelta":
        """The delta of one ``remove_edge(source, target)``."""
        return cls(removed_edges=((source, target),))

    @classmethod
    def edge_split(cls, source: Node, target: Node, block: Node) -> "CfgDelta":
        """The delta of routing ``source -> target`` through a new ``block``."""
        return cls(
            added_blocks=(block,),
            added_edges=((source, block), (block, target)),
            removed_edges=((source, target),),
        )

    @classmethod
    def block_added(cls, block: Node, edges: Iterable = ()) -> "CfgDelta":
        """The delta of inserting ``block`` (plus any rewired edges)."""
        return cls(added_blocks=(block,), added_edges=_edge_tuples(edges))

    @classmethod
    def block_removed(cls, block: Node, edges: Iterable = ()) -> "CfgDelta":
        """The delta of deleting ``block`` (plus its severed edges)."""
        return cls(removed_blocks=(block,), removed_edges=_edge_tuples(edges))

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def edits_blocks(self) -> bool:
        """True when the delta changes the node set.

        Only an edge split (:meth:`edge_split`) is patched in place; any
        other node-set change falls back to a rebuild.
        """
        return bool(self.added_blocks or self.removed_blocks)

    def __bool__(self) -> bool:
        return bool(
            self.added_edges
            or self.removed_edges
            or self.added_blocks
            or self.removed_blocks
        )

    # ------------------------------------------------------------------
    # Wire form (string nodes only)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON body for :class:`~repro.api.protocol.NotifyRequest`."""
        return {
            "added_edges": [[s, t] for s, t in self.added_edges],
            "removed_edges": [[s, t] for s, t in self.removed_edges],
            "added_blocks": list(self.added_blocks),
            "removed_blocks": list(self.removed_blocks),
        }

    @classmethod
    def from_json(cls, body: dict) -> "CfgDelta":
        return cls(
            added_edges=[tuple(edge) for edge in body.get("added_edges", ())],
            removed_edges=[tuple(edge) for edge in body.get("removed_edges", ())],
            added_blocks=body.get("added_blocks", ()),
            removed_blocks=body.get("removed_blocks", ()),
        )


#: :attr:`UpdateResult.reason` when the patch was applied.
APPLIED = "incremental"

@dataclass(frozen=True)
class UpdateResult:
    """What one :func:`apply_cfg_delta` call did (or why it could not)."""

    #: True when the precomputation was patched in place and every
    #: derived array is identical to a from-scratch rebuild.
    applied: bool
    #: ``"incremental"`` (or ``"no-op"`` for an empty/idempotent delta)
    #: when applied, else the fallback cause — one of ``"restored"``,
    #: ``"block-edit"``, ``"strategy"``, ``"unknown-node"``,
    #: ``"edge-into-entry"``, ``"dfs-change"``, ``"tree-edge-removed"``,
    #: ``"dominators-changed"``.
    reason: str
    #: ``R`` rows whose value actually changed (after an edge split: the
    #: rows that gained the new block, its own row included).
    r_rows_changed: int = 0
    #: ``T`` rows whose value actually changed (after an edge split: the
    #: new block's row alone).
    t_rows_changed: int = 0
    #: True when the CHK fixpoint had to rerun to verify dominators
    #: (false when the O(1) ``t dom s`` test settled every edit).
    dominators_recomputed: bool = False
    #: True when the patch moved dominance-preorder numbers (an edge
    #: split inserts a block), so per-variable plans and batch masks
    #: expressed in the old numbering must go.
    renumbered: bool = False


@dataclass
class _EdgeEdit:
    """One normalised edge primitive with its (old or new) DFS kind."""

    source: Node
    target: Node
    kind: EdgeKind
    removed: bool = field(default=False)


def _split_of(
    graph: ControlFlowGraph, delta: CfgDelta
) -> tuple[Node, Node, Node] | None:
    """``(s, t, n)`` when ``delta`` splits the edge ``s → t`` of ``graph``."""
    if len(delta.added_blocks) != 1 or delta.removed_blocks:
        return None
    if len(delta.removed_edges) != 1 or len(delta.added_edges) != 2:
        return None
    (node,), ((source, target),) = delta.added_blocks, delta.removed_edges
    if set(delta.added_edges) != {(source, node), (node, target)}:
        return None
    if node in graph or not graph.has_edge(source, target):
        return None
    return source, target, node


def _mutate_graph(graph: ControlFlowGraph, delta: CfgDelta) -> None:
    """Best-effort application of ``delta`` to the graph alone.

    Used on the fallback path so the caller can rebuild from the edited
    graph.  An edge split goes through
    :meth:`ControlFlowGraph.split_edge`, so the new block keeps the old
    target's slot exactly as in the edited IR.  Otherwise idempotent
    where possible: present edges/blocks are not re-added, absent ones
    not re-removed.  Removing the entry block (or a block that still has
    edges the delta did not name) raises, exactly as a direct
    :meth:`ControlFlowGraph.remove_node` would.
    """
    split = _split_of(graph, delta)
    if split is not None:
        graph.split_edge(*split)
        return
    for block in delta.added_blocks:
        graph.add_node(block)
    for source, target in delta.removed_edges:
        if source in graph and graph.has_edge(source, target):
            graph.remove_edge(source, target)
    for block in delta.removed_blocks:
        if block in graph:
            graph.remove_node(block)
    for source, target in delta.added_edges:
        graph.add_edge(source, target)


def _apply_split(
    pre: "LivenessPrecomputation", source: Node, target: Node, node: Node
) -> UpdateResult:
    """Patch ``pre`` in place for the edge split ``source → node → target``.

    The DFS and the dominator tree gain ``node`` and keep everything else
    (see their ``note_edge_split``), so each ``R``/``T`` row only gains
    one bit at ``node``'s number ``p``, where every later number moves
    up by one:

    * ``R'_v = R_v`` plus ``node`` iff ``source ∈ R_v``: in the reduced
      graph ``node`` is reached exactly through ``source``;
    * ``R'_node = {node}``, plus ``R_target`` unless the split edge was a
      back edge (then ``node → target`` is the back edge instead);
    * ``T'_v = T_v``: a back edge ``node → target`` starts in ``R'_v``
      iff ``source → target`` started in ``R_v``, and ``node`` is never
      a back-edge target, so no ``T↑_v`` changes;
    * ``T'_node = {node} ∪ T_target`` after a back edge, else
      ``({node} ∪ T_target) − {target}`` (``T↑_node = T↑_target``, and by
      Theorem 3 ``target`` is in no ``T_w`` with ``w ∈ T↑_target``).

    Back-edge targets and reducibility do not change (``target``
    dominates ``node`` iff it dominates ``source``).
    """
    dfs, domtree, num = pre.dfs, pre.domtree, pre.numbering
    s_bit = 1 << num[source]
    t_num = num[target]
    back = dfs.edge_kind(source, target) is EdgeKind.BACK
    pre.graph.split_edge(source, target, node)
    dfs.note_edge_split(source, target, node)
    p = domtree.note_edge_split(source, target, node)
    pre.maxnums[:] = domtree.maxnums()
    # m + (m & high) inserts a zero bit at p: the bits from p up move
    # up by one.
    bit, high = 1 << p, -1 << p
    r_masks, t_masks = pre.r_masks, pre.t_masks
    r_t, t_t = r_masks[t_num], t_masks[t_num]
    r_masks[:] = [
        m + (m & high) | bit if m & s_bit else m + (m & high) for m in r_masks
    ]
    t_masks[:] = [m + (m & high) for m in t_masks]
    r_row = bit if back else bit | r_t + (r_t & high)
    t_row = bit | t_t + (t_t & high)
    if not back:
        t_row &= ~(1 << num[target])
    r_masks.insert(p, r_row)
    t_masks.insert(p, t_row)
    pre.is_back_target.insert(p, False)
    return UpdateResult(
        True,
        APPLIED,
        r_rows_changed=len(r_masks) - [m & bit for m in r_masks].count(0),
        t_rows_changed=1,
        renumbered=True,
    )


def apply_cfg_delta(pre: "LivenessPrecomputation", delta: CfgDelta) -> UpdateResult:
    """Patch ``pre`` in place for a CFG edit described by ``delta``.

    ``pre.graph`` must be the graph *before* the edit; this function
    applies the delta to it and then either patches every derived
    structure (``applied=True`` — the arrays are bit-identical to a
    rebuild of the edited graph; ``renumbered`` after an edge split) or
    leaves them stale (``applied=False`` — the caller must discard
    ``pre`` and rebuild; the mutated ``pre.graph`` is a valid input for
    that rebuild).
    """
    if getattr(pre, "restored", False):
        # A snapshot-restored shim has no graph or DFS to patch.
        return UpdateResult(False, "restored")
    if not delta:
        # Nothing changed, nothing to do: trivially identical to a rebuild.
        return UpdateResult(True, "no-op")
    graph = pre.graph
    split = _split_of(graph, delta)
    if delta.edits_blocks and split is None:
        # Any node-set change but an edge split moves the numbering in
        # ways no closed form covers; re-deriving every mask is a rebuild.
        _mutate_graph(graph, delta)
        return UpdateResult(False, "block-edit")
    if pre.targets.strategy != "exact":
        # Rows are re-derived with the exact Equation-1 step; patching a
        # "propagate" precomputation would silently tighten its sets.
        _mutate_graph(graph, delta)
        return UpdateResult(False, "strategy")
    if split is not None:
        return _apply_split(pre, *split)

    dfs = pre.dfs
    domtree = pre.domtree

    # ------------------------------------------------------------------
    # Phase 1: decide DFS preservation (no mutation yet).
    # ------------------------------------------------------------------
    overlay: dict[Edge, EdgeKind | None] = {}

    def current_kind(edge: Edge) -> EdgeKind | None:
        if edge in overlay:
            return overlay[edge]
        return dfs.edge_kind(edge.source, edge.target)

    def bail(reason: str) -> UpdateResult:
        _mutate_graph(graph, delta)
        return UpdateResult(False, reason)

    edits: list[_EdgeEdit] = []
    for source, target in delta.removed_edges:
        if source not in graph or target not in graph:
            return bail("unknown-node")
        edge = Edge(source, target)
        kind = current_kind(edge)
        if kind is None:
            continue  # already absent: removing it is a no-op
        if kind is EdgeKind.TREE:
            # The spanning tree itself changes; the traversal cannot be
            # preserved (and the removal may even disconnect the graph).
            return bail("tree-edge-removed")
        overlay[edge] = None
        edits.append(_EdgeEdit(source, target, kind, removed=True))
    for source, target in delta.added_edges:
        if (
            source not in graph
            or target not in graph
            or not dfs.visited(source)
            or not dfs.visited(target)
        ):
            return bail("unknown-node")
        if target == graph.entry:
            # The rebuilt graph would fail validate(); keep behaviour
            # aligned by letting the full rebuild raise.
            return bail("edge-into-entry")
        edge = Edge(source, target)
        if current_kind(edge) is not None:
            continue  # already present: add_edge would ignore it
        kind = dfs.classify_inserted_edge(source, target)
        if kind is None:
            # The target was undiscovered when the source finished: a
            # fresh DFS would adopt the new edge as a tree edge.
            return bail("dfs-change")
        overlay[edge] = kind
        edits.append(_EdgeEdit(source, target, kind))

    if not edits:
        # Every primitive was idempotent against this graph (re-adding a
        # present edge, removing an absent one): nothing changed.
        return UpdateResult(True, "no-op")

    # ------------------------------------------------------------------
    # Phase 2: apply the edit to the graph, then verify dominators.
    # ------------------------------------------------------------------
    for edit in edits:
        if edit.removed:
            graph.remove_edge(edit.source, edit.target)
        else:
            graph.add_edge(edit.source, edit.target)

    dominators_recomputed = False
    if not all(domtree.dominates(e.target, e.source) for e in edits):
        # The O(1) sufficient condition failed for some edit; rerun the
        # CHK fixpoint on the edited graph.  The preserved DFS is a
        # genuine DFS of that graph, so its reverse postorder is valid.
        dominators_recomputed = True
        new_idom = _immediate_dominators_iterative(graph, dfs)
        for node in graph.nodes():
            old = domtree.immediate_dominator(node)
            if old is None:
                old = node  # the iterative map uses entry -> entry
            if new_idom[node] != old:
                return UpdateResult(
                    False, "dominators-changed",
                    dominators_recomputed=True,
                )

    # ------------------------------------------------------------------
    # Phase 3: commit — patch DFS bookkeeping, then the R/T rows.
    # From here on nothing can fail; the numbering is proven unchanged.
    # ------------------------------------------------------------------
    for edit in edits:
        if edit.removed:
            dfs.note_edge_removed(edit.source, edit.target)
        else:
            dfs.note_edge_added(edit.source, edit.target, edit.kind)

    num = domtree.numbering.__getitem__
    r_masks = pre.r_masks
    t_masks = pre.t_masks

    # --- R: one postorder pass over the reduced graph -----------------
    touched_sources = {e.source for e in edits if e.kind is not EdgeKind.BACK}
    changed_r: dict[int, int] = {}  # number -> old mask
    if touched_sources:
        back = set(dfs.back_edges())  # the builder's back-edge test
        changed_nodes: set[Node] = set()
        for node in dfs.postorder():
            succs = graph.successors(node)
            if node not in touched_sources and changed_nodes.isdisjoint(succs):
                continue
            number = num(node)
            mask = 1 << number
            for succ in succs:
                if (node, succ) not in back:
                    mask |= r_masks[num(succ)]
            if mask != r_masks[number]:
                changed_r[number] = r_masks[number]
                r_masks[number] = mask
                changed_nodes.add(node)

    # --- back-edge target flags ---------------------------------------
    back_bits: list[tuple[int, int, int]] = []  # (source bit, target bit, num(t))
    back_targets_touched: set[Node] = set()
    for edit in edits:
        if edit.kind is EdgeKind.BACK:
            t_num = num(edit.target)
            back_bits.append((1 << num(edit.source), 1 << t_num, t_num))
            back_targets_touched.add(edit.target)
    for target in back_targets_touched:
        flag = any(edge.target == target for edge in dfs.back_edges())
        pre.is_back_target[num(target)] = flag
        if flag:
            pre._back_edge_targets.add(target)
        else:
            pre._back_edge_targets.discard(target)

    # --- T: one preorder pass (Theorem-3 order) -----------------------
    t_rows_changed = 0
    if changed_r or back_bits:
        # An edit that only adds back edges leaves R alone, so every T
        # set can only grow.  T is transitive (w ∈ T_v ⇒ T_w ⊆ T_v), so
        # a row then gains exactly the grown rows of the targets it
        # already holds, plus T_t for each new back edge s -> t whose
        # Equation-1 term it now meets — no Equation-1 re-sweep.
        growing = not changed_r and not any(edit.removed for edit in edits)
        groups = None if growing else back_edge_groups(dfs, num)
        changed_t_mask = 0
        for node in dfs.preorder():
            number = num(node)
            r = r_masks[number]
            old = t_masks[number]
            if growing:
                mask = old
                grown = old & changed_t_mask
                while grown:
                    low = grown & -grown
                    mask |= t_masks[low.bit_length() - 1]
                    grown ^= low
                for s, t, t_num in back_bits:
                    if r & s and not r & t:
                        mask |= t_masks[t_num]
            elif (
                # A row with an unchanged R only moves if a T row it
                # folded in moved, or an edited back edge s -> t enters
                # its Equation 1 term: s in R and t not in R.
                number in changed_r
                or old & changed_t_mask
                or any(r & s and not r & t for s, t, _ in back_bits)
            ):
                mask = equation1_row(number, r, groups, t_masks)
            else:
                continue
            if mask != old:
                changed_t_mask |= 1 << number
                t_masks[number] = mask
                t_rows_changed += 1

    # --- the reducibility flag (arms the Theorem-2 fast path) ---------
    # Back edges are the only edges whose kind matters, and dominators
    # are unchanged: an added back edge keeps the CFG reducible iff its
    # target dominates its source; only removing one from an
    # irreducible CFG calls for a full recheck.
    if pre.reducible:
        pre.reducible = all(
            domtree.dominates(edit.target, edit.source)
            for edit in edits
            if edit.kind is EdgeKind.BACK and not edit.removed
        )
    elif any(edit.kind is EdgeKind.BACK and edit.removed for edit in edits):
        pre.reducible = is_reducible(graph, dfs, domtree)

    return UpdateResult(
        True,
        APPLIED,
        r_rows_changed=len(changed_r),
        t_rows_changed=t_rows_changed,
        dominators_recomputed=dominators_recomputed,
    )


def update_precomputation(
    pre: "LivenessPrecomputation", delta: CfgDelta
) -> "tuple[LivenessPrecomputation, UpdateResult]":
    """Patch ``pre`` for ``delta``, rebuilding from its graph on fallback.

    The CFG-level convenience wrapper (benchmarks, synthetic workloads):
    the returned precomputation always reflects the edited graph —
    either the same object patched in place, or a fresh build over the
    mutated graph when the delta forced a fallback.
    """
    from repro.core.precompute import LivenessPrecomputation

    result = apply_cfg_delta(pre, delta)
    if result.applied:
        return pre, result
    return (
        LivenessPrecomputation(pre.graph, strategy=pre.targets.strategy),
        result,
    )
