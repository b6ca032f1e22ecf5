"""The register-allocation driver: pressure → spill → color → destruct.

:func:`allocate` composes the pieces of this package with the existing
SSA machinery into the JIT-style client the paper envisions:

1. **critical edges are split first** — the only CFG edit of the whole
   pipeline, deliberately performed *before* the liveness backend builds
   its precomputation so that nothing ever invalidates it afterwards;
2. :mod:`repro.regalloc.pressure` measures MaxLive through liveness
   queries;
3. if a register budget ``K`` is given and MaxLive exceeds it,
   :mod:`repro.regalloc.spill` iteratively rewrites the hottest values
   into spill slots — instruction edits only, absorbed by the backend's
   ``instructions_changed`` hook;
4. :mod:`repro.regalloc.chordal` colors the (possibly rewritten) SSA
   program optimally in dominance order;
5. optionally, :func:`repro.ssadestruct.destruct` lowers the φs with the
   *same* oracle family, and the variables whose assignment the
   translation invalidated (congruence-class representatives whose live
   ranges grew, plus parallel-copy temporaries) are recolored with a
   small greedy pass over independently computed per-point live sets.

The resulting :class:`Allocation` maps every variable to a register plus
every spilled variable to a slot, and is checked end-to-end by the
independent :mod:`repro.regalloc.verify`.

Liveness engines are resolved through the registry
(:mod:`repro.api.registry`) and deliberately pay their own maintenance
costs: an engine with the ``supports_edits`` capability absorbs spill
edits through its ``notify_instructions_changed`` hook, while anything
else is rebuilt from scratch after every edit — the asymmetry
:mod:`repro.bench.table_regalloc` measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.registry import FAST, EngineCapabilities, EngineSpec, get_engine
from repro.ir.function import Function
from repro.ir.value import Variable
from repro.liveness.oracle import LivenessOracle
from repro.regalloc.chordal import color_function
from repro.regalloc.pressure import BlockLiveness, compute_pressure
from repro.regalloc.spill import SpillReport, lower_pressure
from repro.regalloc.verify import per_point_live_sets
from repro.ssa.construction import construct_ssa
from repro.ssadestruct.pipeline import DestructReport
from repro.ssadestruct.pipeline import destruct as destruct_pipeline


# ----------------------------------------------------------------------
# Pluggable liveness backends (adapters over registry engine specs)
# ----------------------------------------------------------------------
class LivenessBackend:
    """A named way of answering the allocator's liveness queries.

    Subclasses own the oracle's life cycle: :meth:`oracle` returns an
    engine valid for the function *right now*, and
    :meth:`instructions_changed` is called after every spill rewrite with
    whatever invalidation cost the representation implies.
    """

    name = "abstract"

    def __init__(self, function: Function) -> None:
        self.function = function

    def oracle(self) -> LivenessOracle:
        raise NotImplementedError

    def instructions_changed(self) -> None:
        raise NotImplementedError

    def cfg_changed(self) -> None:
        """Blocks or edges changed: every representation starts over."""
        raise NotImplementedError


class OracleBackend(LivenessBackend):
    """The generic adapter: drives any registered engine spec.

    The spec's capabilities decide the maintenance strategy: engines with
    ``supports_edits`` absorb edits through their ``notify_*`` hooks
    (e.g. the fast checker's def–use-chain rebuild, which leaves the
    ``R``/``T`` precomputation untouched); everything else is rebuilt
    from scratch via the spec's oracle factory, which is exactly what a
    conventional precomputed representation costs.
    """

    def __init__(self, spec: EngineSpec, function: Function) -> None:
        super().__init__(function)
        self.spec = spec
        self.name = spec.name
        self._oracle = spec.make_oracle(function)

    def oracle(self) -> LivenessOracle:
        return self._oracle

    def instructions_changed(self) -> None:
        if self.spec.capabilities.supports_edits:
            self._oracle.notify_instructions_changed()
        else:
            self._oracle = self.spec.make_oracle(self.function)

    def cfg_changed(self) -> None:
        if self.spec.capabilities.supports_edits:
            self._oracle.notify_cfg_changed()
        else:
            self._oracle = self.spec.make_oracle(self.function)


def make_backend(name: str | EngineSpec, function: Function) -> OracleBackend:
    """The backend adapter for a registered engine (by name) or a spec."""
    spec = name if isinstance(name, EngineSpec) else get_engine(name)
    return OracleBackend(spec, function)


# ----------------------------------------------------------------------
# The allocation result
# ----------------------------------------------------------------------
@dataclass
class Allocation:
    """A complete register assignment for one function."""

    function: Function
    backend: str
    #: Variable (identity-keyed) → register number.
    register_of: dict[Variable, int] = field(default_factory=dict)
    #: Spilled variable → spill slot.
    spill_slot_of: dict[Variable, int] = field(default_factory=dict)
    #: The register budget requested (``None`` = unlimited).
    num_registers: int | None = None
    #: Number of distinct registers actually used.
    registers_used: int = 0
    #: MaxLive measured before any spilling.
    max_live_before_spill: int = 0
    #: MaxLive of the program that was colored (after spilling, if any).
    max_live: int = 0
    #: True when the input was not SSA (e.g. the output of an out-of-SSA
    #: translation) and the allocator round-tripped it through SSA
    #: construction before analysing it.
    reconstructed_ssa: bool = False
    #: Number of critical edges the driver split up front (0 means the
    #: CFG was not edited; callers use this to decide what to invalidate).
    edges_split: int = 0
    spill_report: SpillReport | None = None
    destruction_report: DestructReport | None = None
    #: Wall-clock seconds of the allocation pipeline (bench bookkeeping).
    elapsed_seconds: float = 0.0

    @property
    def spilled(self) -> list[Variable]:
        """The spilled variables, in eviction order."""
        return [] if self.spill_report is None else list(self.spill_report.spilled)

    def register(self, var: Variable) -> int:
        """The register assigned to ``var``."""
        return self.register_of[var]


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def allocate(
    function: Function,
    num_registers: int | None = None,
    backend: str | LivenessBackend = FAST,
    destruct: bool = False,
    split_edges: bool = True,
) -> Allocation:
    """Allocate registers for ``function`` (mutating it in place).

    Parameters
    ----------
    num_registers:
        The register budget ``K``; ``None`` colors without spilling and
        uses exactly MaxLive registers.
    backend:
        A registered engine name (resolved through
        :func:`repro.api.registry.get_engine`) or a prebuilt
        :class:`LivenessBackend`.
    destruct:
        Also translate out of SSA afterwards and extend the assignment to
        the copies the destruction pass introduces.
    split_edges:
        Split critical edges up front (required for ``destruct=True``;
        it is the one CFG edit, performed before any precomputation).
    """
    start = time.perf_counter()
    if destruct:
        # Destruction splits critical edges itself; that must happen before
        # the backend's precomputation exists, not between color and lower.
        split_edges = True
    prebuilt = isinstance(backend, LivenessBackend)
    spec: EngineSpec | None = None
    if not prebuilt:
        # Resolve (and reject) the engine *before* any mutation below:
        # a failed request must not leave the function half-edited under
        # a still-valid handle and a still-resident checker.
        spec = backend if isinstance(backend, EngineSpec) else get_engine(backend)
        if spec.oracle_factory is None:
            spec.make_oracle(function)  # raises the structural error
    reconstructed = False
    if not _is_ssa(function):
        # The input is not SSA — typically the output of an out-of-SSA
        # translation being re-allocated (a JIT re-entering the pipeline).
        # Every analysis below requires strict SSA, so round-trip through
        # SSA construction first; this is an instruction-level rewrite plus
        # φ insertion, i.e. it must happen before any precomputation.
        if prebuilt:
            raise ValueError(
                "cannot allocate a non-SSA function through a prebuilt "
                "backend: SSA reconstruction would invalidate it; pass the "
                "backend by name instead"
            )
        construct_ssa(function)
        reconstructed = True
    created: list[str] = []
    if split_edges:
        created = function.split_critical_edges()
        if created and prebuilt:
            # A prebuilt backend may already hold a precomputation for the
            # unsplit CFG; this is the one edit that invalidates it.
            backend.cfg_changed()
    adapter = backend if prebuilt else OracleBackend(spec, function)
    liveness = BlockLiveness(function, adapter.oracle())
    info = compute_pressure(function, adapter.oracle(), block_liveness=liveness)
    allocation = Allocation(
        function=function,
        backend=adapter.name,
        num_registers=num_registers,
        max_live_before_spill=info.max_live,
        reconstructed_ssa=reconstructed,
        edges_split=len(created),
    )
    if num_registers is not None and info.max_live > num_registers:
        allocation.spill_report = lower_pressure(
            function,
            num_registers,
            adapter.oracle,
            on_change=adapter.instructions_changed,
            initial_info=info,
        )
        allocation.spill_slot_of = dict(allocation.spill_report.slot_of)
        # The program changed under the spiller: refresh the block-level
        # facts before coloring.
        liveness = BlockLiveness(function, adapter.oracle())
        info = compute_pressure(function, adapter.oracle(), block_liveness=liveness)
    allocation.max_live = info.max_live
    coloring = color_function(function, adapter.oracle(), block_liveness=liveness)
    allocation.register_of = dict(coloring.color_of)
    allocation.registers_used = coloring.num_colors
    if destruct:
        # Drive the staged pipeline.  A fast-checker-family oracle is
        # handed over directly so the translation rides the same query
        # plans; engines without edit support are rebuilt *inside* the
        # pipeline (after φ isolation grows the variable universe), which
        # is exactly the maintenance cost such a representation implies.
        # Hand-rolled prebuilt backends need not be in the registry: a
        # synthetic spec keeps their name on the report.
        oracle = adapter.oracle()
        if hasattr(oracle, "precomputation"):
            if isinstance(adapter, OracleBackend):
                checker_spec = adapter.spec
            else:
                checker_spec = EngineSpec(
                    name=adapter.name,
                    oracle_factory=None,
                    capabilities=EngineCapabilities(supports_edits=True),
                )
            allocation.destruction_report = destruct_pipeline(
                function, backend=checker_spec, checker=oracle
            )
        elif isinstance(adapter, OracleBackend):
            allocation.destruction_report = destruct_pipeline(
                function, backend=adapter.spec
            )
        else:
            # The oracle_factory escape hatch reuses the backend's oracle
            # (the pipeline drops whatever pre-isolation state it
            # accumulated).
            allocation.destruction_report = destruct_pipeline(
                function,
                backend=EngineSpec(name=adapter.name, oracle_factory=None),
                oracle_factory=lambda fn: oracle,
            )
        # Destruction rewrote instructions; keep the backend honest in case
        # the caller issues further queries through it.
        adapter.instructions_changed()
        _extend_after_destruction(allocation)
    allocation.elapsed_seconds = time.perf_counter() - start
    return allocation


def _is_ssa(function: Function) -> bool:
    """Cheap single-definition check (the property construction restores)."""
    seen: set[int] = set()
    for inst in function.instructions():
        for var in inst.defined_variables():
            if id(var) in seen:
                return False
            seen.add(id(var))
    return True


def _extend_after_destruction(allocation: Allocation) -> None:
    """Repair the assignment after the out-of-SSA translation.

    The translation renames coalesced φ-webs onto a single representative
    (whose live range therefore *grew* to cover the whole class) and
    inserts parallel-copy temporaries that never existed when the chordal
    scan ran.  Both populations are recolored by a greedy sweep over
    independently computed per-point live sets: each such variable avoids
    the registers of everything it is ever simultaneously live with.
    Variables untouched by the translation keep their registers — lowering
    φs never extends *their* ranges.
    """
    function = allocation.function
    register_of = allocation.register_of
    report = allocation.destruction_report
    if report is not None:
        # A representative absorbed other members' ranges; its pre-translation
        # color may now clash, so it re-enters the uncolored population.
        for representative in report.coalesced_representatives:
            register_of.pop(representative, None)
    points = per_point_live_sets(function)
    forbidden: dict[Variable, set[int]] = {}
    neighbours: dict[Variable, set[Variable]] = {}
    order: list[Variable] = []

    def _touch(var: Variable) -> None:
        if var not in forbidden:
            forbidden[var] = set()
            neighbours[var] = set()
            order.append(var)

    for block in function:
        for index, inst in enumerate(block.instructions):
            live_after = points[block.name][index]
            group = set(live_after)
            if inst.result is not None:
                group.add(inst.result)
            # Sets of Variables iterate in id() order, which varies run to
            # run; the greedy sweep below is order-sensitive, so sort by
            # name to keep allocations reproducible (the concurrency
            # harness replays runs and demands bit-identical responses).
            uncolored = sorted(
                (var for var in group if var not in register_of),
                key=lambda var: var.name,
            )
            if not uncolored:
                continue
            colored = {
                register_of[var] for var in group if var in register_of
            }
            for var in uncolored:
                _touch(var)
                forbidden[var] |= colored
                neighbours[var] |= {other for other in uncolored if other is not var}
    for var in order:
        blocked = set(forbidden[var])
        for other in neighbours[var]:
            register = register_of.get(other)
            if register is not None:
                blocked.add(register)
        register = 0
        while register in blocked:
            register += 1
        register_of[var] = register
    # Coalesced φ-web members were renamed away by the destruction pass;
    # drop their stale entries so the register count reflects the program
    # as it now stands.
    present = {id(var) for var in function.variables()}
    for var in [v for v in register_of if id(v) not in present]:
        del register_of[var]
    allocation.registers_used = (
        max(register_of.values()) + 1 if register_of else 0
    )
