"""End-to-end allocation on ≥200 random synthetic functions.

This is the acceptance gate of the subsystem: every allocation produced
through the fast checker is validated by the *independent* data-flow
verifier (no two simultaneously-live variables share a register), and on
spill-free reducible inputs the coloring uses exactly MaxLive registers.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.api.registry import available_engines, get_engine
from repro.cfg.reducibility import is_reducible
from repro.regalloc.allocator import OracleBackend, allocate, make_backend
from repro.regalloc.verify import verify_allocation
from repro.synth.random_function import random_ssa_function
from tests.support.set_oracle import SET_ENGINE


def _function(seed: int, **overrides):
    rng = random.Random(seed)
    options = dict(
        num_blocks=rng.randrange(4, 14),
        num_variables=rng.randrange(3, 7),
        instructions_per_block=rng.randrange(2, 5),
        allow_irreducible=(seed % 2 == 0),
    )
    options.update(overrides)
    return random_ssa_function(rng, **options)


# 120 spill-free + 60 budgeted + 30 destructed = 210 verified allocations.
@pytest.mark.parametrize("seed", range(120))
def test_spill_free_allocation_is_valid_and_optimal(seed):
    function = _function(7000 + seed)
    reducible = is_reducible(function.build_cfg())
    allocation = allocate(function, num_registers=None)
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors
    assert allocation.spill_report is None
    if reducible:
        # SSA interference graphs are chordal: dominance-order greedy
        # coloring is optimal, and the verifier independently reproduces
        # the same MaxLive.
        assert allocation.registers_used == allocation.max_live
        assert result.max_pressure == allocation.max_live


@pytest.mark.parametrize("seed", range(60))
def test_budgeted_allocation_is_valid(seed):
    function = _function(8000 + seed, num_variables=6, instructions_per_block=4)
    allocation = allocate(function, num_registers=4)
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors
    if allocation.spill_report is not None:
        assert allocation.max_live < allocation.max_live_before_spill
        assert allocation.spill_slot_of


@pytest.mark.parametrize("seed", range(30))
def test_allocation_survives_ssa_destruction(seed):
    function = _function(9000 + seed)
    allocation = allocate(function, num_registers=6, destruct=True)
    assert allocation.destruction_report is not None
    assert not function.phis(), "destruction must have removed every phi"
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors
    # Every surviving variable is mapped.
    mapped = set(map(id, allocation.register_of))
    assert {id(var) for var in function.variables()} <= mapped


# Algorithms 1/2 are no registered engine; their test oracle's spec drives
# the allocator the same way a name does.
@pytest.mark.parametrize(
    "backend", ["fast", SET_ENGINE, "dataflow"], ids=["fast", "sets", "dataflow"]
)
def test_backends_produce_identical_register_counts(backend):
    base = _function(9900)
    function = copy.deepcopy(base)
    reference = allocate(copy.deepcopy(base), num_registers=5, backend="fast")
    allocation = allocate(function, num_registers=5, backend=backend)
    assert verify_allocation(function, allocation).ok
    assert allocation.registers_used == reference.registers_used
    assert allocation.max_live == reference.max_live
    assert allocation.backend == getattr(backend, "name", backend)


def test_make_backend_rejects_unknown_names(gcd_function):
    with pytest.raises(ValueError):
        make_backend("phlogiston", gcd_function)


def test_make_backend_resolves_every_registered_engine(gcd_function):
    for name in available_engines():
        if get_engine(name).oracle_factory is None:
            continue
        backend = make_backend(name, gcd_function)
        assert isinstance(backend, OracleBackend)
        assert backend.spec.name == backend.name == name
    assert make_backend(SET_ENGINE, gcd_function).spec is SET_ENGINE


def test_prebuilt_unregistered_backend_supports_destruct():
    """A hand-rolled LivenessBackend whose name is in no registry must
    still drive allocate(..., destruct=True) (regression: the destruct
    path resolved adapter.name through the engine registry)."""
    from repro.liveness.dataflow import DataflowLiveness
    from repro.regalloc.allocator import LivenessBackend

    class HandRolled(LivenessBackend):
        name = "hand-rolled"

        def __init__(self, function):
            super().__init__(function)
            self._oracle = DataflowLiveness(function)

        def oracle(self):
            return self._oracle

        def instructions_changed(self):
            self._oracle = DataflowLiveness(self.function)

        def cfg_changed(self):
            self._oracle = DataflowLiveness(self.function)

    function = _function(9960, allow_irreducible=False)
    allocation = allocate(function, num_registers=6, backend=HandRolled(function), destruct=True)
    assert allocation.destruction_report is not None
    assert allocation.destruction_report.backend == "hand-rolled"
    assert not function.phis()
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors


def test_prebuilt_unregistered_fast_backend_supports_destruct():
    """Same as above but wrapping the fast checker: the oracle exposes
    ``precomputation``, so the pipeline's checker path must accept the
    unregistered name too."""
    from repro.core.live_checker import FastLivenessChecker
    from repro.regalloc.allocator import LivenessBackend

    class HandRolledFast(LivenessBackend):
        name = "hand-rolled-fast"

        def __init__(self, function):
            super().__init__(function)
            self._oracle = FastLivenessChecker(function)

        def oracle(self):
            return self._oracle

        def instructions_changed(self):
            self._oracle.notify_instructions_changed()

        def cfg_changed(self):
            self._oracle.notify_cfg_changed()

    function = _function(9970, allow_irreducible=False)
    allocation = allocate(
        function, num_registers=6, backend=HandRolledFast(function), destruct=True
    )
    assert allocation.destruction_report is not None
    assert allocation.destruction_report.backend == "hand-rolled-fast"
    assert not function.phis()
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors


def test_prebuilt_backend_survives_edge_splitting():
    # A backend prepared on the unsplit CFG must be refreshed when
    # allocate() splits critical edges under it.
    function = _function(9950, allow_irreducible=False)
    backend = make_backend("fast", function)
    backend.oracle().prepare()
    allocation = allocate(function, num_registers=None, backend=backend)
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors


def test_structured_program_allocation(nested_function):
    allocation = allocate(nested_function, num_registers=None)
    result = verify_allocation(nested_function, allocation)
    assert result.ok, result.errors
    assert allocation.registers_used == allocation.max_live


def test_allocation_register_lookup(gcd_function):
    allocation = allocate(gcd_function)
    for var in gcd_function.variables():
        assert allocation.register(var) >= 0
    assert allocation.spilled == []
