"""Spilling: pressure really drops, rewrites are well-formed, and the
checker's precomputation survives every round (the paper's invalidation
contract, exercised by a real client)."""

from __future__ import annotations

import random

import pytest

from repro.ir.instruction import Opcode
from repro.regalloc.allocator import allocate, make_backend
from repro.regalloc.pressure import compute_pressure
from repro.regalloc.verify import verify_allocation
from repro.synth.random_function import random_ssa_function


def _pressured_function(seed: int):
    rng = random.Random(seed)
    return random_ssa_function(
        rng, num_blocks=rng.randrange(8, 16), num_variables=7, instructions_per_block=4
    )


@pytest.mark.parametrize("seed", range(15))
def test_spilling_lowers_pressure_and_stays_valid(seed):
    function = _pressured_function(6100 + seed)
    allocation = allocate(function, num_registers=4)
    report = allocation.spill_report
    if report is None:
        # The generator occasionally stays under budget; nothing to spill.
        assert allocation.max_live_before_spill <= 4
        return
    assert report.max_live_before > 4
    assert report.max_live_after < report.max_live_before
    assert allocation.max_live == report.max_live_after
    assert report.stores_inserted == len(report.spilled)
    assert report.reloads_inserted > 0
    result = verify_allocation(function, allocation)
    assert result.ok, result.errors


def test_spill_rewrite_shape():
    function = _pressured_function(6200)
    allocation = allocate(function, num_registers=3)
    report = allocation.spill_report
    assert report is not None
    stores = [
        inst
        for inst in function.instructions()
        if inst.opcode == Opcode.STORE and inst.detail == "spill"
    ]
    reloads = [
        inst
        for inst in function.instructions()
        if inst.opcode == Opcode.LOAD and inst.detail == "reload"
    ]
    assert len(stores) == report.stores_inserted
    assert len(reloads) == report.reloads_inserted
    # Every spilled variable is stored to its own slot exactly once.
    assert sorted(report.slot_of.values()) == list(range(len(report.spilled)))
    stored_slots = {inst.operands[1].value for inst in stores}
    assert stored_slots == set(report.slot_of.values())
    # φ prefixes stay intact: no store or load interrupts a φ run.
    for block in function:
        phi_prefix = block.phis()
        assert all(inst.is_phi() for inst in block.instructions[: len(phi_prefix)])


def test_precomputation_survives_spilling():
    function = _pressured_function(6300)
    function.split_critical_edges()
    backend = make_backend("fast", function)
    checker = backend.oracle()
    checker.prepare()
    precomputation = checker.precomputation
    allocation = allocate(
        function, num_registers=3, backend=backend, split_edges=False
    )
    report = allocation.spill_report
    assert report is not None and report.rounds > 0
    # Spill code is an instruction-level edit: the R/T precomputation is
    # untouched, object-identically, across every round.
    assert backend.oracle() is checker
    assert checker.precomputation is precomputation
    assert verify_allocation(function, allocation).ok


def test_unlimited_registers_never_spill():
    function = _pressured_function(6400)
    allocation = allocate(function, num_registers=None)
    assert allocation.spill_report is None
    assert allocation.registers_used == allocation.max_live


def test_budget_at_or_above_maxlive_never_spills():
    from repro.core.live_checker import FastLivenessChecker

    function = _pressured_function(6500)
    probe = compute_pressure(function, FastLivenessChecker(function))
    function2 = _pressured_function(6500)
    allocation = allocate(function2, num_registers=probe.max_live + 3)
    assert allocation.spill_report is None


def test_rejects_nonpositive_budget():
    from repro.regalloc.spill import lower_pressure

    function = _pressured_function(6600)
    with pytest.raises(ValueError):
        lower_pressure(function, 0, lambda: None)
