"""The target sets have one construction, and no layer offers another.

The exact Equation-1 ``T_v`` sets are what the query, the Theorem-2
single-candidate fast path and the in-place CFG patcher all rely on, so
no constructor, factory or persisted record between the kernel and the
snapshot takes a target-set ``strategy`` — and the served checker takes
no ``reducible_fast_path`` (that ablation knob lives on the test-side
:class:`~tests.support.bitset_checker.BitsetChecker` only) and no
``use_bitsets``: Algorithm 3 on bitsets is its one query path, and no
``sets`` engine is registered.  The register allocator takes no
``use_batch``: it uses the batch engine exactly when the oracle has one.
Each entry below must refuse the keyword at call binding, before any
work (or worker process) starts.  The §5.2
propagated sets stay reproducible through
``tests.support.reference_precompute``, and Algorithms 1/2 over def–use
chains through ``tests.support.set_oracle``.
"""

from __future__ import annotations

import pytest

from repro.api.client import CompilerClient
from repro.api.registry import UnknownEngineError, available_engines, get_engine
from repro.concurrent.client import ShardedClient
from repro.concurrent.procs import ProcClient
from repro.concurrent.sharded import ShardedService
from repro.core.live_checker import FastLivenessChecker
from repro.core.precompute import LivenessPrecomputation
from repro.core.targets import TargetSets
from repro.persist.precomp import PrecompState
from repro.persist.recovery import recover, restore_client
from repro.persist.snapshot import SnapshotState, make_snapshot_state
from repro.regalloc.chordal import color_function
from repro.regalloc.pressure import BlockLiveness, compute_pressure, max_live
from repro.regalloc.spill import lower_pressure
from repro.service.service import LivenessService

TAKES_NO_STRATEGY = {
    "TargetSets": TargetSets,
    "LivenessPrecomputation": LivenessPrecomputation,
    "FastLivenessChecker": FastLivenessChecker,
    "FastLivenessChecker.from_precomputation": FastLivenessChecker.from_precomputation,
    "LivenessService": LivenessService,
    "ShardedService": ShardedService,
    "ShardedClient": ShardedClient,
    "CompilerClient": CompilerClient,
    "ProcClient": ProcClient,
    "make_snapshot_state": make_snapshot_state,
    "SnapshotState": SnapshotState,
    "PrecompState": PrecompState,
}

#: The served checker's entry points: one query path, no switches.
SERVED_CHECKER = {
    "FastLivenessChecker": FastLivenessChecker,
    "FastLivenessChecker.from_precomputation": FastLivenessChecker.from_precomputation,
}


#: The allocator's liveness front ends: the batch engine is used exactly
#: when the oracle exposes one, so no caller chooses.
TAKES_NO_BATCH_SWITCH = {
    "BlockLiveness": BlockLiveness,
    "compute_pressure": compute_pressure,
    "max_live": max_live,
    "color_function": color_function,
    "lower_pressure": lower_pressure,
}


@pytest.mark.parametrize("name", sorted(TAKES_NO_STRATEGY))
def test_no_strategy_keyword(name):
    with pytest.raises(TypeError, match="strategy"):
        TAKES_NO_STRATEGY[name](strategy="exact")


# ``recover`` and ``restore_client`` forward extra keywords to the client
# they build, which refuses this one before anything is served.
def test_recover_takes_no_strategy(tmp_path):
    with pytest.raises(TypeError, match="strategy"):
        recover(str(tmp_path), strategy="exact")


def test_restore_client_takes_no_strategy():
    with pytest.raises(TypeError, match="strategy"):
        restore_client(None, strategy="exact")


@pytest.mark.parametrize("name", sorted(SERVED_CHECKER))
def test_served_checker_has_no_fast_path_switch(name):
    with pytest.raises(TypeError, match="reducible_fast_path"):
        SERVED_CHECKER[name](reducible_fast_path=False)


@pytest.mark.parametrize("name", sorted(SERVED_CHECKER))
def test_served_checker_has_no_bitset_switch(name):
    with pytest.raises(TypeError, match="use_bitsets"):
        SERVED_CHECKER[name](use_bitsets=False)


@pytest.mark.parametrize("name", sorted(TAKES_NO_BATCH_SWITCH))
def test_allocator_has_no_batch_switch(name):
    with pytest.raises(TypeError, match="use_batch"):
        TAKES_NO_BATCH_SWITCH[name](None, None, use_batch=False)


def test_sets_is_no_registered_engine():
    assert available_engines() == ("fast", "dataflow", "graph")
    with pytest.raises(UnknownEngineError):
        get_engine("sets")


def test_topology_names_no_strategy():
    assert ShardedClient().topology() == {"shards": 4, "capacity": 64}
