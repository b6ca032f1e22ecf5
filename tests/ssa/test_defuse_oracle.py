"""The flat def–use chains agree with the record-per-variable oracle.

:class:`repro.ssa.defuse.DefUseChains` keeps two flat dicts; the oracle
(:mod:`tests.support.reference_defuse`) keeps one
:class:`~repro.ssa.defuse.VariableDefUse` per variable.  Over the fuzz
corpus (reducible, irreducible and structured functions, each also after
φ isolation) every query, every Table 1 statistic and every incremental
edit sequence must come out identical — down to the order and
multiplicity of the use lists and the wording of the errors.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.ir.instruction import Instruction, Opcode
from repro.ir.value import Variable
from repro.ssa.defuse import DefUseChains, VariableDefUse
from repro.ssadestruct import isolate_phis
from tests.support.genfn import fuzz_function
from tests.support.reference_defuse import ReferenceDefUseChains

CORPUS = 210
CHUNKS = 7
THRESHOLDS = (0, 1, 2, 3, 4, 6)


def _isolated(function):
    clone = copy.deepcopy(function)
    isolate_phis(clone)
    return clone


def assert_same(chains: DefUseChains, oracle: ReferenceDefUseChains) -> None:
    variables = chains.variables()
    assert variables == oracle.variables()
    assert len(chains) == len(oracle)
    for var in variables:
        assert var in chains
        assert chains.def_block(var) == oracle.def_block(var)
        assert chains.uses(var) == oracle.uses(var)
        assert chains.use_blocks(var) == oracle.use_blocks(var)
        assert chains.num_uses(var) == oracle.num_uses(var)
        assert chains.chain(var) == VariableDefUse(
            var, oracle.def_block(var), oracle.uses(var)
        )
    assert chains.uses_histogram() == oracle.uses_histogram()
    assert list(chains.uses_histogram()) == list(oracle.uses_histogram())
    assert chains.uses_cdf(THRESHOLDS) == oracle.uses_cdf(THRESHOLDS)
    assert chains.uses_cdf() == oracle.uses_cdf()
    assert chains.max_uses() == oracle.max_uses()


def _outcome(call):
    try:
        return ("ok", call())
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _random_edits(rng: random.Random, function, chains, oracle, steps: int) -> None:
    blocks = list(function.blocks)
    fresh = 0
    for _ in range(steps):
        known = oracle.variables()
        op = rng.choice(("add_use", "add_use", "remove_use", "add_variable", "remove_variable"))
        if op == "add_variable" or not known:
            if known and rng.random() < 0.2:
                var = rng.choice(known)  # already registered: both must refuse
            else:
                fresh += 1
                var = Variable(f"fresh.{fresh}")
            args = (var, rng.choice(blocks))
        elif op == "add_use":
            var = rng.choice(known) if rng.random() < 0.9 else Variable("stray")
            args = (var, rng.choice(blocks))
        elif op == "remove_use":
            var = rng.choice(known)
            uses = oracle.uses(var)
            block = rng.choice(uses) if uses and rng.random() < 0.8 else rng.choice(blocks)
            args = (var, block)
        else:
            var = rng.choice(known) if rng.random() < 0.9 else Variable("stray")
            args = (var,)
        got = _outcome(lambda: getattr(chains, op)(*args))
        want = _outcome(lambda: getattr(oracle, op)(*args))
        assert got == want, (op, args)
        assert_same(chains, oracle)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_fuzz_corpus_matches_oracle(chunk):
    for index in range(chunk, CORPUS, CHUNKS):
        function = fuzz_function(index)
        assert_same(DefUseChains(function), ReferenceDefUseChains(function))
        isolated = _isolated(function)
        assert_same(DefUseChains(isolated), ReferenceDefUseChains(isolated))


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_random_edit_sequences_match_oracle(chunk):
    rng = random.Random(0xDEF05E + chunk)
    for index in range(chunk, CORPUS, CHUNKS * 3):
        for function in (fuzz_function(index), _isolated(fuzz_function(index))):
            chains, oracle = DefUseChains(function), ReferenceDefUseChains(function)
            _random_edits(rng, function, chains, oracle, steps=25)


def test_isolation_corpus_has_parallel_copies_and_zero_use_variables():
    """The corpus exercises the multi-definition and zero-use branches."""
    saw_parcopy = saw_unused = False
    for index in range(0, CORPUS, 10):
        isolated = _isolated(fuzz_function(index))
        saw_parcopy |= any(
            inst.opcode == Opcode.PARCOPY for inst in isolated.instructions()
        )
        chains = DefUseChains(isolated)
        saw_unused |= any(chains.num_uses(var) == 0 for var in chains.variables())
    assert saw_parcopy and saw_unused


@pytest.mark.parametrize("index", [0, 1, 7, 12])
def test_errors_match_oracle(index):
    # Redefinition: a copy that writes a variable a second time.
    function = fuzz_function(index)
    target = function.variables()[-1]
    block = list(function)[-1]
    block.insert(0, Instruction(Opcode.COPY, result=target, operands=[target]))
    assert _outcome(lambda: DefUseChains(function)) == _outcome(
        lambda: ReferenceDefUseChains(function)
    )
    assert _outcome(lambda: DefUseChains(function))[0] == "ValueError"
    # Undefined use: an operand no instruction defines.
    function = fuzz_function(index)
    ghost = Variable("ghost")
    list(function)[0].insert(0, Instruction(Opcode.STORE, operands=[ghost, ghost]))
    got = _outcome(lambda: DefUseChains(function))
    assert got == _outcome(lambda: ReferenceDefUseChains(function))
    assert got[0] == "ValueError" and "'ghost'" in got[1]


def test_plan_reads_flat_dicts_without_building_records(monkeypatch):
    from repro.core import FastLivenessChecker

    function = fuzz_function(3)
    checker = FastLivenessChecker(function)
    checker.prepare()
    monkeypatch.setattr(
        DefUseChains, "chain", lambda self, var: pytest.fail("plan built a record")
    )
    for var in checker.defuse.variables():
        plan = checker.plans.plan(var)
        assert plan.use_mask == sum(
            1 << num
            for num in {checker.precomputation.num(b) for b in checker.defuse.uses(var)}
        )
