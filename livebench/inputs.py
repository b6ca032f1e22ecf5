"""Seeded inputs for every workload: a pure function of ``--seed``.

``generate_benchmark_functions`` seeds its generator from
``hash(profile.name)``, which ``PYTHONHASHSEED`` randomises per process.
The inputs here therefore drive the same building blocks
(``sample_block_count``, ``generate_function_with_blocks`` and the
irreducible-procedure generator) from RNGs seeded with strings, which
``random.Random`` hashes with SHA-512 and so derives identically in every
process.

Block counts are *stratified*: function ``i`` of ``n`` in a profile
targets the profile's log-normal quantile at ``(i + 0.5) / n``, and the
seed draws the programs that realise those targets.  The population
keeps the Table 1 shape of every profile, but the total work no longer
swings with a few tail draws, so two seeds give comparable runs.
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
from dataclasses import dataclass
from statistics import NormalDist

from repro.bench.workload import RecordingOracle
from repro.core import FastLivenessChecker
from repro.core.invalidation import TransformationSession
from repro.frontend.compile import compile_source
from repro.ir.function import Function
from repro.ir.instruction import Opcode
from repro.ir.printer import print_function
from repro.ir.value import Variable
from repro.ssadestruct.pipeline import destruct, phi_related_variables
from repro.synth.program_gen import random_program_source
from repro.synth.spec_profiles import (
    IRREDUCIBLE_PERIOD,
    SPEC_PROFILES,
    BenchmarkProfile,
    _config_for_statements,
    _irreducible_procedure,
    generate_function_with_blocks,
    sample_block_count,
)

from livebench.common import untimed

_NORMAL = NormalDist()


def rng_for(seed: int, purpose: str) -> random.Random:
    """A generator that depends only on ``seed`` and ``purpose``."""
    return random.Random(f"livebench:{seed}:{purpose}")


class _Quantile:
    """Stands in for ``random.Random`` inside ``sample_block_count``.

    The sampler fits the profile's log-normal and calls
    ``lognormvariate(mu, sigma)`` once; answering with the quantile at
    ``u`` turns its independent draw into a stratified one.
    """

    def __init__(self, u: float) -> None:
        self.u = u

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return math.exp(mu + sigma * _NORMAL.inv_cdf(self.u))


@dataclass
class Procedure:
    """One SPEC-shaped SSA function and the destruction queries it records."""

    profile: BenchmarkProfile
    function: Function
    #: The φ-related variables (the LAO restriction of the data-flow baseline).
    phi_related: list[Variable]
    #: ``(kind, variable, block)`` in the order SSA destruction asked them.
    queries: list[tuple[str, Variable, str]]


def spec_functions(
    seed: int, strata: int, tag: str, draws: int = 1, tick=untimed
) -> list[tuple[BenchmarkProfile, Function]]:
    """``strata × draws`` stratified functions from each of the ten profiles.

    Every :data:`IRREDUCIBLE_PERIOD`-th function overall is built over an
    irreducible CFG, as in ``generate_benchmark_functions``.  The slots
    whose targets are among the largest :data:`PIN_SHARE` hold the
    slowest functions, which set the tail latencies; their sizes are
    pinned by :func:`_pinned`.  ``tick`` is called between functions
    (see :class:`livebench.common.SetupClock`).
    """
    slots = [
        (profile, index, sample_block_count(_Quantile((index // draws + 0.5) / strata), profile))
        for profile in SPEC_PROFILES
        for index in range(strata * draws)
    ]
    targets = sorted(target for _p, _i, target in slots)
    pin_from = targets[min(len(targets) - 1, int(len(targets) * (1 - PIN_SHARE)))]
    rngs = {profile.name: rng_for(seed, f"{tag}:{profile.name}") for profile in SPEC_PROFILES}
    out = []
    for profile, index, target in slots:
        tick()
        rng = rngs[profile.name]
        name = f"{tag}_{profile.name.replace('.', '_')}_{index}"
        max_blocks = int(profile.max_blocks * 1.2)
        if len(out) % IRREDUCIBLE_PERIOD == IRREDUCIBLE_PERIOD - 1:
            function = _irreducible_procedure(rng, target, name)
        elif target >= pin_from:
            function = _pinned(rng, target, name, max_blocks, tick)
        else:
            function = _near_target(rng, target, name, max_blocks)
        out.append((profile, function))
    return out


#: How close a generated function's block count must come to its target
#: (fraction of the target, at least one block), and how many programs
#: may be drawn to get there; the closest one wins.
SIZE_TOLERANCE = 0.15
SIZE_TRIES = 4


def _near_target(rng: random.Random, target: int, name: str, max_blocks: int) -> Function:
    """A generated function whose block count lands close to ``target``.

    ``generate_function_with_blocks`` accepts anything within 35%; this
    asks for :data:`SIZE_TOLERANCE`, so that runs with different seeds
    do comparable work.  :func:`_pinned` holds the largest tighter still.
    """
    best = None
    for _ in range(SIZE_TRIES):
        function = generate_function_with_blocks(rng, target, name=name, max_blocks=max_blocks)
        miss = abs(len(function.blocks) - target)
        if best is None or miss < best[0]:
            best = (miss, function)
        if miss <= max(1, SIZE_TOLERANCE * target):
            break
    return best[1]


#: Share of the population, by block-count target, whose sizes are
#: pinned; how close they must come; the compiles allowed to get there.
#: A function's checker time follows its block count closely
#: (correlation 0.93 over 24 programs drawn for one 225-block target,
#: whose times spread by 15% with the usual tolerance), so pinning the
#: largest functions keeps op_p99_us from following the seed.
PIN_SHARE = 0.03
PIN_TOLERANCE = 0.03
PIN_TRIES = 24


def _pinned(rng: random.Random, target: int, name: str, max_blocks: int, tick) -> Function:
    """A function within :data:`PIN_TOLERANCE` of ``target`` blocks.

    Compiles programs of the generator used by
    ``generate_function_with_blocks``, sizing each one's statement budget
    by the blocks per statement seen so far; the closest one under
    ``max_blocks`` wins.
    """
    blocks_seen = statements_seen = 0
    per_statement = 6.0
    best = None
    for _ in range(PIN_TRIES):
        tick()
        statements = max(1, round(target / per_statement))
        source = random_program_source(rng, _config_for_statements(statements, target, rng), name=name)
        function = next(iter(compile_source(source, verify=False)))
        blocks = len(function.blocks)
        blocks_seen += blocks
        statements_seen += statements
        per_statement = blocks_seen / statements_seen
        if blocks <= max_blocks and (best is None or abs(blocks - target) < best[0]):
            best = (abs(blocks - target), function)
        if best is not None and best[0] <= PIN_TOLERANCE * target:
            break
    if best is None:
        return _near_target(rng, target, name, max_blocks)
    return best[1]


def spec_procedures(
    seed: int, strata: int, tag: str, draws: int = 1, tick=untimed
) -> list[Procedure]:
    """Functions plus the query stream one SSA-destruction run records.

    Mirrors ``repro.bench.workload.build_workload``: critical edges are
    split first, destruction runs on a copy, and the recorded queries are
    mapped back onto the retained SSA function by variable name.
    """
    procedures = []
    for profile, function in spec_functions(seed, strata, tag, draws, tick):
        tick()
        function.split_critical_edges()
        scratch = copy.deepcopy(function)
        recorder = RecordingOracle(FastLivenessChecker(scratch))
        destruct(scratch, oracle_factory=lambda _fn: recorder)
        by_name = {var.name: var for var in function.variables()}
        queries = [
            (kind, by_name[var.name], block)
            for kind, var, block in recorder.queries
            if var.name in by_name
        ]
        procedures.append(
            Procedure(profile, function, phi_related_variables(function), queries)
        )
    return procedures


def answer_all(engine, queries) -> list[bool]:
    """``engine``'s answers to a recorded ``(kind, variable, block)`` stream."""
    live_in, live_out = engine.is_live_in, engine.is_live_out
    return [live_in(v, b) if k == "in" else live_out(v, b) for k, v, b in queries]


class Digest:
    """SHA-256 over everything a workload feeds the program."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            self._hash.update(str(part).encode("utf-8"))
            self._hash.update(b"\x1f")

    def add_function(self, function: Function) -> None:
        self.add(print_function(function))

    def add_queries(self, queries) -> None:
        for kind, var, block in queries:
            self.add(kind, var.name, block)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


# ----------------------------------------------------------------------
# jit: edit scripts
# ----------------------------------------------------------------------
#: Edit kinds of a jit step, as ``(kind, *names)`` tuples:
#: ``("copy", block, var)``, ``("use", var, block)``,
#: ``("branch+", block, target)``, ``("branch-", block, target)`` and
#: ``("split", source, target)``.  A query is ``("q", kind, var, block)``.
INSTRUCTION_EDITS = ("copy", "use")
CFG_EDITS = ("branch+", "branch-", "split")


def apply_step(session: TransformationSession, names: dict, op: tuple) -> object:
    """Apply one script entry to ``session``; ``names`` maps variable names."""
    kind = op[0]
    if kind == "q":
        var = names[op[2]]
        if op[1] == "in":
            return session.is_live_in(var, op[3])
        return session.is_live_out(var, op[3])
    if kind == "copy":
        new_var = session.insert_copy(op[1], names[op[2]])
        names[new_var.name] = new_var
    elif kind == "use":
        session.add_use(names[op[1]], op[2])
    elif kind == "branch+":
        session.add_branch_target(op[1], op[2])
    elif kind == "branch-":
        session.remove_branch_target(op[1], op[2])
    else:
        session.split_edge(op[1], op[2])
    return None


#: Edit classes of a jit script and their shares: 70% instruction edits,
#: 15% patchable branch edits, 15% edge splits (which force a rebuild).
EDIT_MIX = (("instr", 14), ("branch", 3), ("split", 3))


def _pick_edit(rng: random.Random, session: TransformationSession, added: list, want: str) -> tuple:
    """One valid edit of class ``want`` for the session's current function.

    Instruction edits keep the program strict SSA: a new use goes only to
    a block its variable's definition dominates.  Branch edits add an edge
    ``s -> t`` with ``t`` dominating ``s`` (a back edge the incremental
    patcher can absorb) or remove one such edge added earlier.  A CFG edit
    the function offers no candidate for becomes an instruction edit.
    """
    function = session.function
    domtree = session.checker.precomputation.domtree
    defuse = session.defuse
    if want == "branch":
        if added and rng.random() < 0.5:
            block, target = added.pop(rng.randrange(len(added)))
            return ("branch-", block, target)
        blocks = [b.name for b in function]
        rng.shuffle(blocks)
        for source in blocks[:20]:
            term = function.block(source).terminator()
            if term is None or term.opcode != Opcode.JUMP:
                continue
            targets = [
                t for t in domtree.dominators_of(source)
                if t != source and t != function.entry.name
                and not function.block(t).phis()
                and t not in function.block(source).successors()
            ]
            if targets:
                target = rng.choice(targets)
                added.append((source, target))
                return ("branch+", source, target)
    elif want == "split":
        edges = [
            (b.name, s) for b in function for s in b.successors()
            if (b.name, s) not in added
        ]
        if edges:
            return ("split", *rng.choice(edges))
    var = rng.choice(defuse.variables())
    block = rng.choice(domtree.dominated(defuse.def_block(var)))
    if rng.random() < 0.5:
        return ("copy", block, var.name)
    return ("use", var.name, block)


def _pick_query(rng: random.Random, session: TransformationSession) -> tuple:
    """A live-in/out question; half of them inside the definition's subtree."""
    defuse = session.defuse
    var = rng.choice(defuse.variables())
    if rng.random() < 0.5:
        domtree = session.checker.precomputation.domtree
        block = rng.choice(domtree.dominated(defuse.def_block(var)))
    else:
        block = rng.choice([b.name for b in session.function])
    return ("q", rng.choice(("in", "out")), var.name, block)


def jit_script(seed: int, function: Function, rounds: int, queries: int) -> list[tuple]:
    """A seeded edit/query script, built by applying it to a scratch copy.

    Each round holds the edits of :data:`EDIT_MIX` in a shuffled order,
    so every function sees exactly the same share of each edit class.
    """
    rng = rng_for(seed, f"jit-script:{function.name}")
    session = TransformationSession(copy.deepcopy(function), track_dataflow=False)
    names = {var.name: var for var in session.defuse.variables()}
    added: list[tuple[str, str]] = []
    script = []
    schedule = []
    for _ in range(rounds):
        mix = [kind for kind, count in EDIT_MIX for _ in range(count)]
        rng.shuffle(mix)
        schedule.extend(mix)
    for want in schedule:
        edit = _pick_edit(rng, session, added, want)
        apply_step(session, names, edit)
        script.append(edit)
        for _ in range(queries):
            query = _pick_query(rng, session)
            apply_step(session, names, query)
            script.append(query)
    return script
