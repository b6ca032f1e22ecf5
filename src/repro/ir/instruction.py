"""IR instructions, including φ-functions and terminators.

The instruction set is intentionally small — the liveness algorithms only
care about which variables an instruction defines and uses, and which block
control transfers to — but it is rich enough for the mini front-end, the
synthetic workload generator and the SSA destruction pass to produce
realistic code:

=============  =============================================  ==============
opcode         meaning                                         operands
=============  =============================================  ==============
``param``      function parameter definition                   none
``const``      load an immediate                               Constant
``copy``       register-to-register move                       value
``unop``       unary arithmetic (detail in ``detail``)         value
``binop``      binary arithmetic (detail in ``detail``)        value, value
``call``       opaque call (may use many values)               values…
``load``       opaque memory read                              value
``store``      opaque memory write (no result)                 value, value
``phi``        SSA φ-function                                  per-pred values
``parcopy``    parallel copy (all reads before any write)      per-pair sources
``jump``       unconditional branch                            none
``branch``     conditional branch                              value
``return``     function return                                 optional value
=============  =============================================  ==============

φ-operands follow Definition 1 of the paper: the *i*-th operand of a φ in
block ``b`` is used at the *i*-th predecessor of ``b``, not at ``b`` itself.
That convention is enforced by :mod:`repro.ssa.defuse` which is the single
source of truth for use sites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.ir.value import Value, Variable

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.block import BasicBlock


class Opcode:
    """String constants for the supported opcodes."""

    PARAM = "param"
    CONST = "const"
    COPY = "copy"
    UNOP = "unop"
    BINOP = "binop"
    CALL = "call"
    LOAD = "load"
    STORE = "store"
    PHI = "phi"
    PARCOPY = "parcopy"
    JUMP = "jump"
    BRANCH = "branch"
    RETURN = "return"

    TERMINATORS = frozenset({JUMP, BRANCH, RETURN})
    ALL = frozenset(
        {
            PARAM,
            CONST,
            COPY,
            UNOP,
            BINOP,
            CALL,
            LOAD,
            STORE,
            PHI,
            PARCOPY,
            JUMP,
            BRANCH,
            RETURN,
        }
    )


class Instruction:
    """A single IR instruction.

    Parameters
    ----------
    opcode:
        One of the :class:`Opcode` constants.
    result:
        The variable defined by the instruction, or ``None``.
    operands:
        The values read by the instruction (excluding φ incoming values,
        which are handled by :class:`Phi`).
    targets:
        Successor block *names* for terminators (one for ``jump``, two for
        ``branch`` in (true, false) order, none for ``return``).
    detail:
        Free-form refinement of the opcode, e.g. ``"add"`` for a ``binop``
        or the callee name for a ``call``.

    Instructions are slotted: the def–use and CFG walks read ``result``,
    ``operands`` and ``targets`` of every instruction, and slot access
    skips the per-instance ``__dict__``.  Subclasses declare their own
    ``__slots__`` so no instance ever grows a ``__dict__``.
    """

    __slots__ = ("opcode", "result", "operands", "targets", "detail", "block")

    def __init__(
        self,
        opcode: str,
        result: Variable | None = None,
        operands: Iterable[Value] = (),
        targets: Iterable[str] = (),
        detail: str = "",
    ) -> None:
        if opcode not in Opcode.ALL:
            raise ValueError(f"unknown opcode {opcode!r}")
        self.opcode = opcode
        self.result = result
        self.operands: list[Value] = list(operands)
        self.targets: list[str] = list(targets)
        self.detail = detail
        self.block: "BasicBlock | None" = None
        self._validate_shape()
        if result is not None:
            result.definition = self

    def _validate_shape(self) -> None:
        if self.opcode == Opcode.JUMP and len(self.targets) != 1:
            raise ValueError("jump needs exactly one target")
        if self.opcode == Opcode.BRANCH and len(self.targets) != 2:
            raise ValueError("branch needs exactly two targets")
        if self.opcode == Opcode.RETURN and self.targets:
            raise ValueError("return takes no targets")
        if self.opcode in Opcode.TERMINATORS and self.result is not None:
            raise ValueError("terminators do not define a result")
        if self.opcode == Opcode.STORE and self.result is not None:
            raise ValueError("store does not define a result")

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    def is_terminator(self) -> bool:
        """True for jump/branch/return."""
        return self.opcode in Opcode.TERMINATORS

    def is_phi(self) -> bool:
        """True for φ-functions."""
        return self.opcode == Opcode.PHI

    def defined_variable(self) -> Variable | None:
        """The variable this instruction defines, if any."""
        return self.result

    def defined_variables(self) -> list[Variable]:
        """Every variable this instruction defines.

        Ordinary instructions define at most one variable (``result``);
        :class:`ParallelCopy` overrides this to return all of its
        destinations.  Analyses that walk definitions should prefer this
        over ``result`` so multi-definition instructions are handled.
        """
        return [self.result] if self.result is not None else []

    def used_variables(self) -> list[Variable]:
        """Variables read by this instruction.

        For φ-functions this returns *all* incoming variables; callers that
        need the per-predecessor attribution of Definition 1 must use
        :class:`Phi.incoming` or the def–use chain module.
        """
        return [op for op in self.operands if isinstance(op, Variable)]

    def replace_uses(self, old: Variable, new: Value) -> int:
        """Replace every operand occurrence of ``old`` by ``new``.

        Returns the number of replacements performed.
        """
        count = 0
        for index, operand in enumerate(self.operands):
            if operand is old:
                self.operands[index] = new
                count += 1
        return count

    def __repr__(self) -> str:
        return f"Instruction({self!s})"

    def __str__(self) -> str:
        from repro.ir.printer import format_instruction

        return format_instruction(self)


class Phi(Instruction):
    """An SSA φ-function ``result ← φ(value₁ : pred₁, …, valueₙ : predₙ)``.

    Incoming values are stored as an ordered mapping from predecessor block
    name to value.  The order follows the block's predecessor list; the
    verifier checks the two stay consistent.
    """

    __slots__ = ("incoming",)

    def __init__(
        self,
        result: Variable,
        incoming: dict[str, Value] | Iterable[tuple[str, Value]] = (),
    ) -> None:
        incoming_pairs = (
            list(incoming.items()) if isinstance(incoming, dict) else list(incoming)
        )
        self.incoming: dict[str, Value] = dict(incoming_pairs)
        super().__init__(
            Opcode.PHI,
            result=result,
            operands=[value for _, value in incoming_pairs],
        )

    def set_incoming(self, pred: str, value: Value) -> None:
        """Set (or overwrite) the value flowing in from predecessor ``pred``."""
        self.incoming[pred] = value
        self.operands = list(self.incoming.values())

    def incoming_value(self, pred: str) -> Value:
        """The value selected when control arrives from ``pred``."""
        return self.incoming[pred]

    def replace_uses(self, old: Variable, new: Value) -> int:
        count = 0
        for pred, value in list(self.incoming.items()):
            if value is old:
                self.incoming[pred] = new
                count += 1
        self.operands = list(self.incoming.values())
        return count

    def rename_predecessor(self, old: str, new: str) -> None:
        """Re-key an incoming edge after a CFG edit (e.g. edge splitting)."""
        if old not in self.incoming:
            raise KeyError(f"phi has no incoming value from {old!r}")
        value = self.incoming.pop(old)
        self.incoming[new] = value
        self.operands = list(self.incoming.values())


class ParallelCopy(Instruction):
    """A parallel copy ``(d₁, …, dₙ) ← (s₁, …, sₙ)``.

    All sources are read before any destination is written — exactly the
    semantics of the copies a φ-function conceptually performs on each
    incoming edge.  SSA destruction (:mod:`repro.ssadestruct`) isolates φs
    by materialising these instructions at the ends of predecessor blocks
    and right after the φ prefix; a later sequentialisation pass lowers
    each one into an equivalent sequence of plain ``copy`` instructions,
    breaking cycles with a temporary.

    Unlike every other instruction, a parallel copy defines *several*
    variables; ``result`` stays ``None`` and :meth:`defined_variables`
    returns the destinations.  Destinations must be pairwise distinct.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[Variable, Value]]) -> None:
        pair_list = list(pairs)
        if not pair_list:
            raise ValueError("parallel copy needs at least one (dest, src) pair")
        dests = [dest for dest, _ in pair_list]
        if len({id(dest) for dest in dests}) != len(dests):
            raise ValueError("parallel copy has duplicate destinations")
        self.pairs: list[tuple[Variable, Value]] = pair_list
        super().__init__(
            Opcode.PARCOPY,
            result=None,
            operands=[src for _, src in pair_list],
        )
        for dest, _ in pair_list:
            dest.definition = self

    @property
    def destinations(self) -> list[Variable]:
        """The variables written (in pair order)."""
        return [dest for dest, _ in self.pairs]

    @property
    def sources(self) -> list[Value]:
        """The values read (in pair order)."""
        return [src for _, src in self.pairs]

    def defined_variables(self) -> list[Variable]:
        return self.destinations

    def replace_pairs(self, pairs: Iterable[tuple[Variable, Value]]) -> None:
        """Swap in a new pair list (e.g. after congruence-class renaming)."""
        pair_list = list(pairs)
        if not pair_list:
            raise ValueError("parallel copy needs at least one (dest, src) pair")
        dests = [dest for dest, _ in pair_list]
        if len({id(dest) for dest in dests}) != len(dests):
            raise ValueError("parallel copy has duplicate destinations")
        self.pairs = pair_list
        self.operands = [src for _, src in pair_list]
        for dest, _ in pair_list:
            dest.definition = self

    def replace_uses(self, old: Variable, new: Value) -> int:
        count = 0
        for index, (dest, src) in enumerate(self.pairs):
            if src is old:
                self.pairs[index] = (dest, new)
                count += 1
        self.operands = [src for _, src in self.pairs]
        return count
