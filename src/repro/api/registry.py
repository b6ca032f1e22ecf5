"""The engine registry: one authority for liveness/interference engines.

Before this module, every client dispatched on bare string literals —
``"fast"`` in the allocator, ``"graph"`` in the destruction pipeline,
each re-validating the name itself and failing with a different
exception.  The registry replaces that with one table of
:class:`EngineSpec` entries: a name, a factory producing the engine's
:class:`~repro.liveness.oracle.LivenessOracle` for one function, and a
:class:`EngineCapabilities` record the clients use to decide *how* to
drive it (batching, invalidation strategy, eager per-point sets).
Third-party engines plug in with :func:`register_engine` and are
immediately selectable everywhere a built-in name is — the allocator,
the destruction pipeline, the service and the benchmark drivers all
resolve names here and nowhere else.

This module is also, deliberately, the only place in the serving stack
where the engine-name string literals appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.api.errors import ErrorCode, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.function import Function
    from repro.liveness.oracle import LivenessOracle

#: The paper's checker: Algorithm 3 on bitsets, batch engine, incremental
#: def–use maintenance.
FAST = "fast"
#: The conventional baseline: precomputed data-flow sets.
DATAFLOW = "dataflow"
#: The conventional *structure*: an eager full interference graph built
#: from per-point live sets (no point-query oracle at all).
GRAPH = "graph"


class UnknownEngineError(ProtocolError, ValueError):
    """The requested engine name is not registered.

    Subclasses :class:`ValueError` so pre-registry call sites (and their
    tests) that caught ``ValueError`` keep working, and
    :class:`~repro.api.errors.ProtocolError` so the API boundary maps it
    to an ``UNKNOWN_ENGINE`` response without special-casing.
    """

    def __init__(self, name: str) -> None:
        ProtocolError.__init__(
            self,
            ErrorCode.UNKNOWN_ENGINE,
            f"unknown engine {name!r}; expected one of {available_engines()}",
        )


@dataclass(frozen=True)
class EngineCapabilities:
    """What a registered engine can do, as the clients need to know it."""

    #: The engine absorbs program edits incrementally through
    #: ``notify_cfg_changed`` / ``notify_instructions_changed`` /
    #: ``notify_variable_changed``; engines without this are rebuilt from
    #: scratch by their owner after every edit.
    supports_edits: bool = False
    #: The engine materialises per-point live sets (an eager interference
    #: graph) instead of answering point queries through an oracle.
    per_point_sets: bool = False
    #: The engine's analysis does not require strict SSA input.
    non_ssa_input: bool = False


@dataclass(frozen=True)
class EngineSpec:
    """One selectable engine: name, oracle factory, capabilities."""

    name: str
    #: Builds the engine's oracle for one function; ``None`` for engines
    #: (like ``graph``) that have no point-query oracle.
    oracle_factory: Callable[["Function"], "LivenessOracle"] | None
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    description: str = ""

    def make_oracle(self, function: "Function") -> "LivenessOracle":
        """Instantiate the oracle, failing structurally when there is none."""
        if self.oracle_factory is None:
            raise ProtocolError(
                ErrorCode.UNSUPPORTED,
                f"engine {self.name!r} provides no point-query liveness oracle",
            )
        return self.oracle_factory(function)


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Make ``spec`` selectable by name everywhere engines are chosen.

    Names must be unique; pass ``replace=True`` to swap an existing
    registration (tests use this to shadow a built-in).
    """
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> bool:
    """Remove one registration (True if it existed).  Mostly for tests."""
    return _REGISTRY.pop(name, None) is not None


def get_engine(name: str) -> EngineSpec:
    """The spec registered under ``name`` (raises :class:`UnknownEngineError`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(name) from None


def available_engines() -> tuple[str, ...]:
    """Every registered engine name, in registration order."""
    return tuple(_REGISTRY)


def engine_specs() -> tuple[EngineSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


# ----------------------------------------------------------------------
# Built-in engines.  The factories import lazily so that importing the
# registry (which protocol-level code does) never drags in the analysis
# stack.
# ----------------------------------------------------------------------
def _fast_oracle(function: "Function") -> "LivenessOracle":
    from repro.core.live_checker import FastLivenessChecker

    return FastLivenessChecker(function)


def _dataflow_oracle(function: "Function") -> "LivenessOracle":
    from repro.liveness.dataflow import DataflowLiveness

    return DataflowLiveness(function)


register_engine(
    EngineSpec(
        name=FAST,
        oracle_factory=_fast_oracle,
        capabilities=EngineCapabilities(supports_edits=True),
        description=(
            "the paper's checker: Algorithm 3 on bitsets with cached query "
            "plans and the amortised batch engine"
        ),
    )
)
register_engine(
    EngineSpec(
        name=DATAFLOW,
        oracle_factory=_dataflow_oracle,
        capabilities=EngineCapabilities(non_ssa_input=True),
        description=(
            "the conventional baseline: a precomputed iterative data-flow "
            "fixpoint, rebuilt from scratch after every edit"
        ),
    )
)
register_engine(
    EngineSpec(
        name=GRAPH,
        oracle_factory=None,
        capabilities=EngineCapabilities(per_point_sets=True, non_ssa_input=True),
        description=(
            "the conventional structure: an eager full interference graph "
            "from per-point live sets, answered by pair lookup"
        ),
    )
)
