"""Shared fixtures and reference helpers for the test suite.

Three things live here:

* small reusable example programs/CFGs (including the reconstruction of the
  paper's Figure 3 example),
* *independent reference implementations* (brute-force path search for
  liveness and dominance) used by the differential tests.  They are kept
  deliberately naive — a breadth-first search straight from the paper's
  Definitions 2 and 3 — so that agreement with the optimised library code
  constitutes real evidence, and
* the deadline guard: a test during which a shutdown deadline expires
  fails, so a timeout can never quietly hide a stall.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.cfg.graph import ControlFlowGraph
from repro.frontend import compile_source


# ----------------------------------------------------------------------
# Reference implementations (naive, used as ground truth)
# ----------------------------------------------------------------------
def reference_is_live_in(graph: ControlFlowGraph, def_node, uses, query) -> bool:
    """Definition 2 by brute force: a path from ``query`` to a use that does
    not contain ``def_node``."""
    uses = set(uses)
    if query == def_node:
        return False
    seen = {query}
    stack = [query]
    while stack:
        node = stack.pop()
        if node in uses:
            return True
        for succ in graph.successors(node):
            if succ == def_node or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return False


def reference_is_live_out(graph: ControlFlowGraph, def_node, uses, query) -> bool:
    """Definition 3 by brute force: live-in at some successor."""
    return any(
        reference_is_live_in(graph, def_node, uses, succ)
        for succ in graph.successors(query)
    )


def reference_dominators(graph: ControlFlowGraph) -> dict:
    """Textbook iterative dominator-set computation (not the fast one)."""
    nodes = graph.nodes()
    entry = graph.entry
    dom = {node: set(nodes) for node in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == entry:
                continue
            preds = graph.predecessors(node)
            if not preds:
                continue
            new = set(nodes)
            for pred in preds:
                new &= dom[pred]
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


# ----------------------------------------------------------------------
# Example CFGs
# ----------------------------------------------------------------------
def build_figure3_cfg() -> ControlFlowGraph:
    """A CFG satisfying every statement the paper makes about Figure 3.

    The exact figure cannot be transcribed from the text alone, so this is
    a faithful reconstruction: nodes are numbered 1–11 in dominance-tree
    preorder, the back edges are (10, 8), (6, 5) and (7, 2) — giving the
    back-edge targets {8, 5, 2} reachable from node 10 that Section 3.2
    discusses — and the path 4, 5, 6, 7, 2, 3, 8 used in the "x live-in at
    4?" example exists.  Variables: w, x, y are all defined at node 3, with
    uses at 4, 9 and 5 respectively, which reproduces every query result
    the paper states (see tests/core/test_figure3.py).

    Note: because node 6 is reachable both through 5 and through the cross
    edge from 9, the back edge (6, 5) makes this reconstruction irreducible,
    which conveniently exercises the general (multi-candidate) query loop.
    """
    edges = [
        (1, 2),
        (2, 3),
        (2, 11),
        (3, 4),
        (3, 8),
        (4, 5),
        (5, 6),
        (6, 7),
        (6, 5),   # back edge -> 5
        (7, 2),   # back edge -> 2
        (8, 9),
        (9, 10),
        (9, 6),   # cross edge
        (10, 8),  # back edge -> 8
        (10, 11),
    ]
    return ControlFlowGraph.from_edges(edges, entry=1)


FIGURE3_VARIABLES = {
    # name: (definition node, use nodes)
    "w": (3, {4}),
    "x": (3, {9}),
    "y": (3, {5}),
}


@pytest.fixture
def figure3_cfg() -> ControlFlowGraph:
    """The reconstructed Figure 3 control-flow graph."""
    return build_figure3_cfg()


# ----------------------------------------------------------------------
# Example programs
# ----------------------------------------------------------------------
GCD_SOURCE = """
func gcd(a, b) {
    while (b != 0) {
        t = b;
        b = a % b;
        a = t;
    }
    return a;
}
"""

SUM_LOOP_SOURCE = """
func total(n) {
    s = 0;
    i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"""

NESTED_SOURCE = """
func nested(n, m) {
    acc = 0;
    i = 0;
    while (i < n) {
        j = 0;
        while (j < m) {
            if (j % 2 == 0) {
                acc = acc + j;
            } else {
                acc = acc - 1;
            }
            j = j + 1;
        }
        i = i + 1;
    }
    return acc;
}
"""


@pytest.fixture
def gcd_function():
    """The ``gcd`` example compiled to SSA."""
    return compile_source(GCD_SOURCE).function("gcd")


@pytest.fixture
def sum_function():
    """The summation-loop example compiled to SSA."""
    return compile_source(SUM_LOOP_SOURCE).function("total")


@pytest.fixture
def nested_function():
    """A doubly nested loop with branching, compiled to SSA."""
    return compile_source(NESTED_SOURCE).function("nested")


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG for reproducible fuzz tests."""
    return random.Random(20080406)


# ----------------------------------------------------------------------
# Deadline guard
# ----------------------------------------------------------------------
#: Warnings the serving layer logs when a shutdown deadline expires:
#: ``ProcClient.close`` terminating an undrained worker, and
#: ``WireServer.stop`` returning with worker threads still running.
DEADLINE_WARNINGS = ("did not drain", "still running after")


class _DeadlineRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if any(marker in message for marker in DEADLINE_WARNINGS):
            self.messages.append(message)


@pytest.fixture(autouse=True)
def fail_on_expired_deadline(request):
    """Fail any test during which a shutdown deadline expires.

    Tests that drive a deadline to expiry on purpose carry the
    ``expects_deadline`` marker.  Autouse fixtures are torn down after
    the fixtures a test requests, so a client closed in fixture teardown
    is still covered.
    """
    handler = _DeadlineRecords()
    logger = logging.getLogger("repro.obs")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.messages and request.node.get_closest_marker("expects_deadline") is None:
        pytest.fail(
            "a deadline expired during this test: " + "; ".join(handler.messages)
        )
