"""Walk through the paper's Figure 3 example, query by query.

Run with::

    PYTHONPATH=src python examples/paper_figure3.py

The script builds the example CFG of Section 3.2 as a function (blocks
``b1``–``b11``, back edges (10,8), (6,5), (7,2); ``w``, ``x`` and ``y``
defined in ``b3`` and used in ``b4``, ``b9`` and ``b5``), prints the
precomputed ``R`` and ``T`` bitsets over the dominance-preorder numbers, and
answers every liveness query the paper discusses through
:class:`~repro.core.FastLivenessChecker`, showing which back-edge targets
the algorithm had to consider.
"""

from repro.core import FastLivenessChecker
from repro.ir import parse_function

FIGURE3 = """
function figure3(c) {
b1:
  jump b2
b2:
  branch c, b3, b11
b3:
  w = const 1
  x = const 2
  y = const 3
  branch c, b4, b8
b4:
  uw = binop.add w, 1
  jump b5
b5:
  uy = binop.add y, 1
  jump b6
b6:
  branch c, b7, b5
b7:
  jump b2
b8:
  jump b9
b9:
  ux = binop.add x, 1
  branch c, b10, b6
b10:
  branch c, b8, b11
b11:
  return c
}
"""

#: the queries Section 3.2 / 4.1 walk through, with the paper's answers.
PAPER_QUERIES = [
    ("x", "b10", True, "use at 9 is reduced-reachable from back-edge target 8"),
    ("y", "b10", True, "needs two back edges: 10→8, then (6,5) discovered via T_8"),
    ("w", "b10", False, "back-edge target 2 is outside sdom(def(w)) and must be ignored"),
    ("x", "b4", False, "the path 4,5,6,7,2,3,8 leaves and re-enters def(x)'s subtree"),
]


def main() -> None:
    function = parse_function(FIGURE3)
    checker = FastLivenessChecker(function)
    pre = checker.precomputation

    def blocks(mask: int, lo: int = 0, hi: int = len(pre.maxnums) - 1) -> list[str]:
        """The blocks whose dominance-preorder number is a set bit in [lo, hi]."""
        return [pre.node_of(n) for n in range(lo, hi + 1) if mask >> n & 1]

    print("Figure 3 CFG")
    print(f"  back edges: {pre.dfs.back_edges()}")
    print(f"  reducible: {pre.reducible}")
    print()

    print("Precomputed bitsets (R = reduced reachability, T = relevant back-edge targets):")
    for number, block in enumerate(blocks(-1)):
        r_v, t_v = pre.r_masks[number], pre.t_masks[number]
        print(f"  {block:>3} (num {number:>2}):  R = {blocks(r_v)}   T = {blocks(t_v)}")
    print()

    print("Queries from the paper:")
    for name, query, expected, why in PAPER_QUERIES:
        var = function.variable_by_name(name)
        answer = checker.is_live_in(var, query)
        assert answer == expected, (name, query)
        def_block = checker.defuse.def_block(var)
        uses = sorted(checker.defuse.use_blocks(var))
        lo, hi = pre.num(def_block) + 1, pre.maxnum(def_block)
        candidates = blocks(pre.t_masks[pre.num(query)], lo, hi)
        print(f"  is {name} live-in at {query}?  ->  {answer}")
        print(f"      def({name}) = {def_block}, uses = {uses}")
        print(f"      T_({query},{name}) = T_{query} ∩ sdom({def_block}) = {candidates}")
        print(f"      paper: {why}")
    print()
    print("all answers match the paper.")


if __name__ == "__main__":
    main()
