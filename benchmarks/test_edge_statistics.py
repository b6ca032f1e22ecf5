"""§6.1 edge statistics.

The paper reports that the SPEC2000 workload contains about 1.3 CFG edges
per basic block, that back edges account for roughly 3.6 % of all edges and
that irreducible control flow is extremely rare (60 offending edges,
7 functions out of 4 823).  This benchmark measures the same quantities on
the synthetic workload and records them next to the published numbers.
"""

from repro.bench.reporting import format_table
from repro.cfg import DepthFirstSearch, DominatorTree
from repro.cfg.reducibility import irreducible_back_edges
from tests.support.reference_cfg import edge_statistics


def collect_edge_statistics(workloads):
    """Aggregate edge statistics over every generated procedure."""
    total_blocks = 0
    total_edges = 0
    back_edges = 0
    irreducible_edges = 0
    irreducible_functions = 0
    functions = 0
    for workload in workloads.values():
        for proc in workload.procedures:
            functions += 1
            graph = proc.function.build_cfg()
            dfs = DepthFirstSearch(graph)
            domtree = DominatorTree(graph, dfs)
            total_blocks += len(graph)
            stats = edge_statistics(dfs)
            total_edges += stats["total"]
            back_edges += stats["back"]
            bad = irreducible_back_edges(graph, dfs, domtree)
            irreducible_edges += len(bad)
            if bad:
                irreducible_functions += 1
    return {
        "functions": functions,
        "blocks": total_blocks,
        "edges": total_edges,
        "edges_per_block": total_edges / total_blocks,
        "back_edge_fraction": back_edges / total_edges,
        "irreducible_edges": irreducible_edges,
        "irreducible_functions": irreducible_functions,
    }


def test_edge_statistics(benchmark, workloads, record_table):
    stats = benchmark.pedantic(
        collect_edge_statistics, args=(workloads,), iterations=1, rounds=1
    )

    table = format_table(
        ["Quantity", "Measured", "Paper"],
        [
            ["edges per block", f"{stats['edges_per_block']:.2f}", "1.30 (max 1.9)"],
            ["back-edge fraction", f"{100 * stats['back_edge_fraction']:.2f}%", "3.6%"],
            ["irreducible edges", stats["irreducible_edges"], "60 / 238427"],
            [
                "functions with irreducible CFG",
                f"{stats['irreducible_functions']} / {stats['functions']}",
                "7 / 4823",
            ],
        ],
        title="Section 6.1 — edge statistics (measured vs. paper)",
    )
    record_table("edge_statistics", table)

    # CFGs are sparse, as in the paper.
    assert 1.0 < stats["edges_per_block"] < 2.0
    # Back edges are a small fraction of all edges.
    assert stats["back_edge_fraction"] < 0.25
    # The structured front-end cannot produce irreducible control flow.
    assert stats["irreducible_functions"] == 0
