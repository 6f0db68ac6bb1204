"""Table 4 — the per-category evaluation summary."""

from __future__ import annotations

from repro.bench.summary import CHECK, WARNING, evaluation_summary, summary_table


def test_table4_evaluation_summary(benchmark, micro_results, save_report):
    """Regenerate Table 4 and check the headline grades."""
    table = benchmark.pedantic(lambda: summary_table(micro_results), rounds=1, iterations=1)
    save_report("table4_summary", table, tracked=True)

    cells = {(cell.engine, cell.group): cell for cell in evaluation_summary(micro_results)}

    def marker(engine_substring: str, group: str) -> str:
        for (engine, cell_group), cell in cells.items():
            if engine.startswith(engine_substring) and cell_group == group:
                return cell.marker
        return " "

    # The native linked-record engine (Neo4j-like) is best or near-best on the
    # traversal-heavy groups.
    assert marker("nativelinked", "Neighbors") == CHECK
    assert marker("nativelinked", "BFS") == CHECK
    # The bitmap engine (Sparksee-like) is never at the slow end of CUD.
    assert marker("bitmapgraph", "Insertions") != WARNING
    # The triple store (BlazeGraph-like) is flagged on loading, never praised.
    assert marker("triplegraph", "Load") != CHECK
    # The relational engine (Sqlg-like) is not flagged on property/label search,
    # its strongest category in the paper.
    assert marker("relationalgraph", "Search by Property/Label") != WARNING
