"""Table 1 — features and characteristics of the tested systems."""

from __future__ import annotations

from repro.bench.report import rows_table
from repro.engines import available_engines, engine_info

_HEADERS = ["System", "Type", "Storage", "Edge Traversal", "Gremlin", "Query Execution", "Access", "Languages"]


def test_table1_system_features(benchmark, save_report):
    """Regenerate Table 1 from the engine metadata."""

    def build() -> str:
        rows = [engine_info(identifier).as_row() for identifier in available_engines()]
        return rows_table(_HEADERS, rows, title="Table 1: features of the simulated systems")

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("table1_systems", table, tracked=True)
    # The paper's matrix: nine system/version rows, both native and hybrid types.
    assert len(available_engines()) == 9
    assert "Native" in table and "Hybrid" in table
