"""Figure 1(a,b) — space occupancy per engine and dataset."""

from __future__ import annotations

from repro.bench.report import space_table


def test_fig1_space_occupancy(benchmark, space_measurements, save_report):
    """Regenerate the space-occupancy figure and check the paper's ordering."""
    table = benchmark.pedantic(lambda: space_table(space_measurements), rounds=1, iterations=1)
    save_report("fig1_space", table, tracked=True)

    def total(engine_substring: str, dataset: str) -> int:
        return sum(
            m.total_bytes
            for m in space_measurements
            if engine_substring in m.engine and m.dataset == dataset
        )

    for dataset in ("frb-o", "frb-m", "frb-l"):
        triple = total("triplegraph", dataset)
        others = [
            total(engine, dataset)
            for engine in ("nativelinked-1.9", "nativeindirect", "bitmapgraph", "columnargraph-1.0", "relationalgraph")
        ]
        # BlazeGraph-like journal + three indexes: much larger than everyone else.
        assert triple > max(others), f"triple store should be largest on {dataset}"
        # Titan-like delta-encoded adjacency lists: the most compact native/hybrid layout.
        assert total("columnargraph-1.0", dataset) <= min(others) * 2.0
