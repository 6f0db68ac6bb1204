"""The scale-out benchmark: payload shape, seed sensitivity, rendering."""

from __future__ import annotations

import pytest

from repro.bench.gates import comparable_payload
from repro.exceptions import BenchmarkError
from repro.partition import (
    format_scaleout_report,
    plan_queries,
    run_scaleout_benchmark,
)
from repro.datasets import get_dataset

_ARGS = dict(
    engine_ids=["nativelinked-1.9"],
    partitioner_names=["hash", "greedy"],
    shard_counts=[1, 2],
    dataset_name="yeast",
    scale=0.15,
    depth=2,
    bfs_sources=1,
)


@pytest.fixture(scope="module")
def scaleout_report():
    return run_scaleout_benchmark(seed=20181204, **_ARGS)


class TestPayloadShape:
    def test_matrix_covers_engines_strategies_and_shards(self, scaleout_report):
        strategies = scaleout_report["engines"]["nativelinked-1.9"]
        assert sorted(strategies) == ["greedy", "hash"]
        for sweep in strategies.values():
            assert [run["shards"] for run in sweep["runs"]] == [1, 2]

    def test_k1_is_the_parity_baseline(self, scaleout_report):
        for sweep in scaleout_report["engines"]["nativelinked-1.9"].values():
            baseline = sweep["runs"][0]
            assert baseline["shards"] == 1
            assert baseline["speedup"] == 1.0
            assert baseline["efficiency"] == 1.0
            assert baseline["network_charge"] == 0
            assert baseline["cut_ratio"] == 0.0
            assert baseline["makespan_charge"] == baseline["busy_charge"]

    def test_results_are_partition_invariant(self, scaleout_report):
        """Every cell answers the same queries: same reached sets, same
        distances, same shortest path — regardless of K or strategy."""
        rows = [
            run["results"]
            for sweep in scaleout_report["engines"]["nativelinked-1.9"].values()
            for run in sweep["runs"]
        ]
        assert all(results == rows[0] for results in rows[1:])

    def test_query_plan_is_seeded_and_engine_independent(self):
        dataset = get_dataset("yeast", scale=0.15, seed=11)
        first = plan_queries(dataset, seed=20181204, depth=2, bfs_sources=1)
        second = plan_queries(dataset, seed=20181204, depth=2, bfs_sources=1)
        assert first == second
        assert [query["kind"] for query in first] == [
            "bfs",
            "neighbourhood",
            "neighbourhood",
            "shortest-path",
        ]


class TestDeterminismAndRendering:
    def test_different_seed_changes_the_queries(self, scaleout_report):
        other = run_scaleout_benchmark(seed=42, **_ARGS)
        assert comparable_payload(scaleout_report) != comparable_payload(other)

    def test_rendered_figure_states_the_parity_contract(self, scaleout_report):
        rendered = format_scaleout_report(scaleout_report)
        assert "Figure 10" in rendered
        assert "charge-parity contract" in rendered
        assert "*" in rendered

    def test_shard_counts_must_include_the_baseline(self):
        with pytest.raises(BenchmarkError, match="must include 1"):
            run_scaleout_benchmark(shard_counts=[2, 4], **{
                key: value for key, value in _ARGS.items() if key != "shard_counts"
            })
