"""Partitioning strategies: coverage, balance, determinism, cut quality."""

from __future__ import annotations

import pytest

from repro.datasets import get_dataset
from repro.exceptions import BenchmarkError
from repro.partition import (
    PARTITIONERS,
    partition_dataset,
    resolve_partitioner,
    stable_hash,
)

STRATEGIES = tuple(PARTITIONERS)


@pytest.fixture(scope="module")
def yeast():
    return get_dataset("yeast", scale=0.25, seed=11)


class TestAssignments:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_every_vertex_assigned_exactly_once(self, yeast, strategy, shards):
        plan = partition_dataset(yeast, shards, strategy)
        assert set(plan.assignment) == {vertex["id"] for vertex in yeast.vertices}
        assert all(0 <= shard < shards for shard in plan.assignment.values())
        assert sum(plan.sizes) == yeast.vertex_count

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_assignment_iterates_in_dataset_vertex_order(self, yeast, strategy):
        """Export determinism hangs on a stable assignment iteration order."""
        plan = partition_dataset(yeast, 4, strategy)
        assert list(plan.assignment) == [vertex["id"] for vertex in yeast.vertices]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic_across_runs(self, yeast, strategy):
        first = partition_dataset(yeast, 4, strategy)
        second = partition_dataset(yeast, 4, strategy)
        assert first == second

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_shard_has_no_cut(self, yeast, strategy):
        plan = partition_dataset(yeast, 1, strategy)
        assert plan.cut_edges == 0
        assert plan.cut_ratio == 0.0
        assert plan.balance == 1.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_balance_stays_near_ideal(self, yeast, strategy):
        """Label splits oversized groups and greedy is capacity-capped, so
        no strategy may let one shard run away."""
        plan = partition_dataset(yeast, 4, strategy)
        assert plan.balance <= 1.1

    def test_greedy_cuts_fewer_edges_than_hash(self, yeast):
        """The whole point of structure-aware partitioning: on a clustered
        graph the greedy strategy must beat structure-blind hashing."""
        hash_plan = partition_dataset(yeast, 4, "hash")
        greedy_plan = partition_dataset(yeast, 4, "greedy")
        assert greedy_plan.cut_edges < hash_plan.cut_edges


class TestPlanMetrics:
    def test_cut_ratio_counts_cross_shard_edges(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        expected = sum(
            1
            for edge in small_dataset.edges
            if plan.assignment[edge["source"]] != plan.assignment[edge["target"]]
        )
        assert plan.cut_edges == expected
        assert plan.cut_ratio == round(expected / len(small_dataset.edges), 4)
        assert plan.total_edges == len(small_dataset.edges)


class TestErrorsAndHashing:
    def test_zero_shards_rejected(self, small_dataset):
        with pytest.raises(BenchmarkError, match="shard count"):
            partition_dataset(small_dataset, 0, "hash")

    def test_unknown_strategy_lists_known_ones(self):
        with pytest.raises(BenchmarkError, match="hash.*label"):
            resolve_partitioner("metis")

    def test_stable_hash_is_process_stable(self):
        """crc32-based ownership, never the salted builtin hash."""
        assert stable_hash("protein:0") == stable_hash("protein:0")
        assert stable_hash("protein:0") == 3112364903
