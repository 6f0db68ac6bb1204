"""Plan drift, cheap patching, and the threshold-triggered rebalance."""

from __future__ import annotations

import pytest

from repro.datasets import get_dataset
from repro.datasets.base import Dataset
from repro.exceptions import BenchmarkError
from repro.partition import partition_dataset
from repro.partition.partitioners import DEFAULT_DRIFT_THRESHOLD


def _churn(dataset: Dataset, add: int, remove: int) -> Dataset:
    """Deterministically add fresh vertices and drop the tail of the graph."""
    survivors = dataset.vertices[: len(dataset.vertices) - remove]
    kept = {vertex["id"] for vertex in survivors}
    fresh = [
        {"id": f"new-{index}", "label": "churn", "properties": {"rank": index}}
        for index in range(add)
    ]
    edges = [
        edge
        for edge in dataset.edges
        if edge["source"] in kept and edge["target"] in kept
    ]
    # Wire every new vertex to a surviving hub so rebalancing has structure
    # to recover, not just isolated islands.
    anchors = sorted(kept, key=repr)
    edges = edges + [
        {
            "source": vertex["id"],
            "target": anchors[index % len(anchors)],
            "label": "churn",
            "properties": {},
        }
        for index, vertex in enumerate(fresh)
    ]
    return Dataset(
        name=dataset.name,
        vertices=survivors + fresh,
        edges=edges,
        description=dataset.description,
    )


class TestDrift:
    def test_fresh_plan_has_zero_drift(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        assert plan.drift(small_dataset) == 0.0

    def test_missing_and_stale_vertices_both_count(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        churned = _churn(small_dataset, add=1, remove=1)
        # 1 unassigned new vertex + 1 stale assignment over 8 current ones.
        assert plan.drift(churned) == round(2 / 8, 4)

    def test_empty_dataset_is_total_drift(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        empty = Dataset(name="empty")
        assert plan.drift(empty) == 1.0
        assert partition_dataset(empty, 2, "hash").drift(empty) == 0.0


class TestPatch:
    def test_patch_keeps_every_surviving_placement(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "greedy")
        churned = _churn(small_dataset, add=2, remove=1)
        patched = plan.patch(churned)
        for vertex in small_dataset.vertices[:-1]:
            assert patched.assignment[vertex["id"]] == plan.assignment[vertex["id"]]

    def test_patch_covers_churned_dataset_exactly(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        churned = _churn(small_dataset, add=3, remove=2)
        patched = plan.patch(churned)
        assert set(patched.assignment) == {v["id"] for v in churned.vertices}
        assert patched.drift(churned) == 0.0
        assert sum(patched.sizes) == len(churned.vertices)
        assert patched.total_edges == len(churned.edges)


class TestRebalance:
    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, small_dataset, threshold):
        plan = partition_dataset(small_dataset, 2, "hash")
        with pytest.raises(BenchmarkError, match=r"\[0, 1\]"):
            plan.rebalance(small_dataset, drift_threshold=threshold)

    def test_below_threshold_patches_in_place(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "greedy")
        churned = _churn(small_dataset, add=0, remove=1)  # drift 1/7 < 0.5
        kept = plan.rebalance(churned, drift_threshold=0.5)
        for vertex in churned.vertices:
            assert kept.assignment[vertex["id"]] == plan.assignment[vertex["id"]]

    def test_at_threshold_triggers_full_repartition(self):
        dataset = get_dataset("yeast", scale=0.25, seed=11)
        plan = partition_dataset(dataset, 4, "greedy")
        churned = _churn(dataset, add=len(dataset.vertices) // 4, remove=0)
        assert plan.drift(churned) >= DEFAULT_DRIFT_THRESHOLD

        rebalanced = plan.rebalance(churned)
        fresh = partition_dataset(churned, 4, "greedy")
        assert rebalanced.assignment == fresh.assignment
        assert rebalanced.cut_ratio == fresh.cut_ratio

        # The structure-blind patch decays the cut; the rebalance restores it.
        patched = plan.patch(churned)
        assert rebalanced.cut_ratio <= patched.cut_ratio

    def test_rebalance_can_switch_strategy(self, small_dataset):
        plan = partition_dataset(small_dataset, 2, "hash")
        churned = _churn(small_dataset, add=4, remove=0)
        assert plan.drift(churned) >= DEFAULT_DRIFT_THRESHOLD
        switched = plan.rebalance(churned, partitioner="greedy")
        assert switched.strategy == "greedy"
        assert switched.drift(churned) == 0.0
