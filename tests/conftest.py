"""Shared fixtures: engines, small datasets, and loaded graphs."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.bench.workload import load_dataset_into
from repro.config import EngineConfig
from repro.datasets import get_dataset
from repro.datasets.base import Dataset
from repro.engines import ALL_ENGINES, DEFAULT_ENGINES, create_engine
from repro.partition import partition_dataset

# Run length of the stateful model tests (tests that pass explicit settings
# keep them).  ``tier1`` is what a plain run gets: a few seconds, the same
# examples every time, so red means bug and never luck.  ``ci`` explores
# fresh, longer histories: HYPOTHESIS_PROFILE=ci.
settings.register_profile(
    "tier1", max_examples=40, stateful_step_count=25, deadline=None, derandomize=True
)
settings.register_profile("ci", max_examples=300, stateful_step_count=50, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(params=DEFAULT_ENGINES)
def engine(request):
    """A fresh instance of each default engine (one version per system)."""
    return create_engine(request.param)


@pytest.fixture(params=DEFAULT_ENGINES)
def identifier(request):
    """Each default engine identifier, for suites that construct engines
    (and shard clones from the same id) themselves rather than taking the
    ``engine`` instance."""
    return request.param


@pytest.fixture
def fresh_loaded(small_dataset):
    """Factory: a fresh engine with a dataset loaded and metrics reset.

    The scale-out suites (partition, replication, txn) all open with this
    exact prefix before layering the deployment under test on top; the
    boilerplate lives here once so those modules only build their layer.
    ``dataset`` defaults to ``small_dataset``.
    """

    def build(identifier, dataset=None):
        dataset = small_dataset if dataset is None else dataset
        engine = create_engine(identifier)
        loaded = load_dataset_into(engine, dataset)
        engine.reset_metrics()
        return engine, loaded

    return build


@pytest.fixture
def sharded(fresh_loaded, small_dataset):
    """Factory: :func:`fresh_loaded` plus a partition plan over the dataset."""

    def build(identifier, shards, strategy="hash", dataset=None):
        dataset = small_dataset if dataset is None else dataset
        engine, loaded = fresh_loaded(identifier, dataset)
        plan = partition_dataset(dataset, shards, strategy)
        return engine, loaded, plan

    return build


@pytest.fixture(params=ALL_ENGINES)
def any_engine(request):
    """A fresh instance of every registered engine, including both versions."""
    return create_engine(request.param)


@pytest.fixture
def small_dataset() -> Dataset:
    """A tiny deterministic graph used by conformance and query tests."""
    vertices = [
        {"id": f"n{index}", "label": "person" if index % 2 == 0 else "place",
         "properties": {"name": f"node-{index}", "rank": index}}
        for index in range(8)
    ]
    edges = [
        {"source": "n0", "target": "n1", "label": "knows", "properties": {"weight": 1}},
        {"source": "n1", "target": "n2", "label": "knows", "properties": {"weight": 2}},
        {"source": "n2", "target": "n3", "label": "visits", "properties": {}},
        {"source": "n3", "target": "n4", "label": "knows", "properties": {"weight": 3}},
        {"source": "n4", "target": "n5", "label": "visits", "properties": {}},
        {"source": "n0", "target": "n5", "label": "visits", "properties": {}},
        {"source": "n5", "target": "n6", "label": "knows", "properties": {"weight": 4}},
        {"source": "n6", "target": "n7", "label": "knows", "properties": {"weight": 5}},
        {"source": "n0", "target": "n7", "label": "knows", "properties": {"weight": 6}},
        {"source": "n2", "target": "n0", "label": "knows", "properties": {"weight": 7}},
    ]
    return Dataset(name="tiny", vertices=vertices, edges=edges, description="test graph")


@pytest.fixture
def loaded(engine, small_dataset):
    """The small dataset loaded into each default engine."""
    return load_dataset_into(engine, small_dataset)


@pytest.fixture(scope="session")
def ldbc_dataset() -> Dataset:
    """A small LDBC-like social network shared across query tests."""
    return get_dataset("ldbc", scale=0.4, seed=7)


@pytest.fixture
def small_config() -> EngineConfig:
    """An engine configuration with a tiny memory budget for OOM tests."""
    return EngineConfig(memory_budget=20_000)
