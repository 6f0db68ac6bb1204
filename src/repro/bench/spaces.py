"""Space-occupancy measurement (Figure 1a and 1b of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workload import load_dataset_into
from repro.datasets.base import Dataset
from repro.engines.registry import create_engine
from repro.graphson.writer import dumps_graphson


@dataclass(frozen=True)
class SpaceMeasurement:
    """Disk footprint of one dataset in one engine."""

    engine: str
    dataset: str
    total_bytes: int
    breakdown: tuple[tuple[str, int], ...]
    raw_json_bytes: int


def measure_space(engine_id: str, dataset: Dataset) -> SpaceMeasurement:
    """Load ``dataset`` into a fresh instance of ``engine_id`` and measure it."""
    engine = create_engine(engine_id)
    load_dataset_into(engine, dataset)
    breakdown = engine.space_breakdown()
    raw = len(dumps_graphson(dataset).encode())
    return SpaceMeasurement(
        engine=engine_id,
        dataset=dataset.name,
        total_bytes=sum(breakdown.values()),
        breakdown=tuple(sorted(breakdown.items())),
        raw_json_bytes=raw,
    )


def measure_space_matrix(engine_ids: list[str], datasets: list[Dataset]) -> list[SpaceMeasurement]:
    """Measure every engine on every dataset (the full Figure 1a/1b matrix)."""
    measurements = []
    for dataset in datasets:
        for engine_id in engine_ids:
            measurements.append(measure_space(engine_id, dataset))
    return measurements
