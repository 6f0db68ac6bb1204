"""Determinism regression: the concurrency report is a pure function of its seed.

The scheduler advances by charged logical cost, every random choice is
drawn at plan time from seeded generators, and all percentile math is
integer — so the committed ``BENCH_concurrency.json`` regenerates
byte-identically (modulo the wall-clock field; pinned across commits by
``tests/bench/test_benchmark_registry.py``), and a different seed must actually change
the schedule.
"""

from __future__ import annotations

import pytest

from repro.bench.gates import comparable_payload
from repro.concurrency import (
    format_concurrency_report,
    run_concurrent_benchmark,
)

_ARGS = dict(
    engine_ids=["nativelinked-1.9", "triplegraph-2.1"],
    clients=4,
    mix_name="write-heavy",
    dataset_name="yeast",
    scale=0.15,
    txns=8,
)


@pytest.fixture(scope="module")
def report():
    return run_concurrent_benchmark(seed=20181204, **_ARGS)


def test_different_seed_changes_the_schedule(report):
    other = run_concurrent_benchmark(seed=42, **_ARGS)
    assert comparable_payload(report) != comparable_payload(other)


def test_rendered_report_names_the_figure_and_every_engine(report):
    rendered = format_concurrency_report(report)
    assert "Figure 8" in rendered
    for engine_id in _ARGS["engine_ids"]:
        assert engine_id in rendered
