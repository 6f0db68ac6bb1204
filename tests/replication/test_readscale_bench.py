"""The read-scale benchmark: validation, invariants, gate, report."""

from __future__ import annotations

import copy

import pytest

from repro.bench.gates import check_readscale_invariants
from repro.exceptions import BenchmarkError
from repro.replication.bench import run_readscale_benchmark
from repro.replication.report import format_readscale_report

ENGINE = "nativelinked-1.9"
SMALL = dict(
    engine_ids=(ENGINE,),
    replica_counts=(0, 2),
    staleness_bounds=(48, 100_000),
    cache_capacities=(0, 32),
    steady_ops=60,
    storm_rounds=1,
)


@pytest.fixture(scope="module")
def small_report():
    """One small but storm-bearing matrix, shared across the module."""
    return run_readscale_benchmark(**SMALL)


class TestValidation:
    def test_negative_replicas_rejected(self):
        with pytest.raises(BenchmarkError, match=">= 0"):
            run_readscale_benchmark(replica_counts=(-1, 2))

    def test_negative_bounds_rejected(self):
        with pytest.raises(BenchmarkError, match=">= 0"):
            run_readscale_benchmark(staleness_bounds=(-5,))


class TestPayload:
    def test_matrix_is_complete(self, small_report):
        cells = small_report["engines"][ENGINE]["cells"]
        assert len(cells) == 2 * 2 * 2  # R x bound x cache
        assert {cell["replicas"] for cell in cells} == {0, 2}
        assert small_report["benchmark"] == "replication-readscale"

    def test_cache_off_cells_book_no_invalidation(self, small_report):
        for cell in small_report["engines"][ENGINE]["cells"]:
            if cell["cache_capacity"] == 0:
                assert cell["overhead"]["invalidation_charge"] == 0
                assert cell["hot_cache"]["hits"] == 0

    def test_storm_invalidation_grows_with_replica_count(self, small_report):
        """The acceptance invariant: coherence fan-out scales with R."""
        cells = small_report["engines"][ENGINE]["cells"]
        for bound in SMALL["staleness_bounds"]:
            for cache in SMALL["cache_capacities"]:
                if cache == 0:
                    continue
                by_replicas = {
                    cell["replicas"]: cell["storm"]["invalidation_charge"]
                    for cell in cells
                    if cell["staleness_bound"] == bound
                    and cell["cache_capacity"] == cache
                }
                ordered = [by_replicas[r] for r in sorted(by_replicas)]
                assert ordered[0] > 0
                assert ordered == sorted(ordered)

    def test_tight_bound_forces_fallbacks_loose_bound_none(self, small_report):
        cells = small_report["engines"][ENGINE]["cells"]
        for cell in cells:
            if cell["replicas"] == 0:
                assert cell["replica_share"] == 0.0
                assert cell["fallbacks"] == 0
            elif cell["staleness_bound"] == 100_000:
                assert cell["fallbacks"] == 0
                assert cell["replica_share"] == 1.0
        tight = [
            cell
            for cell in cells
            if cell["replicas"] == 2 and cell["staleness_bound"] == 48
        ]
        assert any(cell["fallbacks"] > 0 for cell in tight)
        for cell in tight:
            assert cell["staleness_max"] <= 48

    def test_replicas_spread_the_load(self, small_report):
        cells = {
            (cell["replicas"], cell["cache_capacity"]): cell
            for cell in small_report["engines"][ENGINE]["cells"]
            if cell["staleness_bound"] == 100_000
        }
        # Same reads, more servers: the busiest server carries less.
        assert (
            cells[(2, 0)]["makespan_charge"] < cells[(0, 0)]["makespan_charge"]
        )
        assert (
            cells[(2, 0)]["throughput_per_kcharge"]
            > cells[(0, 0)]["throughput_per_kcharge"]
        )
        # Caching helps again on top of replication.
        assert (
            cells[(2, 32)]["throughput_per_kcharge"]
            > cells[(2, 0)]["throughput_per_kcharge"]
        )

    def test_overheads_are_separated_from_base(self, small_report):
        for cell in small_report["engines"][ENGINE]["cells"]:
            overhead = cell["overhead"]
            if cell["replicas"] > 0:
                assert overhead["capture_charge"] > 0
                assert overhead["log_append_charge"] > 0
                assert overhead["apply_charge"] > 0
            if cell["replicas"] == 0 and cell["cache_capacity"] == 0:
                # Fully transparent baseline: no replication machinery at all.
                assert overhead["capture_charge"] == 0
                assert overhead["log_append_charge"] == 0
                assert overhead["apply_charge"] == 0
                assert overhead["invalidation_charge"] == 0


class TestReport:
    def test_report_renders_every_cell(self, small_report):
        rendered = format_readscale_report(small_report)
        assert "Figure 12" in rendered
        assert ENGINE in rendered
        assert "*" in rendered  # best-cell marker
        assert rendered.count("\n") > 10


class TestGate:
    def test_clean_payload_passes(self, small_report):
        assert check_readscale_invariants(small_report) == []

    def test_cache_off_invalidation_is_a_failure(self, small_report):
        broken = copy.deepcopy(small_report)
        for cell in broken["engines"][ENGINE]["cells"]:
            if cell["cache_capacity"] == 0:
                cell["overhead"]["invalidation_charge"] = 12
                break
        failures = check_readscale_invariants(broken)
        assert any("cache-off" in failure for failure in failures)

    def test_lost_coherence_scaling_is_a_failure(self, small_report):
        broken = copy.deepcopy(small_report)
        for cell in broken["engines"][ENGINE]["cells"]:
            if cell["replicas"] == 2 and cell["cache_capacity"] > 0:
                cell["storm"]["invalidation_charge"] = 0
        failures = check_readscale_invariants(broken)
        assert any("does not grow" in failure for failure in failures)
