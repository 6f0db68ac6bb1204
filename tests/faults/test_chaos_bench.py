"""The chaos benchmark: validation, payload shape, exactness gate, report."""

from __future__ import annotations

import copy

import pytest

from repro.exceptions import BenchmarkError
from repro.faults.bench import run_chaos_benchmark
from repro.bench.gates import check_chaos_invariants
from repro.faults.report import format_chaos_report

ENGINE = "nativelinked-1.9"


@pytest.fixture(scope="module")
def small_report():
    """One small but fault-bearing matrix, shared across the module's tests."""
    return run_chaos_benchmark(
        [ENGINE],
        mixes=("one-hop",),
        shard_counts=(2,),
        fault_rates=(0, 30),
        retry_policies=("fixed", "adaptive"),
    )


class TestValidation:
    def test_rate_zero_is_mandatory(self):
        with pytest.raises(BenchmarkError, match="must include 0"):
            run_chaos_benchmark([ENGINE], fault_rates=(10, 30))

    def test_rates_are_bounded(self):
        with pytest.raises(BenchmarkError, match="0..100"):
            run_chaos_benchmark([ENGINE], fault_rates=(0, 250))

    def test_unknown_mix_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown --mixes"):
            run_chaos_benchmark([ENGINE], mixes=("quantum",))

    def test_unknown_policy_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown --policies"):
            run_chaos_benchmark([ENGINE], retry_policies=("psychic",))


class TestPayload:
    def test_matrix_is_complete(self, small_report):
        cells = small_report["cells"]
        assert len(cells) == 1 * 1 * 1 * 2 * 2  # engine×mix×K×policy×rate
        assert {cell["rate"] for cell in cells} == {0, 30}
        assert {cell["policy"] for cell in cells} == {"fixed", "adaptive"}

    def test_fault_free_cells_are_all_exact(self, small_report):
        for cell in small_report["cells"]:
            if cell["rate"] == 0:
                assert cell["exact"] == cell["queries"]
                assert cell["availability"] == 1.0
                assert cell["crashes"] == 0

    def test_outcomes_partition_the_query_set(self, small_report):
        for cell in small_report["cells"]:
            assert cell["exact"] + cell["stale"] + cell["failed"] == cell["queries"]
            assert 0.0 <= cell["availability"] <= 1.0

    def test_overhead_pct_is_relative_to_the_rate_zero_cell(self, small_report):
        by_key = {
            (cell["policy"], cell["rate"]): cell for cell in small_report["cells"]
        }
        for policy in ("fixed", "adaptive"):
            baseline = by_key[(policy, 0)]
            faulted = by_key[(policy, 30)]
            assert faulted["overhead_pct"] == round(
                100.0 * faulted["overhead_charge"] / baseline["base_charge"], 2
            )

    def test_gate_pins_fault_free_availability(self, small_report):
        assert check_chaos_invariants(small_report) == []
        broken = copy.deepcopy(small_report)
        cell = next(cell for cell in broken["cells"] if cell["rate"] == 0)
        cell["availability"] = 0.5
        (failure,) = check_chaos_invariants(broken)
        assert "fault-free availability" in failure


class TestReport:
    def test_figure_renders_every_cell_group(self, small_report):
        text = format_chaos_report(small_report)
        assert "Figure 11" in text
        assert f"{ENGINE} × one-hop × K=2" in text
        assert "avail" in text
        assert "worst availability" in text
