"""The reachability benchmark: validation, invariants, gate, report."""

from __future__ import annotations

import copy

import pytest

from repro.bench.gates import check_reachability_invariants
from repro.exceptions import BenchmarkError
from repro.index.bench import run_reachability_benchmark
from repro.index.report import format_reachability_report

ENGINE = "nativelinked-3.0"
SMALL = dict(
    engine_ids=(ENGINE,),
    shapes=("tree", "dag", "disconnected"),
    vertices=48,
    pairs=8,
    sources=3,
)


@pytest.fixture(scope="module")
def small_report():
    """One small matrix with tree-covered and fallback shapes, shared."""
    return run_reachability_benchmark(**SMALL)


class TestValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown --shapes"):
            run_reachability_benchmark(shapes=("tree", "torus"))

    def test_tiny_parameters_rejected(self):
        with pytest.raises(BenchmarkError, match="vertices >= 4"):
            run_reachability_benchmark(vertices=2)
        with pytest.raises(BenchmarkError, match="pairs >= 1"):
            run_reachability_benchmark(pairs=0)


class TestPayload:
    def test_matrix_is_complete(self, small_report):
        cells = small_report["cells"]
        assert len(cells) == len(SMALL["shapes"])
        assert {cell["shape"] for cell in cells} == set(SMALL["shapes"])
        assert small_report["benchmark"] == "reachability-index"

    def test_tree_covered_shapes_beat_the_oracle(self, small_report):
        """The index's whole reason to exist, per cell."""
        for cell in small_report["cells"]:
            if cell["index"]["tree_coverage"] == 1.0:
                assert (
                    cell["indexed"]["total_charge"] < cell["bfs"]["total_charge"]
                ), cell["shape"]
                assert cell["charge_speedup"] > 1.0
                assert cell["amortize_after_queries"] is not None

    def test_tree_reachable_queries_cost_one_probe_each(self, small_report):
        """Interval containment: one index probe per question, no traversal."""
        tree = next(c for c in small_report["cells"] if c["shape"] == "tree")
        assert tree["indexed"]["reachable_charge"] == SMALL["pairs"]
        assert tree["indexed"]["reachable_charge"] < tree["bfs"]["reachable_charge"]

    def test_fallback_shape_pays_bfs_charges(self, small_report):
        dag = next(c for c in small_report["cells"] if c["shape"] == "dag")
        assert dag["index"]["tree_coverage"] < 1.0
        assert dag["indexed"]["total_charge"] > 0

    def test_build_is_charged(self, small_report):
        for cell in small_report["cells"]:
            assert cell["index"]["build_charge"] > 0


class TestReport:
    def test_report_renders_every_cell(self, small_report):
        rendered = format_reachability_report(small_report)
        assert "Figure 14" in rendered
        assert ENGINE in rendered
        for shape in SMALL["shapes"]:
            assert shape in rendered

    def test_never_amortizing_cells_say_so(self, small_report):
        broken = copy.deepcopy(small_report)
        broken["cells"][0]["amortize_after_queries"] = None
        assert "never" in format_reachability_report(broken)


class TestGate:
    def test_clean_payload_passes(self, small_report):
        assert check_reachability_invariants(small_report) == []

    def test_tree_coverage_losing_to_bfs_is_a_failure(self, small_report):
        broken = copy.deepcopy(small_report)
        tree = next(c for c in broken["cells"] if c["shape"] == "tree")
        tree["indexed"]["total_charge"] = tree["bfs"]["total_charge"] + 1
        failures = check_reachability_invariants(broken)
        assert any("exceeds the BFS oracle" in failure for failure in failures)

    def test_build_ceiling(self, small_report):
        bloated = copy.deepcopy(small_report)
        cell = bloated["cells"][0]
        elements = cell["dataset"]["vertices"] + cell["dataset"]["edges"]
        cell["index"]["build_charge"] = 1000 * elements
        failures = check_reachability_invariants(bloated)
        assert any("build charge" in failure for failure in failures)
