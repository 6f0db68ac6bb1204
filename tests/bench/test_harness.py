"""The benchmark harness: workload plans, runner, results, reports, suite, summary."""

from __future__ import annotations

import pytest

from repro.bench import (
    BenchmarkSuite,
    ExecutionStatus,
    ParameterPlan,
    QueryRunner,
    ResultSet,
    load_dataset_into,
    measure_space,
)
from repro.bench.report import (
    dataset_sweep_table,
    format_bytes,
    format_seconds,
    overall_table,
    space_table,
    timeout_table,
    timing_table,
)
from repro.bench.results import ExecutionResult
from repro.bench.summary import SUMMARY_GROUPS, evaluation_summary, summary_table
from repro.bench.workload import ExternalEdge, ExternalVertex
from repro.config import BenchConfig, EngineConfig
from repro.engines import create_engine
from repro.queries import query_by_id


class TestParameterPlan:
    def test_same_seed_gives_same_choices(self, small_dataset):
        first = ParameterPlan(small_dataset, seed=5).params_for("Q14", count=4)
        second = ParameterPlan(small_dataset, seed=5).params_for("Q14", count=4)
        assert first == second

    def test_different_seed_differs(self, small_dataset):
        first = ParameterPlan(small_dataset, seed=5).params_for("Q22", count=10)
        second = ParameterPlan(small_dataset, seed=6).params_for("Q22", count=10)
        assert first != second

    def test_every_micro_query_has_a_builder(self, small_dataset):
        plan = ParameterPlan(small_dataset, seed=1)
        from repro.queries.registry import query_ids

        for query_id in query_ids():
            bindings = plan.params_for(query_id, count=2)
            assert len(bindings) == 2

    def test_delete_bindings_are_unique(self, small_dataset):
        plan = ParameterPlan(small_dataset, seed=1)
        vertices = [binding["vertex"].id for binding in plan.params_for("Q18", count=5)]
        assert len(set(vertices)) == 5
        edges = [binding["edge"].index for binding in plan.params_for("Q19", count=5)]
        assert len(set(edges)) == 5

    def test_property_parameters_exist_in_dataset(self, small_dataset):
        plan = ParameterPlan(small_dataset, seed=2)
        binding = plan.params_for("Q11", count=1)[0]
        assert any(
            vertex["properties"].get(binding["key"]) == binding["value"]
            for vertex in small_dataset.vertices
        )

    def test_binding_translates_external_references(self, loaded):
        plan = ParameterPlan(loaded.dataset, seed=3)
        params = loaded.bind_params(plan.params_for("Q14", count=1)[0])
        assert loaded.engine.vertex_exists(params["vertex"])

    def test_bind_handles_nested_containers(self, loaded):
        bound = loaded.bind_params(
            {"list": [ExternalVertex("n0")], "map": {"edge": ExternalEdge(0)}, "plain": 7}
        )
        assert bound["list"][0] == loaded.vertex_map["n0"]
        assert bound["map"]["edge"] == loaded.edge_map[0]
        assert bound["plain"] == 7


class TestRunner:
    def test_successful_single_execution(self, loaded):
        runner = QueryRunner(BenchConfig(timeout=10))
        plan = ParameterPlan(loaded.dataset, seed=1)
        result = runner.run_single(loaded, query_by_id("Q8"), plan.params_for("Q8", count=1)[0])
        assert result.status is ExecutionStatus.OK
        assert result.elapsed >= 0
        assert result.result_size == 1

    def test_timeout_classification(self, loaded):
        runner = QueryRunner(BenchConfig(timeout=0.0))
        result = runner.run_single(loaded, query_by_id("Q9"), {})
        assert result.status is ExecutionStatus.TIMEOUT

    def test_error_capture(self, loaded):
        runner = QueryRunner(BenchConfig())
        result = runner.run_single(loaded, query_by_id("Q14"), {"vertex": "no-such"})
        assert result.status is ExecutionStatus.ERROR
        assert result.detail

    def test_out_of_memory_capture(self, small_dataset):
        engine = create_engine("bitmapgraph-5.1", config=EngineConfig(memory_budget=300))
        loaded = load_dataset_into(engine, small_dataset)
        runner = QueryRunner(BenchConfig())
        result = runner.run_single(loaded, query_by_id("Q30"), {"k": 2})
        assert result.status is ExecutionStatus.OUT_OF_MEMORY

    def test_batch_accumulates_elapsed(self, loaded):
        runner = QueryRunner(BenchConfig(timeout=10))
        plan = ParameterPlan(loaded.dataset, seed=1)
        result = runner.run_batch(loaded, query_by_id("Q23"), plan.params_for("Q23", count=5))
        assert result.mode == "batch"
        assert result.result_size == 5

    def test_logical_io_collected(self, loaded):
        runner = QueryRunner(BenchConfig())
        result = runner.run_single(loaded, query_by_id("Q9"), {})
        assert result.logical_io > 0


class TestResultSet:
    def _sample(self) -> ResultSet:
        results = ResultSet()
        for engine, elapsed in (("fast", 0.1), ("slow", 1.0)):
            results.add(
                ExecutionResult(
                    engine=engine, dataset="d", query_id="Q8", mode="single",
                    status=ExecutionStatus.OK, elapsed=elapsed,
                )
            )
        results.add(
            ExecutionResult(
                engine="slow", dataset="d", query_id="Q9", mode="single",
                status=ExecutionStatus.TIMEOUT, elapsed=5.0,
            )
        )
        return results

    def test_filter_and_dimensions(self):
        results = self._sample()
        assert results.engines() == ["fast", "slow"]
        assert results.datasets() == ["d"]
        assert len(results.filter(engine="fast")) == 1

    def test_elapsed_and_ranking(self):
        results = self._sample()
        assert results.elapsed("fast", "d", "Q8") == pytest.approx(0.1)
        assert results.best_engine("d", "Q8") == "fast"
        assert [engine for engine, _t in results.ranking("d", "Q8")] == ["fast", "slow"]

    def test_timeout_count_and_totals(self):
        results = self._sample()
        assert results.timeout_count("slow") == 1
        assert results.timeout_count("fast") == 0
        assert results.total_elapsed("slow") == pytest.approx(1.0)  # failed runs excluded

    def test_status_of(self):
        results = self._sample()
        assert results.status_of("slow", "d", "Q9") is ExecutionStatus.TIMEOUT


class TestReports:
    def test_format_helpers(self):
        assert format_seconds(0.002).endswith("ms")
        assert format_seconds(2.5).endswith("s")
        assert format_seconds(None) == "-"
        assert format_bytes(10) == "10B"
        assert format_bytes(2048).endswith("KB")
        assert format_bytes(5 * 1024 * 1024).endswith("MB")

    def test_tables_render(self, loaded):
        runner = QueryRunner(BenchConfig())
        plan = ParameterPlan(loaded.dataset, seed=1)
        results = ResultSet()
        for query_id in ("Q8", "Q9", "Q22"):
            results.add(runner.run_single(loaded, query_by_id(query_id), plan.params_for(query_id, 1)[0]))
        table = timing_table(results, ["Q8", "Q9", "Q22"], loaded.dataset.name)
        assert "Q8" in table and "Q22" in table
        sweep = dataset_sweep_table(results, "Q8", [loaded.dataset.name])
        assert loaded.dataset.name in sweep
        assert "Interactive" in timeout_table(results)
        assert "TOTAL" in overall_table(results)

    def test_space_table(self, small_dataset):
        measurements = [measure_space("nativelinked-1.9", small_dataset)]
        rendered = space_table(measurements)
        assert "Raw JSON" in rendered and "tiny" in rendered


class TestSpaceMeasurement:
    def test_measures_every_engine(self, small_dataset):
        for engine_id in ("nativelinked-1.9", "triplegraph-2.1", "columnargraph-1.0"):
            measurement = measure_space(engine_id, small_dataset)
            assert measurement.total_bytes > 0
            assert measurement.raw_json_bytes > 0

    def test_triple_store_is_largest(self, small_dataset):
        triple = measure_space("triplegraph-2.1", small_dataset)
        native = measure_space("nativelinked-1.9", small_dataset)
        assert triple.total_bytes > native.total_bytes


class TestSuiteAndSummary:
    @pytest.fixture(scope="class")
    def suite_results(self):
        suite = BenchmarkSuite(
            engine_ids=["nativelinked-1.9", "relationalgraph-1.2"],
            dataset_names=["frb-s"],
            scale=0.2,
            bench_config=BenchConfig(timeout=10, batch_size=3),
        )
        return suite, suite.run_micro()

    def test_all_queries_executed(self, suite_results):
        _suite, results = suite_results
        executed = set(results.query_ids())
        assert "Q1" in executed and "Q18" in executed and "Q35" in executed

    def test_both_modes_present(self, suite_results):
        _suite, results = suite_results
        modes = {result.mode for result in results}
        assert modes == {"single", "batch"}

    def test_no_unexpected_errors(self, suite_results):
        _suite, results = suite_results
        errors = [r for r in results if r.status is ExecutionStatus.ERROR]
        assert errors == []

    def test_summary_covers_every_group_and_engine(self, suite_results):
        _suite, results = suite_results
        cells = evaluation_summary(results)
        assert len(cells) == len(SUMMARY_GROUPS) * len(results.engines())
        assert "Evaluation summary" in summary_table(results)

    def test_complex_workload_runs(self):
        suite = BenchmarkSuite(
            engine_ids=["nativelinked-1.9"],
            dataset_names=["ldbc"],
            scale=0.2,
            bench_config=BenchConfig(timeout=10, batch_size=2),
        )
        results = suite.run_complex()
        assert len(results.query_ids()) == 13
        assert all(r.status is ExecutionStatus.OK for r in results)

    def test_indexed_ablation_marks_unsupported_engines(self, small_dataset):
        suite = BenchmarkSuite(
            engine_ids=["nativelinked-1.9", "triplegraph-2.1"],
            dataset_names=["frb-s"],
            scale=0.2,
            bench_config=BenchConfig(timeout=10, batch_size=2),
        )
        results = suite.run_indexed_micro("name", query_ids=("Q11",))
        triple = results.filter(engine="triplegraph-2.1", query_id="Q11")
        assert all(r.status is ExecutionStatus.UNSUPPORTED for r in triple)
        native = results.filter(engine="nativelinked-1.9", query_id="Q11")
        assert all(r.status is ExecutionStatus.OK for r in native)


class TestCli:
    def test_engines_command(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "NativeLinked" in output and "Hybrid" in output

    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["datasets", "--scale", "0.1"]) == 0
        assert "frb-s" in capsys.readouterr().out

    def test_micro_command_restricted(self, capsys):
        from repro.cli import main

        code = main(
            [
                "micro",
                "--engines", "nativelinked-1.9",
                "--datasets", "frb-s",
                "--scale", "0.15",
                "--queries", "Q8", "Q22",
                "--batch-size", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Q22" in output and "Evaluation summary" in output

    def test_space_command(self, capsys):
        from repro.cli import main

        assert main(["space", "--engines", "nativelinked-1.9", "--datasets", "frb-s", "--scale", "0.15"]) == 0
        assert "Raw JSON" in capsys.readouterr().out
