"""Count pushdown, conflation describe-output, and logical-IO regressions."""

from __future__ import annotations

import pytest

from repro.datasets import get_dataset
from repro.bench.workload import load_dataset_into
from repro.engines import create_engine
from repro.gremlin import steps as S
from repro.gremlin.machine import TraversalContext, baseline_execution
from repro.gremlin.optimizer import engine_conflates_counts, engine_optimizes, optimize
from repro.gremlin.traversal import Traverser


class TestCountPushdown:
    def test_v_count_rewritten_for_conflating_engines(self, loaded):
        steps = loaded.engine.traversal().V().steps + [S.CountStep()]
        rewritten = optimize(loaded.engine, steps)
        if engine_conflates_counts(loaded.engine):
            assert len(rewritten) == 1
            assert isinstance(rewritten[0], S.NativeCountStep)
            assert rewritten[0].source == "V"
        else:
            assert isinstance(rewritten[0], S.VStep)

    def test_e_count_rewritten_for_conflating_engines(self, loaded):
        steps = loaded.engine.traversal().E().steps + [S.CountStep()]
        rewritten = optimize(loaded.engine, steps)
        if engine_conflates_counts(loaded.engine):
            assert [step.source for step in rewritten] == ["E"]

    def test_edge_label_count_rewritten(self, loaded):
        steps = loaded.engine.traversal().E().has("label", "knows").steps + [S.CountStep()]
        rewritten = optimize(loaded.engine, steps)
        if engine_conflates_counts(loaded.engine):
            assert len(rewritten) == 1
            assert isinstance(rewritten[0], S.NativeCountStep)
            assert rewritten[0].source == "E-label"
            assert rewritten[0].label == "knows"

    def test_pushdown_describe_mentions_conflation(self):
        assert "conflated" in S.NativeCountStep(source="V").describe()
        assert "knows" in S.NativeCountStep(source="E-label", label="knows").describe()

    def test_baseline_disables_pushdown(self, loaded):
        steps = loaded.engine.traversal().V().steps + [S.CountStep()]
        rewritten = optimize(loaded.engine, steps, baseline=True)
        assert isinstance(rewritten[0], S.VStep)

    def test_counts_match_baseline_everywhere(self, loaded):
        with baseline_execution():
            expected_v = loaded.engine.traversal().V().count()
            expected_e = loaded.engine.traversal().E().count()
            expected_l = loaded.engine.traversal().E().has("label", "knows").count()
        assert loaded.engine.traversal().V().count() == expected_v == 8
        assert loaded.engine.traversal().E().count() == expected_e == 10
        assert loaded.engine.traversal().E().has("label", "knows").count() == expected_l == 7

    def test_bitmap_engine_conflates_counts(self):
        engine = create_engine("bitmapgraph-5.1")
        assert not engine_optimizes(engine)
        assert engine_conflates_counts(engine)


@pytest.fixture(scope="module")
def generator_graph():
    """The generated LDBC-like dataset loaded into the conflating engine."""
    dataset = get_dataset("ldbc", scale=0.4, seed=7)
    engine = create_engine("relationalgraph-1.2")
    return load_dataset_into(engine, dataset), dataset


def _manual_io(engine, steps) -> int:
    """Execute an unoptimised pipeline by hand and return its logical IO."""
    engine.reset_metrics()
    context = TraversalContext(graph=engine)
    stream = iter([Traverser(obj=None, kind="start", path=None)])
    for step in steps:
        stream = step.apply(stream, context)
    for _walker in stream:
        pass
    return engine.io_cost()


class TestLogicalIoRegression:
    """Guard the cost model: conflation must save IO, nothing else may move."""

    def test_conflated_v_has_costs_less_than_naive(self, generator_graph):
        loaded, _dataset = generator_graph
        engine = loaded.engine
        assert engine_optimizes(engine)
        naive = _manual_io(engine, [S.VStep(), S.HasStep(key="name", value="missing")])
        engine.reset_metrics()
        engine.traversal().V().has("name", "missing").to_list()
        conflated = engine.io_cost()
        assert 0 < conflated < naive

    def test_count_pushdown_costs_no_more_than_naive(self, generator_graph):
        loaded, _dataset = generator_graph
        engine = loaded.engine
        naive = _manual_io(engine, [S.EStep(), S.CountStep()])
        engine.reset_metrics()
        engine.traversal().E().count()
        pushed = engine.io_cost()
        assert 0 < pushed <= naive

    def test_unoptimised_plan_io_unchanged(self):
        """Non-conflating engines charge exactly the naive-plan IO."""
        dataset = get_dataset("ldbc", scale=0.4, seed=7)
        engine = create_engine("nativelinked-1.9")
        load_dataset_into(engine, dataset)
        assert not engine_conflates_counts(engine)
        naive = _manual_io(engine, [S.VStep(), S.CountStep()])
        engine.reset_metrics()
        engine.traversal().V().count()
        assert engine.io_cost() == naive

    def test_traversal_io_matches_baseline_executor(self):
        """Bulked expansion charges the same logical IO as the seed executor."""
        dataset = get_dataset("ldbc", scale=0.4, seed=7)
        engine = create_engine("nativelinked-1.9")
        loaded = load_dataset_into(engine, dataset)
        internal = list(loaded.vertex_map.values())[:32]
        with baseline_execution():
            engine.reset_metrics()
            engine.traversal().V(*internal).both().iterate()
            baseline_io = engine.io_cost()
        engine.reset_metrics()
        engine.traversal().V(*internal).both().iterate()
        assert engine.io_cost() == baseline_io
