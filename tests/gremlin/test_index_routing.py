"""Optimizer routing of reachability steps onto the structural index.

Policy under test: ``reachable()`` / ``descendants()`` run the charged BFS
*unless* the graph already holds a fresh interval index over the step's
label — the optimizer never builds an index as a query side effect, and
the baseline executor never routes even when one exists.
"""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import create_engine
from repro.gremlin import steps as S
from repro.gremlin.machine import baseline_execution
from repro.gremlin.optimizer import optimize
from repro.index.generators import STRUCTURE_LABEL, generate_shape

ENGINE = "nativelinked-3.0"


@pytest.fixture
def loaded_tree():
    engine = create_engine(ENGINE)
    loaded = load_dataset_into(engine, generate_shape("tree", 48, seed=9))
    ids = [loaded.vertex_map[f"r{position}"] for position in range(48)]
    return engine, ids


def _plan(engine, traversal, **kwargs):
    return optimize(engine, traversal.steps, **kwargs)


class TestRoutingPolicy:
    def test_no_index_keeps_naive_steps(self, loaded_tree):
        engine, ids = loaded_tree
        plan = _plan(engine, engine.traversal().V(ids[0]).reachable(ids[5], STRUCTURE_LABEL))
        assert any(isinstance(step, S.ReachableStep) for step in plan)
        assert not any(isinstance(step, S.IndexedReachableStep) for step in plan)

    def test_fresh_index_routes_both_steps(self, loaded_tree):
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        reach_plan = _plan(engine, engine.traversal().V(ids[0]).reachable(ids[5], STRUCTURE_LABEL))
        assert any(isinstance(step, S.IndexedReachableStep) for step in reach_plan)
        desc_plan = _plan(engine, engine.traversal().V(ids[0]).descendants(STRUCTURE_LABEL))
        assert any(isinstance(step, S.IndexedDescendantsStep) for step in desc_plan)

    def test_label_mismatch_is_not_routed(self, loaded_tree):
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        plan = _plan(engine, engine.traversal().V(ids[0]).reachable(ids[5], "other-label"))
        assert any(isinstance(step, S.ReachableStep) for step in plan)

    def test_stale_index_is_not_routed(self, loaded_tree):
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        engine.add_edge(ids[0], ids[7], STRUCTURE_LABEL)  # invalidates
        plan = _plan(engine, engine.traversal().V(ids[0]).reachable(ids[5], STRUCTURE_LABEL))
        assert any(isinstance(step, S.ReachableStep) for step in plan)

    def test_baseline_disables_rewrite(self, loaded_tree):
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        traversal = engine.traversal().V(ids[0]).reachable(ids[5], STRUCTURE_LABEL)
        plan = _plan(engine, traversal, baseline=True)
        assert any(isinstance(step, S.ReachableStep) for step in plan)

    def test_optimize_never_builds_an_index(self, loaded_tree):
        engine, ids = loaded_tree
        _plan(engine, engine.traversal().V(ids[0]).reachable(ids[5], STRUCTURE_LABEL))
        assert not engine.has_structural_index(STRUCTURE_LABEL)


class TestExecution:
    def test_naive_and_indexed_answers_agree(self, loaded_tree):
        engine, ids = loaded_tree
        naive = engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        engine.structural_index(STRUCTURE_LABEL)
        indexed = engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        assert indexed == naive == [True]

    def test_descendants_step_expands_to_vertices(self, loaded_tree):
        engine, ids = loaded_tree
        naive = set(engine.traversal().V(ids[0]).descendants(STRUCTURE_LABEL).to_list())
        assert naive == set(ids) - {ids[0]}
        engine.structural_index(STRUCTURE_LABEL)
        indexed = set(engine.traversal().V(ids[0]).descendants(STRUCTURE_LABEL).to_list())
        assert indexed == naive

    def test_indexed_run_charges_less_than_naive(self, loaded_tree):
        engine, ids = loaded_tree
        engine.reset_metrics()
        engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        naive_cost = engine.combined_metrics().logical_io
        engine.structural_index(STRUCTURE_LABEL)
        engine.reset_metrics()
        engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        indexed_cost = engine.combined_metrics().logical_io
        assert indexed_cost < naive_cost

    def test_baseline_executor_ignores_the_index(self, loaded_tree):
        """Baseline mode pays the BFS even when a fresh index exists."""
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        engine.reset_metrics()
        engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        indexed_cost = engine.combined_metrics().logical_io
        engine.reset_metrics()
        with baseline_execution():
            result = engine.traversal().V(ids[0]).reachable(ids[-1], STRUCTURE_LABEL).to_list()
        baseline_cost = engine.combined_metrics().logical_io
        assert result == [True]
        assert baseline_cost > indexed_cost

    def test_chained_after_expansion(self, loaded_tree):
        """The step composes with ordinary traversal steps upstream."""
        engine, ids = loaded_tree
        engine.structural_index(STRUCTURE_LABEL)
        answers = (
            engine.traversal().V(ids[0]).out(STRUCTURE_LABEL).reachable(ids[0], STRUCTURE_LABEL).to_list()
        )
        assert answers  # every child answers (False in a tree: no path back up)
        assert all(answer is False for answer in answers)
