"""Stateful model test of the relational engine's prepared probe plans.

The engine answers expansions from plans it resolved from the catalog at
some earlier catalog version.  A plan is only ever an optimisation: at every
point of every history the long-lived engine must answer — in results *and*
in charges — exactly like an engine that has just been built from the same
operations and has prepared nothing yet, and both must agree with a dict
model that knows no tables at all.  New edge labels (new edge tables), new
property keys (``ALTER TABLE``) and index builds arrive mid-run, which is
what moves the catalog under the plans.

The run length comes from the hypothesis profile loaded in
``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci`` digs deeper).
"""

from __future__ import annotations

from typing import Any, Callable

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engines import create_engine
from repro.model.elements import Direction
from repro.storage.relational import RelationalDatabase

_ENGINE = "relationalgraph-1.2"
_VERTEX_LABELS = (None, "person", "place")
_EDGE_LABELS = tuple(f"rel{index}" for index in range(8))
_PROPERTY_KEYS = ("name", "rank", "city", "since")
#: Per direction, the (own endpoint, opposite endpoint) positions of an edge
#: the engine's passes visit, in yield order.
_PASSES = {Direction.OUT: ((0, 1),), Direction.IN: ((1, 0),), Direction.BOTH: ((0, 1), (1, 0))}

_live_vertex = st.runner().flatmap(lambda machine: st.sampled_from(sorted(machine.vertices)))
_live_edge = st.runner().flatmap(lambda machine: st.sampled_from(sorted(machine.edges)))


def _metered(engine: Any, query: Callable[[Any], Any]) -> tuple[Any, dict[str, int]]:
    """``query(engine)`` and what it booked."""
    before = engine.combined_metrics().snapshot()
    result = query(engine)
    after = engine.combined_metrics().snapshot()
    return result, {name: after[name] - before[name] for name in after}


class RelationalPlanMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = create_engine(_ENGINE)
        #: Every mutation applied so far, as ``(method name, arguments)``.
        self.log: list[tuple[str, tuple[Any, ...]]] = []
        self.vertices: dict[str, dict[str, Any]] = {}
        #: edge id -> (source, target, label)
        self.edges: dict[str, tuple[str, str, str]] = {}

    # -- the model ---------------------------------------------------------

    def _incident(self, vertex: str, direction: Direction, label: str | None):
        """``(edge id, opposite endpoint)`` in the engine's order: the out
        pass before the in pass, edge tables by name, rows by id."""
        ordered = sorted(
            self.edges, key=lambda edge_id: (self.edges[edge_id][2], int(edge_id.rpartition(":")[2]))
        )
        for own, opposite in _PASSES[direction]:
            for edge_id in ordered:
                edge = self.edges[edge_id]
                if edge[own] == vertex and label in (None, edge[2]):
                    yield edge_id, edge[opposite]

    # -- applying and checking ---------------------------------------------

    def _apply(self, method: str, *arguments: Any) -> Any:
        """Run one mutation on the long-lived engine, then hold it against a
        fresh engine replayed from the log: same id, same charge for the
        mutation itself (the cascade walks the plan too)."""
        result, booked = _metered(self.engine, lambda engine: getattr(engine, method)(*arguments))
        fresh = create_engine(_ENGINE)
        for logged_method, logged_arguments in self.log:
            getattr(fresh, logged_method)(*logged_arguments)
        self.log.append((method, arguments))
        replayed, replay_booked = _metered(fresh, lambda engine: getattr(engine, method)(*arguments))
        assert result == replayed
        assert booked == replay_booked, (method, arguments)
        self.fresh = fresh
        return result

    def _check(self, *vertices: str) -> None:
        frontier = [vertex for vertex in dict.fromkeys(vertices) if vertex in self.vertices]
        if not frontier:
            return

        def same(query: Callable[[Any], Any], expected: Any) -> None:
            warm, warm_booked = _metered(self.engine, query)
            fresh, fresh_booked = _metered(self.fresh, query)
            assert warm == expected == fresh
            assert warm_booked == fresh_booked

        for direction in Direction:
            for label in (None, *_EDGE_LABELS):
                incident = {vertex: list(self._incident(vertex, direction, label)) for vertex in frontier}
                same(
                    lambda engine: list(engine.neighbors_many(frontier, direction, label)),
                    [(vertex, other) for vertex in frontier for _edge, other in incident[vertex]],
                )
                same(
                    lambda engine: list(engine.edges_for_many(frontier, direction, label)),
                    [(vertex, edge) for vertex in frontier for edge, _other in incident[vertex]],
                )
                for vertex in frontier:
                    same(
                        lambda engine: list(engine.edges_for(vertex, direction, label)),
                        [edge for edge, _other in incident[vertex]],
                    )
            for vertex in frontier:
                degree = len(list(self._incident(vertex, direction, None)))
                for k in (1, degree, degree + 1):
                    same(lambda engine: engine.degree_at_least(vertex, k, direction), degree >= k)
        # An abandoned stream has paid for what it handed over, no more.
        first = next(
            ((vertex, other) for vertex in frontier
             for _edge, other in self._incident(vertex, Direction.BOTH, None)),
            None,
        )
        same(lambda engine: next(engine.neighbors_many(frontier, Direction.BOTH, None), None), first)
        for vertex in frontier:
            same(lambda engine: dict(engine.vertex(vertex).properties), self.vertices[vertex])

    # -- rules -------------------------------------------------------------

    @rule(label=st.sampled_from(_VERTEX_LABELS), key=st.sampled_from(_PROPERTY_KEYS), value=st.integers(0, 3))
    def add_vertex(self, label, key, value):
        vertex = self._apply("add_vertex", {key: value}, label)
        self.vertices[vertex] = {key: value}
        self._check(vertex)

    @initialize(label=st.sampled_from(_VERTEX_LABELS))
    def first_vertex(self, label):
        # Every other rule needs a vertex; start with one.
        self.add_vertex(label, _PROPERTY_KEYS[0], 0)

    @precondition(lambda self: self.vertices)
    @rule(tail=_live_vertex, head=_live_vertex, label=st.sampled_from(_EDGE_LABELS))
    def add_edge(self, tail, head, label):
        edge = self._apply("add_edge", tail, head, label)
        self.edges[edge] = (tail, head, label)
        self._check(tail, head)

    @precondition(lambda self: self.edges)
    @rule(edge=_live_edge)
    def remove_edge(self, edge):
        self._apply("remove_edge", edge)
        source, target, _label = self.edges.pop(edge)
        self._check(source, target)

    @precondition(lambda self: self.vertices)
    @rule(vertex=_live_vertex)
    def remove_vertex(self, vertex):
        self._apply("remove_vertex", vertex)
        del self.vertices[vertex]
        touched = []
        for edge, (source, target, _label) in list(self.edges.items()):
            if vertex in (source, target):
                del self.edges[edge]
                touched += [source, target]
        self._check(*touched, *sorted(self.vertices)[:1])

    @precondition(lambda self: self.vertices)
    @rule(vertex=_live_vertex, key=st.sampled_from(_PROPERTY_KEYS), value=st.integers(0, 3))
    def set_vertex_property(self, vertex, key, value):
        self._apply("set_vertex_property", vertex, key, value)
        self.vertices[vertex][key] = value
        self._check(vertex)

    @precondition(lambda self: self.vertices)
    @rule(key=st.sampled_from(_PROPERTY_KEYS), vertex=_live_vertex)
    def create_vertex_index(self, key, vertex):
        self._apply("create_vertex_index", key)
        self._check(vertex)


TestRelationalPlanMachine = RelationalPlanMachine.TestCase


def test_the_machine_finds_a_frozen_catalog_version(monkeypatch):
    """Teeth: if the version never moved, plans would outlive the catalog
    they were resolved from — the machine must notice inside its budget."""
    monkeypatch.setattr(RelationalDatabase, "catalog_version", property(lambda self: 0))
    budget = settings(RelationalPlanMachine.TestCase.settings, phases=(Phase.generate,), database=None)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(RelationalPlanMachine, settings=budget)
