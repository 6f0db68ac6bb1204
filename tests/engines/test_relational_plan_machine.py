"""Stateful model test of the relational engine's prepared probe plans.

The engine answers expansions from plans it resolved from the catalog at
some earlier catalog version, and descends only the edge tables the
catalog's holder map lists for the vertex.  Both are only ever
optimisations: at every point of every history the long-lived engine must
answer — in results *and* in charges — exactly like an engine that has just
been built from the same operations and has prepared nothing yet, and like
the union over every edge table (:func:`per_id_walks.relational_union`,
the reference), and all must agree with a dict model that knows no tables
at all.  The fresh engine shares the holder-map code, so the map itself is held
against a recomputation from every index after every step.  New edge labels
(new edge tables), new property keys (``ALTER TABLE``), index builds and an
index growing a level arrive mid-run, which is what moves the catalog under
the plans; rows deleted behind the engine's back and a vertex table indexed
on a column named like an endpoint column are what the map must survive.

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
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from per_id_walks import edge_tables, relational_union as _union

from repro.engines import create_engine
from repro.model.elements import Direction
from repro.storage.relational import Column, RelationalDatabase, Table, index_key

_ENGINE = "relationalgraph-1.2"
_VERTEX_LABELS = (None, "person", "place")
_EDGE_LABELS = tuple(f"rel{index}" for index in range(8))
_PROPERTY_KEYS = ("name", "rank", "city", "since")
#: Every column the machine can ever index: the endpoint columns and the
#: property keys (``source`` doubles as an indexed vertex column).
_INDEXABLE = ("source", "target", *_PROPERTY_KEYS)
#: Per direction, the (own endpoint, opposite endpoint) positions of an edge
#: the engine's passes visit, in yield order.
_PASSES = {Direction.OUT: ((0, 1),), Direction.IN: ((1, 0),), Direction.BOTH: ((0, 1), (1, 0))}
#: The same passes as (probed column, far-endpoint column) of an edge table.
_ENDS = ("source", "target")
_COLUMNS = {
    direction: tuple((_ENDS[own], _ENDS[opposite]) for own, opposite in passes)
    for direction, passes in _PASSES.items()
}
#: Rows past a B+Tree leaf's order: a burst this wide grows a fresh index a level.
_BURST = 65

_live_vertex = st.runner().flatmap(lambda machine: st.sampled_from(sorted(machine.vertices)))
_live_edge = st.runner().flatmap(lambda machine: st.sampled_from(sorted(machine.edges)))


def _metered(engine: Any, query: Callable[[Any], Any]) -> tuple[Any, dict[str, int]]:
    """``query(engine)`` and what it booked."""
    before = engine.combined_metrics().snapshot()
    result = query(engine)
    after = engine.combined_metrics().snapshot()
    return result, {name: after[name] - before[name] for name in after}


def _union_degree(engine: Any, vertex: str, k: int, direction: Direction) -> bool:
    """The reference ``degree_at_least``: index-only counts over every edge
    table, stopping at the search that reaches ``k``."""
    if k <= 0:
        return True
    key, count = index_key(str(vertex)), 0
    for column, _opposite in _COLUMNS[direction]:
        for name in edge_tables(engine, None):
            count += len(engine.database.table(name).secondary_index(column).search(key))
            if count >= k:
                return True
    return False


def _index_keys(index: Any) -> list[str]:
    """The distinct keys of a B+Tree, read off its leaves (books nothing)."""
    keys, leaf = [], index._leftmost_leaf()
    while leaf is not None:
        keys += leaf.keys
        leaf = leaf.next_leaf
    return keys


def _call(engine: Any, method: str | Callable[..., Any], arguments: tuple[Any, ...]) -> Any:
    """One logged mutation: an engine method by name, or a function of the
    engine that writes behind it."""
    if callable(method):
        return method(engine, *arguments)
    return getattr(engine, method)(*arguments)


def _row(engine: Any, element: str) -> tuple[Table, int]:
    table_name, _, row = element.rpartition(":")
    return engine.database.table(table_name), int(row)


def _delete_row(engine: Any, edge: str) -> None:
    table, row_id = _row(engine, edge)
    table.delete(row_id)


def _delete_referencing(engine: Any, label: str, vertex: str) -> int:
    table = engine.database.table("E_" + label)
    return table.delete_referencing(_ENDS, index_key(vertex))


def _write_source_column(engine: Any, vertex: str, value: str) -> None:
    table, row_id = _row(engine, vertex)
    table.add_column(Column("source"))
    table.create_index("source")
    table.update(row_id, {"source": value})


def _burst(engine: Any, target: str, label: str) -> list[tuple[str, str]]:
    """``_BURST`` new vertices beside ``target``, each with an edge into it,
    as ``(vertex, edge)``: the edge table's source index grows a level, and
    no table is created, so nothing but the growth moves the catalog."""
    vertex_label = engine.vertex_label(target)
    tails = [engine.add_vertex({}, vertex_label) for _ in range(_BURST)]
    return [(tail, engine.add_edge(tail, target, label)) for tail in tails]


class RelationalPlanMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engine = create_engine(_ENGINE)
        #: Every mutation applied so far, as ``(method name, arguments)``.
        self.log: list[tuple[str, tuple[Any, ...]]] = []
        self.vertices: dict[str, dict[str, Any]] = {}
        #: edge id -> (source, target, label)
        self.edges: dict[str, tuple[str, str, str]] = {}
        #: Whether the run has had its burst of edges (one growth is enough).
        self.burst = False

    # -- the model ---------------------------------------------------------

    def _ordered(self, vertex: str) -> list[str]:
        """``vertex``'s incident edges in the engine's order within a pass:
        edge tables by name, rows by id."""
        return sorted(
            (edge_id for edge_id, edge in self.edges.items() if vertex in edge[:2]),
            key=lambda edge_id: (self.edges[edge_id][2], int(edge_id.rpartition(":")[2])),
        )

    def _incident(self, ordered: list[str], vertex: str, direction: Direction, label: str | None):
        """``(edge id, opposite endpoint)`` of ``vertex`` (incident edges
        ``ordered``) in the engine's order: the out pass before the in pass."""
        for own, opposite in _PASSES[direction]:
            for edge_id in ordered:
                edge = self.edges[edge_id]
                if edge[own] == vertex and label in (None, edge[2]):
                    yield edge_id, edge[opposite]

    # -- applying and checking ---------------------------------------------

    def _apply(self, method: str | Callable[..., Any], *arguments: Any) -> Any:
        """Run one mutation on the long-lived engine, then hold it against a
        fresh engine replayed from the log: same id, same charge for the
        mutation itself (the cascade walks the plan too)."""
        result, booked = _metered(self.engine, lambda engine: _call(engine, method, arguments))
        fresh = create_engine(_ENGINE)
        for logged_method, logged_arguments in self.log:
            _call(fresh, logged_method, logged_arguments)
        self.log.append((method, arguments))
        replayed, replay_booked = _metered(fresh, lambda engine: _call(engine, method, arguments))
        assert result == replayed
        assert booked == replay_booked, (method, arguments)
        self.fresh = fresh
        return result

    def _check(self, *vertices: str) -> None:
        frontier = [vertex for vertex in dict.fromkeys(vertices) if vertex in self.vertices]
        if not frontier:
            return
        ordered = {vertex: self._ordered(vertex) for vertex in frontier}

        def same(
            query: Callable[[Any], Any],
            expected: Any,
            reference: Callable[[Any], Any] | None = None,
        ) -> None:
            warm, warm_booked = _metered(self.engine, query)
            fresh, fresh_booked = _metered(self.fresh, query)
            assert warm == expected == fresh
            assert warm_booked == fresh_booked
            if reference is not None:
                union, union_booked = _metered(self.engine, reference)
                assert union == warm
                assert union_booked == warm_booked

        for direction in Direction:
            for label in (None, *_EDGE_LABELS):
                incident = {
                    vertex: list(self._incident(ordered[vertex], vertex, direction, label))
                    for vertex in frontier
                }
                same(
                    lambda engine: list(engine.neighbors_many(frontier, direction, label)),
                    [(vertex, other) for vertex in frontier for _edge, other in incident[vertex]],
                    lambda engine: list(_union(engine, frontier, direction, label, True)),
                )
                same(
                    lambda engine: list(engine.edges_for_many(frontier, direction, label)),
                    [(vertex, edge) for vertex in frontier for edge, _other in incident[vertex]],
                    lambda engine: list(_union(engine, frontier, direction, label, False)),
                )
                for vertex in frontier:
                    same(
                        lambda engine: list(engine.edges_for(vertex, direction, label)),
                        [edge for edge, _other in incident[vertex]],
                        lambda engine: [
                            edge for _vertex, edge in _union(engine, [vertex], direction, label, False)
                        ],
                    )
            for vertex in frontier:
                degree = len(list(self._incident(ordered[vertex], vertex, direction, None)))
                for k in (1, degree, degree + 1):
                    same(
                        lambda engine: engine.degree_at_least(vertex, k, direction),
                        degree >= k,
                        lambda engine: _union_degree(engine, vertex, k, direction),
                    )
        # An abandoned stream has paid for what it handed over, no more.
        first = next(
            ((vertex, other) for vertex in frontier
             for _edge, other in self._incident(ordered[vertex], vertex, Direction.BOTH, None)),
            None,
        )
        same(
            lambda engine: next(engine.neighbors_many(frontier, Direction.BOTH, None), None),
            first,
            lambda engine: next(_union(engine, frontier, Direction.BOTH, None, True), None),
        )
        for vertex in frontier:
            same(lambda engine: dict(engine.vertex(vertex).properties), self.vertices[vertex])

    @invariant()
    def the_holder_map_is_every_index_read_back(self):
        database = self.engine.database
        expected: dict[str, dict[str, list[str]]] = {column: {} for column in _INDEXABLE}
        for name in database.table_names():
            table = database.table(name)
            for column in _INDEXABLE:
                if table.has_index(column):
                    for key in _index_keys(table.secondary_index(column)):
                        expected[column].setdefault(key, []).append(name)
        held = {
            column: {key: list(names) for key, names in database.holders(column).items()}
            for column in _INDEXABLE
        }
        assert held == expected

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
    @rule(key=st.sampled_from(_PROPERTY_KEYS + ("source",)), vertex=_live_vertex)
    def create_vertex_index(self, key, vertex):
        self._apply("create_vertex_index", key)
        self._check(vertex)

    # -- writes behind the engine's back -------------------------------------

    @precondition(lambda self: self.edges)
    @rule(edge=_live_edge)
    def delete_edge_row(self, edge):
        self._apply(_delete_row, edge)
        source, target, _label = self.edges.pop(edge)
        self._check(source, target)

    @precondition(lambda self: self.edges)
    @rule(edge=_live_edge, endpoint=st.sampled_from((0, 1)))
    def delete_referencing_rows(self, edge, endpoint):
        """One edge table's foreign-key cascade, run on the table itself."""
        vertex, label = self.edges[edge][endpoint], self.edges[edge][2]
        doomed = [
            edge_id for edge_id, (source, target, edge_label) in self.edges.items()
            if edge_label == label and vertex in (source, target)
        ]
        assert self._apply(_delete_referencing, label, vertex) == len(doomed)
        touched = [end for edge_id in doomed for end in self.edges.pop(edge_id)[:2]]
        self._check(*touched)

    @precondition(lambda self: self.vertices)
    @rule(vertex=_live_vertex, other=_live_vertex)
    def index_a_vertex_column_named_source(self, vertex, other):
        """A vertex table indexed on ``source`` holding a vertex id: the
        holder map lists it beside the edge tables, and no expansion or
        cascade may take it for one."""
        self._apply(_write_source_column, vertex, other)
        self.vertices[vertex]["source"] = other
        self._check(vertex, other)

    @precondition(lambda self: self.edges and not self.burst)
    @rule(head=_live_vertex, edge=_live_edge)
    def burst_of_edges(self, head, edge):
        self.burst = True
        label = self.edges[edge][2]
        added = self._apply(_burst, head, label)
        for tail, edge_id in added:
            self.vertices[tail] = {}
            self.edges[edge_id] = (tail, head, label)
        self._check(head, added[0][0])


TestRelationalPlanMachine = RelationalPlanMachine.TestCase


def _fails_inside_its_budget() -> None:
    budget = settings(RelationalPlanMachine.TestCase.settings, phases=(Phase.generate,), database=None)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(RelationalPlanMachine, settings=budget)


def test_the_machine_finds_a_frozen_catalog_version(monkeypatch):
    """Teeth: if the version never moved, plans would outlive the catalog
    they were resolved from — the machine must notice inside its budget."""
    monkeypatch.setattr(RelationalDatabase, "catalog_version", property(lambda self: 0))
    _fails_inside_its_budget()


def test_the_machine_finds_an_unreported_level(monkeypatch):
    """Teeth: an index that grows a level without moving the version leaves
    a plan booking the old height for every table it skips."""

    def index_insert(self, column, index, key, row_id):
        if index.insert(key, row_id):
            self._hold(self._holders[column], key)

    monkeypatch.setattr(Table, "_index_insert", index_insert)
    _fails_inside_its_budget()


def test_the_machine_finds_an_unreported_vanished_key(monkeypatch):
    """Teeth: a key that leaves an index but stays in the holder map costs
    a search that finds nothing — same answers, same charges, so only the
    map invariant can see it."""
    monkeypatch.setattr(
        Table, "_index_delete", lambda self, column, index, key, row_id: index.delete(key, row_id)
    )
    _fails_inside_its_budget()
