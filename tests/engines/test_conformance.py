"""Engine conformance suite: the same CRUD + traversal contract for every engine.

Every test in this module runs against every registered engine (both versions
of the two dual-version systems included), which is the library's equivalent
of the paper's requirement that all systems answer exactly the same queries.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.engines
from repro.concurrency.versioning import SnapshotView, VersionedGraph
from repro.engines import ALL_ENGINES, create_engine
from repro.engines.base import BaseEngine
from repro.exceptions import ElementNotFoundError, SchemaError
from repro.model.elements import EDGE, VERTEX, Direction
from repro.model.graph import OPS, RESERVED_KEYS, GraphDatabase
from repro.txn.distributed import LOGGED_OPS


class TestVertexCrud:
    def test_add_vertex_returns_usable_id(self, any_engine):
        vertex_id = any_engine.add_vertex({"name": "alice"}, label="person")
        assert any_engine.vertex_exists(vertex_id)

    def test_vertex_view_exposes_label_and_properties(self, any_engine):
        vertex_id = any_engine.add_vertex({"name": "alice", "age": 30}, label="person")
        view = any_engine.vertex(vertex_id)
        assert view.label == "person"
        assert view.properties["name"] == "alice"
        assert view.value("age") == 30

    def test_vertex_without_label_or_properties(self, any_engine):
        vertex_id = any_engine.add_vertex()
        view = any_engine.vertex(vertex_id)
        assert dict(view.properties) == {}

    def test_missing_vertex_raises(self, any_engine):
        with pytest.raises(ElementNotFoundError):
            any_engine.vertex("no-such-vertex")

    def test_vertex_count_tracks_insertions(self, any_engine):
        for index in range(5):
            any_engine.add_vertex({"rank": index})
        assert any_engine.vertex_count() == 5

    def test_set_and_get_vertex_property(self, any_engine):
        vertex_id = any_engine.add_vertex({"name": "bob"})
        any_engine.set_vertex_property(vertex_id, "city", "Trento")
        assert any_engine.vertex_property(vertex_id, "city") == "Trento"
        assert any_engine.vertex_properties(vertex_id)["city"] == "Trento"

    def test_update_vertex_property(self, any_engine):
        vertex_id = any_engine.add_vertex({"age": 30})
        any_engine.set_vertex_property(vertex_id, "age", 31)
        assert any_engine.vertex_property(vertex_id, "age") == 31

    def test_remove_vertex_property(self, any_engine):
        vertex_id = any_engine.add_vertex({"tmp": 1})
        any_engine.remove_vertex_property(vertex_id, "tmp")
        assert any_engine.vertex_property(vertex_id, "tmp") is None

    def test_remove_vertex_removes_it(self, any_engine):
        vertex_id = any_engine.add_vertex()
        any_engine.remove_vertex(vertex_id)
        assert not any_engine.vertex_exists(vertex_id)
        assert any_engine.vertex_count() == 0

    def test_remove_vertex_cascades_to_edges(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        any_engine.add_edge(a, b, "knows")
        any_engine.remove_vertex(b)
        assert any_engine.edge_count() == 0
        assert list(any_engine.out_edges(a)) == []


class TestEdgeCrud:
    def test_add_edge_and_view(self, any_engine):
        a = any_engine.add_vertex({"name": "a"})
        b = any_engine.add_vertex({"name": "b"})
        edge_id = any_engine.add_edge(a, b, "knows", {"since": 2012})
        view = any_engine.edge(edge_id)
        assert view.label == "knows"
        assert view.source == a and view.target == b
        assert view.properties["since"] == 2012

    def test_edge_endpoints_and_label(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        edge_id = any_engine.add_edge(a, b, "follows")
        assert any_engine.edge_endpoints(edge_id) == (a, b)
        assert any_engine.edge_label(edge_id) == "follows"

    def test_edge_to_missing_vertex_raises(self, any_engine):
        a = any_engine.add_vertex()
        with pytest.raises(ElementNotFoundError):
            any_engine.add_edge(a, "missing", "knows")

    def test_edge_count_tracks_insertions(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        for _ in range(3):
            any_engine.add_edge(a, b, "knows")
        assert any_engine.edge_count() == 3

    def test_set_update_remove_edge_property(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        edge_id = any_engine.add_edge(a, b, "knows")
        any_engine.set_edge_property(edge_id, "weight", 1)
        any_engine.set_edge_property(edge_id, "weight", 2)
        assert any_engine.edge_property(edge_id, "weight") == 2
        any_engine.remove_edge_property(edge_id, "weight")
        assert any_engine.edge_property(edge_id, "weight") is None

    def test_remove_edge(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        edge_id = any_engine.add_edge(a, b, "knows")
        any_engine.remove_edge(edge_id)
        assert not any_engine.edge_exists(edge_id)
        assert list(any_engine.out_edges(a)) == []
        assert list(any_engine.in_edges(b)) == []

    def test_missing_edge_raises(self, any_engine):
        with pytest.raises(ElementNotFoundError):
            any_engine.edge("no-such-edge")

    def test_distinct_edge_labels(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        any_engine.add_edge(a, b, "knows")
        any_engine.add_edge(b, a, "likes")
        any_engine.add_edge(a, b, "knows")
        assert any_engine.distinct_edge_labels() == {"knows", "likes"}


#: Every per-id method, by the id space it reads from; ``live`` is a live
#: vertex (the other endpoint of an edge insert).
_VERTEX_METHODS = (
    lambda engine, element, live: engine.vertex(element),
    lambda engine, element, live: engine.vertex_property(element, "name"),
    lambda engine, element, live: engine.set_vertex_property(element, "name", "x"),
    lambda engine, element, live: engine.remove_vertex_property(element, "name"),
    lambda engine, element, live: engine.remove_vertex(element),
    lambda engine, element, live: engine.add_edge(element, live, "knows", {"name": "x"}),
    lambda engine, element, live: engine.add_edge(live, element, "fresh"),
)
_EDGE_METHODS = (
    lambda engine, element, live: engine.edge(element),
    lambda engine, element, live: engine.edge_endpoints(element),
    lambda engine, element, live: engine.edge_property(element, "name"),
    lambda engine, element, live: engine.set_edge_property(element, "name", "x"),
    lambda engine, element, live: engine.remove_edge_property(element, "name"),
    lambda engine, element, live: engine.remove_edge(element),
)


class TestIdSpaces:
    """A live id of one id space names nothing in the other.

    The graphs are shaped so that the foreign id collides with no id of the
    other kind even on the native engines, whose vertex and edge ids are
    both record offsets starting at zero.
    """

    @staticmethod
    def _assert_rejected(engine, methods, foreign_id, live):
        """Each method raises before the WAL, the structure version or the
        counts move."""
        counts = (engine.vertex_count(), engine.edge_count())
        for method in methods:
            wal_length, cost = len(engine.wal), engine.io_cost()
            shape = engine.structure_version()
            with pytest.raises(ElementNotFoundError):
                method(engine, foreign_id, live)
            assert len(engine.wal) == wal_length
            assert engine.structure_version() == shape
            # Elsewhere a failed lookup may book its probe (the v3.0 wrapper
            # charges one per API call); here resolving an id is a catalog read.
            if engine.name == "relationalgraph":
                assert engine.io_cost() == cost
            assert (engine.vertex_count(), engine.edge_count()) == counts

    def test_edge_id_is_not_a_vertex(self, any_engine):
        a = any_engine.add_vertex({"name": "a"}, label="person")
        b = any_engine.add_vertex({"name": "b"}, label="person")
        edges = [any_engine.add_edge(a, b, "knows", {"name": "e"}) for _ in range(3)]
        assert edges[-1] not in (a, b)
        assert not any_engine.vertex_exists(edges[-1])
        self._assert_rejected(any_engine, _VERTEX_METHODS, edges[-1], a)

    def test_vertex_id_is_not_an_edge(self, any_engine):
        vertices = [any_engine.add_vertex({"name": "v"}, label="person") for _ in range(3)]
        edge = any_engine.add_edge(vertices[0], vertices[1], "knows", {"name": "e"})
        assert vertices[-1] != edge
        assert not any_engine.edge_exists(vertices[-1])
        self._assert_rejected(any_engine, _EDGE_METHODS, vertices[-1], vertices[0])
        # The endpoints the rejected calls named are still there.
        assert any_engine.edge_endpoints(edge) == (vertices[0], vertices[1])

    def test_removed_ids_are_rejected(self, any_engine):
        a, b, gone = (any_engine.add_vertex({"name": n}, label="person") for n in "abc")
        kept = any_engine.add_edge(a, b, "knows")
        dropped = any_engine.add_edge(b, a, "knows")
        any_engine.remove_edge(dropped)
        any_engine.remove_vertex(gone)
        self._assert_rejected(any_engine, _VERTEX_METHODS, gone, a)
        self._assert_rejected(any_engine, _EDGE_METHODS, dropped, a)
        assert list(any_engine.out_edges(a)) == [kept]


#: The writes that name a property key, as (operation, kind) cases over a
#: vertex ``a``, an edge ``e`` from ``a`` to ``b``, and a reserved ``key``.
_KEYED_WRITES = {
    ("add", "vertex"): lambda graph, a, b, e, key: graph.add_vertex({key: "x"}),
    ("add", "edge"): lambda graph, a, b, e, key: graph.add_edge(a, b, "knows", {key: "x"}),
    ("set", "vertex"): lambda graph, a, b, e, key: graph.set_vertex_property(a, key, "x"),
    ("set", "edge"): lambda graph, a, b, e, key: graph.set_edge_property(e, key, b),
}


#: Every reserved key, named: the relational edge-table endpoint columns
#: (the last four) were once silently dropped at add, and a set of
#: ``target`` rewired the edge.
_RESERVED = (
    "_from", "_key", "_label", "_to", "id", "source", "source_table", "target", "target_table"
)


class TestReservedKeys:
    """A property key naming engine metadata is refused everywhere, before
    anything is booked: no engine's metadata can be overwritten by a user
    property (document system fields, the columnar label cell, the
    relational row id and edge endpoint columns)."""

    def test_every_reserved_key_is_named_here(self):
        assert frozenset(_RESERVED) == RESERVED_KEYS

    @staticmethod
    def _graph(engine):
        a = engine.add_vertex({"name": "a"}, label="person")
        b = engine.add_vertex({"name": "b"}, label="person")
        return a, b, engine.add_edge(a, b, "knows", {"weight": 1})

    @pytest.mark.parametrize("key", _RESERVED)
    @pytest.mark.parametrize("case", sorted(_KEYED_WRITES), ids="-".join)
    def test_reserved_key_is_refused_before_any_charge(self, any_engine, case, key):
        a, b, e = self._graph(any_engine)
        before = (any_engine.combined_metrics().snapshot(), len(any_engine.wal))
        with pytest.raises(SchemaError):
            _KEYED_WRITES[case](any_engine, a, b, e, key)
        assert (any_engine.combined_metrics().snapshot(), len(any_engine.wal)) == before
        assert (any_engine.vertex_count(), any_engine.edge_count()) == (2, 1)
        assert any_engine.vertex(a).label == "person"
        assert any_engine.edge_endpoints(e) == (a, b)
        assert list(any_engine.in_edges(b)) == [e]
        assert sorted(map(repr, any_engine.vertices_by_property("name", "a"))) == [repr(a)]

    @pytest.mark.parametrize("engine_id", ALL_ENGINES)
    def test_sessions_refuse_reserved_keys_before_buffering(self, engine_id):
        engine = create_engine(engine_id)
        a, b, e = self._graph(engine)
        session = engine.begin_session()
        for case, write in _KEYED_WRITES.items():
            for key in _RESERVED:
                with pytest.raises(SchemaError):
                    write(session.graph, a, b, e, key)
        assert not session.write_set.ops
        session.commit()
        assert engine.vertex_properties(a) == {"name": "a"}


#: The vertex/edge twins of the property primitives: public names defined
#: once on GraphDatabase, each dispatching to one kind-level body.
_TWINS = frozenset({
    "set_vertex_property", "remove_vertex_property", "vertex_property", "vertex_exists",
    "vertex_ids", "vertices_by_property", "vertex_properties",
    "set_edge_property", "remove_edge_property", "edge_property", "edge_exists",
    "edge_ids", "edges_by_property", "edge_properties",
})


class TestOneElementKind:
    def test_no_engine_or_overlay_defines_a_public_twin(self):
        classes = {type(create_engine(identifier)) for identifier in ALL_ENGINES}
        for cls in classes | {VersionedGraph, SnapshotView}:
            for klass in cls.__mro__[: cls.__mro__.index(GraphDatabase)]:
                assert not _TWINS & set(vars(klass)), klass

    def test_the_attribute_index_rule_lives_in_the_base_engine_only(self):
        package = Path(inspect.getfile(repro.engines)).parent
        for module in sorted(package.glob("*.py")):
            if module.name != "base.py":
                text = module.read_text()
                assert "HashIndex(" not in text and "_vertex_indexes" not in text, module.name
        for module in Path(inspect.getfile(repro)).parent.rglob("*.py"):
            assert "indexed_vertex_properties" not in module.read_text(), module


#: The writes defined once on BaseEngine: the public structural four and
#: the kind-level property two.
_PROTOCOL = frozenset(
    {"add_vertex", "add_edge", "remove_vertex", "remove_edge", "_set_property", "_remove_property"}
)


class TestOneWriteProtocol:
    def test_no_engine_defines_a_protocol_write_or_logs_one(self):
        classes = {type(create_engine(identifier)) for identifier in ALL_ENGINES}
        for cls in classes:
            for klass in cls.__mro__[: cls.__mro__.index(BaseEngine)]:
                assert not _PROTOCOL & set(vars(klass)), klass
        assert _PROTOCOL <= set(vars(BaseEngine))
        package = Path(inspect.getfile(repro.engines)).parent
        for module in sorted(package.glob("*.py")):
            if module.name != "base.py":
                assert "._log(" not in module.read_text(), module.name

    def test_the_overlay_logs_exactly_the_codec_ops(self):
        source = inspect.getsource(VersionedGraph)
        appended = set(re.findall(r"ops\.append\(\(\"(\w+)\"", source))
        # Property writes append an op name of their kind.
        for attribute in re.findall(r"ops\.append\(\(kind\.(\w+),", source):
            appended |= {getattr(VERTEX, attribute), getattr(EDGE, attribute)}
        assert appended - {"drop_provisional_vertex", "drop_provisional_edge"} == set(OPS)

    def test_the_journal_logs_codec_ops_and_cut_edges(self):
        assert set(LOGGED_OPS) <= set(OPS) | {"add_cut_edge"}

    def test_every_cud_record_names_its_element(self, any_engine):
        """The WAL record of each write carries the id the caller got back
        or passed in (relational adds once logged a bare row number)."""
        engine = any_engine

        def last_record(operation, element):
            engine.flush()
            record = engine.wal.replay()[-1]
            assert (record.operation, record.payload["id"]) == (operation, element)

        a = engine.add_vertex({"name": "a"}, label="person")
        last_record("add_vertex", a)
        b = engine.add_vertex()
        last_record("add_vertex", b)
        e = engine.add_edge(a, b, "knows", {"name": "e"})
        last_record("add_edge", e)
        for kind, element in (("vertex", a), ("edge", e)):
            getattr(engine, f"set_{kind}_property")(element, "rank", 1)
            last_record(f"set_{kind}_property", element)
            getattr(engine, f"remove_{kind}_property")(element, "rank")
            last_record(f"remove_{kind}_property", element)
        engine.remove_edge(e)
        last_record("remove_edge", e)
        engine.add_edge(b, a, "knows")
        engine.remove_vertex(a)
        last_record("remove_vertex", a)


class TestTraversalPrimitives:
    @pytest.fixture
    def star(self, any_engine):
        """A hub vertex with labelled spokes in both directions."""
        hub = any_engine.add_vertex({"name": "hub"})
        spokes = [any_engine.add_vertex({"name": f"s{index}"}) for index in range(4)]
        any_engine.add_edge(hub, spokes[0], "red")
        any_engine.add_edge(hub, spokes[1], "blue")
        any_engine.add_edge(spokes[2], hub, "red")
        any_engine.add_edge(spokes[3], hub, "blue")
        return any_engine, hub, spokes

    def test_out_edges_and_neighbors(self, star):
        engine, hub, spokes = star
        assert len(list(engine.out_edges(hub))) == 2
        assert set(engine.neighbors(hub, Direction.OUT)) == {spokes[0], spokes[1]}

    def test_in_edges_and_neighbors(self, star):
        engine, hub, spokes = star
        assert len(list(engine.in_edges(hub))) == 2
        assert set(engine.neighbors(hub, Direction.IN)) == {spokes[2], spokes[3]}

    def test_both_edges(self, star):
        engine, hub, _spokes = star
        assert len(list(engine.edges_for(hub, Direction.BOTH))) == 4

    def test_label_filtered_traversal(self, star):
        engine, hub, spokes = star
        assert set(engine.neighbors(hub, Direction.OUT, "red")) == {spokes[0]}
        assert set(engine.neighbors(hub, Direction.IN, "blue")) == {spokes[3]}
        assert set(engine.neighbors(hub, Direction.BOTH, "red")) == {spokes[0], spokes[2]}

    def test_unknown_label_yields_nothing(self, star):
        engine, hub, _spokes = star
        assert list(engine.out_edges(hub, "missing-label")) == []

    def test_degree(self, star):
        engine, hub, _spokes = star
        assert engine.degree(hub, Direction.OUT) == 2
        assert engine.degree(hub, Direction.IN) == 2
        assert engine.degree(hub, Direction.BOTH) == 4


class TestSearchPrimitives:
    def test_vertices_by_property(self, any_engine):
        ids = [any_engine.add_vertex({"color": "red" if index % 2 else "blue"}) for index in range(6)]
        red = set(any_engine.vertices_by_property("color", "red"))
        assert red == {ids[1], ids[3], ids[5]}

    def test_vertices_by_missing_property(self, any_engine):
        any_engine.add_vertex({"color": "red"})
        assert list(any_engine.vertices_by_property("shape", "round")) == []

    def test_edges_by_property(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        matching = any_engine.add_edge(a, b, "knows", {"weight": 5})
        any_engine.add_edge(a, b, "knows", {"weight": 1})
        assert list(any_engine.edges_by_property("weight", 5)) == [matching]

    def test_edges_by_label(self, any_engine):
        a = any_engine.add_vertex()
        b = any_engine.add_vertex()
        knows = any_engine.add_edge(a, b, "knows")
        any_engine.add_edge(b, a, "likes")
        assert list(any_engine.edges_by_label("knows")) == [knows]
        assert list(any_engine.edges_by_label("missing")) == []


class TestBulkLoadAndSpace:
    def test_load_returns_id_map(self, any_engine, small_dataset):
        id_map = any_engine.load(small_dataset.vertices, small_dataset.edges)
        assert len(id_map) == small_dataset.vertex_count
        assert any_engine.vertex_count() == small_dataset.vertex_count
        assert any_engine.edge_count() == small_dataset.edge_count

    def test_loaded_properties_survive(self, any_engine, small_dataset):
        id_map = any_engine.load(small_dataset.vertices, small_dataset.edges)
        vertex = any_engine.vertex(id_map["n3"])
        assert vertex.properties["name"] == "node-3"

    def test_space_breakdown_positive_after_load(self, any_engine, small_dataset):
        any_engine.load(small_dataset.vertices, small_dataset.edges)
        breakdown = any_engine.space_breakdown()
        assert all(value >= 0 for value in breakdown.values())
        assert any_engine.size_in_bytes > 0

    def test_metrics_reset(self, any_engine, small_dataset):
        any_engine.load(small_dataset.vertices, small_dataset.edges)
        assert any_engine.io_cost() > 0
        any_engine.reset_metrics()
        assert any_engine.io_cost() == 0

    def test_io_cost_is_the_logical_io_of_the_combined_metrics(self, any_engine, small_dataset):
        # The clock read sums the registry in place; the report builds a
        # combined object.  Both must tell the same time after reads and writes.
        id_map = any_engine.load(small_dataset.vertices, small_dataset.edges)
        assert any_engine.io_cost() == any_engine.combined_metrics().logical_io > 0
        hub, other = id_map["n0"], id_map["n4"]
        list(any_engine.neighbors_many([hub, other], Direction.BOTH))
        any_engine.degree_at_least(hub, 2)
        list(any_engine.vertices_by_property("rank", 3))
        any_engine.set_vertex_property(other, "fresh_key", 1)
        edge_id = any_engine.add_edge(other, hub, "visits", {"weight": 9})
        any_engine.remove_edge(edge_id)
        any_engine.remove_vertex(hub)
        assert any_engine.io_cost() == any_engine.combined_metrics().logical_io

    def test_describe_matches_info(self, any_engine):
        row = any_engine.describe()
        assert row["System"].startswith(any_engine.info.system)
