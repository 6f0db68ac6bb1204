"""Engine conformance suite: the same CRUD + traversal contract for every engine.

Every test in this module runs against every registered engine (both versions
of the two dual-version systems included), which is the library's equivalent
of the paper's requirement that all systems answer exactly the same queries.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ElementNotFoundError
from repro.model.elements import Direction


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


#: Every per-id method, by the id space it reads from.
_VERTEX_METHODS = (
    lambda engine, element: engine.vertex(element),
    lambda engine, element: engine.vertex_property(element, "name"),
    lambda engine, element: engine.set_vertex_property(element, "name", "x"),
    lambda engine, element: engine.remove_vertex_property(element, "name"),
    lambda engine, element: engine.remove_vertex(element),
)
_EDGE_METHODS = (
    lambda engine, element: engine.edge(element),
    lambda engine, element: engine.edge_endpoints(element),
    lambda engine, element: engine.edge_property(element, "name"),
    lambda engine, element: engine.set_edge_property(element, "name", "x"),
    lambda engine, element: engine.remove_edge_property(element, "name"),
    lambda engine, element: engine.remove_edge(element),
)


class TestIdSpaces:
    """A live id of one id space names nothing in the other.

    The graphs are shaped so that the foreign id collides with no id of the
    other kind even on the native engines, whose vertex and edge ids are
    both record offsets starting at zero.
    """

    @staticmethod
    def _assert_rejected(engine, methods, foreign_id):
        counts = (engine.vertex_count(), engine.edge_count())
        for method in methods:
            wal_length, cost = len(engine.wal), engine.io_cost()
            with pytest.raises(ElementNotFoundError):
                method(engine, foreign_id)
            assert len(engine.wal) == wal_length
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
        self._assert_rejected(any_engine, _VERTEX_METHODS, edges[-1])

    def test_vertex_id_is_not_an_edge(self, any_engine):
        vertices = [any_engine.add_vertex({"name": "v"}, label="person") for _ in range(3)]
        edge = any_engine.add_edge(vertices[0], vertices[1], "knows", {"name": "e"})
        assert vertices[-1] != edge
        assert not any_engine.edge_exists(vertices[-1])
        self._assert_rejected(any_engine, _EDGE_METHODS, vertices[-1])
        # The endpoints the rejected calls named are still there.
        assert any_engine.edge_endpoints(edge) == (vertices[0], vertices[1])


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
        assert set(engine.out_neighbors(hub)) == {spokes[0], spokes[1]}

    def test_in_edges_and_neighbors(self, star):
        engine, hub, spokes = star
        assert len(list(engine.in_edges(hub))) == 2
        assert set(engine.in_neighbors(hub)) == {spokes[2], spokes[3]}

    def test_both_edges(self, star):
        engine, hub, _spokes = star
        assert len(list(engine.both_edges(hub))) == 4

    def test_label_filtered_traversal(self, star):
        engine, hub, spokes = star
        assert set(engine.out_neighbors(hub, "red")) == {spokes[0]}
        assert set(engine.in_neighbors(hub, "blue")) == {spokes[3]}
        assert set(engine.both_neighbors(hub, "red")) == {spokes[0], spokes[2]}

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
