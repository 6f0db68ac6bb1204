"""Bulk structural primitives: result conformance and charge parity.

Every engine must answer ``neighbors_many`` / ``edges_for_many`` /
``vertex_label`` / ``degree_at_least`` with exactly the results of the
per-id primitives, and — the bulk-primitive contract — with exactly the
same logical charges (bulking removes interpreter overhead, never
simulated I/O).
"""

from __future__ import annotations

import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import ALL_ENGINES, create_engine
from repro.exceptions import ElementNotFoundError
from repro.model.elements import Direction

DIRECTIONS = (Direction.OUT, Direction.IN, Direction.BOTH)


@pytest.fixture
def any_loaded(any_engine, small_dataset):
    return load_dataset_into(any_engine, small_dataset)


class TestConformance:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows", "missing-label"])
    def test_neighbors_many_matches_per_id(self, any_loaded, direction, label):
        engine = any_loaded.engine
        frontier = list(any_loaded.vertex_map.values())
        expected = [
            (vertex_id, neighbor)
            for vertex_id in frontier
            for neighbor in engine.neighbors(vertex_id, direction, label)
        ]
        assert list(engine.neighbors_many(frontier, direction, label)) == expected

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "visits"])
    def test_edges_for_many_matches_per_id(self, any_loaded, direction, label):
        engine = any_loaded.engine
        frontier = list(any_loaded.vertex_map.values())
        expected = [
            (vertex_id, edge_id)
            for vertex_id in frontier
            for edge_id in engine.edges_for(vertex_id, direction, label)
        ]
        assert list(engine.edges_for_many(frontier, direction, label)) == expected

    def test_vertex_label_matches_materialised_vertex(self, any_loaded):
        engine = any_loaded.engine
        for vertex_id in any_loaded.vertex_map.values():
            assert engine.vertex_label(vertex_id) == engine.vertex(vertex_id).label

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 100])
    def test_degree_at_least_matches_degree(self, any_loaded, direction, k):
        engine = any_loaded.engine
        for vertex_id in any_loaded.vertex_map.values():
            expected = engine.degree(vertex_id, direction) >= k
            assert engine.degree_at_least(vertex_id, k, direction) is expected


class TestChargeParity:
    """Bulk expansion must charge exactly what the per-id path charges."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows", "missing-label"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_neighbors_many_charges_match(self, identifier, small_dataset, direction, label):
        per_id = load_dataset_into(create_engine(identifier), small_dataset)
        bulk = load_dataset_into(create_engine(identifier), small_dataset)
        frontier_a = list(per_id.vertex_map.values())
        frontier_b = list(bulk.vertex_map.values())

        per_id.engine.reset_metrics()
        for vertex_id in frontier_a:
            for _neighbor in per_id.engine.neighbors(vertex_id, direction, label):
                pass
        expected = per_id.engine.combined_metrics().snapshot()

        bulk.engine.reset_metrics()
        for _pair in bulk.engine.neighbors_many(frontier_b, direction, label):
            pass
        assert bulk.engine.combined_metrics().snapshot() == expected

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "visits", "missing-label"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_edges_for_many_charges_match(self, identifier, small_dataset, direction, label):
        per_id = load_dataset_into(create_engine(identifier), small_dataset)
        bulk = load_dataset_into(create_engine(identifier), small_dataset)
        frontier_a = list(per_id.vertex_map.values())
        frontier_b = list(bulk.vertex_map.values())

        per_id.engine.reset_metrics()
        for vertex_id in frontier_a:
            for _edge_id in per_id.engine.edges_for(vertex_id, direction, label):
                pass
        expected = per_id.engine.combined_metrics().snapshot()

        bulk.engine.reset_metrics()
        for _pair in bulk.engine.edges_for_many(frontier_b, direction, label):
            pass
        assert bulk.engine.combined_metrics().snapshot() == expected

    @pytest.mark.parametrize(
        "bulk_method, per_id_method",
        [("neighbors_many", "neighbors"), ("edges_for_many", "edges_for")],
    )
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_bulk_charges_match_on_early_abandonment(
        self, identifier, small_dataset, label, direction, bulk_method, per_id_method
    ):
        """A consumer that stops early (``limit``) must see per-id charges too.

        Charges have to accrue lazily with each emitted pair, not upfront
        per frontier vertex — an override that pre-charges a whole
        adjacency would overcharge abandoned streams.
        """
        per_id = load_dataset_into(create_engine(identifier), small_dataset)
        bulk = load_dataset_into(create_engine(identifier), small_dataset)
        frontier_a = list(per_id.vertex_map.values())
        frontier_b = list(bulk.vertex_map.values())

        per_id.engine.reset_metrics()
        expand = getattr(per_id.engine, per_id_method)
        stream_a = (
            (vertex_id, result)
            for vertex_id in frontier_a
            for result in expand(vertex_id, direction, label)
        )
        first = next(stream_a, None)
        stream_a.close()
        expected = per_id.engine.combined_metrics().snapshot()

        bulk.engine.reset_metrics()
        stream_b = getattr(bulk.engine, bulk_method)(frontier_b, direction, label)
        assert next(stream_b, None) == first
        stream_b.close()
        assert bulk.engine.combined_metrics().snapshot() == expected

    def test_degree_at_least_io_not_above_full_degree(self, any_loaded):
        """Early exit may only reduce work, never add charges."""
        engine = any_loaded.engine
        frontier = list(any_loaded.vertex_map.values())
        engine.reset_metrics()
        for vertex_id in frontier:
            engine.degree(vertex_id, Direction.BOTH)
        full = engine.io_cost()
        engine.reset_metrics()
        for vertex_id in frontier:
            engine.degree_at_least(vertex_id, 1, Direction.BOTH)
        assert engine.io_cost() <= full


class TestGroupedOrderingUnderLazyDedup:
    """BFS-style lazy ``except``/``store`` dedup must observe the per-id order.

    The consumer mutates the visited set *while* the bulk generator is
    live (the Q32-Q35 idiom the machine fuses into one step): which source
    gets credited with discovering each node depends entirely on the
    ``(source, result)`` yield order, so any deviation from grouped
    input-order emission changes the BFS tree.
    """

    @staticmethod
    def _bfs_discovery_order(loaded, expand, direction, rounds=3):
        engine = loaded.engine
        start = loaded.vertex_map["n0"]
        visited = {start}
        frontier = [start]
        order = []
        for _round in range(rounds):
            next_frontier = []
            for source, neighbor in expand(engine, frontier, direction):
                if neighbor in visited:
                    continue
                visited.add(neighbor)  # mutates while the generator is live
                order.append((source, neighbor))
                next_frontier.append(neighbor)
            frontier = next_frontier
        return order

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_discovery_order_matches_per_id(self, identifier, small_dataset, direction):
        per_id = load_dataset_into(create_engine(identifier), small_dataset)
        bulk = load_dataset_into(create_engine(identifier), small_dataset)

        expected = self._bfs_discovery_order(
            per_id,
            lambda engine, frontier, d: (
                (vertex_id, neighbor)
                for vertex_id in frontier
                for neighbor in engine.neighbors(vertex_id, d)
            ),
            direction,
        )
        observed = self._bfs_discovery_order(
            bulk,
            lambda engine, frontier, d: engine.neighbors_many(frontier, d),
            direction,
        )
        assert observed == expected

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_q32_bfs_same_result_as_legacy_executor(self, identifier, small_dataset):
        from repro.gremlin.machine import baseline_execution
        from repro.queries import query_by_id

        loaded = load_dataset_into(create_engine(identifier), small_dataset)
        query = query_by_id("Q32")
        params = {"vertex": loaded.vertex_map["n0"], "depth": 3}
        with baseline_execution():
            legacy = query(loaded.engine, dict(params))
        optimized = query(loaded.engine, dict(params))
        assert optimized == legacy


class TestSelfLoopsAndParallelEdges:
    """BOTH is the out pass, then the in pass: a self-loop is met twice.

    Parallel edges are distinct incidences and are met once each.
    """

    @staticmethod
    def _graph(engine):
        hub = engine.add_vertex(label="person")
        other = engine.add_vertex(label="person")
        loop = engine.add_edge(hub, hub, "knows")
        engine.add_edge(hub, other, "knows")
        engine.add_edge(hub, other, "knows")
        engine.add_edge(other, hub, "likes")
        return hub, other, loop

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_both_meets_a_self_loop_twice_out_pass_first(self, identifier):
        engine = create_engine(identifier)
        hub, other, loop = self._graph(engine)
        out = list(engine.edges_for(hub, Direction.OUT))
        both = list(engine.edges_for(hub, Direction.BOTH))
        assert both == out + list(engine.edges_for(hub, Direction.IN))
        assert len(out) == 3 and both.count(loop) == 2
        assert list(engine.neighbors(hub, Direction.OUT)).count(other) == 2
        assert list(engine.neighbors(hub, Direction.BOTH)) == list(
            engine.neighbors(hub, Direction.OUT)
        ) + list(engine.neighbors(hub, Direction.IN))
        for bulk, per_id in (
            (engine.edges_for_many, engine.edges_for),
            (engine.neighbors_many, engine.neighbors),
        ):
            for direction in DIRECTIONS:
                assert list(bulk([hub, other], direction)) == [
                    (vertex, result)
                    for vertex in (hub, other)
                    for result in per_id(vertex, direction)
                ]

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_an_uncommitted_self_loop_is_met_twice_out_pass_first(self, identifier):
        engine = create_engine(identifier)
        hub, other, _loop = self._graph(engine)
        committed = list(engine.edges_for(hub, Direction.BOTH))
        graph = engine.begin_session().graph
        incoming = graph.add_edge(other, hub, "knows")
        pending = graph.add_edge(hub, hub, "knows")
        outgoing = graph.add_edge(hub, other, "knows")
        both = list(graph.edges_for(hub, Direction.BOTH))
        # Session edges follow the committed ones, each pass in order.
        assert both == committed + [pending, outgoing, incoming, pending]
        assert list(graph.edges_for_many([hub], Direction.BOTH)) == [(hub, e) for e in both]
        assert list(graph.neighbors_many([hub], Direction.BOTH)) == [
            (hub, neighbor) for neighbor in graph.neighbors(hub, Direction.BOTH)
        ]
        assert graph.degree(hub) == len(both)

    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_a_snapshot_of_a_rewritten_self_loop_meets_it_twice(self, identifier):
        engine = create_engine(identifier)
        hub, _other, loop = self._graph(engine)
        manager = engine.transactions()
        reader = manager.begin()
        writer = manager.begin()
        writer.graph.set_edge_property(loop, "weight", 2)
        manager.commit(writer)
        expected = list(engine.edges_for(hub, Direction.BOTH))
        assert list(reader.graph.edges_for(hub, Direction.BOTH)) == expected
        assert reader.graph.degree(hub) == engine.degree(hub)


#: Every adjacency entry point, called as ``call(graph, vertex, direction, label)``.
ADJACENCY_CALLS = {
    "out_edges": lambda g, v, d, label: g.out_edges(v, label),
    "in_edges": lambda g, v, d, label: g.in_edges(v, label),
    "edges_for": lambda g, v, d, label: g.edges_for(v, d, label),
    "neighbors": lambda g, v, d, label: g.neighbors(v, d, label),
    "edges_for_many": lambda g, v, d, label: g.edges_for_many([v], d, label),
    "neighbors_many": lambda g, v, d, label: g.neighbors_many([v], d, label),
    "degree": lambda g, v, d, label: g.degree(v, d),
    "degree_at_least(k=0)": lambda g, v, d, label: g.degree_at_least(v, 0, d),
    "degree_at_least(k=2)": lambda g, v, d, label: g.degree_at_least(v, 2, d),
}


class TestMissingVertex:
    """An adjacency question about a vertex that does not exist raises.

    Whatever the label (none, one in use, one never seen), whatever ``k``,
    on the engine and through a session's overlay — clean or dirty.
    """

    @pytest.mark.parametrize("view", ["engine", "session", "dirty-session"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_every_adjacency_method_raises(self, identifier, view):
        engine = create_engine(identifier)
        a, b = engine.add_vertex(label="person"), engine.add_vertex(label="person")
        edge = engine.add_edge(a, b, "knows")
        missing = engine.add_vertex(label="person")
        engine.remove_vertex(missing)
        graph = engine
        if view != "engine":
            graph = engine.begin_session().graph
            if view == "dirty-session":
                graph.remove_edge(edge)
                graph.add_vertex(label="person")
        for name, call in ADJACENCY_CALLS.items():
            for direction in DIRECTIONS:
                for label in (None, "knows", "never-seen"):
                    with pytest.raises(ElementNotFoundError):
                        result = call(graph, missing, direction, label)
                        if hasattr(result, "__iter__"):
                            list(result)
                        pytest.fail(f"{name}({direction}, {label!r}) answered {result!r}")
