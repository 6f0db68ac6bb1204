"""The adjacency walk against the per-id reference: results and charges.

Every engine answers ``out_edges`` / ``in_edges`` / ``edges_for`` /
``neighbors`` and the frontier forms ``neighbors_many`` /
``edges_for_many`` from one walk, ``_bulk_incident``.  Each way of asking
must answer exactly like the per-id walks kept in :mod:`per_id_walks` —
same pairs in the same order, and the same logical charges in every
counter, booked as lazily (a frontier call books what the one-vertex
calls would, which is what the engines that share state across a frontier
— bitmap, triple, relational — must keep).  ``vertex_label`` and
``degree_at_least`` answer like the materialised vertex and the degree.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from typing import Any, Callable, Iterator

import per_id_walks as reference
import pytest

from repro.bench.workload import load_dataset_into
from repro.engines import ALL_ENGINES, create_engine
from repro.engines.native_linked import NativeLinkedEngine
from repro.exceptions import ElementNotFoundError
from repro.model.elements import Direction
from repro.model.graph import GraphDatabase

DIRECTIONS = (Direction.OUT, Direction.IN, Direction.BOTH)

#: ``expand(engine, frontier, label)``: ``(vertex, result)`` pairs.
Expand = Callable[[Any, list, "str | None"], Iterator[tuple[Any, Any]]]


def expansions(endpoints: bool, direction: Direction) -> dict[str, Expand]:
    """Every way to expand a frontier in ``direction``, by name: the
    reference walk, the per-id methods one vertex at a time, and the
    frontier method; ``endpoints`` picks neighbours over edge ids."""
    name = "neighbors" if endpoints else "edges_for"

    def one_vertex_at_a_time(call: Callable[[Any, Any, Any], Iterator[Any]]) -> Expand:
        return lambda engine, frontier, label: (
            (vertex, result) for vertex in frontier for result in call(engine, vertex, label)
        )

    ways = {
        "reference": one_vertex_at_a_time(
            lambda engine, vertex, label: getattr(reference, name)(engine, vertex, direction, label)
        ),
        name: one_vertex_at_a_time(
            lambda engine, vertex, label: getattr(engine, name)(vertex, direction, label)
        ),
        f"{name}_many": lambda engine, frontier, label: getattr(engine, f"{name}_many")(
            frontier, direction, label
        ),
    }
    if not endpoints and direction is not Direction.BOTH:
        one_way = "out_edges" if direction is Direction.OUT else "in_edges"
        ways[one_way] = one_vertex_at_a_time(
            lambda engine, vertex, label: getattr(engine, one_way)(vertex, label)
        )
    return ways


def disagreements(
    identifier: str, dataset: Any, endpoints: bool, direction: Direction, label: str | None,
    consume: Callable[[Iterator[Any]], Any] = list,
) -> list[str]:
    """The ways whose answer or charges differ from the reference walk's.

    Each way runs on its own freshly loaded engine; ``consume`` takes the
    stream (``list`` drains it, a ``next``-and-close abandons it).
    """
    observed = {}
    for way, expand in expansions(endpoints, direction).items():
        loaded = load_dataset_into(create_engine(identifier), dataset)
        frontier = list(loaded.vertex_map.values())
        loaded.engine.reset_metrics()
        answer = consume(expand(loaded.engine, frontier, label))
        observed[way] = (answer, loaded.engine.combined_metrics().snapshot())
    expected = observed.pop("reference")
    return [way for way, seen in observed.items() if seen != expected]


def first_then_close(stream: Iterator[Any]) -> Any:
    first = next(stream, None)
    stream.close()
    return first


@pytest.fixture
def any_loaded(any_engine, small_dataset):
    return load_dataset_into(any_engine, small_dataset)


class TestConformance:
    @pytest.mark.parametrize("endpoints", [True, False], ids=["neighbors", "edges"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows", "visits", "missing-label"])
    def test_every_way_answers_like_the_reference(self, any_loaded, endpoints, direction, label):
        engine = any_loaded.engine
        frontier = list(any_loaded.vertex_map.values())
        answers = {
            way: list(expand(engine, frontier, label))
            for way, expand in expansions(endpoints, direction).items()
        }
        expected = answers.pop("reference")
        assert answers == {way: expected for way in answers}

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
    """Every way of expanding charges exactly what the reference walk charges."""

    @pytest.mark.parametrize("endpoints", [True, False], ids=["neighbors", "edges"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows", "missing-label"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_charges_match_the_reference(
        self, identifier, small_dataset, direction, label, endpoints
    ):
        assert disagreements(identifier, small_dataset, endpoints, direction, label) == []

    @pytest.mark.parametrize("endpoints", [True, False], ids=["neighbors", "edges"])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("label", [None, "knows"])
    @pytest.mark.parametrize("identifier", ALL_ENGINES)
    def test_charges_match_on_early_abandonment(
        self, identifier, small_dataset, label, direction, endpoints
    ):
        """A consumer that stops early (``limit``) pays what the reference
        paid for the first pair, no more: charges accrue lazily with each
        emitted pair, never upfront per frontier vertex."""
        assert disagreements(
            identifier, small_dataset, endpoints, direction, label, first_then_close
        ) == []

    @pytest.mark.parametrize("consume", [list, first_then_close], ids=["drained", "abandoned"])
    def test_an_extra_record_read_in_the_walk_fails_parity(
        self, monkeypatch, small_dataset, consume
    ):
        """Teeth: one extra booked read per pair in native-linked's walk is
        seen by the per-id methods and the frontier methods alike."""
        walk = NativeLinkedEngine._bulk_incident

        def overbooked(self, vertex_ids, direction, label, endpoints):
            for pair in walk(self, vertex_ids, direction, label, endpoints):
                self.metrics.records_read += 1
                yield pair

        monkeypatch.setattr(NativeLinkedEngine, "_bulk_incident", overbooked)
        for endpoints, name in ((True, "neighbors"), (False, "edges_for")):
            failing = disagreements(
                "nativelinked-1.9", small_dataset, endpoints, Direction.OUT, None, consume
            )
            assert {name, f"{name}_many"} <= set(failing)

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


def _subclasses(cls: type) -> Iterator[type]:
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


class TestOneWalk:
    """Each engine and the MVCC overlay write one adjacency walk,
    ``_bulk_incident``; the per-id methods are written once, on
    :class:`GraphDatabase`, as one-vertex frontiers of it."""

    PER_ID = ("out_edges", "in_edges", "edges_for", "neighbors")

    def test_no_subclass_writes_a_per_id_walk(self):
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        classes = {cls for cls in _subclasses(GraphDatabase) if cls.__module__.startswith("repro.")}
        assert {"VersionedGraph", "SnapshotView", "HistoricalView", "NativeLinkedV3Engine"} <= {
            cls.__name__ for cls in classes
        }
        written = sorted(
            f"{cls.__qualname__}.{name}" for cls in classes for name in self.PER_ID if name in vars(cls)
        )
        assert written == []

    def test_the_per_id_methods_are_generators_over_the_walk(self):
        for name in self.PER_ID:
            assert inspect.isgeneratorfunction(vars(GraphDatabase)[name]), name
        assert "_bulk_incident" in GraphDatabase.__abstractmethods__
        assert not hasattr(GraphDatabase, "_incident_passes")


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
                for neighbor in reference.neighbors(engine, vertex_id, d)
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
