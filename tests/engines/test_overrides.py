"""The override audit: every engine override books or answers differently.

An engine method defined over a concrete method of ``GraphDatabase`` or
``BaseEngine`` is the one place where an architecture books something the
default does not.  An override that answers and books exactly like what it
overrides carries no architecture; it is only a second path.  So every such
definition is run against what the engine would run without it — the next
definition up the class hierarchy, in the end the ``GraphDatabase`` /
``BaseEngine`` default — on twin engines built from the same seeded graph:

* one twin keeps the override, the other has the reference installed on
  the instance, so every internal call (``remove_vertex`` reaching
  ``_remove_incident``, ``load`` reaching ``begin_bulk_load``) goes through
  it too;
* both twins receive the same probes in the same order — the method's
  recipe in :data:`RECIPES`, over live, removed, missing and wrong-kind
  ids — and each probe's outcome is the materialised answer (or the
  exception's type and message) plus ``combined_metrics().snapshot()``.

A definition that differs on some probe is justified.  One that is a twin on
every probe fails, unless :data:`KEPT_TWINS` lists it with the measured
reason it stays; a listed entry that is no longer a twin fails too, and so
does an override with no recipe.  The graphs come from the session
differential's workload generator (vertex removals and their cascades
included, sizes that grow the B+Trees a level); ``HYPOTHESIS_PROFILE=ci``
adds more seeds.
"""

from __future__ import annotations

import functools
import random
import types
from typing import Any, Callable, Iterator, NamedTuple

import pytest
from concurrency.test_differential import Runner, generate_workload
from hypothesis import settings

from repro.bench.workload import load_dataset_into
from repro.datasets.base import Dataset
from repro.engines import ALL_ENGINES, create_engine
from repro.engines.base import BaseEngine
from repro.engines.document_engine import DocumentEngine, _user_properties
from repro.engines.triple_engine import TripleEngine
from repro.model.elements import EDGE, VERTEX, Direction
from repro.model.graph import GraphDatabase

#: Overrides that book and answer like their reference and stay, with the
#: measurement that keeps each.  Revisit the bitmap counts when the figures
#: rank in charges (ROADMAP directions 3(b) and 4).
_DEGREE_LOOP = (
    "faster on the host than the default in a Q28-Q30 loop (k=2) over mico 0.25: "
    "250 vertices x 3 directions, best of 40 interleaved runs, in each of three "
    "processes; these loops are the traverse workload's median block"
)
_POPULATION_COUNT = (
    "an O(1) population count, ~1500x faster on the host than the default scan on "
    "frb-l 0.3; benchmarks/test_fig4_selections.py asserts Q9 bitmap < columnar in "
    "wall seconds"
)
KEPT_TWINS: dict[tuple[str, str], str] = {
    ("NativeIndirectEngine", "degree_at_least"): f"2.5x {_DEGREE_LOOP}",
    ("TripleEngine", "degree_at_least"): f"1.2x {_DEGREE_LOOP}",
    ("DocumentEngine", "degree_at_least"): f"1.2x {_DEGREE_LOOP}",
    ("BitmapEngine", "vertex_count"): _POPULATION_COUNT,
    ("BitmapEngine", "edge_count"): _POPULATION_COUNT,
}


# ----------------------------------------------------------------------
# The graphs
# ----------------------------------------------------------------------


class Graph(NamedTuple):
    """A seeded dataset plus the workload replayed on it."""

    seed: int
    vertices: int
    edges: int
    txns: int
    ops_per_txn: int


#: A small graph, one whose relational and triple B+Trees reach height two,
#: and one the workload drains (every vertex removed at some point); the
#: ``ci`` profile adds a seed of each size per 40 examples.
GRAPHS = [Graph(1, 30, 90, 12, 8), Graph(2, 120, 400, 20, 8), Graph(0, 8, 10, 120, 10)] + [
    Graph(seed, *((30, 90, 12, 8) if seed % 2 else (120, 400, 20, 8)))
    for seed in range(3, 3 + 2 * (settings.default.max_examples // 40 - 1))
]

#: Ids no engine hands out.
MISSING = (999_999, "missing")
#: Property keys the probes ask about: dataset, workload and absent ones.
KEYS = ("rank", "name", "drank", "absent")
LABELS = ("knows", "visits", "likes")


@functools.lru_cache(maxsize=None)
def plan(graph: Graph) -> tuple[Dataset, list[list[tuple]]]:
    """The seeded dataset and the create/update/delete workload over it."""
    rng = random.Random(graph.seed)
    vertices = [
        {
            "id": f"n{index}",
            "label": rng.choice(("person", "place", None)),
            "properties": {"name": f"node-{index}", "rank": rng.randrange(5)},
        }
        for index in range(graph.vertices)
    ]
    edges = [
        {
            "source": f"n{rng.randrange(graph.vertices)}",
            "target": f"n{rng.randrange(graph.vertices)}",
            "label": rng.choice(LABELS),
            "properties": {"weight": rng.randrange(5)} if rng.random() < 0.5 else {},
        }
        for _ in range(graph.edges)
    ]
    dataset = Dataset(name=f"audit-{graph.seed}", vertices=vertices, edges=edges, description="")
    workload = generate_workload(
        dataset, seed=graph.seed, txns=graph.txns, ops_per_txn=graph.ops_per_txn,
        allow_remove_vertex=True, reads_first=False, allow_property_search=True,
    )
    return dataset, workload


class Ids(NamedTuple):
    """What the probes ask about, read off a built twin."""

    vertices: list[Any]
    edges: list[Any]
    #: Ids the workload handed out and then removed (an engine that reuses
    #: ids may have handed one out again).
    removed: list[Any]
    #: The few vertices of highest degree first, then a spread of the rest.
    sample: list[Any]

    def vertex_args(self) -> list[Any]:
        """Vertex ids to ask a per-vertex question about: live, removed,
        missing and wrong-kind (edge) ids."""
        return [*self.sample, *self.removed[:3], *self.edges[:2], *MISSING]

    def edge_args(self) -> list[Any]:
        return [*self.edges[:: max(1, len(self.edges) // 12)], *self.removed[-3:],
                *self.vertices[:2], *MISSING]


def build(identifier: str, graph: Graph) -> tuple[BaseEngine, Ids]:
    """One twin: the graph loaded and its workload replayed directly; the
    ids read through methods no audit patches, then the metrics reset."""
    dataset, workload = plan(graph)
    loaded = load_dataset_into(create_engine(identifier), dataset)
    runner = Runner(loaded.engine, loaded, use_sessions=False)
    runner.run(workload)
    engine = loaded.engine
    vertices, edges = list(engine.vertex_ids()), list(engine.edge_ids())
    live = set(vertices) | set(edges)
    degree = dict.fromkeys(vertices, 0)
    for edge_id in edges:
        for endpoint in engine.edge_endpoints(edge_id):
            degree[endpoint] += 1
    hubs = sorted(vertices, key=lambda vertex: -degree[vertex])[:3]
    spread = [vertex for vertex in vertices[:: max(1, len(vertices) // 16)] if vertex not in hubs]
    removed = [element for element in runner.ids.values() if element not in live]
    engine.reset_metrics()
    return engine, Ids(vertices, edges, removed, hubs + spread)


# ----------------------------------------------------------------------
# The recipes: the probes each audited method name is asked
# ----------------------------------------------------------------------

#: ``probe(engine)`` -> the answer (materialised by :func:`outcome`).
Probe = Callable[[Any], Any]


def _calls(method: str, arguments: list[tuple]) -> list[tuple[str, Probe]]:
    return [
        (f"{method}{args!r}", lambda engine, args=args: getattr(engine, method)(*args))
        for args in arguments
    ]


def _index_probes(ids: Ids) -> list[tuple[str, Probe]]:
    """Build an attribute index, then read and maintain it."""
    first, second, third = (ids.sample + [MISSING[0]] * 3)[:3]
    return [
        *_calls("has_vertex_index", [("rank",)]),
        *_calls("vertices_by_property", [("rank", 1)]),
        *_calls("create_vertex_index", [("rank",)]),
        *_calls("has_vertex_index", [("rank",), ("absent",)]),
        *_calls("vertices_by_property", [("rank", 1), ("rank", 2)]),
        *_calls("add_vertex", [({"rank": 1}, "person")]),
        *_calls("set_vertex_property", [(first, "rank", 2)]),
        *_calls("remove_vertex_property", [(second, "rank")]),
        *_calls("remove_vertex", [(third,)]),
        *_calls("vertices_by_property", [("rank", 1), ("rank", 2)]),
        *_calls("create_vertex_index", [("rank",)]),
    ]


def _previous_values(ids: Ids) -> list[tuple[str, Probe]]:
    def read_all(engine: Any, vertex: Any) -> list[Any]:
        read = engine._previous_values(vertex)
        return [read(key) for key in KEYS]

    return [
        (f"_previous_values({vertex!r})", lambda engine, vertex=vertex: read_all(engine, vertex))
        for vertex in ids.vertex_args()
    ] + _index_probes(ids)


#: A small load payload for the bulk-load hooks.
EXTRA_ROWS = (
    [{"id": index, "label": "person", "properties": {"rank": index % 3}} for index in range(12)],
    [{"source": index % 12, "target": (index * 5) % 12, "label": LABELS[index % 3]}
     for index in range(40)],
)


def _bulk_load(ids: Ids) -> list[tuple[str, Probe]]:
    return [
        ("load(EXTRA_ROWS)", lambda engine: engine.load(*EXTRA_ROWS)),
        *_calls("edges_for", [(vertex, Direction.BOTH) for vertex in ids.sample[:3]]),
        *_calls("vertex_count", [()]),
    ]


def _kinds(ids: Ids) -> list[tuple]:
    return [(VERTEX, vertex) for vertex in ids.vertex_args()] + [
        (EDGE, edge) for edge in ids.edge_args()
    ]


#: Method name -> ``recipe(ids)``: the probes, in order.
RECIPES: dict[str, Callable[[Ids], list[tuple[str, Probe]]]] = {
    "vertex_label": lambda ids: _calls("vertex_label", [(v,) for v in ids.vertex_args()]),
    "vertex_count": lambda ids: _calls("vertex_count", [()]),
    "edge_count": lambda ids: _calls("edge_count", [()]),
    "distinct_edge_labels": lambda ids: _calls("distinct_edge_labels", [()]),
    "degree": lambda ids: _calls(
        "degree", [(v, direction) for v in ids.vertex_args() for direction in Direction]
    ),
    "degree_at_least": lambda ids: _calls(
        "degree_at_least",
        [(v, k, direction) for v in ids.vertex_args() for k in (0, 1, 2, 3, 8)
         for direction in Direction],
    ),
    "subgraph_for": lambda ids: _calls(
        "subgraph_for",
        [(ids.vertices,), (ids.sample,), ([],), ([*ids.sample[:2], MISSING[0]],)],
    ),
    "_properties": lambda ids: _calls("_properties", _kinds(ids)),
    "_live": lambda ids: _calls("_live", _kinds(ids)),
    "_index_scan": lambda ids: _calls("_index_scan", [(key,) for key in KEYS]),
    "_property_scan": lambda ids: _calls(
        "_property_scan",
        [(VERTEX, "rank", 1), (VERTEX, "drank", 3), (VERTEX, "absent", 1),
         (EDGE, "weight", 2), (EDGE, "w", 5), (EDGE, "absent", 0)],
    ),
    "_by_property": lambda ids: _calls(
        "edges_by_property", [("weight", 2), ("w", 5), ("absent", 0)]
    ) + _index_probes(ids),
    "_previous_values": _previous_values,
    "_remove_incident": lambda ids: _calls(
        "remove_vertex", [(vertex,) for vertex in ids.sample[:6]] + [(MISSING[0],)]
    ),
    "create_vertex_index": _index_probes,
    "has_vertex_index": _index_probes,
    "_check_label": lambda ids: _calls(
        "add_vertex", [({}, "x" * length) for length in (5, 60, 300)]
    ) + _calls("add_edge", [(*(ids.sample * 2)[:2], "y" * 300)]),
    "begin_bulk_load": _bulk_load,
    "end_bulk_load": _bulk_load,
}


# ----------------------------------------------------------------------
# The audit
# ----------------------------------------------------------------------


def _concrete(name: str) -> bool:
    """Whether ``name`` is a concrete method of ``BaseEngine`` or ``GraphDatabase``."""
    for base in (BaseEngine, GraphDatabase):
        if name in vars(base):
            member = vars(base)[name]
            return callable(member) and not getattr(member, "__isabstractmethod__", False)
    return False


def definitions() -> dict[tuple[type, str], list[str]]:
    """Each engine definition over a concrete base method, with the engines
    that run it."""
    found: dict[tuple[type, str], list[str]] = {}
    for identifier in ALL_ENGINES:
        mro = type(create_engine(identifier)).__mro__
        engine_classes = mro[: mro.index(BaseEngine)]
        names = {name for klass in engine_classes for name in vars(klass)}
        for name in sorted(names):
            owner = next(klass for klass in mro if name in vars(klass))
            if not name.startswith("__") and owner in engine_classes and _concrete(name):
                found.setdefault((owner, name), []).append(identifier)
    return found


def reference(owner: type, name: str, identifier: str) -> Callable[..., Any]:
    """What ``identifier``'s engine runs for ``name`` without ``owner``'s definition."""
    mro = type(create_engine(identifier)).__mro__
    return next(vars(klass)[name] for klass in mro[mro.index(owner) + 1 :] if name in vars(klass))


def outcome(engine: Any, probe: Probe) -> tuple[Any, dict[str, int]]:
    """The materialised answer or the exception, and every counter after it."""
    try:
        answer = probe(engine)
        if isinstance(answer, Iterator):
            answer = list(answer)
        elif isinstance(answer, (set, frozenset)):
            answer = sorted(map(repr, answer))
    except Exception as error:  # noqa: BLE001 - the error is the answer
        answer = (type(error).__name__, str(error))
    return answer, engine.combined_metrics().snapshot()


def first_difference(owner: type, name: str, identifiers: list[str]) -> str | None:
    """The first probe on which the definition's outcome differs from its
    reference's, or None if it is a twin on every example."""
    for identifier in identifiers:
        for graph in GRAPHS:
            override, ids = build(identifier, graph)
            twin, _ids = build(identifier, graph)
            setattr(twin, name, types.MethodType(reference(owner, name, identifier), twin))
            for label, probe in RECIPES[name](ids):
                if outcome(override, probe) != outcome(twin, probe):
                    return f"{identifier} on {graph}: {label}"
    return None


def problem(owner: type, name: str, identifiers: list[str]) -> str | None:
    """Why the definition fails the audit, or None."""
    key = (owner.__name__, name)
    if name not in RECIPES:
        return f"{key} has no recipe in RECIPES: the audit cannot ask it anything"
    difference = first_difference(owner, name, identifiers)
    if key in KEPT_TWINS:
        if difference is not None:
            return f"KEPT_TWINS lists {key}, which is no longer a twin: {difference}"
        return None
    if difference is None:
        return (
            f"{key} answers and books exactly like the method it overrides on every "
            "probe: delete it, or list it in KEPT_TWINS with the measurement that keeps it"
        )
    return None


DEFINITIONS = definitions()


@pytest.mark.parametrize(
    "owner, name",
    sorted(DEFINITIONS, key=lambda key: (key[0].__name__, key[1])),
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_an_override_differs_from_what_it_overrides_or_is_a_kept_twin(owner, name):
    assert problem(owner, name, DEFINITIONS[owner, name]) is None


def test_every_override_has_a_recipe():
    assert sorted({name for _owner, name in definitions()} - set(RECIPES)) == []


def test_every_kept_twin_is_an_override():
    live = {(owner.__name__, name) for owner, name in definitions()}
    assert sorted(set(KEPT_TWINS) - live) == []


# ----------------------------------------------------------------------
# Teeth
# ----------------------------------------------------------------------


def _document_subgraph_for(self, vertex_ids):
    """The document engine's former extraction override: one parse per
    document, the second fetch recharged — a twin of the default."""
    vertex_rows, edge_rows = [], []
    for vertex_id in vertex_ids:
        self._round_trip()
        self._require(VERTEX, vertex_id)
        document = self._vertices.get(vertex_id)
        vertex_rows.append(
            {"id": vertex_id, "label": document.get("_label"),
             "properties": _user_properties(document)}
        )
        self._round_trip()
        for edge_id, edge_doc in self._edges.get_many(self._store.edge_from_index.lookup(vertex_id)):
            self._round_trip()
            self._edges.recharge_read(edge_id)
            edge_rows.append(
                {"id": edge_id, "source": edge_doc["_from"], "target": edge_doc["_to"],
                 "label": edge_doc["_label"], "properties": _user_properties(edge_doc)}
            )
    return vertex_rows, edge_rows


def test_teeth_re_adding_the_document_extraction_twin_fails(monkeypatch):
    monkeypatch.setattr(DocumentEngine, "subgraph_for", _document_subgraph_for, raising=False)
    found = definitions()
    assert found[DocumentEngine, "subgraph_for"] == ["documentgraph-2.8"]
    assert "exactly like" in problem(DocumentEngine, "subgraph_for", ["documentgraph-2.8"])


def test_teeth_a_stale_kept_twin_fails(monkeypatch):
    monkeypatch.setitem(KEPT_TWINS, ("TripleEngine", "vertex_label"), "no longer measured")
    assert "no longer a twin" in problem(TripleEngine, "vertex_label", ["triplegraph-2.1"])


def test_teeth_an_override_without_a_recipe_fails(monkeypatch):
    monkeypatch.setattr(
        TripleEngine, "edges", lambda self: GraphDatabase.edges(self), raising=False
    )
    assert "edges" not in RECIPES
    assert "no recipe" in problem(TripleEngine, "edges", ["triplegraph-2.1"])
