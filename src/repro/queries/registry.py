"""Table 2 as data: the 35 microbenchmark operations, one row each.

Each row of :data:`TABLE_2` is ``(id, category, description, gremlin,
parameters, body)``.  A create, update or delete row names its op in the
codec (:data:`~repro.model.graph.OPS`) instead of a body: its parameters are
the values it passes, in the op's field order, and it returns the created id
if the op creates an element, otherwise the id of the element it wrote.
Every other row's body is a function of ``(graph, params)``.

To add a row, append it in Table 2 order, give it the parameter names
:meth:`repro.bench.workload.ParameterPlan.params_for` binds for its id, and
add that binding to the plan.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.datasets.base import Dataset
from repro.exceptions import QueryError
from repro.model.elements import Direction
from repro.model.graph import OPS, GraphDatabase
from repro.queries.base import Body, Query, QueryCategory, lookup

#: Table 2's "Cat" letters.
L, C, R, U, D, T = QueryCategory


def _values(names: tuple[str, ...]) -> Callable[[Mapping[str, Any]], tuple[Any, ...]]:
    """A getter of the values bound to ``names``, as one tuple (``itemgetter``
    of one name returns the bare value)."""
    if len(names) > 1:
        return itemgetter(*names)
    if names:
        only = names[0]
        return lambda params: (params[only],)
    return lambda params: ()


def _cud(name: str, parameters: tuple[str, ...]) -> Body:
    """The body of a row that applies codec op ``name`` to ``parameters``.

    The getters are built once per row, so a call costs no more than a
    hand-written body: no per-call argument list, no per-call branching.
    """
    op = OPS[name]
    if len(parameters) > len(op.fields):
        raise ValueError(f"op {name!r} takes {len(op.fields)} fields, not {parameters!r}")
    if op.creates is None:
        element, values = parameters[0], _values(parameters)

        def write(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
            getattr(graph, name)(*values(params))
            return params[element]

        return write
    if parameters[-1] != "properties":
        values = _values(parameters)
        return lambda graph, params: getattr(graph, name)(*values(params))
    # One bound tape feeds every engine: each engine gets its own properties.
    head = _values(parameters[:-1])
    return lambda graph, params: getattr(graph, name)(*head(params), dict(params["properties"]))


def _load(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
    """Q1: the dataset is read or generated outside the timed region, as the
    paper excludes vendor-specific file parsing; returns the id map."""
    dataset = params["dataset"]
    if not isinstance(dataset, Dataset):
        raise QueryError("Q1 expects a Dataset instance under the 'dataset' parameter")
    return graph.load(dataset.vertices, dataset.edges)


def _add_vertex_with_edges(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
    vertex_id = graph.add_vertex(dict(params["properties"]))
    for neighbor in params["neighbors"]:
        graph.add_edge(vertex_id, neighbor, params["label"])
    return vertex_id


def _edges_by_property(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
    key, value = params["key"], params["value"]
    return [
        edge_id for edge_id in graph.traversal().E() if graph.edge_property(edge_id, key) == value
    ]


def _degree_filter(direction: Direction) -> Body:
    """Q28-Q30: every vertex of at least ``k`` edges in ``direction``, through
    the engines' early-exiting :meth:`~GraphDatabase.degree_at_least`."""

    def body(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
        threshold = params["k"]

        def at_least_k(inner_graph: GraphDatabase, vertex_id: Any) -> bool:
            return inner_graph.degree_at_least(vertex_id, threshold, direction)

        label = f"{direction.value}E.count() >= {threshold}"
        return graph.traversal().V().filter(at_least_k, label=label).to_list()

    return body


def _bfs(labelled: bool) -> Body:
    """Q32/Q33: breadth-first traversal from ``vertex`` to ``depth`` hops,
    over edges labelled ``label`` if ``labelled``."""

    def body(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
        depth = params["depth"]
        visited: set[Any] = {params["vertex"]}
        labels = (params["label"],) if labelled else ()
        return (
            graph.traversal()
            .V(params["vertex"])
            .as_("i")
            .both(*labels)
            .except_(visited)
            .store(visited)
            .loop("i", lambda loops, obj, g: loops < depth, emit_all=True)
            .to_list()
        )

    return body


def _shortest_path(labelled: bool, max_depth: int = 32) -> Body:
    """Q34/Q35: the loop-based shortest paths from ``vertex`` to ``vertex2``,
    over edges labelled ``label`` if ``labelled``."""

    def body(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
        source, target = params["vertex"], params["vertex2"]
        visited: set[Any] = {source}
        labels = (params["label"],) if labelled else ()
        return (
            graph.traversal()
            .V(source)
            .as_("i")
            .both(*labels)
            .except_(visited)
            .store(visited)
            .loop(
                "i",
                lambda loops, obj, g: obj != target and loops < max_depth,
                max_loops=max_depth,
            )
            .retain([target])
            .paths()
        )

    return body


#: Table 2, in order: ``(id, category, description, gremlin, parameters,
#: body or codec op)``.  Inline bodies take the graph ``g`` and params ``p``.
TABLE_2: tuple[tuple[Any, ...], ...] = (
    ("Q1", L, "Load dataset into the graph 'g'", 'g.loadGraphSON("/path")',
     ("dataset",), _load),
    ("Q2", C, "Create new node with properties p", "g.addVertex(p[])",
     ("properties",), "add_vertex"),
    ("Q3", C, "Add edge <v1, l, v2> from v1 to v2", "g.addEdge(v1, v2, l)",
     ("vertex", "vertex2", "label"), "add_edge"),
    ("Q4", C, "Same as Q3, but with properties p", "g.addEdge(v1, v2, l, p[])",
     ("vertex", "vertex2", "label", "properties"), "add_edge"),
    ("Q5", C, "Add property Name=Value to node v", "v.setProperty(Name, Value)",
     ("vertex", "key", "value"), "set_vertex_property"),
    ("Q6", C, "Add property Name=Value to edge e", "e.setProperty(Name, Value)",
     ("edge", "key", "value"), "set_edge_property"),
    ("Q7", C, "Add a new node, and then edges to it", "g.addVertex(...); g.addEdge(...)",
     ("properties", "neighbors", "label"), _add_vertex_with_edges),
    ("Q8", R, "Total number of nodes", "g.V.count()",
     (), lambda g, p: g.traversal().V().count()),
    ("Q9", R, "Total number of edges", "g.E.count()",
     (), lambda g, p: g.traversal().E().count()),
    ("Q10", R, "Existing edge labels (no duplicates)", "g.E.label.dedup()",
     (), lambda g, p: g.traversal().E().label().dedup().to_list()),
    ("Q11", R, "Nodes with property Name=Value", "g.V.has(Name, Value)",
     ("key", "value"), lambda g, p: g.traversal().V().has(p["key"], p["value"]).to_list()),
    ("Q12", R, "Edges with property Name=Value", "g.E.has(Name, Value)",
     ("key", "value"), _edges_by_property),
    ("Q13", R, "Edges with label l", "g.E.has('label', l)",
     ("label",), lambda g, p: g.traversal().E().has("label", p["label"]).to_list()),
    ("Q14", R, "The node with identifier id", "g.V(id)",
     ("vertex",), lambda g, p: g.vertex(p["vertex"])),
    ("Q15", R, "The edge with identifier id", "g.E(id)",
     ("edge",), lambda g, p: g.edge(p["edge"])),
    ("Q16", U, "Update property Name for vertex v", "v.setProperty(Name, Value)",
     ("vertex", "key", "value"), "set_vertex_property"),
    ("Q17", U, "Update property Name for edge e", "e.setProperty(Name, Value)",
     ("edge", "key", "value"), "set_edge_property"),
    ("Q18", D, "Delete node identified by id", "g.removeVertex(id)",
     ("vertex",), "remove_vertex"),
    ("Q19", D, "Delete edge identified by id", "g.removeEdge(id)",
     ("edge",), "remove_edge"),
    ("Q20", D, "Remove node property Name from v", "v.removeProperty(Name)",
     ("vertex", "key"), "remove_vertex_property"),
    ("Q21", D, "Remove edge property Name from e", "e.removeProperty(Name)",
     ("edge", "key"), "remove_edge_property"),
    ("Q22", T, "Nodes adjacent to v via incoming edges", "v.in()",
     ("vertex",), lambda g, p: g.traversal().V(p["vertex"]).in_().to_list()),
    ("Q23", T, "Nodes adjacent to v via outgoing edges", "v.out()",
     ("vertex",), lambda g, p: g.traversal().V(p["vertex"]).out().to_list()),
    ("Q24", T, "Nodes adjacent to v via edges labeled l", "v.both('l')",
     ("vertex", "label"), lambda g, p: g.traversal().V(p["vertex"]).both(p["label"]).to_list()),
    ("Q25", T, "Labels of incoming edges of v (no duplicates)", "v.inE.label.dedup()",
     ("vertex",), lambda g, p: g.traversal().V(p["vertex"]).in_e().label().dedup().to_list()),
    ("Q26", T, "Labels of outgoing edges of v (no duplicates)", "v.outE.label.dedup()",
     ("vertex",), lambda g, p: g.traversal().V(p["vertex"]).out_e().label().dedup().to_list()),
    ("Q27", T, "Labels of edges of v (no duplicates)", "v.bothE.label.dedup()",
     ("vertex",), lambda g, p: g.traversal().V(p["vertex"]).both_e().label().dedup().to_list()),
    ("Q28", T, "Nodes of at least k-incoming-degree", "g.V.filter{it.inE.count()>=k}",
     ("k",), _degree_filter(Direction.IN)),
    ("Q29", T, "Nodes of at least k-outgoing-degree", "g.V.filter{it.outE.count()>=k}",
     ("k",), _degree_filter(Direction.OUT)),
    ("Q30", T, "Nodes of at least k-degree", "g.V.filter{it.bothE.count()>=k}",
     ("k",), _degree_filter(Direction.BOTH)),
    ("Q31", T, "Nodes having an incoming edge", "g.V.out.dedup()",
     (), lambda g, p: g.traversal().V().out().dedup().to_list()),
    ("Q32", T, "Nodes reached via breadth-first traversal from v",
     "v.as('i').both().except(vs).store(j).loop('i')",
     ("vertex", "depth"), _bfs(labelled=False)),
    ("Q33", T, "Nodes reached via breadth-first traversal from v on labels ls",
     "v.as('i').both(*ls).except(j).store(vs).loop('i')",
     ("vertex", "depth", "label"), _bfs(labelled=True)),
    ("Q34", T, "Unweighted shortest path from v1 to v2",
     "v1.as('i').both().except(j).store(j).loop('i'){!it.object.equals(v2)}.retain([v2]).path()",
     ("vertex", "vertex2"), _shortest_path(labelled=False)),
    ("Q35", T, "Same as Q34, but only following label l", "Shortest Path on 'l'",
     ("vertex", "vertex2", "label"), _shortest_path(labelled=True)),
)

#: Every primitive operation, in Table 2 order, keyed by its identifier.
MICRO_QUERIES: dict[str, Query] = {
    qid: Query(
        qid, int(qid[1:]), category, description, gremlin, parameters,
        _cud(body, parameters) if isinstance(body, str) else body,
        mutates=category in (L, C, U, D),
    )
    for qid, category, description, gremlin, parameters, body in TABLE_2
}


def query_ids() -> tuple[str, ...]:
    """Return every query identifier in Table 2 order."""
    return tuple(MICRO_QUERIES)


def query_by_id(query_id: str) -> Query:
    """Return the query registered under ``query_id`` (e.g. ``"Q22"``)."""
    return lookup(MICRO_QUERIES, query_id, "query", "known queries")


def queries_by_category(category: QueryCategory) -> list[Query]:
    """Return the queries belonging to ``category``, in Table 2 order."""
    return [query for query in MICRO_QUERIES.values() if query.category is category]
