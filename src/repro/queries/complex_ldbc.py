"""The 13 LDBC-inspired complex queries (Figure 2 of the paper).

The paper complements the microbenchmark with a workload of 13 complex
queries derived from the LDBC Social Network Benchmark, mimicking the tasks
of a new user of a social application: creating an account, filling the
profile (school, birthplace, workplace), and retrieving recommendations.
The queries combine multiple primitive operators, multi-way joins, sorting,
top-k, and max finding, and are used to contrast macro- with
micro-benchmark insights.

Each query here is expressed through the same traversal DSL as the
microbenchmark operations, so step conflation (the relational engine's
strength on label-restricted short joins) applies where the original systems
could apply it.  Like Table 2, the set is one table of rows over
:class:`~repro.queries.base.Query`: numbered from 101, categorised R.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.model.elements import Direction
from repro.model.graph import GraphDatabase
from repro.queries.base import Body, Query, QueryCategory, lookup


def _max_degree(direction: Direction) -> Body:
    """``max-iid`` / ``max-oid``: the node with the most edges in ``direction``."""

    def body(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
        best_vertex, best_degree = None, -1
        for vertex_id in graph.vertex_ids():
            degree = graph.degree(vertex_id, direction)
            if degree > best_degree:
                best_vertex, best_degree = vertex_id, degree
        return {"vertex": best_vertex, "degree": best_degree}

    return body


def _friends_of_friends(graph: GraphDatabase, person: Any) -> Any:
    """Two hops over ``knows`` from ``person``, minus the person and direct friends."""
    direct = set(graph.traversal().V(person).both("knows").to_list())
    return graph.traversal().V(person).both("knows").both("knows").except_(direct | {person})


def _top_k(counts: dict[Any, int], k: int) -> list[tuple[Any, int]]:
    return sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[:k]


def _add_tags(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
    return [graph.add_edge(params["person"], tag, "hasInterest") for tag in params["tags"]]


def _triangles(graph: GraphDatabase, params: Mapping[str, Any]) -> Any:
    friends = set(graph.traversal().V(params["person"]).both("knows").to_list())
    triangles = 0
    for friend in friends:
        for second in graph.traversal().V(friend).both("knows"):
            if second in friends and str(second) > str(friend):
                triangles += 1
    return triangles


#: The complex queries in Figure 2 order: ``(name, description, parameters,
#: body, mutates)``.  Inline bodies take the graph ``g`` and params ``p``.
COMPLEX_TABLE: tuple[tuple[Any, ...], ...] = (
    ("max-iid", "Node with maximum in-degree", (), _max_degree(Direction.IN), False),
    ("max-oid", "Node with maximum out-degree", (), _max_degree(Direction.OUT), False),
    ("create", "Create a new user account node", ("properties",),
     lambda g, p: g.add_vertex(dict(p["properties"]), label="person"), True),
    ("city", "Connect a person to a city node", ("person", "place"),
     lambda g, p: g.add_edge(p["person"], p["place"], "isLocatedIn"), True),
    ("company", "Connect a person to a company node", ("person", "organisation"),
     lambda g, p: g.add_edge(p["person"], p["organisation"], "workAt", {"workFrom": 2018}), True),
    ("university", "Connect a person to a university node", ("person", "organisation"),
     lambda g, p: g.add_edge(p["person"], p["organisation"], "studyAt", {"classYear": 2018}),
     True),
    ("friend1", "Direct friends of a person", ("person",),
     lambda g, p: g.traversal().V(p["person"]).both("knows").dedup().to_list(), False),
    ("friend2", "Friends of friends of a person", ("person",),
     lambda g, p: _friends_of_friends(g, p["person"]).dedup().to_list(), False),
    ("friend-tags", "Interest tags of a person's friends", ("person",),
     lambda g, p: g.traversal().V(p["person"]).both("knows").out("hasInterest").dedup().to_list(),
     False),
    ("add-tags", "Add interest edges from a person to tags", ("person", "tags"), _add_tags, True),
    ("friend-of-friend", "Top-k friends-of-friends ranked by the number of common friends",
     ("person", "k"),
     lambda g, p: _top_k(_friends_of_friends(g, p["person"]).group_count().next(), p["k"]),
     False),
    ("triangle", "Friendship triangles through a person", ("person",), _triangles, False),
    ("places", "Places of a person's friends ranked by frequency", ("person", "k"),
     lambda g, p: _top_k(
         g.traversal().V(p["person"]).both("knows").out("isLocatedIn").group_count().next(),
         p["k"],
     ),
     False),
)

#: The 13 complex queries, keyed by their Figure 2 names, in figure order.
COMPLEX_QUERIES: dict[str, Query] = {
    name: Query(
        name, number, QueryCategory.READ, description, "(LDBC-derived complex query)",
        parameters, body, mutates,
    )
    for number, (name, description, parameters, body, mutates) in enumerate(COMPLEX_TABLE, 101)
}


def complex_query_by_id(query_id: str) -> Query:
    """Return the complex query registered under ``query_id`` (e.g. ``"friend2"``)."""
    return lookup(COMPLEX_QUERIES, query_id, "complex query", "known")
