"""The abstract graph database interface every engine implements.

The paper accesses every system through Gremlin, i.e. through a common set of
primitive operations (Table 2): CRUD on vertices, edges, and properties, plus
local traversal primitives.  :class:`GraphDatabase` is the Python equivalent
of that common surface.  Engines implement the abstract primitives on top of
their own storage substrates; everything else (degree, counts, bulk
loading, the Gremlin traversal entry point) has a default
implementation written purely in terms of those primitives, which concrete
engines may override when their architecture provides a cheaper path (e.g.
bitmap-based counting in the Sparksee-like engine).

One adjacency walk
------------------

Each engine reaches adjacency through one access path — linked record
chains, in-record edge lists, incidence bitmaps, adjacency columns, edge
documents, reified statements, a union of foreign-key indexes — and
writes it once, as :meth:`_bulk_incident`: ``(vertex, result)`` pairs for
a whole frontier, the ``endpoints`` flag picking whether a pair carries
the far vertex or the edge id.  Every adjacency question is asked of that
walk: :meth:`neighbors_many` and :meth:`edges_for_many` hand it the
frontier, and :meth:`out_edges`, :meth:`in_edges`, :meth:`edges_for` and
:meth:`neighbors` are written here once, as one-vertex frontiers of it.
Each walk maps the passes of a direction to its substrate through a
:func:`~repro.model.elements.pass_table`, the one place the order is
written: BOTH is the out pass, then the in pass.  Three rules bind it:

* **one-vertex charges** — a frontier call books exactly what the same
  vertices asked one at a time would book.  The cost model simulates the
  hardware; a frontier removes *interpreter* overhead (generator chains,
  per-hop dispatch, a structure fetched once for all vertices), never
  simulated disk work;
* **grouped order** — pairs come grouped by vertex in input order, so
  lazy downstream steps (``except``/``store`` interplay in BFS loops)
  observe the same sequence whatever the frontier;
* **lazy booking** — charges accrue with each pair handed on, so a
  consumer that stops early (``limit``) pays for what it took.

``tests/engines/per_id_walks.py`` keeps an independent per-id walk of each
substrate, and the tests hold every engine's walk to it, counter for
counter.

Element kinds
-------------

Vertices and edges both carry properties, so each property primitive is
one operation over two element kinds.  The public vertex/edge twins
(``set_vertex_property`` / ``set_edge_property`` and so on) are defined
here once, as one-line entry points that pass
:data:`~repro.model.elements.VERTEX` or :data:`~repro.model.elements.EDGE`
to one kind-level method (``_set_property``, ``_exists``, ...), which every
engine writes once.  Keys in :data:`RESERVED_KEYS` name engine metadata
and are refused before anything is booked.

The op codec
------------

:data:`OPS` names the eight create/update/delete operations once, with
their argument fields (:data:`ID_FIELDS` marks the ids).  A session's
commit and a 2PC participant's recovery both replay through
:func:`replay`, and the 2PC journal takes its payload keys from it.

``docs/ARCHITECTURE.md`` is the durable home of these contracts;
``docs/ENGINES.md`` records each engine's walk and its charging rules.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.exceptions import ElementNotFoundError, SchemaError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex

#: Property keys that name engine metadata (document system fields, the
#: columnar label cell, the relational row id and edge-table endpoint
#: columns).  No element may carry one as a user property: every engine
#: and session rejects them, before any charge, at the property-write entry
#: points and in ``add_vertex`` / ``add_edge`` (:func:`check_property_keys`).
RESERVED_KEYS = frozenset(
    {"_key", "_label", "_from", "_to", "id", "source", "target", "source_table", "target_table"}
)


def check_property_keys(keys: Iterable[str] | None) -> None:
    """Raise :class:`SchemaError` if any of ``keys`` is reserved."""
    if keys and not RESERVED_KEYS.isdisjoint(keys):
        key = min(RESERVED_KEYS.intersection(keys))
        raise SchemaError(f"property key {key!r} is reserved for engine metadata")


#: The id fields of the op codec and the element kind each one names.
ID_FIELDS = {"vertex": VERTEX, "source": VERTEX, "target": VERTEX, "edge": EDGE}


class Op(NamedTuple):
    """One op of the codec: its argument fields in call order, the
    ``(position, kind)`` of each id field among them, and the kind of
    element it creates or removes if it changes the graph's shape."""

    fields: tuple[str, ...]
    ids: tuple[tuple[int, ElementKind], ...]
    creates: ElementKind | None
    removes: ElementKind | None


def _op(*fields: str, creates: ElementKind | None = None, removes: ElementKind | None = None) -> Op:
    ids = tuple((i, ID_FIELDS[field]) for i, field in enumerate(fields) if field in ID_FIELDS)
    return Op(fields, ids, creates, removes)


#: The op codec: the eight CUD operations, by method name.
OPS = {
    "add_vertex": _op("properties", "label", creates=VERTEX),
    "add_edge": _op("source", "target", "label", "properties", creates=EDGE),
    "remove_vertex": _op("vertex", removes=VERTEX),
    "remove_edge": _op("edge", removes=EDGE),
    VERTEX.set_op: _op("vertex", "key", "value"),
    VERTEX.remove_op: _op("vertex", "key"),
    EDGE.set_op: _op("edge", "key", "value"),
    EDGE.remove_op: _op("edge", "key"),
}


def replay(
    graph: "GraphDatabase", name: str, arguments: Sequence[Any], resolve: Callable[[Any], Any]
) -> Any:
    """Apply op ``name`` to ``graph`` and return its result (a created id).

    ``arguments`` follow the op's fields; each id field is passed through
    ``resolve``.
    """
    values = list(arguments)
    for position, _kind in OPS[name].ids:
        values[position] = resolve(values[position])
    return getattr(graph, name)(*values)


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrency.sessions import Session, SessionManager
    from repro.gremlin.traversal import GraphTraversal
    from repro.versions.catalog import VersionCatalog


class GraphDatabase(abc.ABC):
    """Abstract attributed-graph database.

    Identifiers are opaque to callers: each engine hands out its own vertex
    and edge ids (integers for most engines, strings for the document
    engine), and every other method takes those ids back.
    """

    #: Human-readable engine name, e.g. ``"nativelinked"``.
    name: str = "abstract"
    #: Version tag used when a system is modelled in two versions.
    version: str = "1.0"
    #: ``"native"`` or ``"hybrid"`` (paper Table 1, "Type").
    kind: str = "abstract"
    #: Whether the engine answers whole-stream counts through one native
    #: operation (:meth:`vertex_count` / :meth:`edge_count`) rather than
    #: streaming every element through the traversal machine.  Consulted by
    #: the optimizer's count pushdown alongside ``optimizes_steps``.
    conflates_counts: bool = False

    # ------------------------------------------------------------------
    # Vertex CRUD (abstract primitives)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        """Create a vertex with ``properties`` and return its id (Q2)."""

    @abc.abstractmethod
    def vertex(self, vertex_id: Any) -> Vertex:
        """Return the vertex with ``vertex_id`` (Q14); raise if absent."""

    def vertex_exists(self, vertex_id: Any) -> bool:
        """True if ``vertex_id`` refers to a live vertex."""
        return self._exists(VERTEX, vertex_id)

    def vertex_ids(self) -> Iterator[Any]:
        """Iterate over every vertex id (a full node scan)."""
        return self._ids(VERTEX)

    @abc.abstractmethod
    def remove_vertex(self, vertex_id: Any) -> None:
        """Delete a vertex, its properties, and its incident edges (Q18)."""

    def set_vertex_property(self, vertex_id: Any, key: str, value: Any) -> None:
        """Create or update one vertex property (Q5 / Q16)."""
        if key in RESERVED_KEYS:
            check_property_keys((key,))
        return self._set_property(VERTEX, vertex_id, key, value)

    def remove_vertex_property(self, vertex_id: Any, key: str) -> None:
        """Remove one vertex property (Q20)."""
        return self._remove_property(VERTEX, vertex_id, key)

    def vertex_property(self, vertex_id: Any, key: str) -> Any:
        """Return the value of one vertex property (None if absent)."""
        return self._property(VERTEX, vertex_id, key)

    # ------------------------------------------------------------------
    # Edge CRUD (abstract primitives)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        """Create an edge from ``source_id`` to ``target_id`` (Q3 / Q4)."""

    @abc.abstractmethod
    def edge(self, edge_id: Any) -> Edge:
        """Return the edge with ``edge_id`` (Q15); raise if absent."""

    def edge_exists(self, edge_id: Any) -> bool:
        """True if ``edge_id`` refers to a live edge."""
        return self._exists(EDGE, edge_id)

    def edge_ids(self) -> Iterator[Any]:
        """Iterate over every edge id (a full edge scan)."""
        return self._ids(EDGE)

    @abc.abstractmethod
    def remove_edge(self, edge_id: Any) -> None:
        """Delete an edge and its properties (Q19)."""

    def set_edge_property(self, edge_id: Any, key: str, value: Any) -> None:
        """Create or update one edge property (Q6 / Q17)."""
        if key in RESERVED_KEYS:
            check_property_keys((key,))
        return self._set_property(EDGE, edge_id, key, value)

    def remove_edge_property(self, edge_id: Any, key: str) -> None:
        """Remove one edge property (Q21)."""
        return self._remove_property(EDGE, edge_id, key)

    def edge_property(self, edge_id: Any, key: str) -> Any:
        """Return the value of one edge property (None if absent)."""
        return self._property(EDGE, edge_id, key)

    @abc.abstractmethod
    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        """Return (source id, target id) of an edge without its properties."""

    @abc.abstractmethod
    def edge_label(self, edge_id: Any) -> str:
        """Return the label of an edge without its properties."""

    def vertex_label(self, vertex_id: Any) -> str | None:
        """Return the label of a vertex.

        The default materialises the whole vertex (property blocks included);
        engines with structural label storage override this so that label
        filters never touch attribute data — the paper's observation about
        Neo4j answering structural questions from linked records alone.
        """
        return self.vertex(vertex_id).label

    # ------------------------------------------------------------------
    # Structural traversal primitives: one-vertex frontiers of the walk
    # ------------------------------------------------------------------

    # Each is a generator function, not the walk's own iterator behind a
    # ``map``: a traced call is timed while its generator runs.

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        """Iterate over ids of edges leaving ``vertex_id`` (optionally by label)."""
        for _vertex_id, edge_id in self._bulk_incident((vertex_id,), Direction.OUT, label, False):
            yield edge_id

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        """Iterate over ids of edges entering ``vertex_id`` (optionally by label)."""
        for _vertex_id, edge_id in self._bulk_incident((vertex_id,), Direction.IN, label, False):
            yield edge_id

    def edges_for(
        self, vertex_id: Any, direction: Direction, label: str | None = None
    ) -> Iterator[Any]:
        """Incident edge ids (a self-loop twice under BOTH)."""
        for _vertex_id, edge_id in self._bulk_incident((vertex_id,), direction, label, False):
            yield edge_id

    def neighbors(
        self, vertex_id: Any, direction: Direction, label: str | None = None
    ) -> Iterator[Any]:
        """Adjacent vertex ids (Q22-Q24): the far endpoint of each incident edge."""
        for _vertex_id, neighbor in self._bulk_incident((vertex_id,), direction, label, True):
            yield neighbor

    # ------------------------------------------------------------------
    # Search primitives (abstract)
    # ------------------------------------------------------------------

    def vertices_by_property(self, key: str, value: Any) -> Iterator[Any]:
        """Iterate over ids of vertices where property ``key`` equals ``value`` (Q11)."""
        return self._by_property(VERTEX, key, value)

    def edges_by_property(self, key: str, value: Any) -> Iterator[Any]:
        """Iterate over ids of edges where property ``key`` equals ``value`` (Q12)."""
        return self._by_property(EDGE, key, value)

    @abc.abstractmethod
    def edges_by_label(self, label: str) -> Iterator[Any]:
        """Iterate over ids of edges with the given label (Q13)."""

    # ------------------------------------------------------------------
    # Attribute indexes (Section 6.4, "Effect of Indexing")
    # ------------------------------------------------------------------

    #: Whether the engine supports user-controlled attribute indexes at all
    #: (BlazeGraph does not, per the paper).
    supports_vertex_index: bool = True

    def create_vertex_index(self, key: str) -> None:
        """Create an attribute index on vertex property ``key``.

        The default implementation raises; engines that support attribute
        indexes override it.
        """
        from repro.exceptions import UnsupportedOperationError

        raise UnsupportedOperationError(
            f"engine {self.name!r} does not support user-defined vertex indexes"
        )

    def has_vertex_index(self, key: str) -> bool:
        """True if an attribute index exists on vertex property ``key``."""
        return False

    # ------------------------------------------------------------------
    # Derived operations (default implementations)
    # ------------------------------------------------------------------

    def degree(self, vertex_id: Any, direction: Direction = Direction.BOTH) -> int:
        """Number of incident edges in ``direction`` (used by Q28-Q30)."""
        return sum(1 for _edge in self.edges_for(vertex_id, direction))

    def _require(self, kind: ElementKind, element_id: Any) -> None:
        """Raise unless ``element_id`` is a live element of ``kind``; books
        what :meth:`_exists` books."""
        if not self._exists(kind, element_id):
            raise ElementNotFoundError(kind.name, element_id)

    # ------------------------------------------------------------------
    # Frontier primitives and the walk (see module docstring)
    # ------------------------------------------------------------------

    def neighbors_many(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None = None,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(source, neighbor)`` pairs for a whole frontier of vertices."""
        return self._bulk_incident(vertex_ids, direction, label, True)

    def edges_for_many(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None = None,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(source, edge_id)`` pairs for a whole frontier of vertices."""
        return self._bulk_incident(vertex_ids, direction, label, False)

    @abc.abstractmethod
    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """The one adjacency walk: ``(vertex, result)`` pairs for a frontier.

        Each pair carries the far vertex when ``endpoints`` is set
        (:meth:`neighbors_many`, :meth:`neighbors`), else the edge id
        (:meth:`edges_for_many`, :meth:`edges_for`, :meth:`out_edges`,
        :meth:`in_edges`).  Pairs come grouped by vertex in input order,
        each vertex's passes in :func:`~repro.model.elements.pass_table`
        order, charges booked as the pairs are handed on; a missing vertex
        raises.
        """

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """True if ``vertex_id`` has at least ``k`` incident edges (Q28-Q30).

        Early-exits after the ``k``-th edge, so hub vertices do not pay for
        their full adjacency; engines with degree-capable structures (bitmap
        cardinalities, adjacency-list lengths) override this.  A missing
        vertex raises whatever ``k`` is.
        """
        if k <= 0:
            self._require(VERTEX, vertex_id)
            return True
        count = 0
        for _edge_id in self.edges_for(vertex_id, direction):
            count += 1
            if count >= k:
                return True
        return False

    def vertex_count(self) -> int:
        """Total number of vertices (Q8)."""
        return sum(1 for _vertex in self.vertex_ids())

    def edge_count(self) -> int:
        """Total number of edges (Q9)."""
        return sum(1 for _edge in self.edge_ids())

    def distinct_edge_labels(self) -> set[str]:
        """The set of edge labels in use (Q10)."""
        return {self.edge_label(edge_id) for edge_id in self.edge_ids()}

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over fully materialised vertices."""
        for vertex_id in self.vertex_ids():
            yield self.vertex(vertex_id)

    def edges(self) -> Iterator[Edge]:
        """Iterate over fully materialised edges."""
        for edge_id in self.edge_ids():
            yield self.edge(edge_id)

    def vertex_properties(self, vertex_id: Any) -> dict[str, Any]:
        """Return every property of a vertex."""
        return self._properties(VERTEX, vertex_id)

    def edge_properties(self, edge_id: Any) -> dict[str, Any]:
        """Return every property of an edge."""
        return self._properties(EDGE, edge_id)

    # ------------------------------------------------------------------
    # Kind-level property primitives (see module docstring)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        """True if ``element_id`` is a live element of ``kind``."""

    def _live(self, kind: ElementKind, element_id: Any) -> bool:
        """:meth:`_exists`, booking nothing: a commit checks its log with it."""
        return self._exists(kind, element_id)

    @abc.abstractmethod
    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        """Iterate over every id of ``kind`` (a full scan)."""

    @abc.abstractmethod
    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        """Create or update one property of an element of ``kind``."""

    @abc.abstractmethod
    def _remove_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        """Remove one property of an element of ``kind``."""

    @abc.abstractmethod
    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        """The value of one property of an element of ``kind`` (None if absent)."""

    @abc.abstractmethod
    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        """Iterate over ids of ``kind`` whose property ``key`` equals ``value``."""

    def _properties(self, kind: ElementKind, element_id: Any) -> dict[str, Any]:
        """Every property of an element of ``kind`` (default: materialise it)."""
        element = self.vertex(element_id) if kind is VERTEX else self.edge(element_id)
        return dict(element.properties)

    # ------------------------------------------------------------------
    # Bulk extraction (partitioning layer)
    # ------------------------------------------------------------------

    def subgraph_for(
        self, vertex_ids: Iterable[Any]
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Extract the subgraph rooted at ``vertex_ids`` in exchange format.

        Returns ``(vertex_rows, edge_rows)``: one loadable row per member
        vertex (``{"id", "label", "properties"}`` — ids are *this engine's
        internal ids*) and one row per **outgoing** edge of a member vertex
        (``{"id", "source", "target", "label", "properties"}``).  Edge rows
        are keyed on the source, so partitioning the full vertex set over
        :meth:`export_partition` exports every edge exactly once; a row
        whose target lies outside ``vertex_ids`` is a *cut edge*.

        The default materialises each vertex and each outgoing edge through
        the per-id primitives, charging exactly what a client-side export
        would.  Engines whose substrate can hand back a whole block in one
        parse override this under the usual bulk rule: **identical logical
        charges, identical row order** (vertices in input order, each
        vertex's out-edges in ``out_edges`` order).
        """
        vertex_rows: list[dict[str, Any]] = []
        edge_rows: list[dict[str, Any]] = []
        for vertex_id in vertex_ids:
            vertex = self.vertex(vertex_id)
            vertex_rows.append(
                {
                    "id": vertex_id,
                    "label": vertex.label,
                    "properties": dict(vertex.properties),
                }
            )
            for edge_id in list(self.out_edges(vertex_id)):
                edge = self.edge(edge_id)
                edge_rows.append(
                    {
                        "id": edge_id,
                        "source": edge.source,
                        "target": edge.target,
                        "label": edge.label,
                        "properties": dict(edge.properties),
                    }
                )
        return vertex_rows, edge_rows

    def export_partition(
        self, assignment: dict[Any, int], shards: int
    ) -> list[dict[str, Any]]:
        """Split this graph into ``shards`` loadable payloads plus cut edges.

        ``assignment`` maps every internal vertex id to a shard index in
        ``[0, shards)``; iteration order of ``assignment`` fixes the export
        order, so a deterministic assignment yields a deterministic (and
        deterministically charged) export.  Returns one payload per shard::

            {"vertices": [...], "edges": [...], "cut_edges": [...]}

        ``edges`` are the intra-shard rows (both endpoints local);
        ``cut_edges`` are the rows whose target belongs to another shard,
        annotated with ``target_shard``.  Built on :meth:`subgraph_for`, so
        an engine override of the extraction primitive accelerates the whole
        export without touching this driver.
        """
        members: list[list[Any]] = [[] for _shard in range(shards)]
        for vertex_id, shard in assignment.items():
            members[shard].append(vertex_id)
        payloads: list[dict[str, Any]] = []
        for shard in range(shards):
            vertex_rows, edge_rows = self.subgraph_for(members[shard])
            intra: list[dict[str, Any]] = []
            cut: list[dict[str, Any]] = []
            for row in edge_rows:
                target_shard = assignment[row["target"]]
                if target_shard == shard:
                    intra.append(row)
                else:
                    cut.append({**row, "target_shard": target_shard})
            payloads.append({"vertices": vertex_rows, "edges": intra, "cut_edges": cut})
        return payloads

    # ------------------------------------------------------------------
    # Bulk loading (Q1)
    # ------------------------------------------------------------------

    def begin_bulk_load(self) -> None:
        """Hook called before a bulk load; engines may relax index maintenance."""

    def end_bulk_load(self) -> None:
        """Hook called after a bulk load; engines rebuild deferred structures."""

    def load(self, vertices: Iterable[dict[str, Any]], edges: Iterable[dict[str, Any]]) -> dict[Any, Any]:
        """Load a dataset in bulk (Q1) and return the external→internal id map.

        ``vertices`` are dictionaries with at least an ``"id"`` key plus
        optional ``"label"`` and ``"properties"``; ``edges`` have ``"source"``,
        ``"target"``, ``"label"``, and optional ``"properties"`` referring to
        the external vertex ids.
        """
        self.begin_bulk_load()
        id_map: dict[Any, Any] = {}
        try:
            for vertex in vertices:
                internal = self.add_vertex(
                    properties=vertex.get("properties") or {},
                    label=vertex.get("label"),
                )
                id_map[vertex["id"]] = internal
            for edge in edges:
                self.add_edge(
                    id_map[edge["source"]],
                    id_map[edge["target"]],
                    edge.get("label", "edge"),
                    properties=edge.get("properties") or {},
                )
        finally:
            self.end_bulk_load()
        return id_map

    # ------------------------------------------------------------------
    # Space accounting (Figure 1a/b)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def space_breakdown(self) -> dict[str, int]:
        """Return per-structure simulated on-disk sizes in bytes."""

    @property
    def size_in_bytes(self) -> int:
        """Total simulated on-disk footprint."""
        return sum(self.space_breakdown().values())

    # ------------------------------------------------------------------
    # Gremlin entry point
    # ------------------------------------------------------------------

    def traversal(self) -> "GraphTraversal":
        """Return a new Gremlin-style traversal rooted at this database."""
        from repro.gremlin.traversal import GraphTraversal

        return GraphTraversal(self)

    # ------------------------------------------------------------------
    # Structural reachability index (repro.index)
    # ------------------------------------------------------------------

    def structure_version(self) -> int:
        """Monotonic counter bumped on every shape mutation.

        Engines built on :class:`~repro.engines.base.BaseEngine` bump it
        from their WAL hook on vertex/edge add/remove; structural indexes
        compare it against the version they were built at to detect
        staleness.  Property writes do not bump it.
        """
        return getattr(self, "_structure_version", 0)

    def structural_index(self, label: str | None = None):
        """Return a fresh interval reachability index over ``label``.

        The per-database :class:`~repro.index.StructuralIndexManager` is a
        lazy singleton (like :meth:`transactions`); it caches one index per
        label and rebuilds, with a charged pass, whenever the structure
        version moved.  Pass ``label=None`` for the unlabelled edge set.
        """
        manager = getattr(self, "_structural_index_manager", None)
        if manager is None:
            from repro.index import StructuralIndexManager

            manager = StructuralIndexManager(self)
            self._structural_index_manager = manager
        return manager.get(label)

    def has_structural_index(self, label: str | None = None) -> bool:
        """True if a *fresh* structural index over ``label`` is cached.

        The optimizer's routing predicate: it only reroutes reachability
        steps onto an index that already exists, never builds one as a
        query side effect.
        """
        manager = getattr(self, "_structural_index_manager", None)
        return manager is not None and manager.has_fresh(label)

    def reachable(self, src: Any, dst: Any, label: str | None = None) -> bool:
        """True if ``dst`` is reachable from ``src`` over out-edges.

        Answered through the structural index (built or rebuilt lazily):
        O(1) interval containment inside tree-shaped regions of the
        ``label``-induced subgraph, charged BFS fallback elsewhere.
        """
        return self.structural_index(label).reachable(src, dst)

    def descendants(self, src: Any, label: str | None = None) -> list[Any]:
        """Every vertex reachable from ``src`` over one or more out-edges.

        Tree regions answer with one slice of the index's preorder array;
        non-tree regions fall back to a charged BFS.  The result excludes
        ``src`` itself.
        """
        return self.structural_index(label).descendants(src)

    # ------------------------------------------------------------------
    # Transactional sessions (concurrency layer)
    # ------------------------------------------------------------------

    def transactions(self, group_commit_size: int | None = None) -> "SessionManager":
        """Return this database's session manager (created lazily, cached).

        All sessions over one database must share a manager — it owns the
        commit clock and the version store that make snapshot isolation
        work — so the manager is a singleton per engine instance.  The
        optional ASYNC group-commit batch size only applies on first
        creation; passing it once a manager exists raises, because
        reconfiguring a live commit pipeline cannot be done safely.  See
        :mod:`repro.concurrency` for the full model.
        """
        manager = getattr(self, "_session_manager", None)
        if manager is None:
            from repro.concurrency.sessions import SessionManager

            if group_commit_size is None:
                manager = SessionManager(self)
            else:
                manager = SessionManager(self, group_commit_size=group_commit_size)
            self._session_manager = manager
        elif group_commit_size is not None:
            from repro.exceptions import TransactionError

            raise TransactionError(
                f"engine {self.name!r} already has a session manager; "
                "configure group_commit_size on the first transactions() call"
            )
        return manager

    def begin_session(self, isolation: str = "si") -> "Session":
        """Open a transactional session (snapshot-isolated view + write set).

        ``isolation`` selects ``"si"`` (snapshot isolation, the default)
        or ``"ssi"`` (serializable: read tracking plus commit-time
        rw-antidependency validation).
        """
        return self.transactions().begin(isolation=isolation)

    # ------------------------------------------------------------------
    # Versioning & time travel (repro.versions)
    # ------------------------------------------------------------------

    def versions(self) -> "VersionCatalog":
        """Return this database's version catalog (created lazily, cached).

        The catalog shares the engine's session manager — commits pin the
        same commit clock sessions advance — so, like :meth:`transactions`,
        it is a singleton per engine instance.
        """
        catalog = getattr(self, "_version_catalog", None)
        if catalog is None:
            from repro.versions.catalog import VersionCatalog

            catalog = VersionCatalog(self)
            self._version_catalog = catalog
        return catalog

    def at_version(self, ref: Any = "HEAD"):
        """A read-only view of this graph as-of a named version.

        ``ref`` is a tag name, a commit id, a :class:`Commit`, or
        ``"HEAD"``.  The view routes every read through the MVCC overlay
        pinned at the commit's snapshot, so any existing query or
        traversal runs against the historical state unchanged; mutations
        raise.  Requires at least one prior ``versions().commit()``.
        """
        return self.versions().view(ref)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release engine resources (a no-op for the in-memory engines)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name} v{self.version}>"
