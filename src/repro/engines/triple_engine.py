"""Hybrid engine over an RDF triple store (the BlazeGraph-like architecture).

Architecture reproduced from the paper (Sections 3.2, 6.2, and 6.4):

* the whole graph is stored as Subject-Predicate-Object statements indexed
  three times (SPO, POS, OSP) in B+Trees;
* every edge is *reified*: the edge identifier becomes the subject of
  statements describing its endpoints, label, and properties, so traversing
  one edge requires several B+Tree probes;
* outside bulk-load mode, each insertion updates and rebalances the three
  B+Trees, which makes loading and CUD operations orders of magnitude slower
  than the other engines;
* a pre-allocated journal plus the three index permutations give the engine
  roughly three times the disk footprint of its competitors;
* Gremlin-style steps are executed one by one against the statement API, so
  nothing benefits from SPARQL-style query optimisation.

The engine exposes no user-controlled attribute indexes (the original system
offers none either).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import GraphDatabase, check_property_keys
from repro.storage.triple_store import TripleStore

_TYPE = "rdf:type"
_SUBJECT = "rdf:subject"
_PREDICATE = "rdf:predicate"
_OBJECT = "rdf:object"
_LABEL = "graph:label"
_PROPERTY_PREFIX = "prop:"
_VERTEX_TYPE = "graph:Vertex"
_EDGE_TYPE = "graph:Edge"
#: Endpoint statement predicates in ``edge_endpoints`` resolution order.
_ENDPOINT_PREDICATES = (_SUBJECT, _OBJECT)
#: Per pass: (edge statement predicate naming the walked vertex, index of
#: the far endpoint in ``_ENDPOINT_PREDICATES``).
_PASSES = pass_table({Direction.OUT: (_SUBJECT, 1), Direction.IN: (_OBJECT, 0)})


class TripleEngine(BaseEngine):
    """Graph store over reified SPO statements in three B+Tree permutations."""

    name = "triplegraph"
    version = "2.1"
    kind = "hybrid"
    supports_vertex_index = False

    info = EngineInfo(
        system="TripleGraph",
        version="2.1.4",
        kind="Hybrid (RDF)",
        storage="RDF statements",
        edge_traversal="B+Tree",
        gremlin="v3.2",
        query_execution="Programming API, non-optimized",
        access="embedded",
        languages=("Python DSL", "SPARQL-like"),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._triples = TripleStore("journal", metrics=self.metrics)
        self._vertex_counter = itertools.count(1)
        self._edge_counter = itertools.count(1)
        self._vertex_ids: set[str] = set()
        self._edge_ids: set[str] = set()
        #: per kind: (live ids, rdf:type object)
        self._kinds = {VERTEX: (self._vertex_ids, _VERTEX_TYPE), EDGE: (self._edge_ids, _EDGE_TYPE)}

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def begin_bulk_load(self) -> None:
        super().begin_bulk_load()
        if self.config.bulk_load:
            self._triples.begin_bulk_load()

    def end_bulk_load(self) -> None:
        if self.config.bulk_load:
            self._triples.end_bulk_load()
        super().end_bulk_load()

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self.schema.observe_vertex(label, set(properties))
        vertex_id = f"vertex:{next(self._vertex_counter)}"
        self._triples.add(vertex_id, _TYPE, _VERTEX_TYPE)
        if label is not None:
            self._triples.add(vertex_id, _LABEL, label)
        for key, value in properties.items():
            self._triples.add(vertex_id, _PROPERTY_PREFIX + key, value)
        self._vertex_ids.add(vertex_id)
        self._log("add_vertex", id=vertex_id)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._require_vertex(vertex_id)
        label = None
        properties: dict[str, Any] = {}
        for triple in self._triples.match(subject=vertex_id):
            if triple.predicate == _LABEL:
                label = triple.object
            elif str(triple.predicate).startswith(_PROPERTY_PREFIX):
                properties[str(triple.predicate)[len(_PROPERTY_PREFIX) :]] = triple.object
        return Vertex(id=vertex_id, label=label, properties=properties)

    def remove_vertex(self, vertex_id: Any) -> None:
        self._require_vertex(vertex_id)
        for edge_id in list(self.edges_for(vertex_id, Direction.BOTH)):
            if edge_id in self._edge_ids:
                self.remove_edge(edge_id)
        self._triples.remove(vertex_id)
        self._vertex_ids.discard(vertex_id)
        self._log("remove_vertex", id=vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return element_id in self._kinds[kind][0]

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        for triple in self._triples.match(predicate=_TYPE, object_=self._kinds[kind][1]):
            yield triple.subject

    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        self._require(kind, element_id)
        self._triples.remove(element_id, _PROPERTY_PREFIX + key)
        self._triples.add(element_id, _PROPERTY_PREFIX + key, value)
        self._log(kind.set_op, id=element_id, key=key)

    def _remove_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        self._require(kind, element_id)
        self._triples.remove(element_id, _PROPERTY_PREFIX + key)
        self._log(kind.remove_op, id=element_id, key=key)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        self._require(kind, element_id)
        for triple in self._triples.match(subject=element_id, predicate=_PROPERTY_PREFIX + key):
            return triple.object
        return None

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        live = self._kinds[kind][0]
        for triple in self._triples.match(predicate=_PROPERTY_PREFIX + key, object_=value):
            if triple.subject in live:
                yield triple.subject

    # ------------------------------------------------------------------
    # Edge CRUD (reified statements)
    # ------------------------------------------------------------------

    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self._require_vertex(source_id)
        self._require_vertex(target_id)
        self.schema.observe_edge(label, set(properties))
        edge_id = f"edge:{next(self._edge_counter)}"
        self._triples.add(edge_id, _TYPE, _EDGE_TYPE)
        self._triples.add(edge_id, _SUBJECT, source_id)
        self._triples.add(edge_id, _OBJECT, target_id)
        self._triples.add(edge_id, _PREDICATE, label)
        for key, value in properties.items():
            self._triples.add(edge_id, _PROPERTY_PREFIX + key, value)
        self._edge_ids.add(edge_id)
        self._log("add_edge", id=edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        self._require(EDGE, edge_id)
        source = target = None
        label = ""
        properties: dict[str, Any] = {}
        for triple in self._triples.match(subject=edge_id):
            if triple.predicate == _SUBJECT:
                source = triple.object
            elif triple.predicate == _OBJECT:
                target = triple.object
            elif triple.predicate == _PREDICATE:
                label = triple.object
            elif str(triple.predicate).startswith(_PROPERTY_PREFIX):
                properties[str(triple.predicate)[len(_PROPERTY_PREFIX) :]] = triple.object
        return Edge(id=edge_id, label=label, source=source, target=target, properties=properties)

    def remove_edge(self, edge_id: Any) -> None:
        self._require(EDGE, edge_id)
        self._triples.remove(edge_id)
        self._edge_ids.discard(edge_id)
        self._log("remove_edge", id=edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        self._require(EDGE, edge_id)
        source = target = None
        for triple in self._triples.match(subject=edge_id, predicate=_SUBJECT):
            source = triple.object
        for triple in self._triples.match(subject=edge_id, predicate=_OBJECT):
            target = triple.object
        return source, target

    def edge_label(self, edge_id: Any) -> str:
        self._require(EDGE, edge_id)
        for triple in self._triples.match(subject=edge_id, predicate=_PREDICATE):
            return triple.object
        return ""

    # ------------------------------------------------------------------
    # Traversal primitives: several B+Tree probes per hop
    # ------------------------------------------------------------------

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        self._require_vertex(vertex_id)
        for triple in self._triples.match(predicate=_SUBJECT, object_=vertex_id):
            edge_id = triple.subject
            if label is None or self.edge_label(edge_id) == label:
                yield edge_id

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        self._require_vertex(vertex_id)
        for triple in self._triples.match(predicate=_OBJECT, object_=vertex_id):
            edge_id = triple.subject
            if label is None or self.edge_label(edge_id) == label:
                yield edge_id

    # ------------------------------------------------------------------
    # Bulk structural primitives: grouped scans over the SPO permutations
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # Structural read: one (vertex, graph:label, ?) prefix probe instead
        # of materialising every statement of the vertex (the property
        # statements stay cold).
        self._require_vertex(vertex_id)
        for triple in self._triples.match(subject=vertex_id, predicate=_LABEL):
            return triple.object
        return None

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier with one grouped pass over the POS permutation.

        The endpoint patterns of every frontier vertex are answered by
        :meth:`~repro.storage.triple_store.TripleStore.match_grouped` in one
        flat scan loop; each reified edge then pays exactly the per-id
        probes — the label statement lookup when filtered and, for
        neighbours, the two endpoint statement scans of
        :meth:`edge_endpoints` — so charges are identical to the per-id
        path while the nested generator chain (``neighbors`` →
        ``edges_for`` → ``out_edges`` → ``match``) is gone.
        """
        passes = _PASSES[direction]
        frontier = list(vertex_ids)
        triples = self._triples
        first_object = triples.first_object
        endpoint_objects = triples.endpoint_objects

        def patterns() -> Iterator[tuple[Any, Any, Any]]:
            for vertex_id in frontier:
                for predicate, _endpoint in passes:
                    self._require_vertex(vertex_id)
                    yield (None, predicate, vertex_id)

        npasses = len(passes)
        for position, triple in triples.match_grouped(patterns()):
            edge_id = triple.subject
            if label is not None and first_object(edge_id, _PREDICATE) != label:
                continue
            source = frontier[position // npasses]
            if endpoints:
                far = passes[position % npasses][1]
                yield source, endpoint_objects(edge_id, _ENDPOINT_PREDICATES)[far]
            else:
                yield source, edge_id

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold via flat statement scans with early exit.

        Scans the same POS prefixes as the per-id ``edges_for`` path and
        stops at the ``k``-th incident statement, so hub vertices never pay
        for their full reified adjacency.
        """
        if k <= 0:
            self._require_vertex(vertex_id)
            return True
        count = 0
        for predicate, _endpoint in _PASSES[direction]:
            self._require_vertex(vertex_id)
            for _triple in self._triples.match(predicate=predicate, object_=vertex_id):
                count += 1
                if count >= k:
                    return True
        return False

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def edges_by_label(self, label: str) -> Iterator[Any]:
        for triple in self._triples.match(predicate=_PREDICATE, object_=label):
            yield triple.subject

    def distinct_edge_labels(self) -> set[str]:
        return {
            triple.object for triple in self._triples.match(predicate=_PREDICATE)
        }

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    # No user-controlled attribute indexes (the original system has none).
    create_vertex_index = GraphDatabase.create_vertex_index

    def space_breakdown(self) -> dict[str, int]:
        return {
            "journal-and-indexes": self._triples.size_in_bytes,
            "wal": self.wal.size_in_bytes,
        }
