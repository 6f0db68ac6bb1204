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
from functools import partial
from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import GraphDatabase
from repro.storage.triple_store import (
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_SUBJECT,
    TripleStore,
)

_TYPE = "rdf:type"
_LABEL = "graph:label"
_PROPERTY_PREFIX = "prop:"
_VERTEX_TYPE = "graph:Vertex"
_EDGE_TYPE = "graph:Edge"
#: Per pass: the endpoint statement predicate naming the walked vertex.
_WALKED = pass_table({Direction.OUT: RDF_SUBJECT, Direction.IN: RDF_OBJECT})


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

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        vertex_id = f"vertex:{next(self._vertex_counter)}"
        self._triples.add(vertex_id, _TYPE, _VERTEX_TYPE)
        if label is not None:
            self._triples.add(vertex_id, _LABEL, label)
        for key, value in properties.items():
            self._triples.add(vertex_id, _PROPERTY_PREFIX + key, value)
        self._vertex_ids.add(vertex_id)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._require(VERTEX, vertex_id)
        label = None
        properties: dict[str, Any] = {}
        for triple in self._triples.match(subject=vertex_id):
            if triple.predicate == _LABEL:
                label = triple.object
            elif str(triple.predicate).startswith(_PROPERTY_PREFIX):
                properties[str(triple.predicate)[len(_PROPERTY_PREFIX) :]] = triple.object
        return Vertex(id=vertex_id, label=label, properties=properties)

    def _delete_vertex(self, vertex_id: Any) -> None:
        self._triples.remove(vertex_id)
        self._vertex_ids.discard(vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return element_id in self._kinds[kind][0]

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        for triple in self._triples.match(predicate=_TYPE, object_=self._kinds[kind][1]):
            yield triple.subject

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        self._require(kind, element_id)
        self._triples.remove(element_id, _PROPERTY_PREFIX + key)
        self._triples.add(element_id, _PROPERTY_PREFIX + key, value)

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        self._require(kind, element_id)
        self._triples.remove(element_id, _PROPERTY_PREFIX + key)

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

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        edge_id = f"edge:{next(self._edge_counter)}"
        self._triples.add(edge_id, _TYPE, _EDGE_TYPE)
        self._triples.add(edge_id, RDF_SUBJECT, source_id)
        self._triples.add(edge_id, RDF_OBJECT, target_id)
        self._triples.add(edge_id, RDF_PREDICATE, label)
        for key, value in properties.items():
            self._triples.add(edge_id, _PROPERTY_PREFIX + key, value)
        self._edge_ids.add(edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        self._require(EDGE, edge_id)
        source = target = None
        label = ""
        properties: dict[str, Any] = {}
        for triple in self._triples.match(subject=edge_id):
            if triple.predicate == RDF_SUBJECT:
                source = triple.object
            elif triple.predicate == RDF_OBJECT:
                target = triple.object
            elif triple.predicate == RDF_PREDICATE:
                label = triple.object
            elif str(triple.predicate).startswith(_PROPERTY_PREFIX):
                properties[str(triple.predicate)[len(_PROPERTY_PREFIX) :]] = triple.object
        return Edge(id=edge_id, label=label, source=source, target=target, properties=properties)

    def _delete_edge(self, edge_id: Any) -> None:
        self._triples.remove(edge_id)
        self._edge_ids.discard(edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        self._require(EDGE, edge_id)
        target, source = self._triples.endpoint_objects(edge_id)
        return source, target

    def edge_label(self, edge_id: Any) -> str:
        self._require(EDGE, edge_id)
        for triple in self._triples.match(subject=edge_id, predicate=RDF_PREDICATE):
            return triple.object
        return ""

    # ------------------------------------------------------------------
    # Traversal: grouped scans over the SPO permutations
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # Structural read: one (vertex, graph:label, ?) prefix probe instead
        # of materialising every statement of the vertex (the property
        # statements stay cold).
        self._require(VERTEX, vertex_id)
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
        """Walk a frontier in one storage-layer pass over its reified edges.

        :meth:`~repro.storage.triple_store.TripleStore.walk_edges` scans
        each vertex's POS runs and pays, per reified edge, the probes of
        the statements it reads — the label statement lookup when filtered
        and, for neighbours, the two endpoint statement scans of
        :meth:`edge_endpoints` (one shared SPO descent, booked as two).
        """
        return self._triples.walk_edges(
            vertex_ids, _WALKED[direction], label, endpoints, partial(self._require, VERTEX)
        )

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold via flat statement scans with early exit.

        Scans the same POS prefixes as the walk behind ``edges_for`` and
        stops at the ``k``-th incident statement, so hub vertices never pay
        for their full reified adjacency.
        """
        if k <= 0:
            self._require(VERTEX, vertex_id)
            return True
        count = 0
        for predicate in _WALKED[direction]:
            self._require(VERTEX, vertex_id)
            for _triple in self._triples.match(predicate=predicate, object_=vertex_id):
                count += 1
                if count >= k:
                    return True
        return False

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def edges_by_label(self, label: str) -> Iterator[Any]:
        for triple in self._triples.match(predicate=RDF_PREDICATE, object_=label):
            yield triple.subject

    def distinct_edge_labels(self) -> set[str]:
        return {
            triple.object for triple in self._triples.match(predicate=RDF_PREDICATE)
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
