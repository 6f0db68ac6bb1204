"""Hybrid engine over a document store (the ArangoDB-like architecture).

Architecture reproduced from the paper (Sections 3.2 and 6):

* every vertex and every edge is a self-contained JSON document, serialised
  into a compressed binary blob;
* edge documents carry ``_from`` / ``_to`` references, and a hash index on
  the edge endpoints accelerates neighbourhood traversals;
* the engine is accessed through a client/server protocol: every primitive
  operation pays a simulated round trip, which mirrors how the original
  system translated each Gremlin step into an HTTP/AQL request;
* writes are registered in memory and flushed asynchronously (the paper
  notes this biases its CUD timings in its favour);
* full edge scans (Q9/Q10/Q12/Q13) must materialise every document, the
  behaviour responsible for ArangoDB's timeouts on the Freebase samples.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import RESERVED_KEYS
from repro.storage.document_store import DocumentStore

_VERTEX_COLLECTION = "vertices"
_EDGE_COLLECTION = "edges"


class DocumentEngine(BaseEngine):
    """Graph store over JSON document collections with edge hash indexes."""

    name = "documentgraph"
    version = "2.8"
    kind = "hybrid"
    supports_vertex_index = True
    remote_access = True
    index_name = "skiplist"

    info = EngineInfo(
        system="DocumentGraph",
        version="2.8",
        kind="Hybrid (Document)",
        storage="Serialized JSON",
        edge_traversal="Hash index",
        gremlin="v2.6",
        query_execution="AQL-like, non-optimized",
        access="REST (simulated round trips)",
        languages=("Python DSL", "AQL-like"),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        if config is None:
            config = EngineConfig(durability="async")
        super().__init__(config)
        self._store = DocumentStore(metrics=self.metrics)
        self._vertices = self._store.collection(_VERTEX_COLLECTION)
        self._edges = self._store.collection(_EDGE_COLLECTION)
        self._collections = {VERTEX: self._vertices, EDGE: self._edges}
        #: per pass: (endpoint hash index probed, far endpoint field)
        self._passes = pass_table(
            {
                Direction.OUT: (self._store.edge_from_index, "_to"),
                Direction.IN: (self._store.edge_to_index, "_from"),
            }
        )
        self._vertex_counter = itertools.count(1)
        self._edge_counter = itertools.count(1)
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        vertex_id = f"v/{next(self._vertex_counter)}"
        document = dict(properties)
        if label is not None:
            document["_label"] = label
        self._vertices.insert(vertex_id, document)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._round_trip()
        document = self._document(VERTEX, vertex_id)
        return Vertex(
            id=vertex_id,
            label=document.get("_label"),
            properties=_user_properties(document),
        )

    def _previous_values(self, vertex_id: Any) -> Callable[[str], Any]:
        # Removal materialises the vertex document, indexed or not.
        return self._document(VERTEX, vertex_id).get

    def _delete_vertex(self, vertex_id: Any) -> None:
        self._vertices.remove(vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return self._collections[kind].exists(element_id)

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        self._round_trip()
        yield from self._collections[kind].keys()

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        previous = self._document(kind, element_id).get(key)
        self._collections[kind].update(element_id, {key: value})
        self._reindex(kind, element_id, key, previous, value)

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        document = self._document(kind, element_id)
        if key in document:
            previous = document.pop(key)
            self._collections[kind].replace(
                element_id, {k: v for k, v in document.items() if k != "_key"}
            )
            self._reindex(kind, element_id, key, previous)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        self._round_trip()
        return self._document(kind, element_id).get(key)

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        edge_id = f"e/{next(self._edge_counter)}"
        document = dict(properties)
        document["_label"] = label
        document["_from"] = source_id
        document["_to"] = target_id
        self._edges.insert(edge_id, document)
        self._store.edge_from_index.insert(source_id, edge_id)
        self._store.edge_to_index.insert(target_id, edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        self._round_trip()
        document = self._document(EDGE, edge_id)
        return Edge(
            id=edge_id,
            label=document["_label"],
            source=document["_from"],
            target=document["_to"],
            properties=_user_properties(document),
        )

    def _delete_edge(self, edge_id: Any) -> None:
        document = self._document(EDGE, edge_id)
        self._store.edge_from_index.delete(document["_from"], edge_id)
        self._store.edge_to_index.delete(document["_to"], edge_id)
        self._edges.remove(edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        # Even endpoint resolution materialises the edge document.
        document = self._document(EDGE, edge_id)
        return document["_from"], document["_to"]

    def edge_label(self, edge_id: Any) -> str:
        return self._document(EDGE, edge_id)["_label"]

    # ------------------------------------------------------------------
    # Traversal: edge-endpoint hash index + one parse per edge document
    # ------------------------------------------------------------------

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier by slicing each vertex's edge documents once.

        The modelled system materialises every edge document up to three
        times (label check, traversal fetch, endpoint resolution); the walk
        parses each block once through
        :meth:`~repro.storage.document_store.DocumentCollection.get_many`
        and recharges the duplicate logical reads, so the simulated I/O is
        identical while the duplicate decompress/parse work — interpreter
        overhead, not disk work — disappears.  One round trip and one
        endpoint-index probe are still paid per vertex per pass.
        """
        edges = self._edges
        recharge = edges.recharge_read
        passes = self._passes[direction]
        for vertex_id in vertex_ids:
            for index, endpoint_field in passes:
                self._round_trip()
                self._require(VERTEX, vertex_id)
                for edge_id, document in edges.get_many(index.lookup(vertex_id)):
                    if label is not None:
                        if document["_label"] != label:
                            continue
                        # The system re-fetches the block after the label
                        # check; charge that read without re-parsing.
                        recharge(edge_id)
                    if endpoints:
                        # ... and fetches it once more inside edge_endpoints.
                        recharge(edge_id)
                        yield vertex_id, document[endpoint_field]
                    else:
                        yield vertex_id, edge_id

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold with early exit, one flat loop per pass.

        The engine always answers with full edge documents, so even the
        threshold check materialises each counted edge — the behaviour
        behind the paper's degree-filter timeouts for this system stays
        intact; the early exit only trims the tail of the walk.
        """
        if k <= 0:
            self._require(VERTEX, vertex_id)
            return True
        count = 0
        for index, _endpoint_field in self._passes[direction]:
            self._round_trip()
            self._require(VERTEX, vertex_id)
            for _edge_id, _document in self._edges.get_many(index.lookup(vertex_id)):
                count += 1
                if count >= k:
                    return True
        return False

    # ------------------------------------------------------------------
    # Counting & search: documents must be materialised
    # ------------------------------------------------------------------

    def edge_count(self) -> int:
        # Edge iteration materialises every edge document (the expensive path
        # the paper calls out for this system).
        self._round_trip()
        count = 0
        for document in self._edges.scan():
            self.metrics.allocate(len(str(document)))
            count += 1
        return count

    def distinct_edge_labels(self) -> set[str]:
        self._round_trip()
        labels: set[str] = set()
        for document in self._edges.scan():
            self.metrics.allocate(len(str(document)))
            labels.add(document["_label"])
        return labels

    def _property_scan(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        for document in self._collections[kind].scan():
            if kind is EDGE:
                # Edge scans materialise every document (see edge_count).
                self.metrics.allocate(len(str(document)))
            if document.get(key) == value:
                yield document["_key"]

    def edges_by_label(self, label: str) -> Iterator[Any]:
        self._round_trip()
        for document in self._edges.scan():
            self.metrics.allocate(len(str(document)))
            if document.get("_label") == label:
                yield document["_key"]

    def _index_scan(self, key: str) -> Iterator[tuple[Any, Any]]:
        for document in self._vertices.scan():
            yield document["_key"], document.get(key)

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    def _document(self, kind: ElementKind, element_id: Any) -> dict[str, Any]:
        """The document of a live element (one charged read); raises if absent."""
        collection = self._collections[kind]
        if not collection.exists(element_id):
            raise ElementNotFoundError(kind.name, element_id)
        return collection.get(element_id)

    def space_breakdown(self) -> dict[str, int]:
        return {
            "vertex-documents": self._vertices.size_in_bytes,
            "edge-documents": self._edges.size_in_bytes,
            "edge-indexes": self._store.edge_from_index.size_in_bytes
            + self._store.edge_to_index.size_in_bytes,
            "attribute-indexes": self._index_bytes(),
            "wal": self.wal.size_in_bytes,
        }


def _user_properties(document: dict[str, Any]) -> dict[str, Any]:
    """Strip system fields from a document, leaving the user properties."""
    return {key: value for key, value in document.items() if key not in RESERVED_KEYS}
