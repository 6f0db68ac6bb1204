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
from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import Direction, Edge, Vertex, pass_table
from repro.storage.document_store import DocumentStore
from repro.storage.hash_index import HashIndex

_VERTEX_COLLECTION = "vertices"
_EDGE_COLLECTION = "edges"
#: Reserved document fields that are not user properties.
_SYSTEM_FIELDS = {"_key", "_label", "_from", "_to"}


class DocumentEngine(BaseEngine):
    """Graph store over JSON document collections with edge hash indexes."""

    name = "documentgraph"
    version = "2.8"
    kind = "hybrid"
    supports_vertex_index = True
    remote_access = True

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
        #: per pass: (endpoint hash index probed, far endpoint field)
        self._passes = pass_table(
            {
                Direction.OUT: (self._store.edge_from_index, "_to"),
                Direction.IN: (self._store.edge_to_index, "_from"),
            }
        )
        self._vertex_counter = itertools.count(1)
        self._edge_counter = itertools.count(1)
        self._vertex_indexes: dict[str, HashIndex] = {}
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        self._round_trip()
        self.schema.observe_vertex(label, set(properties))
        vertex_id = f"v/{next(self._vertex_counter)}"
        document = dict(properties)
        if label is not None:
            document["_label"] = label
        self._vertices.insert(vertex_id, document)
        for key, index in self._vertex_indexes.items():
            if key in properties:
                index.insert(properties[key], vertex_id)
        self._log("add_vertex", id=vertex_id)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._round_trip()
        document = self._vertex_document(vertex_id)
        return Vertex(
            id=vertex_id,
            label=document.get("_label"),
            properties=_user_properties(document),
        )

    def vertex_exists(self, vertex_id: Any) -> bool:
        return self._vertices.exists(vertex_id)

    def vertex_ids(self) -> Iterator[Any]:
        self._round_trip()
        yield from self._vertices.keys()

    def remove_vertex(self, vertex_id: Any) -> None:
        self._round_trip()
        document = self._vertex_document(vertex_id)
        for edge_id in list(self.edges_for(vertex_id, Direction.BOTH)):
            if self._edges.exists(edge_id):
                self.remove_edge(edge_id)
        for key, index in self._vertex_indexes.items():
            if key in document:
                index.delete(document[key], vertex_id)
        self._vertices.remove(vertex_id)
        self._log("remove_vertex", id=vertex_id)

    def set_vertex_property(self, vertex_id: Any, key: str, value: Any) -> None:
        self._round_trip()
        document = self._vertex_document(vertex_id)
        previous = document.get(key)
        self._vertices.update(vertex_id, {key: value})
        if key in self._vertex_indexes:
            if previous is not None:
                self._vertex_indexes[key].delete(previous, vertex_id)
            self._vertex_indexes[key].insert(value, vertex_id)
        self._log("set_vertex_property", id=vertex_id, key=key)

    def remove_vertex_property(self, vertex_id: Any, key: str) -> None:
        self._round_trip()
        document = self._vertex_document(vertex_id)
        if key in document:
            previous = document.pop(key)
            self._vertices.replace(vertex_id, {k: v for k, v in document.items() if k != "_key"})
            if key in self._vertex_indexes and previous is not None:
                self._vertex_indexes[key].delete(previous, vertex_id)
        self._log("remove_vertex_property", id=vertex_id, key=key)

    def vertex_property(self, vertex_id: Any, key: str) -> Any:
        self._round_trip()
        return self._vertex_document(vertex_id).get(key)

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        properties = properties or {}
        self._round_trip()
        if not self._vertices.exists(source_id):
            raise ElementNotFoundError("vertex", source_id)
        if not self._vertices.exists(target_id):
            raise ElementNotFoundError("vertex", target_id)
        self.schema.observe_edge(label, set(properties))
        edge_id = f"e/{next(self._edge_counter)}"
        document = dict(properties)
        document["_label"] = label
        document["_from"] = source_id
        document["_to"] = target_id
        self._edges.insert(edge_id, document)
        self._store.edge_from_index.insert(source_id, edge_id)
        self._store.edge_to_index.insert(target_id, edge_id)
        self._log("add_edge", id=edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        self._round_trip()
        document = self._edge_document(edge_id)
        return Edge(
            id=edge_id,
            label=document["_label"],
            source=document["_from"],
            target=document["_to"],
            properties=_user_properties(document),
        )

    def edge_exists(self, edge_id: Any) -> bool:
        return self._edges.exists(edge_id)

    def edge_ids(self) -> Iterator[Any]:
        self._round_trip()
        yield from self._edges.keys()

    def remove_edge(self, edge_id: Any) -> None:
        self._round_trip()
        document = self._edge_document(edge_id)
        self._store.edge_from_index.delete(document["_from"], edge_id)
        self._store.edge_to_index.delete(document["_to"], edge_id)
        self._edges.remove(edge_id)
        self._log("remove_edge", id=edge_id)

    def set_edge_property(self, edge_id: Any, key: str, value: Any) -> None:
        self._round_trip()
        self._edge_document(edge_id)
        self._edges.update(edge_id, {key: value})
        self._log("set_edge_property", id=edge_id, key=key)

    def remove_edge_property(self, edge_id: Any, key: str) -> None:
        self._round_trip()
        document = self._edge_document(edge_id)
        if key in document:
            document.pop(key)
            self._edges.replace(edge_id, {k: v for k, v in document.items() if k != "_key"})
        self._log("remove_edge_property", id=edge_id, key=key)

    def edge_property(self, edge_id: Any, key: str) -> Any:
        self._round_trip()
        return self._edge_document(edge_id).get(key)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        # Even endpoint resolution materialises the edge document.
        document = self._edge_document(edge_id)
        return document["_from"], document["_to"]

    def edge_label(self, edge_id: Any) -> str:
        return self._edge_document(edge_id)["_label"]

    # ------------------------------------------------------------------
    # Traversal primitives (edge-endpoint hash index)
    # ------------------------------------------------------------------

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        self._round_trip()
        self._require_vertex(vertex_id)
        for edge_id in self._store.edge_from_index.lookup(vertex_id):
            # The engine always answers with full edge documents, so every hop
            # materialises the document even when only the id is needed — the
            # behaviour that makes whole-graph filters so expensive for it.
            if label is None or self._edge_document(edge_id)["_label"] == label:
                self._edge_document(edge_id)
                yield edge_id

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        self._round_trip()
        self._require_vertex(vertex_id)
        for edge_id in self._store.edge_to_index.lookup(vertex_id):
            if label is None or self._edge_document(edge_id)["_label"] == label:
                self._edge_document(edge_id)
                yield edge_id

    # ------------------------------------------------------------------
    # Bulk structural primitives: adjacency slicing inside document blocks
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # The label lives inside the self-contained document, so the read
        # still materialises the block (one round trip + one record read,
        # like ``vertex``); only the Vertex/property construction is skipped.
        self._round_trip()
        return self._vertex_document(vertex_id).get("_label")

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier by slicing each vertex's edge documents once.

        The per-id path materialises every edge document up to three times
        (label check, traversal fetch, endpoint resolution); the bulk path
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
                self._require_vertex(vertex_id)
                for edge_id, document in edges.get_many(index.lookup(vertex_id)):
                    if label is not None:
                        if document["_label"] != label:
                            continue
                        # The per-id path re-fetches the block after the
                        # label check; charge that read without re-parsing.
                        recharge(edge_id)
                    if endpoints:
                        # ... and fetches it once more inside edge_endpoints.
                        recharge(edge_id)
                        yield vertex_id, document[endpoint_field]
                    else:
                        yield vertex_id, edge_id

    def subgraph_for(
        self, vertex_ids: Iterable[Any]
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """Partition extraction with one parse per document.

        The default path materialises every outgoing edge document twice
        (once in ``out_edges``, once in ``edge``); here each edge block is
        parsed once through :meth:`DocumentCollection.get_many` and the
        second fetch is recharged without re-parsing.  Round trips and
        logical reads stay identical to the default — per vertex: two round
        trips plus one vertex-document read; per outgoing edge: one round
        trip plus two edge-document reads.
        """
        vertices = self._vertices
        edges = self._edges
        vertex_rows: list[dict[str, Any]] = []
        edge_rows: list[dict[str, Any]] = []
        for vertex_id in vertex_ids:
            self._round_trip()
            self._require_vertex(vertex_id)
            document = vertices.get(vertex_id)
            vertex_rows.append(
                {
                    "id": vertex_id,
                    "label": document.get("_label"),
                    "properties": _user_properties(document),
                }
            )
            self._round_trip()
            for edge_id, edge_doc in edges.get_many(
                self._store.edge_from_index.lookup(vertex_id)
            ):
                # The per-id path fetches the block again inside ``edge``
                # (with its own round trip); charge both without re-parsing.
                self._round_trip()
                edges.recharge_read(edge_id)
                edge_rows.append(
                    {
                        "id": edge_id,
                        "source": edge_doc["_from"],
                        "target": edge_doc["_to"],
                        "label": edge_doc["_label"],
                        "properties": _user_properties(edge_doc),
                    }
                )
        return vertex_rows, edge_rows

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold with early exit, one flat loop per pass.

        The engine always answers with full edge documents, so even the
        threshold check materialises each counted edge — the behaviour
        behind the paper's degree-filter timeouts for this system stays
        intact; the early exit only trims the tail, exactly like the
        per-id path.
        """
        if k <= 0:
            self._require_vertex(vertex_id)
            return True
        count = 0
        for index, _endpoint_field in self._passes[direction]:
            self._round_trip()
            self._require_vertex(vertex_id)
            for _edge_id, _document in self._edges.get_many(index.lookup(vertex_id)):
                count += 1
                if count >= k:
                    return True
        return False

    # ------------------------------------------------------------------
    # Counting & search: documents must be materialised
    # ------------------------------------------------------------------

    def vertex_count(self) -> int:
        # Counting vertices only iterates keys, which the original system
        # also managed to finish before its timeout.
        self._round_trip()
        return sum(1 for _key in self._vertices.keys())

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

    def vertices_by_property(self, key: str, value: Any) -> Iterator[Any]:
        self._round_trip()
        if key in self._vertex_indexes:
            yield from self._vertex_indexes[key].lookup(value)
            return
        for document in self._vertices.scan():
            if document.get(key) == value:
                yield document["_key"]

    def edges_by_property(self, key: str, value: Any) -> Iterator[Any]:
        self._round_trip()
        for document in self._edges.scan():
            self.metrics.allocate(len(str(document)))
            if document.get(key) == value:
                yield document["_key"]

    def edges_by_label(self, label: str) -> Iterator[Any]:
        self._round_trip()
        for document in self._edges.scan():
            self.metrics.allocate(len(str(document)))
            if document.get("_label") == label:
                yield document["_key"]

    # ------------------------------------------------------------------
    # Attribute indexes
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        if key in self._vertex_indexes:
            return
        index = HashIndex(f"skiplist-{key}", metrics=self.metrics)
        for document in self._vertices.scan():
            if key in document:
                index.insert(document[key], document["_key"])
        self._vertex_indexes[key] = index
        self._indexed_vertex_properties.add(key)

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    def _vertex_document(self, vertex_id: Any) -> dict[str, Any]:
        if not self._vertices.exists(vertex_id):
            raise ElementNotFoundError("vertex", vertex_id)
        return self._vertices.get(vertex_id)

    def _edge_document(self, edge_id: Any) -> dict[str, Any]:
        if not self._edges.exists(edge_id):
            raise ElementNotFoundError("edge", edge_id)
        return self._edges.get(edge_id)

    def space_breakdown(self) -> dict[str, int]:
        index_bytes = sum(index.size_in_bytes for index in self._vertex_indexes.values())
        return {
            "vertex-documents": self._vertices.size_in_bytes,
            "edge-documents": self._edges.size_in_bytes,
            "edge-indexes": self._store.edge_from_index.size_in_bytes
            + self._store.edge_to_index.size_in_bytes,
            "attribute-indexes": index_bytes,
            "wal": self.wal.size_in_bytes,
        }


def _user_properties(document: dict[str, Any]) -> dict[str, Any]:
    """Strip system fields from a document, leaving the user properties."""
    return {key: value for key, value in document.items() if key not in _SYSTEM_FIELDS}
