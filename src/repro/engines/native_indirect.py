"""Native engine with logical record indirection (the OrientDB-like architecture).

Architecture reproduced from the paper (Section 3.2 and 6):

* nodes, edges, and attributes live in distinct records, but record ids are
  *logical*: every access resolves the id through an append-only
  indirection table before touching the physical record;
* per-edge-label clusters: each edge label gets its own cluster (file), which
  is why loading is sensitive to the number of distinct edge labels and why
  the Frb-S dataset (~1.8K labels for ~300K edges) costs disproportionate
  space;
* adjacency is kept as edge-id lists inside node records ("2-hop pointer"),
  so neighbourhood traversal is O(degree) with one indirection per hop;
* a configurable cap on the number of edge labels models OrientDB's default
  limit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.storage.indirection import IndirectionTable
from repro.storage.property_store import PropertyStore
from repro.storage.record_store import RecordStore

#: Per-cluster fixed overhead in bytes: every distinct edge label creates its
#: own cluster file, which is what makes this engine space-hungry on datasets
#: with very many edge labels (paper, Section 6.2).
_CLUSTER_OVERHEAD_BYTES = 4096
#: Per pass: (edge-id list field of the vertex record, far endpoint field of
#: the edge record).
_ADJACENCY = pass_table({Direction.OUT: ("out", "target"), Direction.IN: ("in", "source")})


class NativeIndirectEngine(BaseEngine):
    """Graph store over linked records behind a logical-id indirection table."""

    name = "nativeindirect"
    version = "2.2"
    kind = "native"
    supports_vertex_index = True
    index_name = "sbtree"

    info = EngineInfo(
        system="NativeIndirect",
        version="2.2",
        kind="Native",
        storage="Linked records (per-label clusters)",
        edge_traversal="2-hop pointer",
        gremlin="v2.6",
        query_execution="Mixed",
        access="embedded",
        languages=("Python DSL", "SQL-like"),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._vertex_map = IndirectionTable("vertex-rids", metrics=self.metrics)
        self._edge_map = IndirectionTable("edge-rids", metrics=self.metrics)
        self._vertex_store = RecordStore("vertexcluster", record_size=48, metrics=self.metrics)
        self._edge_store = RecordStore("edgecluster", record_size=40, metrics=self.metrics)
        self._property_store = PropertyStore("attributes", metrics=self.metrics)
        #: per kind: (logical id map, charged record read, property-chain owner tag)
        self._kinds = {
            VERTEX: (self._vertex_map, self._vertex_record, "v"),
            EDGE: (self._edge_map, self._edge_record, "e"),
        }
        self._edge_label_clusters: dict[str, int] = {}
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        physical = self._vertex_store.allocate(
            {"label": label, "out": [], "in": []}
        )
        vertex_id = self._vertex_map.allocate(physical)
        if properties:
            self._property_store.set_properties(("v", vertex_id), properties)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        record = self._vertex_record(vertex_id)
        return Vertex(
            id=vertex_id,
            label=record.fields.get("label"),
            properties=self._property_store.properties(("v", vertex_id)),
        )

    def _remove_incident(self, vertex_id: Any) -> None:
        # The cascade reads the vertex record's edge lists, not the chains.
        record = self._vertex_record(vertex_id)
        for edge_id in list(record.fields.get("out", [])) + list(record.fields.get("in", [])):
            if self._edge_map.exists(edge_id):
                self.remove_edge(edge_id)

    def _previous_values(self, vertex_id: Any) -> Callable[[str], Any]:
        owner = ("v", vertex_id)
        return lambda key: self._property_store.get_property(owner, key)

    def _delete_vertex(self, vertex_id: Any) -> None:
        self._property_store.remove_owner(("v", vertex_id))
        self._vertex_store.free(self._vertex_map.resolve(vertex_id))
        self._vertex_map.free(vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds
    # ------------------------------------------------------------------

    def _owner(self, kind: ElementKind, element_id: Any) -> tuple[str, Any]:
        """The property-chain owner of a live element, after the charged
        record resolution every access pays; raises if absent."""
        _ids, read_record, tag = self._kinds[kind]
        read_record(element_id)
        return tag, element_id

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return isinstance(element_id, int) and self._kinds[kind][0].exists(element_id)

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        yield from self._kinds[kind][0].live_ids()

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        owner = self._owner(kind, element_id)
        # A vertex write reads the old value whether or not ``key`` is indexed.
        previous = self._property_store.get_property(owner, key) if kind is VERTEX else None
        self._property_store.set_property(owner, key, value)
        self._reindex(kind, element_id, key, previous, value)

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        owner = self._owner(kind, element_id)
        previous = self._property_store.get_property(owner, key) if kind is VERTEX else None
        self._property_store.remove_property(owner, key)
        self._reindex(kind, element_id, key, previous)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        return self._property_store.get_property(self._owner(kind, element_id), key)

    def _properties(self, kind: ElementKind, element_id: Any) -> dict[str, Any]:
        return self._property_store.properties(self._owner(kind, element_id))

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        source_record = self._vertex_record(source_id)
        target_record = self._vertex_record(target_id)
        if label not in self._edge_label_clusters:
            # Creating a cluster for a new edge label is deliberately
            # heavyweight: this is the per-label bookkeeping the paper blames
            # for OrientDB's slow loading on label-rich datasets.
            self._edge_label_clusters[label] = 0
            self.metrics.charge_page_write(4, _CLUSTER_OVERHEAD_BYTES)
        self._edge_label_clusters[label] += 1
        physical = self._edge_store.allocate(
            {"source": source_id, "target": target_id, "label": label}
        )
        edge_id = self._edge_map.allocate(physical)
        source_out = list(source_record.fields.get("out", []))
        source_out.append(edge_id)
        target_in = list(target_record.fields.get("in", []))
        target_in.append(edge_id)
        self._vertex_store.update(self._vertex_map.resolve(source_id), {"out": source_out})
        self._vertex_store.update(self._vertex_map.resolve(target_id), {"in": target_in})
        if properties:
            self._property_store.set_properties(("e", edge_id), properties)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        record = self._edge_record(edge_id)
        return Edge(
            id=edge_id,
            label=record.fields["label"],
            source=record.fields["source"],
            target=record.fields["target"],
            properties=self._property_store.properties(("e", edge_id)),
        )

    def _delete_edge(self, edge_id: Any) -> None:
        record = self._edge_record(edge_id)
        label = record.fields["label"]
        source = record.fields["source"]
        target = record.fields["target"]
        if self._vertex_map.exists(source):
            source_record = self._vertex_record(source)
            out = [eid for eid in source_record.fields.get("out", []) if eid != edge_id]
            self._vertex_store.update(self._vertex_map.resolve(source), {"out": out})
        if self._vertex_map.exists(target):
            target_record = self._vertex_record(target)
            incoming = [eid for eid in target_record.fields.get("in", []) if eid != edge_id]
            self._vertex_store.update(self._vertex_map.resolve(target), {"in": incoming})
        self._property_store.remove_owner(("e", edge_id))
        self._edge_label_clusters[label] = max(0, self._edge_label_clusters.get(label, 1) - 1)
        self._edge_store.free(self._edge_map.resolve(edge_id))
        self._edge_map.free(edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        record = self._edge_record(edge_id)
        return record.fields["source"], record.fields["target"]

    def edge_label(self, edge_id: Any) -> str:
        record = self._edge_record(edge_id)
        return record.fields["label"]

    # ------------------------------------------------------------------
    # Traversal: one pass over the in-record edge lists
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # One indirection hop plus the vertex record; attributes untouched.
        return self._vertex_record(vertex_id).fields.get("label")

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier straight from the per-vertex edge-id lists.

        Per vertex per pass: one resolved vertex record; per listed edge,
        one edge record for the label filter when a label is given; for
        neighbours, one more per emitted edge (the ``edge_endpoints`` read).
        """
        edge_record = self._edge_record
        for vertex_id in vertex_ids:
            for list_field, endpoint_field in _ADJACENCY[direction]:
                for edge_id in self._vertex_record(vertex_id).fields.get(list_field, []):
                    if label is not None and edge_record(edge_id).fields["label"] != label:
                        continue
                    if endpoints:
                        yield vertex_id, edge_record(edge_id).fields[endpoint_field]
                    else:
                        yield vertex_id, edge_id

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        # The edge-id lists live inside the vertex record, so degree checks
        # are list lengths: one record resolution per pass, no edge
        # touches, early exit between passes.
        if k <= 0:
            self._require(VERTEX, vertex_id)
            return True
        count = 0
        for list_field, _endpoint_field in _ADJACENCY[direction]:
            count += len(self._vertex_record(vertex_id).fields.get(list_field, ()))
            if count >= k:
                return True
        return False

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def _property_scan(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        ids, read_record, tag = self._kinds[kind]
        for element_id in ids.live_ids():
            read_record(element_id)
            if self._property_store.get_property((tag, element_id), key) == value:
                yield element_id

    def edges_by_label(self, label: str) -> Iterator[Any]:
        # Each label is a separate cluster, but edge ids are still resolved
        # through the shared indirection map, so the scan touches only edges
        # of the requested label.
        for edge_id in self._edge_map.live_ids():
            record = self._edge_record(edge_id)
            if record.fields["label"] == label:
                yield edge_id

    def distinct_edge_labels(self) -> set[str]:
        return {label for label, count in self._edge_label_clusters.items() if count > 0}

    def _index_scan(self, key: str) -> Iterator[tuple[Any, Any]]:
        for vertex_id in self._vertex_map.live_ids():
            yield vertex_id, self._property_store.get_property(("v", vertex_id), key)

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    def _vertex_record(self, vertex_id: Any):
        if not isinstance(vertex_id, int) or not self._vertex_map.exists(vertex_id):
            raise ElementNotFoundError("vertex", vertex_id)
        return self._vertex_store.read(self._vertex_map.resolve(vertex_id))

    def _edge_record(self, edge_id: Any):
        if not isinstance(edge_id, int) or not self._edge_map.exists(edge_id):
            raise ElementNotFoundError("edge", edge_id)
        return self._edge_store.read(self._edge_map.resolve(edge_id))

    def space_breakdown(self) -> dict[str, int]:
        # Attribute values are de-duplicated across the attribute store,
        # which is why this engine is compact on text-heavy datasets.
        distinct_values: set[str] = set()
        for owner in self._property_store.owners():
            for value in self._property_store.properties(owner).values():
                distinct_values.add(str(value))
        dedup_payload = sum(len(value) for value in distinct_values)
        property_blocks = len(self._property_store) * 24
        return {
            "vertexcluster": self._vertex_store.size_in_bytes,
            "edgeclusters": self._edge_store.size_in_bytes
            + len(self._edge_label_clusters) * _CLUSTER_OVERHEAD_BYTES,
            "rid-maps": self._vertex_map.size_in_bytes + self._edge_map.size_in_bytes,
            "attributes": property_blocks + dedup_payload,
            "indexes": self._index_bytes(),
            "wal": self.wal.size_in_bytes,
        }
