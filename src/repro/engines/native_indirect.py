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

from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import Direction, Edge, Vertex, pass_table
from repro.storage.hash_index import HashIndex
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
        self._properties = PropertyStore("attributes", metrics=self.metrics)
        self._edge_label_clusters: dict[str, int] = {}
        self._vertex_indexes: dict[str, HashIndex] = {}
        max_labels = self.config.extra.get("max_edge_labels")
        if max_labels is not None:
            self.schema.max_edge_labels = int(max_labels)  # type: ignore[arg-type]
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        self.schema.observe_vertex(label, set(properties))
        physical = self._vertex_store.allocate(
            {"label": label, "out": [], "in": []}
        )
        vertex_id = self._vertex_map.allocate(physical)
        if properties:
            self._properties.set_properties(("v", vertex_id), properties)
        for key, index in self._vertex_indexes.items():
            if key in properties:
                index.insert(properties[key], vertex_id)
        self._log("add_vertex", id=vertex_id)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        record = self._vertex_record(vertex_id)
        return Vertex(
            id=vertex_id,
            label=record.fields.get("label"),
            properties=self._properties.properties(("v", vertex_id)),
        )

    def vertex_exists(self, vertex_id: Any) -> bool:
        return isinstance(vertex_id, int) and self._vertex_map.exists(vertex_id)

    def vertex_ids(self) -> Iterator[Any]:
        yield from self._vertex_map.live_ids()

    def remove_vertex(self, vertex_id: Any) -> None:
        record = self._vertex_record(vertex_id)
        incident = list(record.fields.get("out", [])) + list(record.fields.get("in", []))
        for edge_id in incident:
            if self._edge_map.exists(edge_id):
                self.remove_edge(edge_id)
        for key, index in self._vertex_indexes.items():
            value = self._properties.get_property(("v", vertex_id), key)
            if value is not None:
                index.delete(value, vertex_id)
        self._properties.remove_owner(("v", vertex_id))
        physical = self._vertex_map.resolve(vertex_id)
        self._vertex_store.free(physical)
        self._vertex_map.free(vertex_id)
        self._log("remove_vertex", id=vertex_id)

    def set_vertex_property(self, vertex_id: Any, key: str, value: Any) -> None:
        self._vertex_record(vertex_id)
        previous = self._properties.get_property(("v", vertex_id), key)
        self._properties.set_property(("v", vertex_id), key, value)
        if key in self._vertex_indexes:
            if previous is not None:
                self._vertex_indexes[key].delete(previous, vertex_id)
            self._vertex_indexes[key].insert(value, vertex_id)
        self._log("set_vertex_property", id=vertex_id, key=key)

    def remove_vertex_property(self, vertex_id: Any, key: str) -> None:
        self._vertex_record(vertex_id)
        previous = self._properties.get_property(("v", vertex_id), key)
        self._properties.remove_property(("v", vertex_id), key)
        if key in self._vertex_indexes and previous is not None:
            self._vertex_indexes[key].delete(previous, vertex_id)
        self._log("remove_vertex_property", id=vertex_id, key=key)

    def vertex_property(self, vertex_id: Any, key: str) -> Any:
        self._vertex_record(vertex_id)
        return self._properties.get_property(("v", vertex_id), key)

    def vertex_properties(self, vertex_id: Any) -> dict[str, Any]:
        self._vertex_record(vertex_id)
        return self._properties.properties(("v", vertex_id))

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
        source_record = self._vertex_record(source_id)
        target_record = self._vertex_record(target_id)
        self.schema.observe_edge(label, set(properties))
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
            self._properties.set_properties(("e", edge_id), properties)
        self._log("add_edge", id=edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        record = self._edge_record(edge_id)
        return Edge(
            id=edge_id,
            label=record.fields["label"],
            source=record.fields["source"],
            target=record.fields["target"],
            properties=self._properties.properties(("e", edge_id)),
        )

    def edge_exists(self, edge_id: Any) -> bool:
        return isinstance(edge_id, int) and self._edge_map.exists(edge_id)

    def edge_ids(self) -> Iterator[Any]:
        yield from self._edge_map.live_ids()

    def remove_edge(self, edge_id: Any) -> None:
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
        self._properties.remove_owner(("e", edge_id))
        self._edge_label_clusters[label] = max(0, self._edge_label_clusters.get(label, 1) - 1)
        self._edge_store.free(self._edge_map.resolve(edge_id))
        self._edge_map.free(edge_id)
        self._log("remove_edge", id=edge_id)

    def set_edge_property(self, edge_id: Any, key: str, value: Any) -> None:
        self._edge_record(edge_id)
        self._properties.set_property(("e", edge_id), key, value)
        self._log("set_edge_property", id=edge_id, key=key)

    def remove_edge_property(self, edge_id: Any, key: str) -> None:
        self._edge_record(edge_id)
        self._properties.remove_property(("e", edge_id), key)
        self._log("remove_edge_property", id=edge_id, key=key)

    def edge_property(self, edge_id: Any, key: str) -> Any:
        self._edge_record(edge_id)
        return self._properties.get_property(("e", edge_id), key)

    def edge_properties(self, edge_id: Any) -> dict[str, Any]:
        self._edge_record(edge_id)
        return self._properties.properties(("e", edge_id))

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        record = self._edge_record(edge_id)
        return record.fields["source"], record.fields["target"]

    def edge_label(self, edge_id: Any) -> str:
        record = self._edge_record(edge_id)
        return record.fields["label"]

    # ------------------------------------------------------------------
    # Traversal primitives
    # ------------------------------------------------------------------

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._adjacency(vertex_id, "out", label)

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._adjacency(vertex_id, "in", label)

    def _adjacency(self, vertex_id: Any, field: str, label: str | None) -> Iterator[Any]:
        record = self._vertex_record(vertex_id)
        for edge_id in record.fields.get(field, []):
            if label is None:
                yield edge_id
                continue
            edge_record = self._edge_record(edge_id)
            if edge_record.fields["label"] == label:
                yield edge_id

    # ------------------------------------------------------------------
    # Bulk structural primitives: one pass over the in-record edge lists
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

        Charges match the per-id path: one resolved vertex record per vertex
        per pass, one edge record per listed edge for the label filter when
        a label is given, and — for neighbours — one more per emitted edge
        (the ``edge_endpoints`` read).
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
            self._require_vertex(vertex_id)
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

    def vertices_by_property(self, key: str, value: Any) -> Iterator[Any]:
        if key in self._vertex_indexes:
            yield from self._vertex_indexes[key].lookup(value)
            return
        for vertex_id in self._vertex_map.live_ids():
            self._vertex_record(vertex_id)
            if self._properties.get_property(("v", vertex_id), key) == value:
                yield vertex_id

    def edges_by_property(self, key: str, value: Any) -> Iterator[Any]:
        for edge_id in self._edge_map.live_ids():
            self._edge_record(edge_id)
            if self._properties.get_property(("e", edge_id), key) == value:
                yield edge_id

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

    # ------------------------------------------------------------------
    # Attribute indexes
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        if key in self._vertex_indexes:
            return
        index = HashIndex(f"sbtree-{key}", metrics=self.metrics)
        for vertex_id in self._vertex_map.live_ids():
            value = self._properties.get_property(("v", vertex_id), key)
            if value is not None:
                index.insert(value, vertex_id)
        self._vertex_indexes[key] = index
        self._indexed_vertex_properties.add(key)

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
        for owner in self._properties.owners():
            for value in self._properties.properties(owner).values():
                distinct_values.add(str(value))
        dedup_payload = sum(len(value) for value in distinct_values)
        property_blocks = len(self._properties) * 24
        index_bytes = sum(index.size_in_bytes for index in self._vertex_indexes.values())
        return {
            "vertexcluster": self._vertex_store.size_in_bytes,
            "edgeclusters": self._edge_store.size_in_bytes
            + len(self._edge_label_clusters) * _CLUSTER_OVERHEAD_BYTES,
            "rid-maps": self._vertex_map.size_in_bytes + self._edge_map.size_in_bytes,
            "attributes": property_blocks + dedup_payload,
            "indexes": index_bytes,
            "wal": self.wal.size_in_bytes,
        }
