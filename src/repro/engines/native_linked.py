"""Native engine with fixed-size linked records (the Neo4j-like architecture).

Architecture reproduced from the paper (Section 3.2):

* one fixed-size record store for nodes, one for relationships, one file for
  labels/types, and an off-loaded property store for attributes;
* node and relationship ids are direct offsets, so a record access is O(1);
* each node record points to the first relationship of a per-node linked
  chain; the remaining relationships are found by following ``next`` pointers
  stored inside the relationship records, so visiting a node's neighbourhood
  costs O(degree) and never depends on graph size;
* traversals read only structural records — property blocks are touched only
  when a query actually asks for attribute values.

Two versions are modelled, as in the paper:

* :class:`NativeLinkedEngine` (v1.9-like) — the plain architecture above;
* :class:`NativeLinkedV3Engine` (v3.0-like) — adds a wrapper layer around
  every API call (the TinkerPop licence-compatibility wrapper the paper
  blames for slower CUD and id lookups) and splits relationship chains by
  label and direction, which speeds label-filtered traversals but slows
  unfiltered ones that must now merge several chains.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import GraphDatabase, check_property_keys
from repro.storage.property_store import PropertyStore
from repro.storage.record_store import RecordStore

_NO_POINTER = -1
#: Per pass: (chain head field, next-pointer field, far endpoint field).
_CHAINS = pass_table(
    {
        Direction.OUT: ("first_out", "next_out", "target"),
        Direction.IN: ("first_in", "next_in", "source"),
    }
)


class NativeLinkedEngine(BaseEngine):
    """Graph store over fixed-size node/relationship records with direct pointers."""

    name = "nativelinked"
    version = "1.9"
    kind = "native"
    supports_vertex_index = True

    info = EngineInfo(
        system="NativeLinked",
        version="1.9",
        kind="Native",
        storage="Linked fixed-size records",
        edge_traversal="Direct pointer",
        gremlin="v2.6",
        query_execution="Programming API, non-optimized",
        access="embedded",
        languages=("Python DSL",),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._node_store = RecordStore("nodestore", record_size=15, metrics=self.metrics)
        self._rel_store = RecordStore("relationshipstore", record_size=34, metrics=self.metrics)
        self._property_store = PropertyStore("propertystore", metrics=self.metrics)
        #: per kind: (record store, property-chain owner tag)
        self._stores = {VERTEX: (self._node_store, "v"), EDGE: (self._rel_store, "e")}
        self._labels: dict[str, int] = {}
        self._label_names: dict[int, str] = {}
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._labels:
            label_id = len(self._labels)
            self._labels[label] = label_id
            self._label_names[label_id] = label
            self.metrics.charge_record_write(1)
        return self._labels[label]

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self.schema.observe_vertex(label, set(properties))
        label_id = self._label_id(label) if label is not None else _NO_POINTER
        vertex_id = self._node_store.allocate(
            {"first_out": _NO_POINTER, "first_in": _NO_POINTER, "label": label_id}
        )
        if properties:
            self._property_store.set_properties(("v", vertex_id), properties)
        self._index_insert(vertex_id, properties)
        self._log("add_vertex", id=vertex_id)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        record = self._node_store.read(vertex_id)
        label_id = record.fields.get("label", _NO_POINTER)
        label = self._label_names.get(label_id) if label_id != _NO_POINTER else None
        return Vertex(
            id=vertex_id,
            label=label,
            properties=self._property_store.properties(("v", vertex_id)),
        )

    def remove_vertex(self, vertex_id: Any) -> None:
        # Removing a node implies removing its properties and incident edges.
        for edge_id in list(self.edges_for(vertex_id, Direction.BOTH)):
            if self._rel_store.exists(edge_id):
                self.remove_edge(edge_id)
        owner = ("v", vertex_id)
        self._index_delete(vertex_id, lambda key: self._property_store.get_property(owner, key))
        self._property_store.remove_owner(owner)
        record = self._node_store.read(vertex_id)
        del record  # the read charges the record access
        self._node_store.free(vertex_id)
        self._log("remove_vertex", id=vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds
    # ------------------------------------------------------------------

    def _owner(self, kind: ElementKind, element_id: Any) -> tuple[str, Any]:
        """The property-chain owner of a live element; raises if absent."""
        store, tag = self._stores[kind]
        if not store.exists(element_id):
            raise ElementNotFoundError(kind.name, element_id)
        return tag, element_id

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return isinstance(element_id, int) and self._stores[kind][0].exists(element_id)

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        yield from self._stores[kind][0].ids()

    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        owner = self._owner(kind, element_id)
        # A vertex write reads the old value whether or not ``key`` is indexed.
        previous = self._property_store.get_property(owner, key) if kind is VERTEX else None
        self._property_store.set_property(owner, key, value)
        self._reindex(kind, element_id, key, previous, value)
        self._log(kind.set_op, id=element_id, key=key)

    def _remove_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        owner = self._owner(kind, element_id)
        previous = self._property_store.get_property(owner, key) if kind is VERTEX else None
        self._property_store.remove_property(owner, key)
        self._reindex(kind, element_id, key, previous)
        self._log(kind.remove_op, id=element_id, key=key)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        return self._property_store.get_property(self._owner(kind, element_id), key)

    def _properties(self, kind: ElementKind, element_id: Any) -> dict[str, Any]:
        return self._property_store.properties(self._owner(kind, element_id))

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
        check_property_keys(properties)
        if not self._node_store.exists(source_id):
            raise ElementNotFoundError("vertex", source_id)
        if not self._node_store.exists(target_id):
            raise ElementNotFoundError("vertex", target_id)
        self.schema.observe_edge(label, set(properties))
        label_id = self._label_id(label)
        source_record = self._node_store.read(source_id)
        target_record = self._node_store.read(target_id)
        edge_id = self._rel_store.allocate(
            {
                "source": source_id,
                "target": target_id,
                "label": label_id,
                "next_out": source_record.fields.get("first_out", _NO_POINTER),
                "next_in": target_record.fields.get("first_in", _NO_POINTER),
            }
        )
        # Push the new relationship at the head of both chains.
        self._node_store.update(source_id, {"first_out": edge_id})
        self._node_store.update(target_id, {"first_in": edge_id})
        if properties:
            self._property_store.set_properties(("e", edge_id), properties)
        self._log("add_edge", id=edge_id)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        record = self._rel_store.read(edge_id)
        return Edge(
            id=edge_id,
            label=self._label_names[record.fields["label"]],
            source=record.fields["source"],
            target=record.fields["target"],
            properties=self._property_store.properties(("e", edge_id)),
        )

    def remove_edge(self, edge_id: Any) -> None:
        record = self._rel_store.read(edge_id)
        source = record.fields["source"]
        target = record.fields["target"]
        self._unlink(source, edge_id, "first_out", "next_out")
        self._unlink(target, edge_id, "first_in", "next_in")
        self._property_store.remove_owner(("e", edge_id))
        self._rel_store.free(edge_id)
        self._log("remove_edge", id=edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        record = self._rel_store.read(edge_id)
        return record.fields["source"], record.fields["target"]

    def edge_label(self, edge_id: Any) -> str:
        record = self._rel_store.read(edge_id)
        return self._label_names[record.fields["label"]]

    # ------------------------------------------------------------------
    # Traversal primitives: follow the per-node relationship chains
    # ------------------------------------------------------------------

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._chain(vertex_id, "first_out", "next_out", label)

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._chain(vertex_id, "first_in", "next_in", label)

    def _chain(
        self, vertex_id: Any, head_field: str, next_field: str, label: str | None
    ) -> Iterator[Any]:
        node = self._node_store.read(vertex_id)
        label_id = self._labels.get(label) if label is not None else None
        if label is not None and label_id is None:
            return
        current = node.fields.get(head_field, _NO_POINTER)
        while current != _NO_POINTER:
            record = self._rel_store.read(current)
            if label_id is None or record.fields["label"] == label_id:
                yield current
            current = record.fields.get(next_field, _NO_POINTER)

    # ------------------------------------------------------------------
    # Bulk structural primitives: one flat pass over the record chains
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # Structural read: one fixed-size node record, no property blocks.
        record = self._node_store.read(vertex_id)
        label_id = record.fields.get("label", _NO_POINTER)
        return self._label_names.get(label_id) if label_id != _NO_POINTER else None

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a whole frontier's relationship chains once.

        Charges are identical to the per-id path: one node-record read per
        vertex per pass, one relationship-record read per chain element,
        and — for neighbours — one more per matching edge (the endpoint
        fetch the naive path performs through ``edge_endpoints``).  Only
        the per-hop generator chain is gone.
        """
        node_read = self._node_store.read
        rel_slots = self._rel_store.bulk_read_view()
        rel_size = self._rel_store.record_size
        metrics = self.metrics
        passes = _CHAINS[direction]
        label_id = self._labels.get(label) if label is not None else None
        if label is not None and label_id is None:
            # Unknown label: the per-id path still reads each node record
            # before bailing out (_chain), so charge the same.
            for vertex_id in vertex_ids:
                for _pass in passes:
                    node_read(vertex_id)
            return
        for vertex_id in vertex_ids:
            for head_field, next_field, endpoint_field in passes:
                current = node_read(vertex_id).fields.get(head_field, _NO_POINTER)
                while current != _NO_POINTER:
                    # Chain pointers are internally consistent: read the slot
                    # directly, charging the identical record read.
                    fields = rel_slots[current].fields
                    metrics.records_read += 1
                    metrics.bytes_read += rel_size
                    if label_id is None or fields["label"] == label_id:
                        if endpoints:
                            metrics.records_read += 1
                            metrics.bytes_read += rel_size
                            yield vertex_id, fields[endpoint_field]
                        else:
                            yield vertex_id, current
                    current = fields.get(next_field, _NO_POINTER)

    def _unlink(self, vertex_id: Any, edge_id: Any, head_field: str, next_field: str) -> None:
        """Remove ``edge_id`` from one of ``vertex_id``'s relationship chains."""
        node = self._node_store.read(vertex_id)
        current = node.fields.get(head_field, _NO_POINTER)
        previous = _NO_POINTER
        while current != _NO_POINTER:
            record = self._rel_store.read(current)
            following = record.fields.get(next_field, _NO_POINTER)
            if current == edge_id:
                if previous == _NO_POINTER:
                    self._node_store.update(vertex_id, {head_field: following})
                else:
                    self._rel_store.update(previous, {next_field: following})
                return
            previous = current
            current = following

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def _property_scan(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        # Scan the record store and probe each element's property chain.
        store, tag = self._stores[kind]
        for record in store.scan():
            if self._property_store.get_property((tag, record.record_id), key) == value:
                yield record.record_id

    def edges_by_label(self, label: str) -> Iterator[Any]:
        label_id = self._labels.get(label)
        if label_id is None:
            return
        for record in self._rel_store.scan():
            if record.fields["label"] == label_id:
                yield record.record_id

    def distinct_edge_labels(self) -> set[str]:
        # The structural scan reads only fixed-size relationship records.
        return {
            self._label_names[record.fields["label"]] for record in self._rel_store.scan()
        }

    def _index_scan(self, key: str) -> Iterator[tuple[Any, Any]]:
        for record in self._node_store.scan():
            yield record.record_id, self._property_store.get_property(("v", record.record_id), key)

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def space_breakdown(self) -> dict[str, int]:
        return {
            "nodestore": self._node_store.size_in_bytes,
            "relationshipstore": self._rel_store.size_in_bytes,
            "propertystore": self._property_store.size_in_bytes,
            "labelstore": len(self._labels) * 32,
            "indexes": self._index_bytes(),
            "wal": self.wal.size_in_bytes,
        }


class NativeLinkedV3Engine(NativeLinkedEngine):
    """The v3.0-like variant: wrapper overhead + per-label relationship chains.

    The newer version wraps every call in an adapter layer (modelling the
    TinkerPop licence wrapper that the paper identifies as the cause of the
    slower CUD and id-lookup behaviour of Neo4j 3.0) and keeps, alongside the
    plain chains, per-(label, direction) chain heads so that label-filtered
    traversals touch only matching relationships while unfiltered traversals
    pay an extra merge step across labels.
    """

    name = "nativelinked-v3"
    version = "3.0"

    info = EngineInfo(
        system="NativeLinked",
        version="3.0",
        kind="Native",
        storage="Linked fixed-size records (chains split by type)",
        edge_traversal="Direct pointer",
        gremlin="v3.2",
        query_execution="Programming API, non-optimized",
        access="embedded",
        languages=("Python DSL",),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        #: per-vertex adjacency chains split by (label, direction), maintained
        #: in addition to the base chains:
        #: {vertex_id: {(label_id, direction): [edge ids]}}
        self._typed_chains: dict[Any, dict[tuple[int, str], list[Any]]] = {}

    # -- wrapper overhead ------------------------------------------------

    def _wrap(self, payload: Any) -> Any:
        """Model the adapter layer: copy the payload into a wrapper record."""
        self.metrics.charge_index_probe()
        wrapper = {"wrapped": payload, "adapter": self.name, "checks": []}
        for check in ("licence", "type", "transaction"):
            wrapper["checks"].append((check, True))
        return wrapper["wrapped"]

    # -- CRUD with wrapper cost -------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        return self._wrap(super().add_vertex(properties, label))

    def add_edge(
        self,
        source_id: Any,
        target_id: Any,
        label: str,
        properties: dict[str, Any] | None = None,
    ) -> Any:
        edge_id = super().add_edge(source_id, target_id, label, properties)
        label_id = self._labels[label]
        source_chains = self._typed_chains.setdefault(source_id, {})
        source_chains.setdefault((label_id, "out"), []).append(edge_id)
        target_chains = self._typed_chains.setdefault(target_id, {})
        target_chains.setdefault((label_id, "in"), []).append(edge_id)
        return self._wrap(edge_id)

    def vertex(self, vertex_id: Any) -> Vertex:
        self._wrap(vertex_id)
        return super().vertex(vertex_id)

    def edge(self, edge_id: Any) -> Edge:
        self._wrap(edge_id)
        return super().edge(edge_id)

    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        self._wrap(element_id)
        super()._set_property(kind, element_id, key, value)

    def remove_vertex(self, vertex_id: Any) -> None:
        self._wrap(vertex_id)
        super().remove_vertex(vertex_id)
        self._typed_chains.pop(vertex_id, None)

    def remove_edge(self, edge_id: Any) -> None:
        self._wrap(edge_id)
        record = self._rel_store.read(edge_id)
        label_id = record.fields["label"]
        source = record.fields["source"]
        target = record.fields["target"]
        super().remove_edge(edge_id)
        for vertex_id, direction in ((source, "out"), (target, "in")):
            chain = self._typed_chains.get(vertex_id, {}).get((label_id, direction))
            if chain and edge_id in chain:
                chain.remove(edge_id)

    # -- traversals: typed chains help filtered, hurt unfiltered -----------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # The adapter layer intercepts every call (the paper's v3.0
        # regression), so even the structural label read pays the wrapper.
        self._wrap(vertex_id)
        return super().vertex_label(vertex_id)

    # No flat-chain shortcut here: the wrapper layer sits between the API
    # and the typed chains, so the bulk walk degenerates to the per-id path
    # — exactly the per-call overhead the paper measured.
    _bulk_incident = GraphDatabase._bulk_incident

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._typed_edges(vertex_id, label, "out", "first_out", "next_out")

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        yield from self._typed_edges(vertex_id, label, "in", "first_in", "next_in")

    def _typed_edges(
        self,
        vertex_id: Any,
        label: str | None,
        direction: str,
        head_field: str,
        next_field: str,
    ) -> Iterator[Any]:
        self._wrap(vertex_id)
        vertex_chains = self._typed_chains.get(vertex_id, {})
        if label is not None:
            # The typed chains would answer for a missing vertex; the
            # unfiltered path below raises on its node-record read.
            if not self._node_store.exists(vertex_id):
                raise ElementNotFoundError("vertex", vertex_id)
            label_id = self._labels.get(label)
            if label_id is None:
                return
            self.metrics.charge_index_probe()
            for edge_id in vertex_chains.get((label_id, direction), []):
                self.metrics.charge_record_read(1)
                yield edge_id
            return
        # Unfiltered traversal: merge the per-label chains (extra bookkeeping
        # compared to the single chain of the older version).
        self._node_store.read(vertex_id)
        merged: list[Any] = []
        for (chain_label_id, chain_direction), chain in vertex_chains.items():
            del chain_label_id
            self.metrics.charge_index_probe()
            if chain_direction == direction:
                merged.extend(chain)
        if merged:
            for edge_id in merged:
                self.metrics.charge_record_read(1)
                yield edge_id
            return
        # Fall back to the base chains for graphs loaded before any typed
        # chain existed (e.g. vertices with no edges added through this class).
        yield from self._chain(vertex_id, head_field, next_field, label)

    def space_breakdown(self) -> dict[str, int]:
        breakdown = super().space_breakdown()
        typed = sum(
            len(chain)
            for vertex_chains in self._typed_chains.values()
            for chain in vertex_chains.values()
        )
        breakdown["typed-chains"] = typed * 16
        return breakdown
