"""Hybrid engine over a wide-column store (the Titan-like architecture).

Architecture reproduced from the paper (Sections 3.2, 6.2, and 6.4):

* the graph is a collection of adjacency lists: one row per vertex, one
  column per vertex property and per incident edge;
* every edge traversal resolves the vertex row through a row-key index
  before it can slice the adjacency list, so point traversals carry a
  per-hop index cost;
* writes go through consistency checks and (unless the schema was declared
  up front) schema inference, which makes insertions slow — around an order
  of magnitude slower than the fastest engines in the paper;
* deletions only write tombstones, which is why the original system improved
  by almost an order of magnitude on delete operations;
* adjacency lists compress well (delta-encoded column names), giving the
  best space footprint on the Freebase-like samples;
* a graph-centric attribute index can be enabled, and the newer version adds
  modest per-operation improvements — modelled by
  :class:`ColumnarV1Engine`, which skips the redundant consistency re-read.

Edge identifiers are ``(source, label, sequence)`` tuples encoded into the
column name, matching the vertex-centric layout of the original system.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from repro import kernels
from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError
from repro.model.elements import VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.storage.columnar import ColumnFamilyStore

_PROPERTY_PREFIX = "p:"
_OUT_PREFIX = "eo:"
_IN_PREFIX = "ei:"
#: Per pass: the adjacency column prefix of the vertex row.
_PREFIXES = pass_table({Direction.OUT: _OUT_PREFIX, Direction.IN: _IN_PREFIX})


class ColumnarEngine(BaseEngine):
    """Graph store over vertex-row adjacency lists in a wide-column store."""

    name = "columnargraph"
    version = "0.5"
    kind = "hybrid"
    supports_vertex_index = True
    index_name = "graphindex"

    #: Whether writes re-read the row for consistency checks (v0.5 behaviour).
    consistency_checks = True

    info = EngineInfo(
        system="ColumnarGraph",
        version="0.5",
        kind="Hybrid (Columnar)",
        storage="Vertex-indexed adjacency list",
        edge_traversal="Row-key index",
        gremlin="v2.6",
        query_execution="Programming API, optimized",
        access="embedded",
        languages=("Python DSL",),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._rows = ColumnFamilyStore(
            "graphstore", metrics=self.metrics, consistency_checks=self.consistency_checks
        )
        self._vertex_counter = itertools.count(1)
        self._edge_counter = itertools.count(1)
        #: edge id -> (source, target, label, out column, in column)
        self._edge_directory: dict[str, tuple[int, int, str, str, str]] = {}
        for key in self.config.auto_index_properties:
            self.create_vertex_index(key)

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        vertex_id = next(self._vertex_counter)
        self._rows.create_row(vertex_id)
        if label is not None:
            self._rows.put(vertex_id, _PROPERTY_PREFIX + "_label", label)
        for key, value in properties.items():
            self._rows.put(vertex_id, _PROPERTY_PREFIX + key, value)
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._require(VERTEX, vertex_id)
        cells = self._rows.row_columns(vertex_id, prefix=_PROPERTY_PREFIX)
        label = cells.pop(_PROPERTY_PREFIX + "_label", None)
        properties = {name[len(_PROPERTY_PREFIX) :]: value for name, value in cells.items()}
        return Vertex(id=vertex_id, label=label, properties=properties)

    def _previous_values(self, vertex_id: Any) -> Callable[[str], Any]:
        return lambda key: self._rows.get(vertex_id, _PROPERTY_PREFIX + key)

    def _delete_vertex(self, vertex_id: Any) -> None:
        self._rows.delete_row(vertex_id)

    # ------------------------------------------------------------------
    # Edge CRUD: edges are columns of their endpoint rows
    # ------------------------------------------------------------------

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        sequence = next(self._edge_counter)
        edge_id = f"t:{sequence}"
        out_column = f"{_OUT_PREFIX}{label}:{sequence}"
        in_column = f"{_IN_PREFIX}{label}:{sequence}"
        payload = {"other": target_id, "label": label, "props": dict(properties), "id": edge_id}
        self._rows.put(source_id, out_column, payload)
        reverse = {"other": source_id, "label": label, "props": dict(properties), "id": edge_id}
        self._rows.put(target_id, in_column, reverse)
        self._edge_directory[edge_id] = (source_id, target_id, label, out_column, in_column)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        source, target, label, out_column, _in_column = self._edge_entry(edge_id)
        payload = self._rows.get(source, out_column) or {}
        return Edge(
            id=edge_id,
            label=label,
            source=source,
            target=target,
            properties=dict(payload.get("props", {})),
        )

    def _delete_edge(self, edge_id: Any) -> None:
        source, target, _label, out_column, in_column = self._edge_entry(edge_id)
        # Tombstone deletes: the cells are marked, not compacted away.
        if self._rows.has_row(source):
            self._rows.delete_cell(source, out_column)
        if self._rows.has_row(target):
            self._rows.delete_cell(target, in_column)
        del self._edge_directory[edge_id]

    # ------------------------------------------------------------------
    # Properties: vertex properties are cells of the vertex row; edge
    # properties live in both endpoint rows' adjacency payloads, so each
    # primitive keeps one branch per kind.
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        if kind is VERTEX:
            return isinstance(element_id, int) and self._rows.has_row(element_id)
        return element_id in self._edge_directory

    def _live(self, kind: ElementKind, element_id: Any) -> bool:
        # ``has_row`` books a row-key probe; the index's own membership does not.
        if kind is VERTEX:
            return isinstance(element_id, int) and element_id in self._rows.row_index
        return self._exists(kind, element_id)

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        if kind is VERTEX:
            yield from self._rows.row_keys()
            return
        # A full edge scan walks every vertex row and slices its out-columns.
        for _vertex_id, columns in self._rows.scan_rows():
            for name, payload in columns.items():
                if name.startswith(_OUT_PREFIX):
                    yield payload["id"]

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        if kind is VERTEX:
            self._require(VERTEX, element_id)
            previous = self._rows.get(element_id, _PROPERTY_PREFIX + key)
            self._rows.put(element_id, _PROPERTY_PREFIX + key, value)
            self._reindex(kind, element_id, key, previous, value)
        else:
            for row_key, column in self._edge_cells(element_id):
                payload = self._rows.get(row_key, column)
                if payload is not None:
                    payload = dict(payload)
                    payload["props"] = {**payload.get("props", {}), key: value}
                    self._rows.put(row_key, column, payload)

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        if kind is VERTEX:
            self._require(VERTEX, element_id)
            previous = self._rows.get(element_id, _PROPERTY_PREFIX + key)
            self._rows.delete_cell(element_id, _PROPERTY_PREFIX + key)
            self._reindex(kind, element_id, key, previous)
        else:
            for row_key, column in self._edge_cells(element_id):
                payload = self._rows.get(row_key, column)
                if payload is not None and key in payload.get("props", {}):
                    payload = dict(payload)
                    payload["props"] = dict(payload["props"])
                    del payload["props"][key]
                    self._rows.put(row_key, column, payload)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        if kind is VERTEX:
            self._require(VERTEX, element_id)
            return self._rows.get(element_id, _PROPERTY_PREFIX + key)
        source, _target, _label, out_column, _in_column = self._edge_entry(element_id)
        payload = self._rows.get(source, out_column) or {}
        return payload.get("props", {}).get(key)

    def _edge_cells(self, edge_id: Any) -> tuple[tuple[Any, str], tuple[Any, str]]:
        """The two ``(row key, column)`` cells holding an edge's payload."""
        source, target, _label, out_column, in_column = self._edge_entry(edge_id)
        return (source, out_column), (target, in_column)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        source, target, _label, _out_column, _in_column = self._edge_entry(edge_id)
        # The endpoints still require resolving the source row through the
        # row-key index, as a real adjacency-list layout would.
        self._rows.row_index.lookup(source)
        return source, target

    def edge_label(self, edge_id: Any) -> str:
        _source, _target, label, _out_column, _in_column = self._edge_entry(edge_id)
        return label

    # ------------------------------------------------------------------
    # Traversal: row-key index lookup + one adjacency-column slice per pass
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # One cell read instead of slicing the whole property prefix.
        self._require(VERTEX, vertex_id)
        return self._rows.get(vertex_id, _PROPERTY_PREFIX + "_label")

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier by slicing each vertex row's adjacency columns.

        The edge payload stores the edge id and the far endpoint
        (``other``), so the whole expansion happens inside the sliced row.
        One existence probe and one row slice per vertex per pass, plus —
        for neighbours — the row-key index probe per edge that
        ``edge_endpoints`` pays, booked as an inline counter with each
        emission.
        """
        prefixes = _PREFIXES[direction]
        if label is not None:
            prefixes = tuple(f"{prefix}{label}:" for prefix in prefixes)
        metrics = self.metrics
        probe = 1 if endpoints else 0
        field = "other" if endpoints else "id"
        vectorized = kernels.vectorized_enabled()
        for vertex_id in vertex_ids:
            for prefix in prefixes:
                # The modelled system re-checks row existence per pass.
                self._require(VERTEX, vertex_id)
                if vectorized:
                    # Parse-once kernel: the slice comes back as flat
                    # arrays cached per row version.
                    ids, others = self._rows.adjacency_slice(vertex_id, prefix)
                    results = others if endpoints else ids
                    if not isinstance(results, tuple):
                        results = results.tolist()
                else:
                    payloads = self._rows.row_columns(vertex_id, prefix=prefix).values()
                    results = [payload[field] for payload in payloads]
                for result in results:
                    metrics.index_probes += probe
                    yield vertex_id, result

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        # Adjacency columns are already materialised by the row slice, so
        # the threshold check is a length comparison per pass.
        self._require(VERTEX, vertex_id)
        if k <= 0:
            return True
        count = 0
        for prefix in _PREFIXES[direction]:
            count += len(self._rows.row_columns(vertex_id, prefix=prefix))
            if count >= k:
                return True
        return False

    # ------------------------------------------------------------------
    # Search primitives
    # ------------------------------------------------------------------

    def _property_scan(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        if kind is VERTEX:
            for vertex_id, found in self._index_scan(key):
                if found == value:
                    yield vertex_id
            return
        for _vertex_id, columns in self._rows.scan_rows():
            for name, payload in columns.items():
                if name.startswith(_OUT_PREFIX) and payload.get("props", {}).get(key) == value:
                    yield payload["id"]

    def edges_by_label(self, label: str) -> Iterator[Any]:
        prefix = f"{_OUT_PREFIX}{label}:"
        for vertex_id in self._rows.row_keys():
            columns = self._rows.row_columns(vertex_id, prefix=prefix)
            for payload in columns.values():
                yield payload["id"]

    def distinct_edge_labels(self) -> set[str]:
        labels: set[str] = set()
        for _vertex_id, columns in self._rows.scan_rows():
            for name, payload in columns.items():
                if name.startswith(_OUT_PREFIX):
                    labels.add(payload["label"])
        return labels

    def _index_scan(self, key: str) -> Iterator[tuple[Any, Any]]:
        column = _PROPERTY_PREFIX + key
        for vertex_id, columns in self._rows.scan_rows():
            yield vertex_id, columns.get(column)

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    def _edge_entry(self, edge_id: Any) -> tuple[int, int, str, str, str]:
        try:
            return self._edge_directory[edge_id]
        except KeyError:
            raise ElementNotFoundError("edge", edge_id) from None

    def space_breakdown(self) -> dict[str, int]:
        # Adjacency lists are delta-encoded: within a row, consecutive edge
        # columns share their label prefix and store only small id deltas, so
        # an edge costs a handful of bytes instead of a full record.  This is
        # what makes the columnar engine the most compact on the dense
        # Freebase-like samples (paper, Section 6.2).
        adjacency_bytes = 0
        property_bytes = 0
        for _vertex_id, columns in self._rows.scan_rows():
            adjacency_bytes += 16  # row header and key
            for name, payload in columns.items():
                if name.startswith(_PROPERTY_PREFIX):
                    property_bytes += 8 + len(str(payload))
                else:
                    adjacency_bytes += 6  # delta-encoded neighbour id + label ref
                    props = payload.get("props", {}) if isinstance(payload, dict) else {}
                    for key, value in props.items():
                        property_bytes += 4 + len(str(key)) + len(str(value))
        return {
            "adjacency-rows": adjacency_bytes,
            "properties": property_bytes,
            "row-key-index": self._rows.row_index.size_in_bytes,
            "edge-directory": len(self._edge_directory) * 24,
            "graph-indexes": self._index_bytes(),
            "wal": self.wal.size_in_bytes,
        }


class ColumnarV1Engine(ColumnarEngine):
    """The production-ready v1.0 variant: no redundant consistency re-read."""

    name = "columnargraph-v1"
    version = "1.0"
    consistency_checks = False

    info = EngineInfo(
        system="ColumnarGraph",
        version="1.0",
        kind="Hybrid (Columnar)",
        storage="Vertex-indexed adjacency list",
        edge_traversal="Row-key index",
        gremlin="v3.0",
        query_execution="Programming API, optimized",
        access="embedded",
        languages=("Python DSL",),
    )
