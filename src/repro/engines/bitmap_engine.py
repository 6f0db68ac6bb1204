"""Native engine built on compressed bitmaps (the Sparksee/DEX-like architecture).

Architecture reproduced from the paper (Section 3.2):

* one structure for objects (nodes and edges share a sequential id space),
  two structures describing which nodes and edges are linked to each other,
  and one structure per attribute name;
* every structure is a map from keys to values plus one bitmap per distinct
  value, so label filtering, counting, and id retrieval are bitwise
  operations;
* edge traversal has no constant-time guarantee: finding the edges of a node
  means consulting the relationship bitmaps;
* the paper observed Sparksee exhausting RAM on the whole-graph degree
  filters (Q28-Q31): the simulated engine reproduces this by charging every
  materialised intermediate bitmap against the engine's memory budget.

CUD operations are very fast — values are appended to maps and bits are set —
which matches Sparksee's leading position on insert/update/delete.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro import kernels
from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.storage.bitmap import Bitmap, BitmapIndex

#: Minimum population count before a numpy decode pays for itself: the
#: round trip has a fixed per-call cost while the scalar bit-isolation
#: loop is O(set bits), so near-empty bitmaps always stay scalar.
_VECTOR_MIN_BITS = 32
#: Maximum decode width per set bit.  ``unpackbits`` scans the bitmap's
#: full byte width, so a sparse-but-wide bitmap (high object ids, few
#: edges) would pay a full-width decode for a handful of hits; cap the
#: width-per-bit ratio to keep the vectorized branch on dense rows only.
_VECTOR_MAX_BYTES_PER_BIT = 8


def _vector_worthwhile(bitmap: Bitmap) -> bool:
    """Profitability gate for the vectorized bitmap decode.

    Purely a performance decision — the vectorized and scalar branches
    book byte-identical charges in the same order, so falling back per
    bitmap is invisible to the cost model.
    """
    cardinality = len(bitmap)
    return (
        cardinality >= _VECTOR_MIN_BITS
        and bitmap.size_in_bytes <= cardinality * _VECTOR_MAX_BYTES_PER_BIT
    )


class BitmapEngine(BaseEngine):
    """Graph store over value->bitmap structures with a shared object id space."""

    name = "bitmapgraph"
    version = "5.1"
    kind = "native"
    supports_vertex_index = True
    #: Whole-stream counts are population counts over the object bitmaps
    #: (the system's signature strength), so the optimizer may push
    #: ``V().count()`` / ``E().count()`` down to them.
    conflates_counts = True

    info = EngineInfo(
        system="BitmapGraph",
        version="5.1",
        kind="Native",
        storage="Indexed bitmaps",
        edge_traversal="B+Tree/Bitmap",
        gremlin="v2.6",
        query_execution="Programming API, non-optimized",
        access="embedded",
        languages=("Python DSL",),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._next_oid = 0
        #: object kind ("v" or "e") per object id
        self._kinds = BitmapIndex("kinds", metrics=self.metrics)
        #: label per object id (vertex labels and edge labels share the structure)
        self._labels = BitmapIndex("labels", metrics=self.metrics)
        #: one BitmapIndex per attribute name, shared by vertices and edges
        self._attributes: dict[str, BitmapIndex] = {}
        #: relationship structures: edge id -> endpoints, and per-vertex
        #: incidence bitmaps for each direction.
        self._edge_endpoints: dict[int, tuple[int, int]] = {}
        self._out_incidence: dict[int, Bitmap] = {}
        self._in_incidence: dict[int, Bitmap] = {}
        #: per pass: (incidence bitmaps, far endpoint's index in an endpoint pair)
        self._incidence = pass_table(
            {Direction.OUT: (self._out_incidence, 1), Direction.IN: (self._in_incidence, 0)}
        )
        self._vertex_bitmap = Bitmap()
        self._edge_bitmap = Bitmap()
        #: per kind: the bitmap of its live objects
        self._objects = {VERTEX: self._vertex_bitmap, EDGE: self._edge_bitmap}
        #: attribute names that the user asked to index; all attributes are
        #: bitmap-indexed internally, so this only tracks intent (the paper
        #: notes Sparksee cannot exploit extra attribute indexes).
        self._declared_indexes: set[str] = set()
        #: dense numpy mirrors of ``_edge_endpoints`` (source column, target
        #: column, indexed by edge oid) for the vectorized kernels; rebuilt
        #: lazily after structural mutations.
        self._endpoint_arrays: tuple[Any, Any] | None = None
        self._endpoint_arrays_stale = True

    # ------------------------------------------------------------------
    # Object id management
    # ------------------------------------------------------------------

    def _new_oid(self, kind: str) -> int:
        oid = self._next_oid
        self._next_oid += 1
        self._kinds.set_value(oid, kind)
        return oid

    def _attribute_index(self, key: str) -> BitmapIndex:
        if key not in self._attributes:
            self._attributes[key] = BitmapIndex(f"attr-{key}", metrics=self.metrics)
        return self._attributes[key]

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        vertex_id = self._new_oid("v")
        self._vertex_bitmap.set(vertex_id)
        if label is not None:
            self._labels.set_value(vertex_id, label)
        for key, value in properties.items():
            self._attribute_index(key).set_value(vertex_id, value)
        self._out_incidence[vertex_id] = Bitmap()
        self._in_incidence[vertex_id] = Bitmap()
        return vertex_id

    def vertex(self, vertex_id: Any) -> Vertex:
        self._require(VERTEX, vertex_id)
        return Vertex(
            id=vertex_id,
            label=self._labels.value_of(vertex_id),
            properties=self._collect_properties(vertex_id),
        )

    def _delete_vertex(self, vertex_id: Any) -> None:
        for index in self._attributes.values():
            index.remove_object(vertex_id)
        self._labels.remove_object(vertex_id)
        self._kinds.remove_object(vertex_id)
        self._vertex_bitmap.clear(vertex_id)
        self._out_incidence.pop(vertex_id, None)
        self._in_incidence.pop(vertex_id, None)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds (vertices and
    # edges share the object id space and the attribute structures)
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return isinstance(element_id, int) and self._objects[kind].get(element_id)

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        self.metrics.charge_index_probe()
        yield from self._objects[kind]

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        self._require(kind, element_id)
        self._attribute_index(key).set_value(element_id, value)

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        self._require(kind, element_id)
        if key in self._attributes:
            self._attributes[key].remove_object(element_id)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        self._require(kind, element_id)
        if key not in self._attributes:
            return None
        return self._attributes[key].value_of(element_id)

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        if key not in self._attributes:
            return
        matches = self._attributes[key].objects_with_value(value) & self._objects[kind]
        self.metrics.allocate(matches.size_in_bytes)
        self.metrics.release(matches.size_in_bytes)
        yield from matches

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        edge_id = self._new_oid("e")
        self._edge_bitmap.set(edge_id)
        self._labels.set_value(edge_id, label)
        self._edge_endpoints[edge_id] = (source_id, target_id)
        self._endpoint_arrays_stale = True
        self._out_incidence[source_id].set(edge_id)
        self._in_incidence[target_id].set(edge_id)
        for key, value in properties.items():
            self._attribute_index(key).set_value(edge_id, value)
        return edge_id

    def edge(self, edge_id: Any) -> Edge:
        self._require(EDGE, edge_id)
        source, target = self._edge_endpoints[edge_id]
        return Edge(
            id=edge_id,
            label=self._labels.value_of(edge_id),
            source=source,
            target=target,
            properties=self._collect_properties(edge_id),
        )

    def _delete_edge(self, edge_id: Any) -> None:
        source, target = self._edge_endpoints.pop(edge_id)
        self._endpoint_arrays_stale = True
        if source in self._out_incidence:
            self._out_incidence[source].clear(edge_id)
        if target in self._in_incidence:
            self._in_incidence[target].clear(edge_id)
        for index in self._attributes.values():
            index.remove_object(edge_id)
        self._labels.remove_object(edge_id)
        self._kinds.remove_object(edge_id)
        self._edge_bitmap.clear(edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        self._require(EDGE, edge_id)
        self.metrics.charge_index_probe()
        return self._edge_endpoints[edge_id]

    def edge_label(self, edge_id: Any) -> str:
        self._require(EDGE, edge_id)
        return self._labels.value_of(edge_id)

    # ------------------------------------------------------------------
    # Traversal: frontier-wide bitmap passes (no constant-time guarantee)
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # One probe of the label structure; the attribute maps stay cold.
        self._require(VERTEX, vertex_id)
        return self._labels.value_of(vertex_id)

    def _endpoint_columns(self) -> tuple[Any, Any]:
        """Dense (source, target) numpy columns indexed by edge oid.

        Rebuilt lazily after any edge mutation; an interpreter-level mirror
        of ``_edge_endpoints``, never charged.  Only consulted by the
        vectorized kernels, so numpy is known to be importable here.
        """
        if self._endpoint_arrays_stale or self._endpoint_arrays is None:
            np = kernels.numpy()
            sources = np.zeros(max(1, self._next_oid), dtype=np.int64)
            targets = np.zeros(max(1, self._next_oid), dtype=np.int64)
            for edge_id, (source, target) in self._edge_endpoints.items():
                sources[edge_id] = source
                targets[edge_id] = target
            self._endpoint_arrays = (sources, targets)
            self._endpoint_arrays_stale = False
        return self._endpoint_arrays

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier in one pass over each vertex's edge bitmaps.

        One incidence probe per vertex per pass (plus the label-bitmap
        probe, intersection and transient materialisation when filtered);
        edge ids stream straight out of the bitmap, while each emitted
        neighbour books the endpoint probe of ``edge_endpoints`` — lazily,
        with the emission, so a consumer that abandons the stream early
        (``limit``) pays only for what it took.

        When vectorized kernels are enabled, a dense incidence bitmap is
        decoded in one ``unpackbits`` pass and far endpoints are gathered
        with one fancy index over the dense endpoint columns.  The scalar
        path walks the bitmap with big-integer bit isolation and one
        endpoint-map lookup per edge.  Both book byte-identical charges in
        the same order.
        """
        endpoint_map = self._edge_endpoints
        metrics = self.metrics
        probe = 1 if endpoints else 0
        label_bitmap: Bitmap | None = None
        vectorized = kernels.vectorized_enabled()
        columns: tuple[Any, Any] | None = None
        for vertex_id in vertex_ids:
            self._require(VERTEX, vertex_id)
            for incidence, far in self._incidence[direction]:
                bitmap = incidence.get(vertex_id, Bitmap())
                metrics.charge_index_probe()
                if label is not None:
                    if label_bitmap is None:
                        label_bitmap = self._labels.objects_with_value(label)
                    else:
                        # Every vertex pass probes the label bitmap; the
                        # frontier books that probe without copying the
                        # structure again.
                        metrics.charge_index_probe()
                    bitmap = bitmap & label_bitmap
                    metrics.allocate(label_bitmap.size_in_bytes)
                    metrics.release(label_bitmap.size_in_bytes)
                if vectorized and _vector_worthwhile(bitmap):
                    results = bitmap.to_array()
                    if endpoints:
                        if columns is None:
                            columns = self._endpoint_columns()
                        results = columns[far][results]
                    results = results.tolist()
                elif endpoints:
                    results = [endpoint_map[edge_id][far] for edge_id in bitmap]
                else:
                    results = bitmap
                for result in results:
                    metrics.index_probes += probe
                    yield vertex_id, result

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold via bitmap cardinality (Q28-Q30), charged like
        :meth:`degree` for every ``k``."""
        return self._degree_bitmap(vertex_id, direction).cardinality() >= k

    def degree(self, vertex_id: Any, direction: Direction = Direction.BOTH) -> int:
        """Degree via bitmap cardinality.

        The whole-graph degree filters (Q28-Q31) call this for every vertex;
        the materialised per-vertex bitmaps are charged against the memory
        budget and are what makes this engine run out of memory on the large
        Freebase-like samples, as in the paper.
        """
        return self._degree_bitmap(vertex_id, direction).cardinality()

    def _degree_bitmap(self, vertex_id: Any, direction: Direction) -> Bitmap:
        """The incidence bitmap a degree count materialises.

        The union of the passes' bitmaps, so a self-loop counts once under
        BOTH.  This copy is an intermediate result the engine keeps until
        the whole filter finishes (suboptimal memory management, per the
        paper): it is charged but never released here.
        """
        self._require(VERTEX, vertex_id)
        selected = Bitmap()
        for incidence, _far in self._incidence[direction]:
            selected |= incidence.get(vertex_id, Bitmap())
        self.metrics.allocate(max(64, selected.size_in_bytes))
        return selected

    # ------------------------------------------------------------------
    # Counting & search (bitmap strengths)
    # ------------------------------------------------------------------

    def vertex_count(self) -> int:
        self.metrics.charge_index_probe()
        return self._vertex_bitmap.cardinality()

    def edge_count(self) -> int:
        self.metrics.charge_index_probe()
        return self._edge_bitmap.cardinality()

    def distinct_edge_labels(self) -> set[str]:
        # The label structure knows every distinct value, but separating the
        # edge labels from vertex labels requires intersecting each value
        # bitmap with the edge bitmap (the "sub-optimal de-duplication" the
        # paper observed).
        labels: set[str] = set()
        for value in self._labels.values():
            value_bitmap = self._labels.objects_with_value(value)
            intersection = value_bitmap & self._edge_bitmap
            self.metrics.allocate(value_bitmap.size_in_bytes)
            self.metrics.release(value_bitmap.size_in_bytes)
            if not intersection.is_empty():
                labels.add(value)
        return labels

    def edges_by_label(self, label: str) -> Iterator[Any]:
        matches = self._labels.objects_with_value(label) & self._edge_bitmap
        self.metrics.allocate(matches.size_in_bytes)
        self.metrics.release(matches.size_in_bytes)
        yield from matches

    # ------------------------------------------------------------------
    # Attribute indexes: everything is already bitmap-indexed
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        # Sparksee's internal structures are already value-indexed; the paper
        # found that explicit attribute indexes gave it no benefit.
        self._declared_indexes.add(key)
        self._attribute_index(key)

    def has_vertex_index(self, key: str) -> bool:
        return key in self._declared_indexes

    # ------------------------------------------------------------------
    # Internals & space accounting
    # ------------------------------------------------------------------

    def _collect_properties(self, object_id: int) -> dict[str, Any]:
        properties: dict[str, Any] = {}
        for key, index in self._attributes.items():
            value = index.value_of(object_id)
            if value is not None:
                properties[key] = value
        return properties

    def space_breakdown(self) -> dict[str, int]:
        attribute_bytes = sum(index.size_in_bytes for index in self._attributes.values())
        incidence_bytes = sum(b.size_in_bytes for b in self._out_incidence.values())
        incidence_bytes += sum(b.size_in_bytes for b in self._in_incidence.values())
        return {
            "objects": self._kinds.size_in_bytes,
            "labels": self._labels.size_in_bytes,
            "attributes": attribute_bytes,
            "relationships": incidence_bytes + len(self._edge_endpoints) * 16,
            "wal": self.wal.size_in_bytes,
        }
