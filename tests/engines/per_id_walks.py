"""The per-id adjacency walks, kept as the reference for the frontier walk.

Each engine answers every adjacency question — ``out_edges`` / ``in_edges``
/ ``edges_for`` / ``neighbors`` and their frontier forms — from one walk,
``_bulk_incident``, and the per-id methods are one-vertex frontiers of it.
Before that, each engine also carried a second, per-id walk of the same
substrate; those walks are kept here, as functions of the engine, so the
frontier walk is still held against an independent path: same results in
the same order, same charges in every counter, booked as lazily
(``tests/engines/test_bulk_primitives.py``).

:func:`edges_for` and :func:`neighbors` compose the walks the way the
per-id defaults did: one walk per pass of the direction (BOTH is the out
pass, then the in pass), each far endpoint read through
``edge_endpoints``.  The relational engine's reference is the union over
every edge table (:func:`relational_union`), which its stateful model test
also holds its plans against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.engines.bitmap_engine import BitmapEngine
from repro.engines.columnar_engine import _IN_PREFIX, _OUT_PREFIX, ColumnarEngine
from repro.engines.document_engine import DocumentEngine
from repro.engines.native_indirect import NativeIndirectEngine
from repro.engines.native_linked import _NO_POINTER, NativeLinkedEngine, NativeLinkedV3Engine
from repro.engines.relational_engine import RelationalEngine
from repro.engines.triple_engine import TripleEngine
from repro.exceptions import ElementNotFoundError
from repro.model.elements import EDGE, VERTEX, Direction, pass_table
from repro.storage.bitmap import Bitmap
from repro.storage.relational import index_key
from repro.storage.triple_store import RDF_OBJECT, RDF_SUBJECT

#: A per-id walk: ``walk(engine, vertex_id, label)`` yields edge ids.
Walk = Callable[[Any, Any, "str | None"], Iterator[Any]]


# -- nativelinked-1.9: the per-node relationship chains --------------------


def _chain(
    engine: Any, vertex_id: Any, head_field: str, next_field: str, label: str | None
) -> Iterator[Any]:
    node = engine._node_store.read(vertex_id)
    label_id = engine._labels.get(label) if label is not None else None
    if label is not None and label_id is None:
        return
    current = node.fields.get(head_field, _NO_POINTER)
    while current != _NO_POINTER:
        record = engine._rel_store.read(current)
        if label_id is None or record.fields["label"] == label_id:
            yield current
        current = record.fields.get(next_field, _NO_POINTER)


def _linked_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _chain(engine, vertex_id, "first_out", "next_out", label)


def _linked_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _chain(engine, vertex_id, "first_in", "next_in", label)


# -- nativelinked-3.0: the typed chains behind the adapter layer ------------


def _typed_edges(
    engine: Any,
    vertex_id: Any,
    label: str | None,
    direction: str,
    head_field: str,
    next_field: str,
) -> Iterator[Any]:
    engine._wrap(vertex_id)
    vertex_chains = engine._typed_chains.get(vertex_id, {})
    if label is not None:
        # The typed chains would answer for a missing vertex; the
        # unfiltered path below raises on its node-record read.
        if not engine._node_store.exists(vertex_id):
            raise ElementNotFoundError("vertex", vertex_id)
        label_id = engine._labels.get(label)
        if label_id is None:
            return
        engine.metrics.charge_index_probe()
        for edge_id in vertex_chains.get((label_id, direction), []):
            engine.metrics.charge_record_read(1)
            yield edge_id
        return
    # Unfiltered traversal: merge the per-label chains (extra bookkeeping
    # compared to the single chain of the older version).
    engine._node_store.read(vertex_id)
    merged: list[Any] = []
    for (chain_label_id, chain_direction), chain in vertex_chains.items():
        del chain_label_id
        engine.metrics.charge_index_probe()
        if chain_direction == direction:
            merged.extend(chain)
    if merged:
        for edge_id in merged:
            engine.metrics.charge_record_read(1)
            yield edge_id
        return
    # Fall back to the base chains for graphs loaded before any typed
    # chain existed (e.g. vertices with no edges added through this class).
    yield from _chain(engine, vertex_id, head_field, next_field, label)


def _typed_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _typed_edges(engine, vertex_id, label, "out", "first_out", "next_out")


def _typed_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _typed_edges(engine, vertex_id, label, "in", "first_in", "next_in")


# -- nativeindirect-2.2: edge-id lists inside the vertex record -------------


def _adjacency(engine: Any, vertex_id: Any, field: str, label: str | None) -> Iterator[Any]:
    record = engine._vertex_record(vertex_id)
    for edge_id in record.fields.get(field, []):
        if label is None:
            yield edge_id
            continue
        edge_record = engine._edge_record(edge_id)
        if edge_record.fields["label"] == label:
            yield edge_id


def _indirect_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _adjacency(engine, vertex_id, "out", label)


def _indirect_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _adjacency(engine, vertex_id, "in", label)


# -- bitmapgraph-5.1: incidence bitmaps --------------------------------------


def _bitmap_incident(
    engine: Any, vertex_id: Any, incidence: dict[int, Bitmap], label: str | None
) -> Iterator[Any]:
    engine._require(VERTEX, vertex_id)
    bitmap = incidence.get(vertex_id, Bitmap())
    engine.metrics.charge_index_probe()
    if label is not None:
        label_bitmap = engine._labels.objects_with_value(label)
        bitmap = bitmap & label_bitmap
        # Intersecting with the global label bitmap materialises an
        # intermediate structure proportional to the label population.
        engine.metrics.allocate(label_bitmap.size_in_bytes)
        engine.metrics.release(label_bitmap.size_in_bytes)
    yield from bitmap


def _bitmap_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _bitmap_incident(engine, vertex_id, engine._out_incidence, label)


def _bitmap_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _bitmap_incident(engine, vertex_id, engine._in_incidence, label)


# -- columnargraph-*: adjacency columns of the vertex row --------------------


def _columnar_incident(
    engine: Any, vertex_id: Any, prefix: str, label: str | None
) -> Iterator[Any]:
    engine._require(VERTEX, vertex_id)
    slice_prefix = prefix if label is None else f"{prefix}{label}:"
    columns = engine._rows.row_columns(vertex_id, prefix=slice_prefix)
    for payload in columns.values():
        yield payload["id"]


def _columnar_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _columnar_incident(engine, vertex_id, _OUT_PREFIX, label)


def _columnar_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    yield from _columnar_incident(engine, vertex_id, _IN_PREFIX, label)


# -- documentgraph-2.8: the edge-endpoint hash indexes -----------------------


def _document_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    engine._round_trip()
    engine._require(VERTEX, vertex_id)
    for edge_id in engine._store.edge_from_index.lookup(vertex_id):
        # The engine always answers with full edge documents, so every hop
        # materialises the document even when only the id is needed — the
        # behaviour that makes whole-graph filters so expensive for it.
        if label is None or engine._document(EDGE, edge_id)["_label"] == label:
            engine._document(EDGE, edge_id)
            yield edge_id


def _document_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    engine._round_trip()
    engine._require(VERTEX, vertex_id)
    for edge_id in engine._store.edge_to_index.lookup(vertex_id):
        if label is None or engine._document(EDGE, edge_id)["_label"] == label:
            engine._document(EDGE, edge_id)
            yield edge_id


# -- triplegraph-2.1: reified edge statements --------------------------------


def _triple_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    engine._require(VERTEX, vertex_id)
    for triple in engine._triples.match(predicate=RDF_SUBJECT, object_=vertex_id):
        edge_id = triple.subject
        if label is None or engine.edge_label(edge_id) == label:
            yield edge_id


def _triple_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    engine._require(VERTEX, vertex_id)
    for triple in engine._triples.match(predicate=RDF_OBJECT, object_=vertex_id):
        edge_id = triple.subject
        if label is None or engine.edge_label(edge_id) == label:
            yield edge_id


# -- relationalgraph-1.2: the union over every edge table --------------------

#: Per direction, the (probed column, far-endpoint column) of an edge table.
_RELATIONAL_PASSES = pass_table(
    {Direction.OUT: ("source", "target"), Direction.IN: ("target", "source")}
)


def edge_tables(engine: Any, label: str | None) -> tuple[str, ...]:
    database = engine.database
    if label is None:
        return database.table_names("E_")
    return tuple(name for name in ("E_" + label,) if database.has_table(name))


def relational_union(
    engine: Any, frontier: list[Any], direction: Direction, label: str | None, endpoints: bool
) -> Iterator[tuple[Any, Any]]:
    """The union expansion: every edge table's endpoint index searched, per
    vertex and pass, rows booked as they are handed on."""
    database, metrics = engine.database, engine.metrics
    names = edge_tables(engine, label)
    for vertex in frontier:
        key = index_key(str(vertex))
        for column, opposite in _RELATIONAL_PASSES[direction]:
            for name in names:
                table = database.table(name)
                for row_id in table.secondary_index(column).search(key):
                    metrics.records_read += 1
                    if endpoints:
                        yield vertex, table.recharge_get(row_id)[opposite]
                    else:
                        yield vertex, f"{name}:{row_id}"


def _relational_out(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    for _vertex, edge_id in relational_union(engine, [vertex_id], Direction.OUT, label, False):
        yield edge_id


def _relational_in(engine: Any, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
    for _vertex, edge_id in relational_union(engine, [vertex_id], Direction.IN, label, False):
        yield edge_id


#: Per engine class: its (out walk, in walk).  Looked up along the MRO, so
#: both columnar versions share one entry.
WALKS: dict[type, tuple[Walk, Walk]] = {
    NativeLinkedV3Engine: (_typed_out, _typed_in),
    NativeLinkedEngine: (_linked_out, _linked_in),
    NativeIndirectEngine: (_indirect_out, _indirect_in),
    BitmapEngine: (_bitmap_out, _bitmap_in),
    ColumnarEngine: (_columnar_out, _columnar_in),
    DocumentEngine: (_document_out, _document_in),
    TripleEngine: (_triple_out, _triple_in),
    RelationalEngine: (_relational_out, _relational_in),
}


def _passes(engine: Any, direction: Direction) -> tuple[tuple[Walk, int], ...]:
    """Per pass of ``direction``: the engine's walk and the index of the far
    endpoint in an ``edge_endpoints`` pair."""
    walk_out, walk_in = next(WALKS[cls] for cls in type(engine).__mro__ if cls in WALKS)
    return pass_table({Direction.OUT: (walk_out, 1), Direction.IN: (walk_in, 0)})[direction]


def edges_for(
    engine: Any, vertex_id: Any, direction: Direction, label: str | None = None
) -> Iterator[Any]:
    """Incident edge ids, one walk per pass."""
    for walk, _far in _passes(engine, direction):
        yield from walk(engine, vertex_id, label)


def neighbors(
    engine: Any, vertex_id: Any, direction: Direction, label: str | None = None
) -> Iterator[Any]:
    """Far endpoints, one walk per pass, each read through ``edge_endpoints``."""
    for walk, far in _passes(engine, direction):
        for edge_id in walk(engine, vertex_id, label):
            yield engine.edge_endpoints(edge_id)[far]
