"""Shared bookkeeping for every simulated engine.

:class:`BaseEngine` adds to the abstract :class:`~repro.model.graph.GraphDatabase`
interface everything the benchmark harness needs from an engine regardless of
its architecture: a configuration object, metrics collection, schema
tracking, a write-ahead log with configurable durability, the attribute-index
rule, and the descriptive metadata that regenerates the paper's
Table 1.

The adjacency walk for engine implementers
------------------------------------------

Every engine writes one adjacency walk, ``_bulk_incident``: its
``endpoints`` flag decides whether a pair carries the far vertex (and
books the endpoint fetch of ``edge_endpoints``) or the edge id, and it
maps each pass of a direction to its substrate through a ``pass_table``
— never restating that BOTH is the out pass, then the in pass.  The
per-id adjacency methods and the frontier methods all ask that walk.
``vertex_label`` and ``degree_at_least`` are overridden directly.  The
rules, enforced by ``tests/engines/test_bulk_primitives.py`` against the
per-id reference walks of ``tests/engines/per_id_walks.py``:

* **Charge parity** — the metrics owned by this class
  (:meth:`BaseEngine.combined_metrics`) end up *identical* to the
  reference's, and a frontier books what its vertices asked one at a time
  book: same probes, same record touches, same bytes, same round trips
  (``_round_trip`` is still one charge per simulated request).  The walk
  may skip duplicate interpreter work — a generator chain, a re-parse of
  a block already in hand, a structure fetched once per frontier — but
  never a logical charge; the storage layer's ``recharge_*`` helpers
  exist to charge a read without repeating the parse.
* **Grouped ordering** — pairs come grouped by source in input order.
  The traversal machine's lazy ``except``/``store`` dedup consumes these
  generators while mutating its collections, so the pair order *is* the
  BFS semantics, not a cosmetic detail.
* **Cheaper, never dearer** (``vertex_label`` / ``degree_at_least``) —
  these may legitimately charge *less* than walking the adjacency when
  the substrate answers structurally (a catalog-derived label, an
  index-only count, an early exit), but never more, and ``vertex_label``
  must not materialise property blocks where the architecture can avoid
  it.

Attribute indexes
-----------------

One rule maintains the per-key attribute indexes (``HashIndex``) of every
engine that uses them: insert on add, read-then-delete on remove-vertex,
delete+insert on set, delete on remove-property, the lookup in
``vertices_by_property``, the build by scan, and the bytes reported in
``space_breakdown``.  An engine supplies only its build scan
(``_index_scan``), its unindexed search (``_property_scan``) and its
previous-value read (``_previous_values``).  Bitmap and relational
engines keep their own index structures.

One write protocol
------------------

Every write is defined here once: the four structural ones and the two
kind-level property ones.  A create first asks the engine's charge-free
``_check_label`` whether its substrate takes the label (the relational
engine's table-name limit), before anything is booked.  Each write then
books the round trip, checks, calls the engine's substrate hook and
writes the one WAL record naming the element; every check raises before
the schema, the WAL or the substrate moves (the steps are listed in
``docs/ARCHITECTURE.md``).  Engines supply the hooks:
``_insert_vertex`` / ``_insert_edge`` (returning the new id),
``_delete_vertex`` / ``_delete_edge``, ``_put_property`` /
``_drop_property``, the cascade ``_remove_incident`` and the
previous-value read ``_previous_values``.

Per-substrate charging rules (what counts as one logical read for a record
chain vs a document blob vs a B+Tree scan) are catalogued per engine in
``docs/ENGINES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.config import EngineConfig
from repro.model.elements import EDGE, VERTEX, Direction, ElementKind
from repro.model.graph import OPS, GraphDatabase, check_property_keys
from repro.model.schema import GraphSchema
from repro.storage.hash_index import HashIndex
from repro.storage.metrics import MetricsRegistry, StorageMetrics
from repro.storage.wal import DurabilityMode, WriteAheadLog


@dataclass(frozen=True)
class EngineInfo:
    """Descriptive metadata of an engine (regenerates the paper's Table 1)."""

    system: str
    version: str
    kind: str
    storage: str
    edge_traversal: str
    gremlin: str
    query_execution: str
    access: str
    languages: tuple[str, ...] = field(default_factory=tuple)

    def as_row(self) -> dict[str, str]:
        """Return the Table 1 row for this engine."""
        return {
            "System": f"{self.system} ({self.version})",
            "Type": self.kind,
            "Storage": self.storage,
            "Edge Traversal": self.edge_traversal,
            "Gremlin": self.gremlin,
            "Query Execution": self.query_execution,
            "Access": self.access,
            "Languages": ", ".join(self.languages),
        }


#: WAL operations that change the graph's shape (and therefore invalidate
#: any interval-labelled structural index built over it).
_STRUCTURAL_OPS = frozenset(name for name, op in OPS.items() if op.creates or op.removes)


class BaseEngine(GraphDatabase):
    """Common infrastructure shared by the concrete engines."""

    #: Subclasses replace this with their Table 1 metadata.
    info: EngineInfo = EngineInfo(
        system="abstract",
        version="0",
        kind="abstract",
        storage="-",
        edge_traversal="-",
        gremlin="-",
        query_execution="-",
        access="-",
    )

    #: Whether the engine answers each Gremlin step through a client/server
    #: round trip (ArangoDB's REST interface) rather than an embedded call.
    remote_access: bool = False
    #: Name prefix of the engine's attribute indexes (``"<prefix>-<key>"``).
    index_name: str = "vertex-index"

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.metrics_registry = MetricsRegistry()
        self.metrics: StorageMetrics = self.metrics_registry.get(self.name)
        self.metrics.memory_budget = self.config.memory_budget
        self.metrics.owner = self.name
        self.schema = GraphSchema()
        durability = (
            DurabilityMode.ASYNC if self.config.durability == "async" else DurabilityMode.SYNC
        )
        self.wal = WriteAheadLog(f"{self.name}-wal", mode=durability, metrics=self.metrics)
        #: One attribute index per indexed vertex property key.
        self._vertex_indexes: dict[str, HashIndex] = {}
        self._structure_version = 0

    # ------------------------------------------------------------------
    # CUD: the one write protocol (see module docstring)
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self._check_label(label)
        self._round_trip()
        self.schema.observe_vertex(label, set(properties))
        vertex_id = self._insert_vertex(properties, label)
        self._index_insert(vertex_id, properties)
        self._log("add_vertex", id=vertex_id)
        return vertex_id

    def add_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any] | None = None
    ) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self._check_label(label)
        self._round_trip()
        self._require(VERTEX, source_id)
        self._require(VERTEX, target_id)
        self.schema.observe_edge(label, set(properties))
        edge_id = self._insert_edge(source_id, target_id, label, properties)
        self._log("add_edge", id=edge_id)
        return edge_id

    def remove_vertex(self, vertex_id: Any) -> None:
        self._round_trip()
        self._require(VERTEX, vertex_id)
        self._remove_incident(vertex_id)
        self._index_delete(vertex_id, self._previous_values(vertex_id))
        self._delete_vertex(vertex_id)
        self._log("remove_vertex", id=vertex_id)

    def remove_edge(self, edge_id: Any) -> None:
        self._round_trip()
        self._require(EDGE, edge_id)
        self._delete_edge(edge_id)
        self._log("remove_edge", id=edge_id)

    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        self._round_trip()
        self._put_property(kind, element_id, key, value)
        self._log(kind.set_op, id=element_id, key=key)

    def _remove_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        self._round_trip()
        self._drop_property(kind, element_id, key)
        self._log(kind.remove_op, id=element_id, key=key)

    def _check_label(self, label: str | None) -> None:
        """Raise :class:`SchemaError` if the substrate cannot store ``label``;
        charges nothing.  Every label is storable unless an engine says not."""

    # The substrate hooks each engine writes: ``_insert_vertex(properties,
    # label)`` and ``_insert_edge(source, target, label, properties)`` store
    # an element and return its id; ``_delete_vertex`` / ``_delete_edge``
    # drop a live one (a vertex once its edges are gone); ``_put_property`` /
    # ``_drop_property`` check an element and write or remove one property,
    # attribute-index upkeep included.

    def _remove_incident(self, vertex_id: Any) -> None:
        """The cascade: each incident edge through the public ``remove_edge``."""
        for edge_id in list(self.edges_for(vertex_id, Direction.BOTH)):
            if self._exists(EDGE, edge_id):
                self.remove_edge(edge_id)

    def _previous_values(self, vertex_id: Any) -> Callable[[str], Any]:
        """The previous-value read ``_index_delete`` makes per indexed key
        while the vertex is still stored."""
        return lambda key: self._property(VERTEX, vertex_id, key)

    # ------------------------------------------------------------------
    # Bookkeeping helpers used by subclasses
    # ------------------------------------------------------------------

    def _log(self, operation: str, **payload: Any) -> None:
        """Record a write operation in the WAL (durability cost model).

        The write protocol funnels every mutation through here, which makes
        it the single invalidation hook for the structural indexes: operations
        that change the graph's *shape* bump the structure version
        (property writes do not — interval labels only encode structure).
        """
        if operation in _STRUCTURAL_OPS:
            self._structure_version += 1
        self.wal.append(operation, payload)

    def _round_trip(self) -> None:
        """Charge one client/server round trip when the engine is remote."""
        if self.remote_access:
            self.metrics.charge_round_trip()

    def end_bulk_load(self) -> None:
        # Deferred durability is flushed outside the timed region by the
        # harness; flushing here keeps standalone use safe as well.
        self.wal.flush()

    def structure_version(self) -> int:
        """Monotonic shape counter; every engine answers from its WAL hook.

        Two consumers pin their validity to this number: structural
        indexes (:mod:`repro.index`) compare it against the version they
        were built at, and the version catalog (:mod:`repro.versions`)
        *captures* it at commit time so an index built over a historical
        view validates against the commit's frozen shape — the live
        counter keeps moving, the captured one never does.
        """
        return self._structure_version

    # ------------------------------------------------------------------
    # Attribute indexes: the one maintenance rule (see module docstring)
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        """Build the index on ``key`` by scan; a second call is a no-op."""
        if key in self._vertex_indexes:
            return
        index = HashIndex(f"{self.index_name}-{key}", metrics=self.metrics)
        for vertex_id, value in self._index_scan(key):
            if value is not None:
                index.insert(value, vertex_id)
        self._vertex_indexes[key] = index

    def has_vertex_index(self, key: str) -> bool:
        return key in self._vertex_indexes

    def _index_scan(self, key: str) -> Iterator[tuple[Any, Any]]:
        """``(vertex id, value of key or None)`` for every vertex, charged
        as the engine's build scan."""
        raise NotImplementedError

    def _property_scan(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        """The unindexed search: ids of ``kind`` whose ``key`` equals ``value``."""
        raise NotImplementedError

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        """One round trip, then the attribute index if ``key`` has one, else
        :meth:`_property_scan`."""
        self._round_trip()
        index = self._vertex_indexes.get(key) if kind is VERTEX else None
        if index is None:
            yield from self._property_scan(kind, key, value)
        else:
            yield from index.lookup(value)

    def _index_insert(self, vertex_id: Any, properties: dict[str, Any]) -> None:
        """Insert on add: index a new vertex's values."""
        for key in self._vertex_indexes:
            self._reindex(VERTEX, vertex_id, key, None, properties.get(key))

    def _index_delete(self, vertex_id: Any, read: Callable[[str], Any]) -> None:
        """Read-then-delete on remove-vertex.  ``read(key)`` is the engine's
        previous-value read: call this while the values are still stored."""
        for key in self._vertex_indexes:
            self._reindex(VERTEX, vertex_id, key, read(key))

    def _reindex(
        self, kind: ElementKind, element_id: Any, key: str, previous: Any, value: Any = None
    ) -> None:
        """Move an element from ``previous`` to ``value`` in ``key``'s index:
        delete+insert on set, delete on remove-property (``value`` None).
        Edges have no attribute index."""
        index = self._vertex_indexes.get(key) if kind is VERTEX else None
        if index is not None:
            if previous is not None:
                index.delete(previous, element_id)
            if value is not None:
                index.insert(value, element_id)

    def _index_bytes(self) -> int:
        """Simulated footprint of the attribute indexes."""
        return sum(index.size_in_bytes for index in self._vertex_indexes.values())

    # ------------------------------------------------------------------
    # Metrics & reporting
    # ------------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero every counter, e.g. between benchmark runs."""
        self.metrics_registry.reset()

    def combined_metrics(self) -> StorageMetrics:
        """Aggregate counters across the engine's storage structures."""
        return self.metrics_registry.combined()

    def io_cost(self) -> int:
        """Logical I/O performed since the last reset (the simulated clock)."""
        return self.metrics_registry.logical_io()

    def flush(self) -> None:
        """Force asynchronously buffered writes to stable storage."""
        self.wal.flush()

    def describe(self) -> dict[str, str]:
        """Return the Table 1 row for this engine."""
        return self.info.as_row()
