"""Shared bookkeeping for every simulated engine.

:class:`BaseEngine` adds to the abstract :class:`~repro.model.graph.GraphDatabase`
interface everything the benchmark harness needs from an engine regardless of
its architecture: a configuration object, metrics collection, schema
tracking, a write-ahead log with configurable durability, attribute-index
bookkeeping, and the descriptive metadata that regenerates the paper's
Table 1.

Bulk semantics for engine implementers
--------------------------------------

Engines built on this class usually override the bulk structural
primitives (``neighbors_many``, ``edges_for_many``, ``vertex_label``,
``degree_at_least``) to exploit their substrate.  The rules, enforced by
``tests/engines/test_bulk_primitives.py``:

* **Charge parity** (``neighbors_many`` / ``edges_for_many``) — the
  metrics owned by this class (:meth:`BaseEngine.combined_metrics`) must
  end up *identical* to the equivalent sequence of per-id calls: same
  probes, same record touches, same bytes, same round trips
  (``_round_trip`` is still one charge per simulated request).  Bulking
  may skip duplicate interpreter work — a generator chain, a re-parse of
  a block already in hand — but never a logical charge; the storage
  layer's ``recharge_*`` helpers exist to charge a read without
  repeating the parse.
* **Grouped ordering** — ``neighbors_many`` / ``edges_for_many`` yield
  ``(source, result)`` pairs grouped by source in input order, matching
  the per-id iteration exactly.  The traversal machine's lazy
  ``except``/``store`` dedup consumes these generators while mutating its
  collections, so the pair order *is* the BFS semantics, not a cosmetic
  detail.
* **Cheaper, never dearer** (``vertex_label`` / ``degree_at_least``) —
  these may legitimately charge *less* than their per-id equivalents when
  the substrate answers structurally (a catalog-derived label, an
  index-only count, an early exit), but never more, and ``vertex_label``
  must not materialise property blocks where the architecture can avoid
  it.

Per-substrate charging rules (what counts as one logical read for a record
chain vs a document blob vs a B+Tree scan) are catalogued per engine in
``docs/ENGINES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import EngineConfig
from repro.model.graph import GraphDatabase
from repro.model.schema import GraphSchema
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
_STRUCTURAL_OPS = frozenset({"add_vertex", "remove_vertex", "add_edge", "remove_edge"})


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
        self._indexed_vertex_properties: set[str] = set()
        self._bulk_loading = False
        self._structure_version = 0

    # ------------------------------------------------------------------
    # Bookkeeping helpers used by subclasses
    # ------------------------------------------------------------------

    def _log(self, operation: str, **payload: Any) -> None:
        """Record a write operation in the WAL (durability cost model).

        Every engine funnels its mutations through here, which makes it the
        single invalidation hook for the structural indexes: operations
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

    @property
    def bulk_loading(self) -> bool:
        """True while a bulk load is in progress."""
        return self._bulk_loading

    def begin_bulk_load(self) -> None:
        self._bulk_loading = True

    def end_bulk_load(self) -> None:
        self._bulk_loading = False
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
    # Attribute-index bookkeeping
    # ------------------------------------------------------------------

    def has_vertex_index(self, key: str) -> bool:
        return key in self._indexed_vertex_properties

    def indexed_vertex_properties(self) -> set[str]:
        """Property keys currently covered by an attribute index."""
        return set(self._indexed_vertex_properties)

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
