"""Hybrid engine over a relational schema (the Sqlg/Postgres-like architecture).

Architecture reproduced from the paper (Sections 3.1, 3.2, 6.3, and 6.4):

* one table per vertex label and one join table per edge label; vertex and
  edge properties are columns, so a property key seen for the first time
  triggers an ``ALTER TABLE`` (which is why property insertion on existing
  elements is comparatively slow);
* endpoint columns of every edge table carry foreign-key indexes, so
  traversals restricted to a single edge label become indexed joins and are
  fast;
* traversals that cannot name a label must union the scan over *every* edge
  table, which is the engine's weak spot on unfiltered traversals, BFS, and
  shortest paths;
* equality search on properties or labels maps to plain relational scans /
  index lookups and is where this engine shines;
* labels have a maximum length (a PostgreSQL identifier limit), reproduced
  here as a configurable cap.

Vertex ids are ``"<table>:<row id>"`` strings; edge ids likewise.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError, SchemaError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.model.graph import check_property_keys
from repro.storage.relational import Column, RelationalDatabase, Table, index_key

_VERTEX_PREFIX = "V_"
_EDGE_PREFIX = "E_"
_DEFAULT_VERTEX_LABEL = "vertex"
#: PostgreSQL-style identifier length limit (the paper notes Sqlg needs
#: special handling for long labels).
_MAX_LABEL_LENGTH = 63
#: Reserved column names of edge tables.
_EDGE_SYSTEM_COLUMNS = ("id", "source", "target", "source_table", "target_table")
#: The foreign-key columns of an edge table, both indexed.
_ENDPOINT_COLUMNS = ("source", "target")
#: Per pass: (endpoint column probed, column holding the far endpoint).
_PASSES = pass_table({Direction.OUT: ("source", "target"), Direction.IN: ("target", "source")})


class RelationalEngine(BaseEngine):
    """Graph store over per-label relational tables with foreign-key indexes."""

    name = "relationalgraph"
    version = "1.2"
    kind = "hybrid"
    supports_vertex_index = True

    info = EngineInfo(
        system="RelationalGraph",
        version="1.2",
        kind="Hybrid (Relational)",
        storage="Tables",
        edge_traversal="Table join",
        gremlin="v3.2",
        query_execution="SQL, optimized",
        access="embedded (JDBC-like)",
        languages=("Python DSL", "SQL"),
    )

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self._db = RelationalDatabase("graphdb", metrics=self.metrics)
        #: property keys that should be indexed in every vertex table.
        self._indexed_keys: set[str] = set(self.config.auto_index_properties)
        #: per kind: (table-name prefix, row locator that raises)
        self._kinds = {
            VERTEX: (_VERTEX_PREFIX, self._vertex_row),
            EDGE: (_EDGE_PREFIX, self._edge_row),
        }
        #: Prepared probe plans: per label (``None``: every label) the
        #: ``(edge table, its name)`` rows an expansion probes, resolved from
        #: the catalog at ``_plans_version`` and dropped when it moves.
        self._plans: dict[str | None, list[tuple[Table, str]]] = {}
        self._plans_version = -1

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    def _vertex_table(self, label: str | None) -> str:
        label = label or _DEFAULT_VERTEX_LABEL
        self._check_label(label)
        table_name = _VERTEX_PREFIX + label
        if not self._db.has_table(table_name):
            self._db.create_table(table_name, [Column("id", "bigint", nullable=False)])
            for key in self._indexed_keys:
                table = self._db.table(table_name)
                table.add_column(Column(key))
                table.create_index(key)
        return table_name

    def _edge_table(self, label: str) -> str:
        self._check_label(label)
        table_name = _EDGE_PREFIX + label
        if not self._db.has_table(table_name):
            table = self._db.create_table(
                table_name,
                [
                    Column("id", "bigint", nullable=False),
                    Column("source", "text", nullable=False),
                    Column("target", "text", nullable=False),
                    Column("source_table", "text", nullable=False),
                    Column("target_table", "text", nullable=False),
                ],
            )
            # Foreign-key indexes on both endpoints, as Sqlg creates.
            table.create_index("source")
            table.create_index("target")
        return table_name

    def _check_label(self, label: str) -> None:
        if len(label) > _MAX_LABEL_LENGTH:
            raise SchemaError(
                f"label {label!r} exceeds the {_MAX_LABEL_LENGTH}-character limit"
            )

    def _probe_plan(self, label: str | None) -> list[tuple[Table, str]]:
        """The edge tables a traversal over ``label`` must probe, prepared.

        Resolving names to tables is catalog work the cost model never
        booked, so it is done once per catalog version, not once per
        expansion.  What the plan lists is still probed, table by table:
        without a label that is *every* edge table, the union the paper
        found to be this architecture's weak spot.
        """
        version = self._db.catalog_version
        if version != self._plans_version:
            self._plans.clear()
            self._plans_version = version
        plan = self._plans.get(label)
        if plan is None:
            if label is None:
                names = self._db.table_names(_EDGE_PREFIX)
            elif self._db.has_table(_EDGE_PREFIX + label):
                names = (_EDGE_PREFIX + label,)
            else:
                names = ()
            plan = [(self._db.table(name), name) for name in names]
            if plan:
                # A label without a table is not remembered: the plans stay
                # O(edge tables) whatever labels callers ask for.
                self._plans[label] = plan
        return plan

    @staticmethod
    def _split_id(element_id: Any) -> tuple[str, int]:
        table, _, row = str(element_id).rpartition(":")
        try:
            return table, int(row)
        except ValueError:
            raise ElementNotFoundError("element", element_id) from None

    def _locate(self, prefix: str, element_id: Any) -> tuple[Table, int] | None:
        """The ``(table, row id)`` behind a live id of the ``prefix`` id space.

        Vertex ids and edge ids share one ``"<table>:<row>"`` syntax, so the
        table-name prefix is what tells them apart: an edge id handed to a
        vertex method (or the reverse) names no element.  Books nothing.
        """
        table_name, _, row = str(element_id).rpartition(":")
        if not table_name.startswith(prefix) or not self._db.has_table(table_name):
            return None
        try:
            row_id = int(row)
        except ValueError:
            return None
        table = self._db.table(table_name)
        return (table, row_id) if table.exists(row_id) else None

    def _vertex_row(self, vertex_id: Any) -> tuple[Table, int]:
        located = self._locate(_VERTEX_PREFIX, vertex_id)
        if located is None:
            raise ElementNotFoundError("vertex", vertex_id)
        return located

    def _edge_row(self, edge_id: Any) -> tuple[Table, int]:
        located = self._locate(_EDGE_PREFIX, edge_id)
        if located is None:
            raise ElementNotFoundError("edge", edge_id)
        return located

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def add_vertex(self, properties: dict[str, Any] | None = None, label: str | None = None) -> Any:
        properties = properties or {}
        check_property_keys(properties)
        self.schema.observe_vertex(label, set(properties))
        table_name = self._vertex_table(label)
        table = self._db.table(table_name)
        for key in properties:
            if not table.schema.has_column(key):
                table.add_column(Column(key))
                if key in self._indexed_keys:
                    table.create_index(key)
        row_id = table.insert(dict(properties))
        self._log("add_vertex", id=row_id)
        return f"{table_name}:{row_id}"

    def vertex(self, vertex_id: Any) -> Vertex:
        table, row_id = self._vertex_row(vertex_id)
        row = table.get(row_id)
        label = table.name[len(_VERTEX_PREFIX) :]
        properties = {
            key: value for key, value in row.items() if key != "id" and value is not None
        }
        if label == _DEFAULT_VERTEX_LABEL:
            label_value: str | None = None
        else:
            label_value = label
        return Vertex(id=vertex_id, label=label_value, properties=properties)

    def remove_vertex(self, vertex_id: Any) -> None:
        table, row_id = self._vertex_row(vertex_id)
        # Cascade: delete incident edges from every edge table, found through
        # the endpoint foreign-key indexes.
        key = index_key(str(vertex_id))
        for edge_table, _name in self._probe_plan(None):
            edge_table.delete_referencing(_ENDPOINT_COLUMNS, key)
        table.delete(row_id)
        self._log("remove_vertex", id=vertex_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds (properties are
    # columns of the element's vertex or edge table)
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return self._locate(self._kinds[kind][0], element_id) is not None

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        prefix = self._kinds[kind][0]
        for table_name in self._db.table_names(prefix):
            for row in self._db.table(table_name).rows():
                yield f"{table_name}:{row['id']}"

    def _set_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        table, row_id = self._kinds[kind][1](element_id)
        if not table.schema.has_column(key):
            # Adding a property key not seen before changes the table
            # structure, the slow path the paper observed for this engine.
            table.add_column(Column(key))
            if kind is VERTEX and key in self._indexed_keys:
                table.create_index(key)
        table.update(row_id, {key: value})
        self._log(kind.set_op, id=element_id, key=key)

    def _remove_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        table, row_id = self._kinds[kind][1](element_id)
        if table.schema.has_column(key):
            table.update(row_id, {key: None})
        self._log(kind.remove_op, id=element_id, key=key)

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        table, row_id = self._kinds[kind][1](element_id)
        return table.get(row_id).get(key)

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        prefix = self._kinds[kind][0]
        for table_name in self._db.table_names(prefix):
            table = self._db.table(table_name)
            if not table.schema.has_column(key):
                continue
            for row in table.select(key, value):
                yield f"{table_name}:{row['id']}"

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
        source_table, _ = self._vertex_row(source_id)
        target_table, _ = self._vertex_row(target_id)
        self.schema.observe_edge(label, set(properties))
        table_name = self._edge_table(label)
        table = self._db.table(table_name)
        for key in properties:
            if not table.schema.has_column(key):
                table.add_column(Column(key))
        row = dict(properties)
        row.update(
            {
                "source": str(source_id),
                "target": str(target_id),
                "source_table": source_table.name,
                "target_table": target_table.name,
            }
        )
        row_id = table.insert(row)
        self._log("add_edge", id=row_id)
        return f"{table_name}:{row_id}"

    def edge(self, edge_id: Any) -> Edge:
        table, row_id = self._edge_row(edge_id)
        row = table.get(row_id)
        label = table.name[len(_EDGE_PREFIX) :]
        properties = {
            key: value
            for key, value in row.items()
            if key not in _EDGE_SYSTEM_COLUMNS and value is not None
        }
        return Edge(
            id=edge_id,
            label=label,
            source=row["source"],
            target=row["target"],
            properties=properties,
        )

    def remove_edge(self, edge_id: Any) -> None:
        table, row_id = self._edge_row(edge_id)
        table.delete(row_id)
        self._log("remove_edge", id=edge_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        table, row_id = self._edge_row(edge_id)
        row = table.get(row_id)
        return row["source"], row["target"]

    def edge_label(self, edge_id: Any) -> str:
        table_name, _row_id = self._split_id(edge_id)
        if not table_name.startswith(_EDGE_PREFIX) or not self._db.has_table(table_name):
            raise ElementNotFoundError("edge", edge_id)
        return table_name[len(_EDGE_PREFIX) :]

    # ------------------------------------------------------------------
    # Traversal primitives: joins over edge tables
    # ------------------------------------------------------------------

    def out_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        for _vertex_id, edge_id in self._bulk_incident((vertex_id,), Direction.OUT, label, False):
            yield edge_id

    def in_edges(self, vertex_id: Any, label: str | None = None) -> Iterator[Any]:
        for _vertex_id, edge_id in self._bulk_incident((vertex_id,), Direction.IN, label, False):
            yield edge_id

    # ------------------------------------------------------------------
    # Bulk structural primitives: one flat probe loop over the prepared plan
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # The label is the table name: a pure catalog read, no row fetch —
        # the relational layout's structural-label strength.
        table, _row_id = self._vertex_row(vertex_id)
        label = table.name[len(_VERTEX_PREFIX) :]
        return None if label == _DEFAULT_VERTEX_LABEL else label

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier through the endpoint foreign-key indexes.

        The edge tables to probe come from the prepared plan; each vertex
        renders its probe key once and descends every listed table's
        endpoint index in a flat loop.  Far endpoints are read off the
        probed row itself, with the primary-key probe and record read the
        per-id ``edge_endpoints`` call performs charged via
        :meth:`~repro.storage.relational.Table.recharge_get` — identical
        logical I/O, no second fetch.
        """
        plan = self._probe_plan(label)
        passes = _PASSES[direction]
        metrics = self.metrics
        for vertex_id in vertex_ids:
            key = index_key(str(vertex_id))
            for endpoint_column, opposite_column in passes:
                self._require_vertex(vertex_id)
                for table, table_name in plan:
                    for row in table.index_probe(endpoint_column, key):
                        # The probe booked its descent; the row is booked
                        # here, as it is handed on (lazily, like the stream).
                        metrics.records_read += 1
                        if endpoints:
                            table.recharge_get(row["id"])
                            yield vertex_id, row[opposite_column]
                        else:
                            yield vertex_id, f"{table_name}:{row['id']}"

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold via index-only counts over the edge tables.

        ``SELECT COUNT(*)`` against the endpoint foreign-key indexes never
        fetches edge rows — strictly fewer charges than walking the per-id
        edge stream, as the contract allows for early exits.
        """
        self._require_vertex(vertex_id)
        if k <= 0:
            return True
        key = index_key(str(vertex_id))
        plan = self._probe_plan(None)
        count = 0
        for endpoint_column, _opposite_column in _PASSES[direction]:
            for table, _table_name in plan:
                count += len(table.index_probe(endpoint_column, key))
                if count >= k:
                    return True
        return False

    # ------------------------------------------------------------------
    # Search primitives: relational scans and index lookups
    # ------------------------------------------------------------------

    def edges_by_label(self, label: str) -> Iterator[Any]:
        table_name = _EDGE_PREFIX + label
        if not self._db.has_table(table_name):
            return
        for row in self._db.table(table_name).rows():
            yield f"{table_name}:{row['id']}"

    def distinct_edge_labels(self) -> set[str]:
        # The catalog knows the edge labels: one table per label.
        return {
            name[len(_EDGE_PREFIX) :]
            for name in self._db.table_names(_EDGE_PREFIX)
            if len(self._db.table(name)) > 0
        }

    def vertex_count(self) -> int:
        return sum(self._db.count(name) for name in self._db.table_names(_VERTEX_PREFIX))

    def edge_count(self) -> int:
        return sum(self._db.count(name) for name in self._db.table_names(_EDGE_PREFIX))

    # ------------------------------------------------------------------
    # Attribute indexes
    # ------------------------------------------------------------------

    def create_vertex_index(self, key: str) -> None:
        self._indexed_keys.add(key)
        for table_name in self._db.table_names(_VERTEX_PREFIX):
            table = self._db.table(table_name)
            if table.schema.has_column(key):
                table.create_index(key)

    def has_vertex_index(self, key: str) -> bool:
        return key in self._indexed_keys

    # ------------------------------------------------------------------
    # Space accounting & access to the underlying database
    # ------------------------------------------------------------------

    @property
    def database(self) -> RelationalDatabase:
        """The underlying relational database (used by the step optimizer)."""
        return self._db

    def space_breakdown(self) -> dict[str, int]:
        table_bytes = {
            prefix: sum(self._db.table(name).size_in_bytes for name in self._db.table_names(prefix))
            for prefix in (_VERTEX_PREFIX, _EDGE_PREFIX)
        }
        return {
            "vertex-tables": table_bytes[_VERTEX_PREFIX],
            "edge-tables": table_bytes[_EDGE_PREFIX],
            "catalog": len(self._db.table_names()) * 256,
            "wal": self.wal.size_in_bytes,
        }
