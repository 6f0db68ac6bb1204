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

from typing import Any, Iterable, Iterator, NamedTuple

from repro.config import EngineConfig
from repro.engines.base import BaseEngine, EngineInfo
from repro.exceptions import ElementNotFoundError, SchemaError
from repro.model.elements import EDGE, VERTEX, Direction, Edge, ElementKind, Vertex, pass_table
from repro.storage.btree import BPlusTree
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


class _Probes(NamedTuple):
    """One endpoint column of a prepared plan: the edge tables an expansion
    unions over, in name order, and what skipping one of them books."""

    #: The catalog's live holder map of the column (``RelationalDatabase.holders``).
    held: dict[str, tuple[str, ...]]
    #: Table name -> its position in :attr:`tables`.
    position: dict[str, int]
    #: ``(endpoint index, edge table, table name)`` per edge table.
    tables: list[tuple[BPlusTree, Table, str]]
    #: ``before[i]``: the summed heights of the first ``i`` indexes, so the
    #: descents of tables ``i`` to ``j - 1`` book ``before[j] - before[i]``.
    before: list[int]


#: A prepared probe plan: per endpoint column, its :class:`_Probes`.
_ProbePlan = dict[str, _Probes]


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
        #: per kind: the table-name prefix of its id space
        self._prefixes = {VERTEX: _VERTEX_PREFIX, EDGE: _EDGE_PREFIX}
        #: Prepared probe plans per label (``None``: every label), resolved
        #: from the catalog at ``_plans_version`` and dropped when it moves.
        self._plans: dict[str | None, _ProbePlan] = {}
        self._plans_version = -1

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    def _vertex_table(self, label: str | None) -> str:
        label = label or _DEFAULT_VERTEX_LABEL
        table_name = _VERTEX_PREFIX + label
        if not self._db.has_table(table_name):
            self._db.create_table(table_name, [Column("id", "bigint", nullable=False)])
            for key in self._indexed_keys:
                table = self._db.table(table_name)
                table.add_column(Column(key))
                table.create_index(key)
        return table_name

    def _edge_table(self, label: str) -> str:
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

    def _check_label(self, label: str | None) -> None:
        if label is not None and len(label) > _MAX_LABEL_LENGTH:
            raise SchemaError(
                f"label {label!r} exceeds the {_MAX_LABEL_LENGTH}-character limit"
            )

    def _probe_plan(self, label: str | None) -> _ProbePlan:
        """The endpoint indexes a traversal over ``label`` must probe, prepared.

        Resolving names to tables and tables to their endpoint indexes and
        heights is catalog work the cost model never booked, so it is done
        once per catalog version (which an index growing a level moves too),
        not once per expansion.  What the plan lists is still booked, index
        by index: without a label that is *every* edge table, the union the
        paper found to be this architecture's weak spot.
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
            tables = [(self._db.table(name), name) for name in names]
            position = {name: at for at, name in enumerate(names)}
            plan = {}
            for column in _ENDPOINT_COLUMNS:
                probes = [(table.secondary_index(column), table, name) for table, name in tables]
                before = [0]
                for index, _table, _name in probes:
                    before.append(before[-1] + index.height)
                plan[column] = _Probes(self._db.holders(column), position, probes, before)
            if tables:
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

    def _row(self, kind: ElementKind, element_id: Any) -> tuple[Table, int]:
        """:meth:`_locate` for a live element of ``kind``; raises if absent."""
        located = self._locate(self._prefixes[kind], element_id)
        if located is None:
            raise ElementNotFoundError(kind.name, element_id)
        return located

    # ------------------------------------------------------------------
    # Vertex CRUD
    # ------------------------------------------------------------------

    def _insert_vertex(self, properties: dict[str, Any], label: str | None) -> Any:
        table_name = self._vertex_table(label)
        table = self._db.table(table_name)
        for key in properties:
            if not table.schema.has_column(key):
                table.add_column(Column(key))
                if key in self._indexed_keys:
                    table.create_index(key)
        return f"{table_name}:{table.insert(dict(properties))}"

    def vertex(self, vertex_id: Any) -> Vertex:
        table, row_id = self._row(VERTEX, vertex_id)
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

    def _remove_incident(self, vertex_id: Any) -> None:
        # Delete incident edges from the edge tables whose endpoint foreign-
        # key indexes hold the vertex, in name order.  Finding them books
        # nothing, so a table proven empty of the vertex is not visited.
        key = index_key(str(vertex_id))
        plan = self._probe_plan(None)
        holding = set()
        for column in _ENDPOINT_COLUMNS:
            probes = plan[column]
            holding.update(name for name in probes.held.get(key, ()) if name in probes.position)
        for name in sorted(holding):
            self._db.table(name).delete_referencing(_ENDPOINT_COLUMNS, key)

    def _delete_vertex(self, vertex_id: Any) -> None:
        table, row_id = self._row(VERTEX, vertex_id)
        table.delete(row_id)

    # ------------------------------------------------------------------
    # Properties: one body per primitive for both kinds (properties are
    # columns of the element's vertex or edge table)
    # ------------------------------------------------------------------

    def _exists(self, kind: ElementKind, element_id: Any) -> bool:
        return self._locate(self._prefixes[kind], element_id) is not None

    def _ids(self, kind: ElementKind) -> Iterator[Any]:
        prefix = self._prefixes[kind]
        for table_name in self._db.table_names(prefix):
            for row in self._db.table(table_name).rows():
                yield f"{table_name}:{row['id']}"

    def _put_property(self, kind: ElementKind, element_id: Any, key: str, value: Any) -> None:
        table, row_id = self._row(kind, element_id)
        if not table.schema.has_column(key):
            # Adding a property key not seen before changes the table
            # structure, the slow path the paper observed for this engine.
            table.add_column(Column(key))
            if kind is VERTEX and key in self._indexed_keys:
                table.create_index(key)
        table.update(row_id, {key: value})

    def _drop_property(self, kind: ElementKind, element_id: Any, key: str) -> None:
        table, row_id = self._row(kind, element_id)
        if table.schema.has_column(key):
            table.update(row_id, {key: None})

    def _property(self, kind: ElementKind, element_id: Any, key: str) -> Any:
        table, row_id = self._row(kind, element_id)
        return table.get(row_id).get(key)

    def _by_property(self, kind: ElementKind, key: str, value: Any) -> Iterator[Any]:
        prefix = self._prefixes[kind]
        for table_name in self._db.table_names(prefix):
            table = self._db.table(table_name)
            if not table.schema.has_column(key):
                continue
            for row in table.select(key, value):
                yield f"{table_name}:{row['id']}"

    # ------------------------------------------------------------------
    # Edge CRUD
    # ------------------------------------------------------------------

    def _insert_edge(
        self, source_id: Any, target_id: Any, label: str, properties: dict[str, Any]
    ) -> Any:
        source_table, _ = self._row(VERTEX, source_id)
        target_table, _ = self._row(VERTEX, target_id)
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
        return f"{table_name}:{table.insert(row)}"

    def edge(self, edge_id: Any) -> Edge:
        table, row_id = self._row(EDGE, edge_id)
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

    def _delete_edge(self, edge_id: Any) -> None:
        table, row_id = self._row(EDGE, edge_id)
        table.delete(row_id)

    def edge_endpoints(self, edge_id: Any) -> tuple[Any, Any]:
        table, row_id = self._row(EDGE, edge_id)
        row = table.get(row_id)
        return row["source"], row["target"]

    def edge_label(self, edge_id: Any) -> str:
        table_name, _row_id = self._split_id(edge_id)
        if not table_name.startswith(_EDGE_PREFIX) or not self._db.has_table(table_name):
            raise ElementNotFoundError("edge", edge_id)
        return table_name[len(_EDGE_PREFIX) :]

    # ------------------------------------------------------------------
    # Traversal: one flat probe loop over the prepared plan
    # ------------------------------------------------------------------

    def vertex_label(self, vertex_id: Any) -> str | None:
        # The label is the table name: a pure catalog read, no row fetch —
        # the relational layout's structural-label strength.
        table, _row_id = self._row(VERTEX, vertex_id)
        label = table.name[len(_VERTEX_PREFIX) :]
        return None if label == _DEFAULT_VERTEX_LABEL else label

    def _holding(self, probes: _Probes, key: str) -> Iterator[tuple[BPlusTree, Table, str]]:
        """The plan's edge tables whose endpoint index holds ``key``, in plan
        order, with every other table's descent booked where the union
        would have made it.

        A table the holder map leaves out is proven not to hold ``key``: its
        search would book its height and find nothing, so that height is
        booked instead — the run of tables before each holder at once, the
        run after the last holder when the caller asks for more.  A caller
        that stops early (an abandoned stream, ``degree_at_least``'s exit)
        books what the union would have booked up to that point, no more.
        """
        position, before = probes.position, probes.before
        metrics = self.metrics
        booked = 0
        for name in probes.held.get(key, ()):
            at = position.get(name)
            if at is None:
                continue  # a table outside this plan: another label, or not an edge table
            metrics.index_probes += before[at] - before[booked]
            booked = at + 1
            yield probes.tables[at]
        metrics.index_probes += before[-1] - before[booked]

    def _bulk_incident(
        self,
        vertex_ids: Iterable[Any],
        direction: Direction,
        label: str | None,
        endpoints: bool,
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier through the endpoint foreign-key indexes.

        The union over the plan's edge tables: each vertex renders its
        probe key once and descends, per pass, only the indexes that hold
        it (:meth:`_holding` books the others' descents) — one frame per
        table found, not per table listed.  Far endpoints are read off the
        probed row, with the primary-key probe and record read an
        ``edge_endpoints`` call performs charged via
        :meth:`~repro.storage.relational.Table.recharge_get` — identical
        logical I/O, no second fetch.
        """
        plan = self._probe_plan(label)
        passes = [(plan[endpoint], opposite) for endpoint, opposite in _PASSES[direction]]
        metrics = self.metrics
        holding = self._holding
        for vertex_id in vertex_ids:
            key = index_key(str(vertex_id))
            for probes, opposite_column in passes:
                self._require(VERTEX, vertex_id)
                for index, table, table_name in holding(probes, key):
                    for row_id in index.search(key):
                        # The search booked its descent; the row is booked
                        # here, as it is handed on (lazily, like the stream).
                        metrics.records_read += 1
                        if endpoints:
                            yield vertex_id, table.recharge_get(row_id)[opposite_column]
                        else:
                            yield vertex_id, f"{table_name}:{row_id}"

    def degree_at_least(
        self, vertex_id: Any, k: int, direction: Direction = Direction.BOTH
    ) -> bool:
        """Degree threshold via index-only counts over the edge tables.

        ``SELECT COUNT(*)`` against the endpoint foreign-key indexes never
        fetches edge rows — strictly fewer charges than walking the edge
        stream, as the contract allows for early exits.
        """
        self._require(VERTEX, vertex_id)
        if k <= 0:
            return True
        key = index_key(str(vertex_id))
        plan = self._probe_plan(None)
        count = 0
        for endpoint_column, _opposite_column in _PASSES[direction]:
            for index, _table, _table_name in self._holding(plan[endpoint_column], key):
                count += len(index.search(key))
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
