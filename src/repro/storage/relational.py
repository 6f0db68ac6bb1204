"""A miniature relational engine used as the Sqlg/Postgres substrate.

Sqlg maps the property graph onto a relational schema: one table per vertex
label, one join table per edge label, foreign-key indexes on the endpoint
columns, and the relational optimizer conflates several Gremlin steps into a
single SQL statement when possible (paper, Sections 3.1, 3.2, and 6).  To
reproduce that behaviour without PostgreSQL, this module implements just
enough of a relational engine from scratch:

* heap tables with typed columns and an always-present ``id`` primary key;
* secondary hash and B+Tree indexes, and a catalog-wide holder map that
  names, per indexed column and key, the tables whose index holds the key;
* sequential scans with predicate pushdown;
* a tiny cost-aware access-path chooser (index vs scan).

The query *planning* that corresponds to Sqlg's step conflation lives in
:mod:`repro.engines.relational_engine`; this module only provides the
physical operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.exceptions import ElementNotFoundError, SchemaError, StorageError
from repro.storage.btree import BPlusTree, flat_key
from repro.storage.hash_index import HashIndex
from repro.storage.metrics import StorageMetrics


@dataclass(frozen=True)
class Column:
    """A typed column of a table schema."""

    name: str
    type_name: str = "text"
    nullable: bool = True


@dataclass
class TableSchema:
    """The schema of one table: name plus ordered columns."""

    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if "id" not in names:
            raise SchemaError(f"table {self.name!r} must declare an 'id' column")
        self._names = frozenset(names)

    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._names


Predicate = Callable[[dict[str, Any]], bool]


#: Per indexed column name, per index key: the sorted names of the tables
#: whose secondary index on that column holds the key.
Holders = dict[str, dict[str, tuple[str, ...]]]


class Table:
    """A heap table with a primary-key hash index and optional secondary indexes."""

    def __init__(
        self,
        schema: TableSchema,
        metrics: StorageMetrics | None = None,
        on_ddl: Callable[[], None] | None = None,
        holders: Holders | None = None,
    ) -> None:
        self.schema = schema
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=schema.name)
        #: Called after every schema change of this table and whenever one
        #: of its indexes grows a level: the owning catalog's version bump
        #: (a free-standing table has none).
        self._on_ddl = on_ddl
        #: The owning catalog's holder map (a free-standing table keeps its
        #: own), kept exact by every write to a secondary index.
        self._holders: Holders = holders if holders is not None else {}
        #: This table as the sole holder of a key: one tuple shared by all.
        self._alone = (schema.name,)
        self._rows: dict[Any, dict[str, Any]] = {}
        self._primary = HashIndex(f"{schema.name}-pk", metrics=self.metrics, unique=True)
        self._secondary: dict[str, BPlusTree] = {}
        self._next_id = 1

    # -- schema ---------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def add_column(self, column: Column) -> None:
        """ALTER TABLE ADD COLUMN: every existing row gains a NULL value."""
        if self.schema.has_column(column.name):
            return
        self.schema = TableSchema(self.schema.name, self.schema.columns + (column,))
        self.metrics.charge_page_write(1)
        for row in self._rows.values():
            row.setdefault(column.name, None)
        if self._on_ddl is not None:
            self._on_ddl()

    def create_index(self, column: str) -> None:
        """Create a secondary B+Tree index on ``column`` (backfills existing rows)."""
        if not self.schema.has_column(column):
            raise SchemaError(f"cannot index unknown column {column!r} of {self.name!r}")
        if column in self._secondary:
            return
        index = BPlusTree(f"{self.name}-{column}-idx", metrics=self.metrics)
        held = self._holders.setdefault(column, {})
        for row_id, row in self._rows.items():
            key = index_key(row.get(column))
            if index.insert(key, row_id):
                self._hold(held, key)
        self._secondary[column] = index
        if self._on_ddl is not None:
            self._on_ddl()

    def has_index(self, column: str) -> bool:
        return column in self._secondary

    # -- the holder map ------------------------------------------------------------------
    #
    # A key appears in an index exactly when ``BPlusTree.insert`` reports it
    # new, and vanishes exactly when a delete moves ``key_count``: the map
    # follows the indexes without a descent of its own.

    def _hold(self, held: dict[str, tuple[str, ...]], key: str) -> None:
        names = held.get(key)
        held[key] = self._alone if names is None else tuple(sorted((*names, self._alone[0])))

    def _release(self, held: dict[str, tuple[str, ...]], key: str) -> None:
        names = held[key]
        if len(names) == 1:
            del held[key]
        else:
            held[key] = tuple(name for name in names if name != self._alone[0])

    def _index_insert(self, column: str, index: BPlusTree, key: str, row_id: Any) -> None:
        height = index.height
        if index.insert(key, row_id):
            self._hold(self._holders[column], key)
            # A prepared plan may have resolved the old height.
            if index.height != height and self._on_ddl is not None:
                self._on_ddl()

    def _index_delete(self, column: str, index: BPlusTree, key: str, row_id: Any) -> None:
        count = index.key_count
        index.delete(key, row_id)
        if index.key_count != count:
            self._release(self._holders[column], key)

    def release_holders(self) -> None:
        """Take this table out of the holder map (the table is being dropped)."""
        for column in self._secondary:
            held = self._holders[column]
            for key in {index_key(row.get(column)) for row in self._rows.values()}:
                self._release(held, key)

    # -- size ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def size_in_bytes(self) -> int:
        payload = sum(
            sum(len(str(key)) + len(str(value)) for key, value in row.items())
            for row in self._rows.values()
        )
        index_bytes = self._primary.size_in_bytes
        index_bytes += sum(index.size_in_bytes for index in self._secondary.values())
        return payload + len(self._rows) * 24 + index_bytes

    # -- DML -------------------------------------------------------------------------

    def insert(self, values: dict[str, Any]) -> Any:
        """Insert a row; unknown columns raise, missing columns become NULL."""
        for key in values:
            if not self.schema.has_column(key):
                raise SchemaError(f"unknown column {key!r} for table {self.name!r}")
        row = {name: values.get(name) for name in self.schema.column_names()}
        if row.get("id") is None:
            row["id"] = self._next_id
            self._next_id += 1
        else:
            self._next_id = max(self._next_id, int(row["id"]) + 1)
        row_id = row["id"]
        # Rendered before anything is booked, so a refused key books nothing.
        keys = [index_key(row.get(column)) for column in self._secondary]
        if self._primary.contains(row_id) and self._primary.lookup(row_id):
            raise StorageError(f"duplicate primary key {row_id!r} in table {self.name!r}")
        self._rows[row_id] = row
        self._primary.insert(row_id, row_id)
        self.metrics.charge_record_write(1, len(str(row)))
        for (column, index), key in zip(self._secondary.items(), keys):
            self._index_insert(column, index, key, row_id)
        return row_id

    def get(self, row_id: Any) -> dict[str, Any]:
        """Primary-key lookup."""
        self._primary.lookup(row_id)
        try:
            row = self._rows[row_id]
        except KeyError:
            raise ElementNotFoundError(self.name, row_id) from None
        self.metrics.charge_record_read(1, len(str(row)))
        return dict(row)

    def exists(self, row_id: Any) -> bool:
        return row_id in self._rows

    def update(self, row_id: Any, changes: dict[str, Any]) -> None:
        """Update columns of one row, maintaining secondary indexes."""
        if row_id not in self._rows:
            raise ElementNotFoundError(self.name, row_id)
        row = self._rows[row_id]
        for key, value in changes.items():
            if not self.schema.has_column(key):
                raise SchemaError(f"unknown column {key!r} for table {self.name!r}")
            if key in self._secondary:
                new_key = index_key(value)
                index = self._secondary[key]
                self._index_delete(key, index, index_key(row.get(key)), row_id)
                self._index_insert(key, index, new_key, row_id)
            row[key] = value
        self.metrics.charge_record_write(1, len(str(changes)))

    def delete(self, row_id: Any) -> None:
        """Delete one row by primary key."""
        if row_id not in self._rows:
            raise ElementNotFoundError(self.name, row_id)
        row = self._rows.pop(row_id)
        self._primary.delete(row_id)
        for column, index in self._secondary.items():
            self._index_delete(column, index, index_key(row.get(column)), row_id)
        self.metrics.charge_record_write(1)

    def delete_referencing(self, columns: tuple[str, ...], key: str) -> int:
        """Foreign-key cascade: delete every row referencing ``key``; return the count.

        ``key`` is :func:`index_key` of the referenced value (computed once
        by a caller that cascades over many tables); each of ``columns``
        must carry a secondary index.  Finding the doomed rows books
        nothing — the cascade's cost is the deletes themselves — so the
        indexes are only peeked.  A row referencing ``key`` from several
        columns (a self-loop) is deleted once; rows go in ascending id,
        each through the fully charged :meth:`delete`.
        """
        secondary = self._secondary
        referencing: list[Any] = []
        for column in columns:
            if column not in secondary:
                raise StorageError(f"no index on {self.name}.{column}")
            referencing += secondary[column].peek(key)
        if not referencing:
            return 0
        doomed = sorted(set(referencing))
        for row_id in doomed:
            self.delete(row_id)
        return len(doomed)

    # -- access paths -------------------------------------------------------------------

    def seq_scan(self, predicate: Predicate | None = None) -> Iterator[dict[str, Any]]:
        """Full scan with optional predicate; every row read is charged."""
        for row in list(self._rows.values()):
            self.metrics.charge_record_read(1, len(str(row)))
            if predicate is None or predicate(row):
                yield dict(row)

    def secondary_index(self, column: str) -> BPlusTree:
        """``column``'s B+Tree index, for a caller that prepares its probes.

        A catalog resolution: it stands as long as the owning catalog's
        version does (:meth:`create_index` moves it).  Raises if ``column``
        has no index.
        """
        index = self._secondary.get(column)
        if index is None:
            raise StorageError(f"no index on {self.name}.{column}")
        return index

    def index_probe(self, column: str, key: str) -> list[dict[str, Any]]:
        """One booked descent of ``column``'s index: the rows stored under ``key``.

        The primitive every equality access path is built on.  ``key`` is
        :func:`index_key` of the value looked for, rendered by the caller —
        once, however many tables it probes with it.  Only the descent is
        booked here: a caller that streams the rows on books each record
        read as it hands the row over, so an abandoned stream has paid for
        what it consumed and no more.  The rows are the live heap rows;
        callers must not mutate them.  Raises if ``column`` has no index.
        """
        row_ids = self.secondary_index(column).search(key)
        if not row_ids:
            return row_ids
        rows = self._rows
        return [rows[row_id] for row_id in row_ids if row_id in rows]

    def index_scan(self, column: str, value: Any) -> Iterator[dict[str, Any]]:
        """Equality scan through a secondary index (raises if no index)."""
        for row in self.index_probe(column, index_key(value)):
            self.metrics.charge_record_read(1)
            yield dict(row)

    def recharge_get(self, row_id: Any) -> dict[str, Any]:
        """Charge a primary-key fetch of ``row_id``; return the live row.

        Traversal walks resolve edge endpoints from the rows their index
        probe just found; an ``edge_endpoints`` call would re-fetch the row
        through :meth:`get`, so the identical probe and record read are
        charged here without walking the hash bucket or copying the row.
        Callers must not mutate the row.  A missing row still books the
        probe, then raises ``KeyError``.
        """
        metrics = self.metrics
        metrics.index_probes += 1
        row = self._rows[row_id]
        metrics.records_read += 1
        metrics.bytes_read += len(str(row))
        return row

    def select(self, column: str, value: Any) -> Iterator[dict[str, Any]]:
        """Equality selection using the best available access path."""
        if column == "id":
            if self.exists(value):
                yield self.get(value)
            return
        if column in self._secondary:
            yield from self.index_scan(column, value)
            return
        yield from self.seq_scan(lambda row: row.get(column) == value)

    def rows(self) -> Iterator[dict[str, Any]]:
        """Alias for an unfiltered sequential scan."""
        return self.seq_scan()


def index_key(value: Any) -> str:
    """Normalise heterogeneous values into a totally ordered index key.

    The flat key of the value's type name and repr: values of one type
    group together, ordered by repr.
    """
    return flat_key(type(value).__name__, repr(value))


class RelationalDatabase:
    """A catalog of tables plus join and aggregation operators."""

    def __init__(self, name: str = "relationaldb", metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._tables: dict[str, Table] = {}
        self._holders: Holders = {}
        self._catalog_version = 0
        #: Sorted table names per prefix, as of the current catalog version.
        self._names: dict[str, tuple[str, ...]] = {}

    # -- catalog -------------------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column] | tuple[Column, ...]) -> Table:
        """Create (or return an existing) table called ``name``."""
        if name in self._tables:
            return self._tables[name]
        schema = TableSchema(name, tuple(columns))
        table = Table(schema, metrics=self.metrics, on_ddl=self._ddl, holders=self._holders)
        self._tables[name] = table
        self._ddl()
        return table

    def drop_table(self, name: str) -> None:
        table = self._tables.pop(name, None)
        if table is not None:
            table.release_holders()
            self._ddl()

    @property
    def catalog_version(self) -> int:
        """Moves on every DDL — a table created or dropped, a column or an
        index added — and whenever a secondary index grows a level.
        Whatever a caller resolved from the catalog — a name list, a
        table's access path, an index's height — stands exactly as long as
        this does.
        """
        return self._catalog_version

    def holders(self, column: str) -> dict[str, tuple[str, ...]]:
        """Per index key, the sorted names of the tables whose secondary
        index on ``column`` holds it.

        The live map, exact after every write (callers must not mutate
        it): a table absent from a key's entry is proven not to hold the
        key, so its descent would find nothing.
        """
        return self._holders.setdefault(column, {})

    def _ddl(self) -> None:
        self._catalog_version += 1
        self._names.clear()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ElementNotFoundError("table", name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self, prefix: str = "") -> tuple[str, ...]:
        """Sorted names of the tables starting with ``prefix``.

        Served from a snapshot taken once per catalog version, not sorted
        and filtered per call.
        """
        names = self._names.get(prefix)
        if names is None:
            names = self._names[prefix] = tuple(
                name for name in sorted(self._tables) if name.startswith(prefix)
            )
        return names

    @property
    def size_in_bytes(self) -> int:
        return sum(table.size_in_bytes for table in self._tables.values())

    # -- relational operators ----------------------------------------------------------------

    def count(self, table_name: str, predicate: Predicate | None = None) -> int:
        """SELECT COUNT(*) over one table."""
        return sum(1 for _row in self.table(table_name).seq_scan(predicate))
