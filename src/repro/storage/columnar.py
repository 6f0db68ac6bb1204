"""A wide-column (Bigtable/Cassandra-style) store with adjacency-list rows.

Titan stores the graph as a collection of adjacency lists: one row per
vertex, one column per vertex property and per incident edge, with column
names delta-encoded so that dense adjacency lists compress well (paper,
Sections 3.2 and 6.2).  Every edge traversal first resolves the vertex row
through the row-key index, deletions write tombstones instead of removing
data, and consistency checks slow down writes unless the schema is declared
up front.

:class:`ColumnFamilyStore` models a single column family of sorted rows;
:class:`RowKeyIndex` is the row locator each traversal must consult.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import kernels
from repro.exceptions import ElementNotFoundError
from repro.storage.metrics import StorageMetrics


@dataclass
class _Row:
    """One row: a sorted mapping of column name to (value, tombstone) cells."""

    key: Any
    columns: dict[str, Any] = field(default_factory=dict)
    tombstones: set[str] = field(default_factory=set)
    deleted: bool = False
    #: Parsed adjacency slices by prefix, ``(edge ids, opposite endpoints)``:
    #: a pure interpreter memo, dropped on the row's next cell write,
    #: tombstone or delete.
    slices: dict[str, tuple[tuple, Any]] | None = None

    def live_columns(self) -> dict[str, Any]:
        return {
            name: value
            for name, value in self.columns.items()
            if name not in self.tombstones
        }


class RowKeyIndex:
    """Sorted index from row keys to row positions (the per-hop lookup)."""

    def __init__(self, name: str = "rowkey-index", metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._keys: list[Any] = []
        self._positions: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def insert(self, key: Any, position: int) -> None:
        self.metrics.charge_index_update()
        if key not in self._positions:
            bisect.insort(self._keys, key)
        self._positions[key] = position

    def lookup(self, key: Any) -> int:
        """Resolve a row key to its position; one probe per call."""
        self.metrics.charge_index_probe()
        try:
            return self._positions[key]
        except KeyError:
            raise ElementNotFoundError(self.name, key) from None

    def contains(self, key: Any) -> bool:
        self.metrics.charge_index_probe()
        return key in self._positions

    def __contains__(self, key: Any) -> bool:
        """Membership without the probe :meth:`contains` books."""
        return key in self._positions

    def remove(self, key: Any) -> None:
        self.metrics.charge_index_update()
        self._positions.pop(key, None)
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            del self._keys[index]

    def keys(self) -> Iterator[Any]:
        yield from self._keys

    @property
    def size_in_bytes(self) -> int:
        return len(self._positions) * 24


class ColumnFamilyStore:
    """A sorted collection of wide rows addressed through a row-key index."""

    def __init__(
        self,
        name: str = "columnfamily",
        metrics: StorageMetrics | None = None,
        consistency_checks: bool = True,
    ) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        #: When true, every write re-reads the row to validate it first, the
        #: way Titan's consistency checks and schema inference slow writes.
        self.consistency_checks = consistency_checks
        self._rows: list[_Row] = []
        self.row_index = RowKeyIndex(f"{name}-rowkeys", metrics=self.metrics)

    def __len__(self) -> int:
        """Number of live (non-deleted) rows."""
        return sum(1 for row in self._rows if not row.deleted)

    @property
    def size_in_bytes(self) -> int:
        """Delta-encoded columns: charge per cell, cheaper for long rows."""
        total = self.row_index.size_in_bytes
        for row in self._rows:
            if row.deleted:
                total += 8  # tombstoned row marker
                continue
            total += 24  # row header
            # Delta encoding of sorted column names amortises the name cost.
            total += len(row.columns) * 12
            total += sum(len(str(value)) for value in row.columns.values())
            total += len(row.tombstones) * 4
        return total

    # -- row lifecycle --------------------------------------------------------------

    def create_row(self, key: Any) -> None:
        """Create an empty row for ``key``."""
        if self.consistency_checks and self.row_index.contains(key):
            raise ElementNotFoundError(self.name, key)
        row = _Row(key=key)
        self._rows.append(row)
        self.row_index.insert(key, len(self._rows) - 1)
        self.metrics.charge_record_write(1)

    def delete_row(self, key: Any) -> None:
        """Mark the row as deleted with a tombstone (data stays on disk)."""
        row = self._row(key)
        row.deleted = True
        row.slices = None
        self.row_index.remove(key)
        self.metrics.charge_record_write(1)

    def has_row(self, key: Any) -> bool:
        return self.row_index.contains(key)

    # -- cell operations ---------------------------------------------------------------

    def put(self, key: Any, column: str, value: Any) -> None:
        """Write one cell; consistency checks re-read the row first."""
        row = self._row(key)
        if self.consistency_checks:
            self.metrics.charge_record_read(1)
        row.columns[column] = value
        row.tombstones.discard(column)
        row.slices = None
        self.metrics.charge_record_write(1)

    def get(self, key: Any, column: str) -> Any:
        """Read one cell (None if absent or tombstoned)."""
        row = self._row(key)
        self.metrics.charge_record_read(1)
        if column in row.tombstones:
            return None
        return row.columns.get(column)

    def delete_cell(self, key: Any, column: str) -> None:
        """Tombstone one cell."""
        row = self._row(key)
        row.tombstones.add(column)
        row.slices = None
        self.metrics.charge_record_write(1)

    def row_columns(self, key: Any, prefix: str | None = None) -> dict[str, Any]:
        """Return the live cells of a row, optionally restricted to a prefix.

        A prefix-restricted read models Titan's vertex-centric layout where
        a slice of the adjacency list (one edge label) can be read without
        touching the other columns.
        """
        row = self._row(key)
        if prefix is None:
            selected = row.live_columns()
        else:
            # One pass: the cells outside the slice are never materialised.
            tombstones = row.tombstones
            selected = {
                name: value
                for name, value in row.columns.items()
                if name.startswith(prefix) and name not in tombstones
            }
        self.metrics.charge_record_read(max(1, len(selected)))
        return selected

    def adjacency_slice(self, key: Any, prefix: str) -> tuple[tuple, Any]:
        """Return ``(edge ids, opposite endpoints)`` for one adjacency slice.

        The vectorized frontier kernel's entry point: the columns under
        ``prefix`` must be edge payload cells (``{"id", "other", ...}``).
        Charges exactly what :meth:`row_columns` charges for the same slice
        — one record read per selected cell (minimum one) — whether the
        slice was parsed before or not; only the parse of the payloads into
        flat arrays is kept, on the row, until the row next changes.
        Endpoints come back as a numpy ``int64`` array when numpy is
        available, a tuple otherwise.
        """
        row = self._row(key)
        if row.slices is None:
            row.slices = {}
        parsed = row.slices.get(prefix)
        if parsed is None:
            payloads = [
                value
                for name, value in row.columns.items()
                if name not in row.tombstones and name.startswith(prefix)
            ]
            ids = tuple(payload["id"] for payload in payloads)
            others: Any = tuple(payload["other"] for payload in payloads)
            np = kernels.numpy()
            if np is not None:
                try:
                    others = np.array(others, dtype=np.int64)
                except (TypeError, ValueError, OverflowError):
                    pass  # non-integer endpoint ids stay a tuple
            parsed = row.slices[prefix] = (ids, others)
        self.metrics.charge_record_read(max(1, len(parsed[0])))
        return parsed

    # -- scans ------------------------------------------------------------------------

    def scan_rows(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Yield (key, live columns) for every live row in key order."""
        for key in list(self.row_index.keys()):
            yield key, self.row_columns(key)

    def row_keys(self) -> Iterator[Any]:
        yield from self.row_index.keys()

    # -- internals ---------------------------------------------------------------------

    def _row(self, key: Any) -> _Row:
        position = self.row_index.lookup(key)
        row = self._rows[position]
        if row.deleted:
            raise ElementNotFoundError(self.name, key)
        return row
