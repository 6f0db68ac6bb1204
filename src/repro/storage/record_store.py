"""Fixed-size record files in the style of Neo4j's node and relationship stores.

Neo4j stores nodes and relationships as fixed-size records whose identifier
*is* the offset into the store file (paper, Section 3.2): retrieving record
``i`` means reading ``record_size`` bytes at offset ``i * record_size``.  The
record holds only structural information — pointers to the first relationship
in a doubly-linked chain and to the first property block — so traversals never
touch attribute data.

:class:`RecordStore` reproduces that layout's cost: records are dictionaries
of small integers / short strings, and every slot write charges the pages of
the store file it touches and the bytes of its serialised payload.  The file
itself is only a page count — no path ever reads slot bytes back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import ElementNotFoundError, StorageError
from repro.storage.metrics import StorageMetrics

#: ``json.dumps(fields, default=str)`` builds an encoder per call; one
#: prebuilt encoder produces the same text.  It is ASCII (``ensure_ascii``),
#: so its length is its size in bytes.
_encode_fields = json.JSONEncoder(default=str).encode


@dataclass
class Record:
    """A slot in a :class:`RecordStore`.

    Attributes
    ----------
    record_id:
        Identifier of the record; equals its slot index in the store file.
    in_use:
        False once the record has been deleted; deleted slots are reusable.
    fields:
        The structural payload (pointers, label ids, and similar).
    """

    record_id: int
    in_use: bool = True
    fields: dict[str, object] = field(default_factory=dict)


class RecordStore:
    """A store of fixed-size records addressed directly by id.

    Parameters
    ----------
    name:
        Store name (e.g. ``"nodestore"`` or ``"relationshipstore"``).
    record_size:
        Simulated record size in bytes; determines how many records share a
        page and therefore how many page reads a scan costs.
    metrics:
        Counter charged for record and page accesses.
    page_size:
        Page size of the store file.
    """

    def __init__(
        self,
        name: str,
        record_size: int = 64,
        metrics: StorageMetrics | None = None,
        page_size: int = 8192,
    ) -> None:
        if record_size <= 0:
            raise StorageError("record size must be positive")
        if page_size <= 0:
            raise StorageError(f"page size must be positive, got {page_size}")
        self.name = name
        self.record_size = record_size
        self.page_size = page_size
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        #: Pages the store file has grown to.
        self._page_count = 0
        self._records: list[Record | None] = []
        self._free_list: list[int] = []
        self._live_count = 0

    # -- sizing ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (in-use) records."""
        return self._live_count

    @property
    def high_id(self) -> int:
        """One past the highest record id ever allocated."""
        return len(self._records)

    @property
    def size_in_bytes(self) -> int:
        """Simulated on-disk size of the store."""
        return max(self._page_count * self.page_size, self.high_id * self.record_size)

    # -- CRUD -------------------------------------------------------------------

    def allocate(self, fields: dict[str, object] | None = None) -> int:
        """Create a new record and return its id.

        Freed slots are reused before the store grows, like the id-reuse
        behaviour of fixed-size record files.
        """
        payload = dict(fields or {})
        if self._free_list:
            record_id = self._free_list.pop()
            self._records[record_id] = Record(record_id=record_id, fields=payload)
        else:
            record_id = len(self._records)
            self._records.append(Record(record_id=record_id, fields=payload))
        self._write_slot(record_id)
        self._live_count += 1
        return record_id

    def read(self, record_id: int) -> Record:
        """Return the record with ``record_id``; O(1) direct-offset access."""
        # Hot path of every traversal: inline the existence check and the
        # read charge (identical counter effect to charge_record_read).
        records = self._records
        if type(record_id) is int and 0 <= record_id < len(records):
            record = records[record_id]
            if record is not None:
                metrics = self.metrics
                metrics.records_read += 1
                metrics.bytes_read += self.record_size
                return record
        raise ElementNotFoundError(self.name, record_id)

    def update(self, record_id: int, fields: dict[str, object]) -> None:
        """Merge ``fields`` into the record's structural payload."""
        record = self._slot(record_id)
        record.fields.update(fields)
        self._write_slot(record_id)

    def replace(self, record_id: int, fields: dict[str, object]) -> None:
        """Replace the record's payload entirely."""
        record = self._slot(record_id)
        record.fields = dict(fields)
        self._write_slot(record_id)

    def free(self, record_id: int) -> None:
        """Delete the record, releasing its slot for reuse."""
        record = self._slot(record_id)
        record.in_use = False
        self._records[record_id] = None
        self._free_list.append(record_id)
        self._live_count -= 1
        self.metrics.charge_record_write(1, self.record_size)

    def bulk_read_view(self) -> list[Record | None]:
        """Direct slot list for trusted bulk readers.

        Engine bulk primitives that walk internally-consistent pointer
        chains may index this list directly instead of calling :meth:`read`
        per record; the caller MUST charge one record read per slot touched
        (``metrics.records_read`` / ``metrics.bytes_read``) so the cost
        model stays identical to the per-record path.
        """
        return self._records

    def exists(self, record_id: int) -> bool:
        """True if ``record_id`` refers to a live record."""
        return (
            isinstance(record_id, int)
            and not isinstance(record_id, bool)
            and 0 <= record_id < len(self._records)
            and self._records[record_id] is not None
        )

    # -- scans -----------------------------------------------------------------

    def scan(self) -> Iterator[Record]:
        """Iterate over live records in id order, charging sequential page reads."""
        records_per_page = max(1, self.page_size // self.record_size)
        for index, record in enumerate(self._records):
            if index % records_per_page == 0:
                self.metrics.charge_page_read(1, self.page_size)
            if record is not None:
                self.metrics.charge_record_read(1, self.record_size)
                yield record

    def ids(self) -> Iterator[int]:
        """Iterate over live record ids (same cost profile as :meth:`scan`)."""
        for record in self.scan():
            yield record.record_id

    # -- internals ----------------------------------------------------------------

    def _slot(self, record_id: int) -> Record:
        if not self.exists(record_id):
            raise ElementNotFoundError(self.name, record_id)
        record = self._records[record_id]
        assert record is not None
        return record

    def _write_slot(self, record_id: int) -> None:
        """Charge one slot write at offset ``record_id * record_size``.

        The payload is the record's JSON clamped to the fixed record size:
        this simulates the slot write, it is not a binary encoding.  A write
        past the end of the file first grows it by whole pages (one page
        write of ``page_size`` bytes each); the write itself is one page
        write per page it touches, carrying the payload's bytes.
        """
        record = self._records[record_id]
        assert record is not None
        length = min(len(_encode_fields(record.fields)), self.record_size)
        page_size = self.page_size
        offset = record_id * self.record_size
        end = offset + length
        metrics = self.metrics
        grown = (end + page_size - 1) // page_size - self._page_count
        if grown > 0:
            metrics.charge_page_write(grown, grown * page_size)
            self._page_count += grown
        metrics.charge_page_write((end - 1) // page_size - offset // page_size + 1, length)
        metrics.charge_record_write(1, self.record_size)
