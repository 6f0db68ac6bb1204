"""Storage substrates used by the simulated graph database engines.

Every engine in :mod:`repro.engines` is assembled from the primitives in this
package, which are written from scratch so that the architectural differences
between the paper's systems (linked record files, B+Trees, bitmaps, document
collections, triple indexes, relational tables, wide-column adjacency lists)
are reflected in actual data-structure work rather than being mocked.
"""

from repro.storage.metrics import StorageMetrics, MetricsRegistry
from repro.storage.record_store import RecordStore, Record
from repro.storage.indirection import IndirectionTable
from repro.storage.btree import BPlusTree
from repro.storage.hash_index import HashIndex
from repro.storage.bitmap import Bitmap, BitmapIndex
from repro.storage.property_store import PropertyStore
from repro.storage.document_store import DocumentCollection, DocumentStore
from repro.storage.triple_store import TripleStore, Triple
from repro.storage.columnar import ColumnFamilyStore, RowKeyIndex
from repro.storage.wal import (
    DEFAULT_VALUE_THRESHOLD,
    DurabilityMode,
    ValueLog,
    ValuePointer,
    WriteAheadLog,
)
from repro.storage.relational import (
    Column,
    RelationalDatabase,
    Table,
    TableSchema,
)

__all__ = [
    "StorageMetrics",
    "MetricsRegistry",
    "RecordStore",
    "Record",
    "IndirectionTable",
    "BPlusTree",
    "HashIndex",
    "Bitmap",
    "BitmapIndex",
    "PropertyStore",
    "DocumentCollection",
    "DocumentStore",
    "TripleStore",
    "Triple",
    "ColumnFamilyStore",
    "RowKeyIndex",
    "WriteAheadLog",
    "DurabilityMode",
    "DEFAULT_VALUE_THRESHOLD",
    "ValueLog",
    "ValuePointer",
    "Column",
    "RelationalDatabase",
    "Table",
    "TableSchema",
]
