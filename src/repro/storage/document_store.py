"""A JSON document store in the style of ArangoDB.

ArangoDB represents every node and edge as a self-contained JSON document
serialised into a compressed binary format; edge documents reference the
``_from`` and ``_to`` vertex documents and a hash index on edge endpoints
accelerates traversals (paper, Section 3.2).  Reads materialise the whole
document, which is why full edge scans were so painful for ArangoDB in the
paper (Section 6.4, "Edge iteration ... materializes all edges while counting
them").

:class:`DocumentCollection` stores serialised documents keyed by ``_key``;
:class:`DocumentStore` groups collections and provides the endpoint hash
indexes.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Iterable, Iterator

from repro.exceptions import DuplicateElementError, ElementNotFoundError
from repro.storage.hash_index import HashIndex
from repro.storage.metrics import StorageMetrics


class DocumentCollection:
    """A named collection of JSON documents with ``_key`` primary keys."""

    def __init__(self, name: str, metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._documents: dict[Any, bytes] = {}

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def size_in_bytes(self) -> int:
        return sum(len(blob) for blob in self._documents.values()) + len(self._documents) * 16

    # -- CRUD ------------------------------------------------------------------

    def insert(self, key: Any, document: dict[str, Any]) -> None:
        """Insert a new document; the key must not already exist."""
        if key in self._documents:
            raise DuplicateElementError(f"document {key!r} already in {self.name!r}")
        blob = self._serialize({**document, "_key": key})
        self._documents[key] = blob
        self.metrics.charge_record_write(1, len(blob))

    def get(self, key: Any) -> dict[str, Any]:
        """Fetch and fully materialise the document stored under ``key``."""
        try:
            blob = self._documents[key]
        except KeyError:
            raise ElementNotFoundError(self.name, key) from None
        self.metrics.charge_record_read(1, len(blob))
        return self._deserialize(blob)

    def exists(self, key: Any) -> bool:
        return key in self._documents

    def update(self, key: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Merge ``changes`` into the document and re-serialise it."""
        document = self.get(key)
        document.update(changes)
        blob = self._serialize(document)
        self._documents[key] = blob
        self.metrics.charge_record_write(1, len(blob))
        return document

    def replace(self, key: Any, document: dict[str, Any]) -> None:
        """Replace the document stored under ``key``."""
        if key not in self._documents:
            raise ElementNotFoundError(self.name, key)
        blob = self._serialize({**document, "_key": key})
        self._documents[key] = blob
        self.metrics.charge_record_write(1, len(blob))

    def remove(self, key: Any) -> None:
        """Delete the document stored under ``key``."""
        if key not in self._documents:
            raise ElementNotFoundError(self.name, key)
        del self._documents[key]
        self.metrics.charge_record_write(1)

    def get_many(self, keys: Iterable[Any]) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Fetch a batch of documents, yielding ``(key, document)`` in input order.

        The batch scan entry point for the document engine's bulk
        primitives: each document is charged exactly like :meth:`get`
        (one record read of the blob size) but the per-key generator and
        exception machinery is a single flat loop.
        """
        documents = self._documents
        metrics = self.metrics
        for key in keys:
            try:
                blob = documents[key]
            except KeyError:
                raise ElementNotFoundError(self.name, key) from None
            metrics.charge_record_read(1, len(blob))
            yield key, self._deserialize(blob)

    def recharge_read(self, key: Any) -> None:
        """Charge one more logical read of ``key`` without re-materialising it.

        Walks that already hold a parsed document but whose modelled
        system would fetch the block again call this to keep the
        logical charges identical while skipping the duplicate
        decompress/parse (interpreter overhead, not simulated disk work).
        """
        try:
            blob = self._documents[key]
        except KeyError:
            raise ElementNotFoundError(self.name, key) from None
        self.metrics.charge_record_read(1, len(blob))

    # -- scans --------------------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        """Yield document keys without materialising the documents."""
        for key in self._documents:
            self.metrics.charge_index_probe()
            yield key

    def scan(self) -> Iterator[dict[str, Any]]:
        """Yield every document, fully materialised (the expensive path)."""
        for key in list(self._documents):
            yield self.get(key)

    # -- serialisation ---------------------------------------------------------------

    def _serialize(self, document: dict[str, Any]) -> bytes:
        raw = json.dumps(document, default=str, sort_keys=True).encode()
        return zlib.compress(raw, level=1)

    def _deserialize(self, blob: bytes) -> dict[str, Any]:
        return json.loads(zlib.decompress(blob).decode())


class DocumentStore:
    """A set of named document collections plus edge-endpoint hash indexes."""

    def __init__(self, metrics: StorageMetrics | None = None) -> None:
        self.metrics = metrics if metrics is not None else StorageMetrics(owner="documentstore")
        self._collections: dict[str, DocumentCollection] = {}
        #: hash indexes automatically built on the ``_from``/``_to`` fields of
        #: edge collections, as ArangoDB does.
        self.edge_from_index = HashIndex("edge-from", metrics=self.metrics)
        self.edge_to_index = HashIndex("edge-to", metrics=self.metrics)

    def collection(self, name: str) -> DocumentCollection:
        """Return (creating on first use) the collection called ``name``."""
        if name not in self._collections:
            self._collections[name] = DocumentCollection(name, metrics=self.metrics)
        return self._collections[name]

    def collections(self) -> Iterator[DocumentCollection]:
        yield from self._collections.values()

    @property
    def size_in_bytes(self) -> int:
        total = sum(collection.size_in_bytes for collection in self._collections.values())
        total += self.edge_from_index.size_in_bytes + self.edge_to_index.size_in_bytes
        return total
