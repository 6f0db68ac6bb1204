"""Hash index with bucket-level accounting.

ArangoDB accelerates edge traversals with a specialised hash index on edge
endpoints, and several engines use hash indexes for point lookups on ids or
property values (paper, Sections 3.1 and 3.2).  The implementation uses
separate chaining over a growable bucket array so that load-factor driven
rehashing shows up as index maintenance work.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.metrics import StorageMetrics

_INITIAL_BUCKETS = 16
_MAX_LOAD_FACTOR = 4.0


class HashIndex:
    """A multi-map hash index from hashable keys to lists of values."""

    def __init__(
        self,
        name: str = "hash-index",
        metrics: StorageMetrics | None = None,
        unique: bool = False,
    ) -> None:
        self.name = name
        self.unique = unique
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._buckets: list[list[tuple[Any, list[Any]]]] = [
            [] for _ in range(_INITIAL_BUCKETS)
        ]
        self._size = 0
        self._key_count = 0
        self._rehash_count = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored (key, value) pairs."""
        return self._size

    @property
    def key_count(self) -> int:
        return self._key_count

    @property
    def rehash_count(self) -> int:
        return self._rehash_count

    @property
    def size_in_bytes(self) -> int:
        """Rough simulated footprint."""
        return self._size * 24 + len(self._buckets) * 8

    # -- core operations ----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``."""
        self.metrics.charge_index_update()
        bucket = self._bucket_for(key)
        for stored_key, values in bucket:
            if stored_key == key:
                if self.unique:
                    removed = len(values)
                    values.clear()
                    values.append(value)
                    self._size += 1 - removed
                else:
                    values.append(value)
                    self._size += 1
                return
        bucket.append((key, [value]))
        self._size += 1
        self._key_count += 1
        if self._size / len(self._buckets) > _MAX_LOAD_FACTOR:
            self._rehash()

    def lookup(self, key: Any) -> list[Any]:
        """Return the values stored under ``key`` (empty list if absent)."""
        self.metrics.charge_index_probe()
        for stored_key, values in self._bucket_for(key):
            if stored_key == key:
                return list(values)
        return []

    def contains(self, key: Any) -> bool:
        self.metrics.charge_index_probe()
        return any(stored_key == key for stored_key, _ in self._bucket_for(key))

    def delete(self, key: Any, value: Any = None) -> int:
        """Remove ``value`` (or every value) under ``key``; return pairs removed."""
        self.metrics.charge_index_update()
        bucket = self._bucket_for(key)
        for position, (stored_key, values) in enumerate(bucket):
            if stored_key != key:
                continue
            if value is None:
                removed = len(values)
                del bucket[position]
                self._size -= removed
                self._key_count -= 1
                return removed
            if value in values:
                values.remove(value)
                self._size -= 1
                if not values:
                    del bucket[position]
                    self._key_count -= 1
                return 1
            return 0
        return 0

    def keys(self) -> Iterator[Any]:
        """Yield every distinct key (bucket order, unspecified)."""
        for bucket in self._buckets:
            for key, _values in bucket:
                self.metrics.charge_index_probe()
                yield key

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Yield every (key, value) pair."""
        for bucket in self._buckets:
            for key, values in bucket:
                self.metrics.charge_index_probe()
                for value in values:
                    yield key, value

    # -- internals -------------------------------------------------------------------

    def _bucket_for(self, key: Any) -> list[tuple[Any, list[Any]]]:
        return self._buckets[hash(key) % len(self._buckets)]

    def _rehash(self) -> None:
        self._rehash_count += 1
        old_buckets = self._buckets
        self._buckets = [[] for _ in range(len(old_buckets) * 2)]
        self.metrics.charge_index_update(len(old_buckets))
        for bucket in old_buckets:
            for key, values in bucket:
                self._buckets[hash(key) % len(self._buckets)].append((key, values))
