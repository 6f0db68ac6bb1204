"""Off-loaded property storage used by the native engines.

The paper highlights that native graph databases keep attribute values away
from the structural records: Neo4j chains property blocks off each node /
relationship record, OrientDB stores attributes in separate records
(Section 3.2), and the conclusion singles this separation out as the most
effective organisation for typical graph queries (Section 6.5).

:class:`PropertyStore` models a chained block store: each element owns a
linked chain of property blocks, each block holding a single key/value pair.
Reading the *n*-th property of an element therefore costs *n* record reads,
while structural traversals never touch this store at all.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.metrics import StorageMetrics

_BLOCK_SIZE = 41  # bytes per property block, Neo4j-style small fixed block


class PropertyStore:
    """Chained key/value property blocks per owner element."""

    def __init__(self, name: str = "propertystore", metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._chains: dict[Any, list[tuple[str, Any]]] = {}
        self._block_count = 0

    @property
    def size_in_bytes(self) -> int:
        """Simulated footprint: every block plus the string store payload."""
        payload = 0
        for chain in self._chains.values():
            for key, value in chain:
                payload += len(str(key)) + len(str(value))
        return self._block_count * _BLOCK_SIZE + payload

    def __len__(self) -> int:
        """Total number of stored property blocks."""
        return self._block_count

    # -- writes -------------------------------------------------------------------

    def set_property(self, owner: Any, key: str, value: Any) -> None:
        """Set property ``key`` of ``owner`` to ``value`` (walks the chain)."""
        chain = self._chains.setdefault(owner, [])
        for position, (existing_key, _existing_value) in enumerate(chain):
            self.metrics.charge_record_read(1, _BLOCK_SIZE)
            if existing_key == key:
                chain[position] = (key, value)
                self.metrics.charge_record_write(1, _BLOCK_SIZE)
                return
        chain.append((key, value))
        self._block_count += 1
        self.metrics.charge_record_write(1, _BLOCK_SIZE)

    def set_properties(self, owner: Any, properties: dict[str, Any]) -> None:
        """Set several properties of ``owner`` at once."""
        for key, value in properties.items():
            self.set_property(owner, key, value)

    def remove_property(self, owner: Any, key: str) -> bool:
        """Remove property ``key`` of ``owner``; return True if it existed."""
        chain = self._chains.get(owner, [])
        for position, (existing_key, _existing_value) in enumerate(chain):
            self.metrics.charge_record_read(1, _BLOCK_SIZE)
            if existing_key == key:
                del chain[position]
                self._block_count -= 1
                self.metrics.charge_record_write(1, _BLOCK_SIZE)
                if not chain:
                    del self._chains[owner]
                return True
        return False

    def remove_owner(self, owner: Any) -> int:
        """Drop every property of ``owner``; return the number removed."""
        chain = self._chains.pop(owner, [])
        removed = len(chain)
        self._block_count -= removed
        if removed:
            self.metrics.charge_record_write(removed, removed * _BLOCK_SIZE)
        return removed

    # -- reads ----------------------------------------------------------------------

    def get_property(self, owner: Any, key: str) -> Any:
        """Return the value of property ``key`` of ``owner`` (None if absent)."""
        for existing_key, value in self._chains.get(owner, []):
            self.metrics.charge_record_read(1, _BLOCK_SIZE)
            if existing_key == key:
                return value
        return None

    def properties(self, owner: Any) -> dict[str, Any]:
        """Return every property of ``owner`` as a dictionary."""
        chain = self._chains.get(owner, [])
        if chain:
            self.metrics.charge_record_read(len(chain), len(chain) * _BLOCK_SIZE)
        return dict(chain)

    def owners(self) -> Iterator[Any]:
        """Yield every element that currently has at least one property."""
        yield from self._chains
