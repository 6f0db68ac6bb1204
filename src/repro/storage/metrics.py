"""Logical I/O and memory accounting shared by every storage substrate.

The paper compares systems by wall-clock time on a fixed machine.  A pure
Python reproduction cannot match absolute times, so in addition to wall-clock
measurements the harness records *logical work*: page reads and writes, index
probes, records touched, and bytes of materialised intermediate state.  Each
storage structure charges its work to a :class:`StorageMetrics` instance owned
by its engine, and the benchmark reports can use either wall time or logical
I/O as the cost metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MemoryBudgetExceededError


@dataclass
class StorageMetrics:
    """Mutable counters describing the logical work an engine performed."""

    page_reads: int = 0
    page_writes: int = 0
    index_probes: int = 0
    index_updates: int = 0
    records_read: int = 0
    records_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    materialized_bytes: int = 0
    peak_materialized_bytes: int = 0
    network_round_trips: int = 0

    #: Optional cap on ``materialized_bytes``; ``None`` disables the check.
    memory_budget: int | None = None
    #: Name used in memory-budget error messages.
    owner: str = "engine"

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "index_probes": self.index_probes,
            "index_updates": self.index_updates,
            "records_read": self.records_read,
            "records_written": self.records_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "peak_materialized_bytes": self.peak_materialized_bytes,
            "network_round_trips": self.network_round_trips,
        }

    def reset(self) -> None:
        """Zero every counter (memory budget and owner are preserved)."""
        self.page_reads = 0
        self.page_writes = 0
        self.index_probes = 0
        self.index_updates = 0
        self.records_read = 0
        self.records_written = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.materialized_bytes = 0
        self.peak_materialized_bytes = 0
        self.network_round_trips = 0

    @property
    def logical_io(self) -> int:
        """Aggregate logical I/O cost used by reports as a scale-free metric."""
        return (
            self.page_reads
            + self.page_writes
            + self.index_probes
            + self.index_updates
            + self.records_read
            + self.records_written
        )

    # -- charging helpers -------------------------------------------------

    def charge_page_read(self, count: int = 1, nbytes: int = 0) -> None:
        self.page_reads += count
        self.bytes_read += nbytes

    def charge_page_write(self, count: int = 1, nbytes: int = 0) -> None:
        self.page_writes += count
        self.bytes_written += nbytes

    def charge_index_probe(self, count: int = 1) -> None:
        self.index_probes += count

    def charge_index_update(self, count: int = 1) -> None:
        self.index_updates += count

    def charge_record_read(self, count: int = 1, nbytes: int = 0) -> None:
        self.records_read += count
        self.bytes_read += nbytes

    def charge_record_write(self, count: int = 1, nbytes: int = 0) -> None:
        self.records_written += count
        self.bytes_written += nbytes

    def charge_round_trip(self) -> None:
        self.network_round_trips += 1

    # -- memory budget -----------------------------------------------------

    def allocate(self, nbytes: int) -> None:
        """Record ``nbytes`` of materialised intermediate state.

        Raises :class:`MemoryBudgetExceededError` if a budget is configured
        and the allocation pushes usage past it.
        """
        self.materialized_bytes += nbytes
        if self.materialized_bytes > self.peak_materialized_bytes:
            self.peak_materialized_bytes = self.materialized_bytes
        if (
            self.memory_budget is not None
            and self.materialized_bytes > self.memory_budget
        ):
            raise MemoryBudgetExceededError(
                self.owner, self.materialized_bytes, self.memory_budget
            )

    def release(self, nbytes: int) -> None:
        """Release previously allocated intermediate state."""
        self.materialized_bytes = max(0, self.materialized_bytes - nbytes)


@dataclass
class MetricsRegistry:
    """Registry that hands out named :class:`StorageMetrics` instances.

    Engines own one registry so that sub-structures (e.g. each B+Tree of a
    triple store) can keep their own counters while still rolling up to a
    single engine-level summary.
    """

    metrics: dict[str, StorageMetrics] = field(default_factory=dict, init=False)

    def get(self, name: str) -> StorageMetrics:
        if name not in self.metrics:
            self.metrics[name] = StorageMetrics(owner=name)
        return self.metrics[name]

    def combined(self) -> StorageMetrics:
        """Return a new metrics object holding the sum of every registered one."""
        total = StorageMetrics(owner="combined")
        for part in self.metrics.values():
            total.page_reads += part.page_reads
            total.page_writes += part.page_writes
            total.index_probes += part.index_probes
            total.index_updates += part.index_updates
            total.records_read += part.records_read
            total.records_written += part.records_written
            total.bytes_read += part.bytes_read
            total.bytes_written += part.bytes_written
            total.peak_materialized_bytes += part.peak_materialized_bytes
            total.network_round_trips += part.network_round_trips
        return total

    def logical_io(self) -> int:
        """``combined().logical_io`` without building the combined object.

        This sum is the simulated clock — read around every scheduled
        operation, session begin and shard superstep — so it adds the six
        fields of :attr:`StorageMetrics.logical_io` per part and allocates
        nothing.
        """
        total = 0
        for part in self.metrics.values():
            total += (
                part.page_reads
                + part.page_writes
                + part.index_probes
                + part.index_updates
                + part.records_read
                + part.records_written
            )
        return total

    def reset(self) -> None:
        for part in self.metrics.values():
            part.reset()
