"""Write-ahead logging with synchronous and asynchronous durability.

The paper points out that ArangoDB registers updates in RAM and flushes them
to disk asynchronously, which flatters its client-side CUD latencies, while
the other engines pay for durable writes up front (Section 6.4).  The
engines reproduce this through :class:`WriteAheadLog`: synchronous mode
charges the page write at append time, asynchronous mode defers the charge
until :meth:`flush` is called (the harness flushes outside the timed region,
mirroring what the paper could observe from the client).

Torn tails
----------

A crash can interrupt the physical write of the last record ("torn write"):
the record's framing looks plausible but its payload never fully reached
stable storage.  Every record therefore carries a CRC32 checksum computed
over its logical content at append time; :meth:`replay` verifies the chain
and stops at the first mismatch, dropping the torn suffix instead of
resurrecting half-written records.  :meth:`tear_tail` is the fault
injector's hook: it simulates the torn write by corrupting the stored
checksum of the last appended record(s).  :meth:`truncate` (checkpointing)
honours the same rule — a torn record is *discarded*, never folded into the
checkpoint as if it had committed.

Key/value separation
--------------------

Large property payloads inflate every WAL record they ride in — the
commit path pays for bytes that recovery rarely needs to re-read.  BVLSM
(arXiv:2506.04678) separates them at WAL time: the log keeps a fixed-size
*pointer*, the value itself goes to an append-only **value log** charged on
its own metrics.  A :class:`WriteAheadLog` constructed with a
:class:`ValueLog` applies the same split transparently in :meth:`append`:
any payload item whose stable ``repr`` exceeds ``value_threshold`` bytes is
swapped for a :class:`ValuePointer` before the record is framed and
checksummed.  :meth:`resolve_payload` dereferences the pointers on the
recovery path (a charged value-log read that verifies the value's own
CRC32).  A log without a value log behaves exactly as before — the
separation is opt-in per log, so engine WALs keep their historical charge
sequences.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.exceptions import StorageError
from repro.storage.metrics import StorageMetrics


class DurabilityMode(enum.Enum):
    """How eagerly log records reach simulated stable storage."""

    SYNC = "sync"
    ASYNC = "async"


_BY_KEY = itemgetter(0)


def record_checksum(sequence: int, operation: str, payload: dict[str, Any]) -> int:
    """CRC32 over a record's logical content: sequence, operation, every item.

    Items are ordered by key, so the checksum does not depend on insertion
    order.  Payload keys are field names — strings everywhere in this
    repository; keys that do not order among themselves (``1`` next to
    ``"a"``) fall back to ordering the items by their ``repr``, which is
    equally insertion-order-independent, so framing a record never raises.
    """
    try:
        items = sorted(payload.items(), key=_BY_KEY)
    except TypeError:
        items = sorted(payload.items(), key=repr)
    return zlib.crc32(f"{sequence}:{operation}:{items!r}".encode())


def value_checksum(value: Any) -> int:
    """CRC32 over a value's stable ``repr`` (the value log's torn-write guard)."""
    return zlib.crc32(repr(value).encode())


#: Payload values whose ``repr`` exceeds this many bytes are separated into
#: the value log (when one is attached).  Small values stay inline: a
#: pointer would not be smaller, and recovery would pay a pointless
#: dereference for them.
DEFAULT_VALUE_THRESHOLD = 64

#: Simulated page size for value-log charging: one page per started
#: 4 KiB of value bytes, so a huge blob costs proportionally more than
#: the flat 64-byte WAL record frame.
VALUE_PAGE_BYTES = 4096


@dataclass(frozen=True)
class ValuePointer:
    """A WAL-resident reference to a value stored in the value log."""

    slot: int
    size: int
    #: CRC32 of the referenced value, carried in the *pointer* so a torn
    #: value-log write is detected even though the WAL record itself (which
    #: only framed the pointer) verifies clean.
    checksum: int

    def __repr__(self) -> str:
        return f"ValuePointer(slot={self.slot}, size={self.size}, checksum={self.checksum})"


class ValueLog:
    """An append-only charged store for WAL-separated large values.

    Writes charge ``1 + size // 4096`` pages on the log's own metrics;
    reads charge the same (recovery pays to dereference only the pointers
    it actually follows, which is the whole point of the separation).
    """

    def __init__(self, name: str = "vlog", metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._values: list[Any] = []
        self._checksums: list[int] = []
        self.appended_bytes = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def size_in_bytes(self) -> int:
        return self.appended_bytes

    @staticmethod
    def _pages(size: int) -> int:
        return 1 + size // VALUE_PAGE_BYTES

    def put(self, value: Any) -> ValuePointer:
        """Append ``value``; returns the pointer the WAL record keeps."""
        text = repr(value)
        size = len(text)
        checksum = zlib.crc32(text.encode())
        self.metrics.charge_page_write(self._pages(size), size)
        slot = len(self._values)
        self._values.append(value)
        self._checksums.append(checksum)
        self.appended_bytes += size
        return ValuePointer(slot=slot, size=size, checksum=checksum)

    def get(self, pointer: ValuePointer) -> Any:
        """Dereference ``pointer`` (charged); raises on a torn value write."""
        if not 0 <= pointer.slot < len(self._values):
            raise StorageError(
                f"value log {self.name!r} has no slot {pointer.slot}"
            )
        self.metrics.charge_page_read(self._pages(pointer.size), pointer.size)
        value = self._values[pointer.slot]
        if self._checksums[pointer.slot] != pointer.checksum:
            raise StorageError(
                f"value log {self.name!r} slot {pointer.slot} is torn: "
                "stored checksum does not match the pointer"
            )
        return value

    def tear_slot(self, slot: int) -> None:
        """Fault hook: corrupt one stored value (a torn value-log write)."""
        if 0 <= slot < len(self._checksums):
            self._checksums[slot] ^= 0xFFFFFFFF


@dataclass(slots=True)
class LogRecord:
    """A single logical WAL entry."""

    sequence: int
    operation: str
    payload: dict[str, Any]
    #: CRC32 of the logical content (:func:`record_checksum`), computed by
    #: :meth:`WriteAheadLog.append`.  A mismatch on replay means the
    #: physical write was torn mid-record.
    checksum: int

    @property
    def intact(self) -> bool:
        """Whether the stored checksum matches the logical content."""
        return self.checksum == record_checksum(self.sequence, self.operation, self.payload)


class WriteAheadLog:
    """An append-only operation log with configurable durability."""

    def __init__(
        self,
        name: str = "wal",
        mode: DurabilityMode = DurabilityMode.SYNC,
        metrics: StorageMetrics | None = None,
        value_log: ValueLog | None = None,
        value_threshold: int = DEFAULT_VALUE_THRESHOLD,
    ) -> None:
        self.name = name
        self.mode = mode
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        #: When set, :meth:`append` separates any payload value whose stable
        #: ``repr`` exceeds ``value_threshold`` bytes into this value log,
        #: keeping only a :class:`ValuePointer` in the record.
        self.value_log = value_log
        self.value_threshold = value_threshold
        self._records: list[LogRecord] = []
        self._durable_upto = 0
        self._next_sequence = 1
        #: Torn records discarded so far (by truncate/crash handling).
        self.torn_discarded = 0
        #: Payload values separated into the value log so far.
        self.separated_values = 0
        #: Bytes those separated values would have added to WAL records.
        self.separated_bytes = 0

    def __len__(self) -> int:
        """Total number of appended records."""
        return len(self._records)

    @property
    def pending(self) -> int:
        """Records appended but not yet durable."""
        return len(self._records) - self._durable_upto

    @property
    def last_sequence(self) -> int:
        """Highest LSN handed out so far (0 before the first append).

        Monotonic for the lifetime of the log — a checkpoint truncation
        never resets it, so replay ordering survives checkpoints.
        """
        return self._next_sequence - 1

    @property
    def size_in_bytes(self) -> int:
        return sum(64 + len(str(record.payload)) for record in self._records)

    def _separate(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Swap oversized payload values for value-log pointers (KV split)."""
        separated: dict[str, Any] = {}
        for key, value in payload.items():
            if isinstance(value, ValuePointer):
                separated[key] = value
                continue
            size = len(repr(value))
            if size > self.value_threshold:
                separated[key] = self.value_log.put(value)
                self.separated_values += 1
                self.separated_bytes += size
            else:
                separated[key] = value
        return separated

    def resolve_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Dereference value-log pointers in ``payload`` (the recovery read).

        Each pointer costs a charged value-log read and verifies the
        value's own checksum — a torn value-log write surfaces here as
        :class:`~repro.exceptions.StorageError` instead of resurrecting a
        half-written blob.
        """
        if self.value_log is None:
            return dict(payload)
        resolved: dict[str, Any] = {}
        for key, value in payload.items():
            resolved[key] = self.value_log.get(value) if isinstance(value, ValuePointer) else value
        return resolved

    def append(self, operation: str, payload: dict[str, Any] | None = None) -> LogRecord:
        """Append a record; in SYNC mode the write is charged immediately.

        The record is framed in one pass: payload copied, large values
        separated when a value log is attached, checksum computed once.
        """
        payload = dict(payload) if payload else {}
        if self.value_log is not None:
            payload = self._separate(payload)
        sequence = self._next_sequence
        record = LogRecord(
            sequence, operation, payload, record_checksum(sequence, operation, payload)
        )
        self._next_sequence = sequence + 1
        self._records.append(record)
        if self.mode is DurabilityMode.SYNC:
            metrics = self.metrics
            metrics.page_writes += 1
            metrics.bytes_written += 64
            self._durable_upto = len(self._records)
        return record

    def flush(self) -> int:
        """Force pending records to stable storage; return how many were flushed."""
        pending = self.pending
        if pending:
            self.metrics.charge_page_write(pending, pending * 64)
            self._durable_upto = len(self._records)
        return pending

    def tear_tail(self, records: int = 1) -> int:
        """Simulate a torn write: corrupt the checksum of the last record(s).

        Models a crash that interrupted the physical write mid-record — the
        framing survives but the content never fully hit stable storage.
        Returns how many records were actually torn (bounded by the log's
        durable length: an unflushed ASYNC record is simply *lost* on crash,
        it cannot be torn because it was never being written).
        """
        torn = min(max(records, 0), self._durable_upto)
        for record in self._records[self._durable_upto - torn : self._durable_upto]:
            record.checksum ^= 0xFFFFFFFF
        return torn

    def _verified_durable(self) -> int:
        """Length of the checksum-verified durable prefix."""
        verified = 0
        for record in self._records[: self._durable_upto]:
            if not record.intact:
                break
            verified += 1
        return verified

    def replay(self) -> list[LogRecord]:
        """Return the verified durable prefix in order (crash-recovery view).

        Unflushed ASYNC records are excluded by construction: they never
        reached simulated stable storage, so a crash would lose them.  A
        checksum mismatch ends the replay — everything from the first torn
        record on is dropped rather than trusted on framing alone.
        """
        return list(self._records[: self._verified_durable()])

    def truncate(self) -> int:
        """Checkpoint: drop verified durable records, keep undurable ones.

        A checkpoint can only cover state that verifiably reached stable
        storage: records appended in ASYNC mode but not yet flushed survive
        the truncation (and still flush later), while torn records — durable
        framing, corrupt content — are *discarded outright* instead of being
        resurrected into the checkpoint or left masquerading as pending
        writes.  The checkpoint itself writes one page (the checkpoint
        marker), which is charged here; sequence numbers keep increasing
        across truncations so LSNs stay monotonic.  Returns the number of
        verified records dropped (torn discards are counted separately in
        :attr:`torn_discarded`).
        """
        verified = self._verified_durable()
        torn = self._durable_upto - verified
        self.torn_discarded += torn
        self._records = self._records[self._durable_upto :]
        self._durable_upto = 0
        self.metrics.charge_page_write(1, 64)
        return verified
