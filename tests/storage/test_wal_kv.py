"""Key/value-separated WAL records (BVLSM-style) and the charged value log.

The distributed-transaction journal (PR 8) keeps oversized payload values
out of the WAL record stream: any value whose stable ``repr`` exceeds the
separation threshold is appended to a :class:`ValueLog` and the record
keeps only a :class:`ValuePointer` (slot, size, CRC32 of the value).
These tests pin the separation contract:

* small values stay inline — a pointer would not be smaller and recovery
  would pay a pointless dereference;
* oversized values separate, and :meth:`WriteAheadLog.resolve_payload`
  round-trips them back through a *charged* value-log read;
* the pointer carries the value's own checksum, so a torn value-log write
  surfaces as :class:`StorageError` at dereference time even though the
  WAL record (which only framed the pointer) verifies clean;
* value-log charges scale with value size (one page per started 4 KiB);
* a WAL without a value log is byte-for-byte unaffected.
"""

from __future__ import annotations

import pytest

from repro.exceptions import StorageError
from repro.storage.wal import (
    DEFAULT_VALUE_THRESHOLD,
    DurabilityMode,
    ValueLog,
    ValuePointer,
    WriteAheadLog,
    value_checksum,
)


def _kv_wal(threshold: int = DEFAULT_VALUE_THRESHOLD) -> WriteAheadLog:
    vlog = ValueLog(name="test-vlog")
    return WriteAheadLog(
        name="test-kv",
        mode=DurabilityMode.SYNC,
        value_log=vlog,
        value_threshold=threshold,
    )


BIG = "x" * 200  # repr is 202 bytes — beyond the 64-byte default threshold
SMALL = "tiny"


class TestSeparation:
    def test_small_values_stay_inline(self):
        wal = _kv_wal()
        record = wal.append("put", {"key": "a", "value": SMALL})
        assert record.payload["value"] == SMALL
        assert wal.separated_values == 0
        assert len(wal.value_log) == 0

    def test_oversized_values_become_pointers(self):
        wal = _kv_wal()
        record = wal.append("put", {"key": "a", "value": BIG})
        pointer = record.payload["value"]
        assert isinstance(pointer, ValuePointer)
        assert pointer.slot == 0
        assert pointer.size == len(repr(BIG))
        assert pointer.checksum == value_checksum(BIG)
        assert wal.separated_values == 1
        assert wal.separated_bytes == len(repr(BIG))
        assert len(wal.value_log) == 1

    def test_put_renders_and_checksums_the_value_once(self, monkeypatch):
        import zlib

        from repro.storage import wal as wal_module

        class Blob:
            reprs = 0

            def __repr__(self) -> str:
                Blob.reprs += 1
                return "B" * 5000

        crcs = []

        class CountingZlib:
            @staticmethod
            def crc32(data: bytes) -> int:
                crcs.append(data)
                return zlib.crc32(data)

        monkeypatch.setattr(wal_module, "zlib", CountingZlib)
        vlog = ValueLog(name="once")
        pointer = vlog.put(Blob())
        assert Blob.reprs == 1 and crcs == [b"B" * 5000]
        # ... and the pointer, the charges and the byte count are what they were.
        assert pointer == ValuePointer(slot=0, size=5000, checksum=zlib.crc32(b"B" * 5000))
        assert (vlog.metrics.page_writes, vlog.metrics.bytes_written) == (2, 5000)
        assert vlog.appended_bytes == 5000

    def test_threshold_is_configurable(self):
        wal = _kv_wal(threshold=2)
        record = wal.append("put", {"value": SMALL})
        assert isinstance(record.payload["value"], ValuePointer)

    def test_mixed_payload_separates_only_the_oversized_values(self):
        wal = _kv_wal()
        record = wal.append("put", {"small": SMALL, "big": BIG, "n": 7})
        assert record.payload["small"] == SMALL
        assert record.payload["n"] == 7
        assert isinstance(record.payload["big"], ValuePointer)
        assert wal.separated_values == 1

    def test_existing_pointers_pass_through_unseparated(self):
        wal = _kv_wal()
        pointer = wal.value_log.put(BIG)
        record = wal.append("put", {"value": pointer})
        assert record.payload["value"] is pointer
        # The WAL's own separation counter only counts values *it* split.
        assert wal.separated_values == 0


class TestResolution:
    def test_resolve_round_trips_separated_values(self):
        wal = _kv_wal()
        record = wal.append("put", {"key": "a", "value": BIG, "n": 3})
        resolved = wal.resolve_payload(record.payload)
        assert resolved == {"key": "a", "value": BIG, "n": 3}

    def test_resolution_is_charged(self):
        wal = _kv_wal()
        record = wal.append("put", {"value": BIG})
        before = wal.value_log.metrics.logical_io
        wal.resolve_payload(record.payload)
        assert wal.value_log.metrics.logical_io > before

    def test_charges_scale_with_value_size(self):
        vlog = ValueLog(name="pages")
        small_cost_before = vlog.metrics.logical_io
        vlog.put("x" * 100)
        small_cost = vlog.metrics.logical_io - small_cost_before
        big_cost_before = vlog.metrics.logical_io
        vlog.put("x" * 10_000)  # repr > 2 pages at 4 KiB each
        big_cost = vlog.metrics.logical_io - big_cost_before
        assert big_cost > small_cost

    def test_unknown_slot_raises(self):
        vlog = ValueLog(name="empty")
        with pytest.raises(StorageError):
            vlog.get(ValuePointer(slot=5, size=10, checksum=0))


class TestTornValues:
    def test_torn_value_log_write_surfaces_on_dereference(self):
        """The WAL record verifies clean; the *pointer's* checksum catches it."""
        wal = _kv_wal()
        record = wal.append("put", {"value": BIG})
        assert record.intact  # the record only framed the pointer
        wal.value_log.tear_slot(0)
        with pytest.raises(StorageError):
            wal.resolve_payload(record.payload)

    def test_replay_still_returns_the_record(self):
        """Torn values do not hide the record — recovery decides per pointer."""
        wal = _kv_wal()
        wal.append("put", {"value": BIG})
        wal.value_log.tear_slot(0)
        assert len(wal.replay()) == 1


class TestNoValueLog:
    def test_plain_wal_is_unchanged(self):
        wal = WriteAheadLog(name="plain", mode=DurabilityMode.SYNC)
        record = wal.append("put", {"value": BIG})
        assert record.payload["value"] == BIG
        assert wal.separated_values == 0
        assert wal.resolve_payload(record.payload) == {"value": BIG}
