"""Unit tests for metrics, record stores, and indirection tables."""

from __future__ import annotations

import pytest

from repro.exceptions import ElementNotFoundError, MemoryBudgetExceededError, StorageError
from repro.storage.indirection import IndirectionTable
from repro.storage.metrics import MetricsRegistry, StorageMetrics
from repro.storage.record_store import RecordStore


class TestStorageMetrics:
    def test_counters_start_at_zero(self):
        metrics = StorageMetrics()
        assert metrics.logical_io == 0
        assert metrics.snapshot()["page_reads"] == 0

    def test_charges_accumulate(self):
        metrics = StorageMetrics()
        metrics.charge_page_read(2, 100)
        metrics.charge_index_probe(3)
        metrics.charge_record_write(1, 50)
        assert metrics.page_reads == 2
        assert metrics.bytes_read == 100
        assert metrics.index_probes == 3
        assert metrics.records_written == 1
        assert metrics.logical_io == 6

    def test_reset_clears_counters(self):
        metrics = StorageMetrics()
        metrics.charge_page_write(5, 10)
        metrics.reset()
        assert metrics.logical_io == 0
        assert metrics.bytes_written == 0

    def test_memory_budget_enforced(self):
        metrics = StorageMetrics(memory_budget=100, owner="test")
        metrics.allocate(60)
        with pytest.raises(MemoryBudgetExceededError):
            metrics.allocate(60)

    def test_release_reduces_usage(self):
        metrics = StorageMetrics(memory_budget=100)
        metrics.allocate(80)
        metrics.release(70)
        metrics.allocate(60)  # fits again after the release
        assert metrics.peak_materialized_bytes == 80

    def test_no_budget_means_unlimited(self):
        metrics = StorageMetrics()
        metrics.allocate(10**9)
        assert metrics.peak_materialized_bytes == 10**9

    def test_registry_combines_counters(self):
        registry = MetricsRegistry()
        registry.get("a").charge_page_read(1)
        registry.get("b").charge_page_read(2)
        assert registry.combined().page_reads == 3

    def test_registry_reuses_instances(self):
        registry = MetricsRegistry()
        assert registry.get("x") is registry.get("x")

    def test_registry_reset(self):
        registry = MetricsRegistry()
        registry.get("a").charge_index_probe(5)
        registry.reset()
        assert registry.combined().index_probes == 0


class TestRecordStore:
    def test_allocate_assigns_sequential_ids(self):
        store = RecordStore("records", record_size=32)
        assert store.allocate({"a": 1}) == 0
        assert store.allocate({"a": 2}) == 1
        assert len(store) == 2

    def test_read_returns_fields(self):
        store = RecordStore("records")
        record_id = store.allocate({"kind": "node"})
        assert store.read(record_id).fields["kind"] == "node"

    def test_update_merges_fields(self):
        store = RecordStore("records")
        record_id = store.allocate({"a": 1})
        store.update(record_id, {"b": 2})
        assert store.read(record_id).fields == {"a": 1, "b": 2}

    def test_replace_overwrites_fields(self):
        store = RecordStore("records")
        record_id = store.allocate({"a": 1})
        store.replace(record_id, {"c": 3})
        assert store.read(record_id).fields == {"c": 3}

    def test_free_then_read_raises(self):
        store = RecordStore("records")
        record_id = store.allocate()
        store.free(record_id)
        assert not store.exists(record_id)
        with pytest.raises(ElementNotFoundError):
            store.read(record_id)

    def test_freed_slots_are_reused(self):
        store = RecordStore("records")
        first = store.allocate()
        store.allocate()
        store.free(first)
        assert store.allocate() == first

    def test_scan_yields_only_live_records(self):
        store = RecordStore("records")
        keep = store.allocate({"v": "keep"})
        drop = store.allocate({"v": "drop"})
        store.free(drop)
        assert [record.record_id for record in store.scan()] == [keep]

    def test_size_grows_with_records(self):
        store = RecordStore("records", record_size=64)
        before = store.size_in_bytes
        for _ in range(10):
            store.allocate({"x": 1})
        assert store.size_in_bytes > before

    def test_invalid_record_size_rejected(self):
        with pytest.raises(StorageError):
            RecordStore("bad", record_size=0)

    def test_invalid_page_size_rejected(self):
        with pytest.raises(StorageError, match="page size"):
            RecordStore("bad", page_size=0)

    def test_slot_writes_charge_pages_touched_and_payload_bytes(self):
        """(page_writes, bytes_written, records_written) after each write.

        24-byte slots on 64-byte pages, so slot 2 straddles pages 0 and 1.
        A write past the end grows the file by whole pages (one page write
        of 64 bytes each), then charges one page write per page it touches
        carrying the JSON payload clamped to the slot: ``{"a": 1}`` is 8
        bytes, the long payloads are clamped to 24.  Every write and every
        free is one 24-byte record write.
        """
        store = RecordStore("records", record_size=24, page_size=64)
        metrics = store.metrics
        long = {"name": "x" * 40}
        steps = [
            ("allocate short, grows page 0", lambda: store.allocate({"a": 1}), (2, 96, 1)),
            ("allocate long", lambda: store.allocate(long), (3, 144, 2)),
            ("allocate long, grows page 1, straddles", lambda: store.allocate(long), (6, 256, 3)),
            ("update to long", lambda: store.update(0, {"b": "y" * 30}), (7, 304, 4)),
            ("replace with short", lambda: store.replace(2, {"c": 3}), (8, 336, 5)),
            ("update, still short", lambda: store.update(2, {"d": 4}), (9, 376, 6)),
            ("free", lambda: store.free(1), (9, 400, 7)),
            ("allocate short into the freed slot", lambda: store.allocate({"e": 5}), (10, 432, 8)),
        ]
        for name, step, expected in steps:
            step()
            charged = (metrics.page_writes, metrics.bytes_written, metrics.records_written)
            assert charged == expected, name
        assert store.size_in_bytes == 128

    def test_default_store_charges_one_page_then_the_payload(self):
        """64-byte slots on 8 KiB pages: the first write grows one page
        (8192 bytes), then carries its 8 payload bytes; a 92-byte payload
        is clamped to 64."""
        store = RecordStore("records")
        metrics = store.metrics
        steps = [
            ("allocate short", lambda: store.allocate({"a": 1}), (2, 8264, 1)),
            ("replace with long", lambda: store.replace(0, {"name": "x" * 80}), (3, 8392, 2)),
            ("free", lambda: store.free(0), (3, 8456, 3)),
        ]
        for name, step, expected in steps:
            step()
            charged = (metrics.page_writes, metrics.bytes_written, metrics.records_written)
            assert charged == expected, name
        assert store.size_in_bytes == 8192

    #: (record_size, page_size, payloads allocated in order) ->
    #: ((page_writes, bytes_written, records_written), size_in_bytes).
    #: The payload is its ASCII JSON text clamped to the slot; values that
    #: are not JSON are written as their ``str``.
    LAYOUTS = {
        "payload-exactly-fills-the-slot": ((8, 64, [{"a": 1}]), ((2, 80, 1), 64)),
        "payload-one-byte-over-is-clamped": ((7, 64, [{"a": 1}]), ((2, 78, 1), 64)),
        "empty-payload": ((32, 64, [{}]), ((2, 98, 1), 64)),
        "slot-ends-on-the-page-boundary": (
            (32, 64, [{"a": "x" * 40}, {"a": "x" * 40}]), ((3, 192, 2), 64)),
        "slot-starts-a-new-page": ((32, 64, [{}, {}, {"a": 1}]), ((5, 236, 3), 128)),
        "record-wider-than-a-page": (
            (100, 32, [{"a": "x" * 120}, {"b": 2}]), ((9, 436, 2), 200)),
        "record-as-wide-as-a-page": ((64, 64, [{"a": 1}, {"a": "x" * 90}]), ((4, 328, 2), 128)),
        "non-ascii-text-is-escaped": ((64, 64, [{"name": "caf\u00e9"}]), ((2, 149, 1), 64)),
        "non-json-value-is-stringified": (
            (64, 64, [{"at": (1, 2), "tags": frozenset()}]), ((2, 165, 1), 64)),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_allocation_charges_per_layout(self, layout):
        (record_size, page_size, payloads), (charged, size) = self.LAYOUTS[layout]
        store = RecordStore("records", record_size=record_size, page_size=page_size)
        for payload in payloads:
            store.allocate(payload)
        metrics = store.metrics
        assert (metrics.page_writes, metrics.bytes_written, metrics.records_written) == charged
        assert store.size_in_bytes == size


class TestIndirectionTable:
    def test_allocate_and_resolve(self):
        table = IndirectionTable("rids")
        logical = table.allocate(physical_position=7)
        assert table.resolve(logical) == 7

    def test_relocate_keeps_logical_id(self):
        table = IndirectionTable("rids")
        logical = table.allocate(3)
        table.relocate(logical, 42)
        assert table.resolve(logical) == 42

    def test_free_removes_mapping(self):
        table = IndirectionTable("rids")
        logical = table.allocate(1)
        table.free(logical)
        assert not table.exists(logical)
        with pytest.raises(ElementNotFoundError):
            table.resolve(logical)

    def test_unknown_id_raises(self):
        table = IndirectionTable("rids")
        with pytest.raises(ElementNotFoundError):
            table.resolve(99)

    def test_append_only_history_grows_size(self):
        table = IndirectionTable("rids")
        logical = table.allocate(0)
        before = table.size_in_bytes
        table.relocate(logical, 1)
        table.relocate(logical, 2)
        assert table.size_in_bytes > before

    def test_live_ids_sorted(self):
        table = IndirectionTable("rids")
        ids = [table.allocate(position) for position in range(5)]
        table.free(ids[2])
        assert table.live_ids() == [0, 1, 3, 4]

    def test_resolution_charges_probe(self):
        metrics = StorageMetrics()
        table = IndirectionTable("rids", metrics=metrics)
        logical = table.allocate(0)
        table.resolve(logical)
        assert metrics.index_probes >= 1
