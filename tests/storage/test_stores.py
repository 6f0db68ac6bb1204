"""Unit tests for the property, document, triple, columnar, WAL, and relational stores."""

from __future__ import annotations

import pytest

from repro.exceptions import DuplicateElementError, ElementNotFoundError, SchemaError, StorageError
from repro.storage.columnar import ColumnFamilyStore
from repro.storage.document_store import DocumentCollection, DocumentStore
from repro.storage.property_store import PropertyStore
from repro.storage.relational import Column, RelationalDatabase, TableSchema, index_key
from repro.storage.triple_store import (
    ENDPOINTS,
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_SUBJECT,
    TripleStore,
)
from repro.storage.wal import DurabilityMode, WriteAheadLog


class TestPropertyStore:
    def test_set_and_get(self):
        store = PropertyStore()
        store.set_property("v1", "name", "alice")
        assert store.get_property("v1", "name") == "alice"
        assert store.get_property("v1", "missing") is None

    def test_overwrite_keeps_single_block(self):
        store = PropertyStore()
        store.set_property("v1", "age", 30)
        store.set_property("v1", "age", 31)
        assert store.get_property("v1", "age") == 31
        assert len(store) == 1

    def test_remove_property(self):
        store = PropertyStore()
        store.set_property("v1", "a", 1)
        assert store.remove_property("v1", "a") is True
        assert store.remove_property("v1", "a") is False
        assert store.properties("v1") == {}

    def test_remove_owner(self):
        store = PropertyStore()
        store.set_properties("v1", {"a": 1, "b": 2})
        assert store.remove_owner("v1") == 2
        assert len(store) == 0

    def test_properties_dict(self):
        store = PropertyStore()
        store.set_properties("e1", {"x": 1, "y": "z"})
        assert store.properties("e1") == {"x": 1, "y": "z"}

    def test_size_reflects_payload(self):
        store = PropertyStore()
        store.set_property("v1", "k", "short")
        small = store.size_in_bytes
        store.set_property("v2", "k", "a much longer property value " * 5)
        assert store.size_in_bytes > small


class TestDocumentStore:
    def test_insert_and_get(self):
        collection = DocumentCollection("vertices")
        collection.insert("v1", {"name": "alice"})
        assert collection.get("v1")["name"] == "alice"

    def test_duplicate_key_rejected(self):
        collection = DocumentCollection("vertices")
        collection.insert("v1", {})
        with pytest.raises(DuplicateElementError):
            collection.insert("v1", {})

    def test_update_merges(self):
        collection = DocumentCollection("vertices")
        collection.insert("v1", {"a": 1})
        collection.update("v1", {"b": 2})
        document = collection.get("v1")
        assert document["a"] == 1 and document["b"] == 2

    def test_replace_overwrites(self):
        collection = DocumentCollection("vertices")
        collection.insert("v1", {"a": 1})
        collection.replace("v1", {"b": 2})
        assert "a" not in collection.get("v1")

    def test_remove(self):
        collection = DocumentCollection("vertices")
        collection.insert("v1", {})
        collection.remove("v1")
        assert not collection.exists("v1")
        with pytest.raises(ElementNotFoundError):
            collection.get("v1")

    def test_scan_materialises_documents(self):
        collection = DocumentCollection("vertices")
        for index in range(5):
            collection.insert(f"v{index}", {"rank": index})
        assert sorted(document["rank"] for document in collection.scan()) == list(range(5))

    def test_store_collections_and_edge_indexes(self):
        store = DocumentStore()
        vertices = store.collection("vertices")
        assert store.collection("vertices") is vertices
        store.edge_from_index.insert("v1", "e1")
        assert store.edge_from_index.lookup("v1") == ["e1"]
        assert store.size_in_bytes >= 0


class TestTripleStore:
    def test_add_and_match_by_subject(self):
        store = TripleStore()
        store.add("s1", "p1", "o1")
        store.add("s1", "p2", "o2")
        assert len(list(store.match(subject="s1"))) == 2

    def test_match_by_predicate_and_object(self):
        store = TripleStore()
        store.add("s1", "likes", "pizza")
        store.add("s2", "likes", "pasta")
        store.add("s3", "hates", "pizza")
        assert len(list(store.match(predicate="likes"))) == 2
        assert len(list(store.match(object_="pizza"))) == 2
        assert len(list(store.match(predicate="likes", object_="pizza"))) == 1

    def test_full_scan(self):
        store = TripleStore()
        for index in range(10):
            store.add(f"s{index}", "p", index)
        assert len(list(store.match())) == 10
        assert len(store) == 10

    def test_remove_pattern(self):
        store = TripleStore()
        store.add("s1", "p1", "o1")
        store.add("s1", "p2", "o2")
        assert store.remove("s1", "p1") == 1
        assert len(store) == 1
        assert store.remove("s1") == 1
        assert len(store) == 0

    def test_bulk_load_defers_indexing(self):
        store = TripleStore()
        store.begin_bulk_load()
        for index in range(20):
            store.add(f"s{index}", "p", index)
        store.end_bulk_load()
        assert len(list(store.match(predicate="p"))) == 20

    def test_remove_during_bulk_load_drops_buffered_statements(self):
        store = TripleStore()
        store.begin_bulk_load()
        store.add("a", "p", "b")
        store.add("a", "q", "c")
        assert store.remove("a", "p") == 1
        assert len(store) == 1
        assert [t.as_tuple() for t in store.match("a")] == [("a", "q", "c")]
        store.end_bulk_load()
        assert len(store) == 1
        assert [t.as_tuple() for t in store.match("a")] == [("a", "q", "c")]

    @staticmethod
    def _half_loaded_store() -> TripleStore:
        """Indexed reified edges plus a non-empty bulk buffer over the same subjects."""
        store = TripleStore()
        for edge in range(40):
            store.add(f"e{edge}", RDF_SUBJECT, f"v{edge % 5}")
            store.add(f"e{edge}", RDF_OBJECT, f"v{edge % 7}")
            store.add(f"e{edge}", RDF_PREDICATE, "ab"[edge % 2])
        store.begin_bulk_load()
        for edge in (3, 4, 90):
            store.add(f"e{edge}", RDF_SUBJECT, "v3")
            store.add(f"e{edge}", RDF_OBJECT, "v-later")
        store.add("e3", RDF_PREDICATE, "late")
        return store

    # Each flat scan against the per-pattern ``match`` consumption it stands
    # for, on twin stores whose bulk buffer is not empty: same answers, same
    # counters.
    _FRONTIER = ["v3", "v4", "x"]
    _EDGES = ("e3", "e7", "e90", "e99")

    def _twins(self):
        left, right = self._half_loaded_store(), self._half_loaded_store()
        assert left._bulk_buffer
        return left, right

    @staticmethod
    def _assert_same_charges(left: TripleStore, right: TripleStore) -> None:
        assert left.metrics.index_probes > 0
        assert left.metrics.snapshot() == right.metrics.snapshot()

    @staticmethod
    def _walk(store, label=None, endpoints=False):
        return store.walk_edges(
            TestTripleStore._FRONTIER, (RDF_SUBJECT,), label, endpoints, lambda _vertex: None
        )

    def test_walked_edge_ids_charge_like_match_per_pattern(self):
        left, right = self._twins()
        assert list(self._walk(left)) == [
            (vertex, triple.subject)
            for vertex in self._FRONTIER
            for triple in right.match(None, RDF_SUBJECT, vertex)
        ]
        self._assert_same_charges(left, right)

    def test_an_abandoned_walk_charges_like_an_abandoned_match(self):
        left, right = self._twins()
        first = next(right.match(None, RDF_SUBJECT, self._FRONTIER[0]))
        assert next(self._walk(left)) == (self._FRONTIER[0], first.subject)
        self._assert_same_charges(left, right)

    def test_walked_neighbours_charge_like_two_exhausted_matches(self):
        left, right = self._twins()
        expected = []
        for vertex in self._FRONTIER:
            for triple in right.match(None, RDF_SUBJECT, vertex):
                last = {}
                for predicate in (RDF_SUBJECT, RDF_OBJECT):
                    for statement in right.match(triple.subject, predicate):
                        last[predicate] = statement.object
                expected.append((vertex, last[RDF_OBJECT]))
        assert ("v3", "v-later") in expected
        assert list(self._walk(left, endpoints=True)) == expected
        self._assert_same_charges(left, right)

    def test_endpoint_objects_charges_like_two_exhausted_matches(self):
        left, right = self._twins()
        # In SPO key order (ENDPOINTS) the two scans share one descent.
        for edge in self._EDGES:
            last = [None, None]
            for slot, predicate in enumerate(ENDPOINTS):
                for triple in right.match(edge, predicate):
                    last[slot] = triple.object
            assert left.endpoint_objects(edge) == last
        self._assert_same_charges(left, right)

    def test_the_label_check_charges_like_a_first_match(self):
        left, right = self._twins()
        for label in ("a", "late", "missing"):
            expected = []
            for vertex in self._FRONTIER:
                for triple in right.match(None, RDF_SUBJECT, vertex):
                    first = next((t.object for t in right.match(triple.subject, RDF_PREDICATE)), None)
                    if first == label:
                        expected.append((vertex, triple.subject))
            assert list(self._walk(left, label=label)) == expected
            self._assert_same_charges(left, right)
        # e3's first label statement is the buffered one (e3 leaves v3 twice:
        # its indexed and its buffered source statement).
        assert [edge for _vertex, edge in self._walk(left, label="late")] == ["e3", "e3"]

    def test_subjects_and_predicates(self):
        store = TripleStore()
        store.add("a", "p1", 1)
        store.add("b", "p2", 2)
        assert sorted(store.subjects()) == ["a", "b"]
        assert sorted(store.predicates()) == ["p1", "p2"]

    def test_journal_preallocation_dominates_small_stores(self):
        store = TripleStore()
        store.add("s", "p", "o")
        assert store.size_in_bytes > 1024 * 1024


class TestColumnFamilyStore:
    def test_create_row_and_put_get(self):
        store = ColumnFamilyStore()
        store.create_row("v1")
        store.put("v1", "p:name", "alice")
        assert store.get("v1", "p:name") == "alice"

    def test_missing_row_raises(self):
        store = ColumnFamilyStore()
        with pytest.raises(ElementNotFoundError):
            store.get("missing", "col")

    def test_tombstoned_cell_reads_none(self):
        store = ColumnFamilyStore()
        store.create_row("v1")
        store.put("v1", "col", 1)
        store.delete_cell("v1", "col")
        assert store.get("v1", "col") is None

    def test_row_deletion_is_tombstone(self):
        store = ColumnFamilyStore()
        store.create_row("v1")
        store.delete_row("v1")
        assert not store.has_row("v1")
        assert store.size_in_bytes > 0  # the tombstoned row still occupies space

    def test_prefix_slice(self):
        store = ColumnFamilyStore()
        store.create_row("v1")
        store.put("v1", "eo:knows:1", {"id": "e1"})
        store.put("v1", "eo:likes:2", {"id": "e2"})
        store.put("v1", "p:name", "alice")
        sliced = store.row_columns("v1", prefix="eo:knows:")
        assert list(sliced) == ["eo:knows:1"]

    def test_scan_rows_in_key_order(self):
        store = ColumnFamilyStore()
        for key in (3, 1, 2):
            store.create_row(key)
        assert [key for key, _columns in store.scan_rows()] == [1, 2, 3]

    def test_row_key_index_lookup_cost(self):
        store = ColumnFamilyStore()
        store.create_row("v1")
        before = store.metrics.index_probes
        store.row_columns("v1")
        assert store.metrics.index_probes > before


class TestWriteAheadLog:
    def test_sync_mode_is_immediately_durable(self):
        wal = WriteAheadLog(mode=DurabilityMode.SYNC)
        wal.append("op", {"a": 1})
        assert wal.pending == 0
        assert len(wal.replay()) == 1

    def test_async_mode_defers_until_flush(self):
        wal = WriteAheadLog(mode=DurabilityMode.ASYNC)
        wal.append("op")
        wal.append("op")
        assert wal.pending == 2
        assert wal.replay() == []
        assert wal.flush() == 2
        assert len(wal.replay()) == 2

    def test_sequence_numbers_increase(self):
        wal = WriteAheadLog()
        first = wal.append("a")
        second = wal.append("b")
        assert second.sequence == first.sequence + 1

    def test_truncate_drops_only_durable_records(self):
        wal = WriteAheadLog()
        wal.append("a")
        assert wal.truncate() == 1
        assert len(wal) == 0 and wal.pending == 0

    def test_truncate_keeps_undurable_async_records(self):
        wal = WriteAheadLog(mode=DurabilityMode.ASYNC)
        wal.append("durable")
        wal.flush()
        wal.append("pending-1")
        wal.append("pending-2")
        assert wal.truncate() == 1
        # The unflushed records survive the checkpoint and flush later.
        assert len(wal) == 2 and wal.pending == 2
        assert wal.replay() == []  # still not durable: a crash loses them
        assert wal.flush() == 2
        assert [record.operation for record in wal.replay()] == ["pending-1", "pending-2"]

    def test_truncate_charges_the_checkpoint_page_write(self):
        wal = WriteAheadLog(mode=DurabilityMode.ASYNC)
        wal.append("op")
        wal.flush()
        before = wal.metrics.page_writes
        wal.truncate()
        assert wal.metrics.page_writes == before + 1

    def test_lsns_stay_monotonic_across_truncation(self):
        wal = WriteAheadLog()
        first = wal.append("a")
        wal.truncate()
        second = wal.append("b")
        assert second.sequence == first.sequence + 1
        assert wal.last_sequence == second.sequence

    def test_replay_excludes_unflushed_async_records(self):
        wal = WriteAheadLog(mode=DurabilityMode.ASYNC)
        wal.append("flushed")
        wal.flush()
        wal.append("unflushed")
        assert [record.operation for record in wal.replay()] == ["flushed"]


class TestRelationalDatabase:
    def _make_table(self, db: RelationalDatabase):
        return db.create_table(
            "people", [Column("id"), Column("name"), Column("age")]
        )

    def test_schema_requires_id(self):
        with pytest.raises(SchemaError):
            TableSchema("bad", (Column("name"),))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("bad", (Column("id"), Column("id")))

    def test_insert_and_get(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        row_id = table.insert({"name": "alice", "age": 30})
        assert table.get(row_id)["name"] == "alice"

    def test_unknown_column_rejected(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        with pytest.raises(SchemaError):
            table.insert({"nope": 1})

    def test_update_and_delete(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        row_id = table.insert({"name": "alice"})
        table.update(row_id, {"age": 31})
        assert table.get(row_id)["age"] == 31
        table.delete(row_id)
        assert not table.exists(row_id)

    def test_seq_scan_with_predicate(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        for age in range(10):
            table.insert({"name": f"p{age}", "age": age})
        old = list(table.seq_scan(lambda row: row["age"] >= 8))
        assert len(old) == 2

    def test_index_scan(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        for age in range(20):
            table.insert({"name": f"p{age % 3}", "age": age})
        table.create_index("name")
        assert table.has_index("name")
        assert len(list(table.index_scan("name", "p0"))) == 7

    @staticmethod
    def _edge_table():
        table = RelationalDatabase().create_table("edges", [Column("id"), Column("source")])
        table.create_index("source")
        for edge in range(30):
            table.insert({"source": f"v{edge % 4}"})
        return table

    def test_index_probe_is_an_index_scan_minus_the_record_reads(self):
        left, right = self._edge_table(), self._edge_table()
        for value in ["v1", "v9", "v3"]:
            probed = left.index_probe("source", index_key(value))
            assert probed == list(right.index_scan("source", value))
            left.metrics.records_read += len(probed)
        assert left.metrics.snapshot() == right.metrics.snapshot()
        with pytest.raises(StorageError):
            left.index_probe("id", index_key(1))

    def test_catalog_version_moves_on_ddl_only(self):
        db = RelationalDatabase()
        seen = [db.catalog_version]

        def moved() -> bool:
            seen.append(db.catalog_version)
            return seen[-1] != seen[-2]

        table = self._make_table(db)
        assert moved()
        assert db.table_names("p") == ("people",) and db.table_names("q") == ()
        db.create_table("people", [Column("id")])  # exists: returned as is
        assert not moved()
        row_id = table.insert({"name": "alice"})
        table.update(row_id, {"age": 3})
        table.delete(row_id)
        assert not moved()
        table.add_column(Column("city"))
        assert moved()
        table.add_column(Column("city"))
        assert not moved()
        table.create_index("city")
        assert moved()
        table.create_index("city")
        assert not moved()
        db.create_table("pets", [Column("id")])
        assert moved() and db.table_names() == ("people", "pets")
        db.drop_table("nothing")
        assert not moved()
        db.drop_table("people")
        assert moved() and db.table_names() == db.table_names("p") == ("pets",)

    def test_an_index_growing_a_level_moves_the_catalog_version(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        table.create_index("name")
        index = table.secondary_index("name")
        versions = set()
        for row in range(200):
            height, version = index.height, db.catalog_version
            table.insert({"name": f"n{row:03d}"})
            assert (db.catalog_version != version) == (index.height != height)
            versions.add(db.catalog_version)
        assert index.height == 2 and len(versions) == 2

    def test_the_holder_map_follows_every_write_and_drop(self):
        db = RelationalDatabase()
        knows, likes = (
            db.create_table(name, [Column("id"), Column("source")]) for name in ("knows", "likes")
        )
        likes.insert({"source": "a"})  # backfilled by the index build
        for table in (likes, knows):
            table.create_index("source")
        held = db.holders("source")
        key = index_key
        assert held == {key("a"): ("likes",)}
        first = knows.insert({"source": "a"})
        second = knows.insert({"source": "a"})
        assert held == {key("a"): ("knows", "likes")}
        knows.update(first, {"source": "b"})
        assert held == {key("a"): ("knows", "likes"), key("b"): ("knows",)}
        knows.delete(second)
        assert held == {key("a"): ("likes",), key("b"): ("knows",)}
        assert knows.delete_referencing(("source",), key("b")) == 1
        assert held == {key("a"): ("likes",)}
        knows.insert({"source": "a"})
        db.drop_table("likes")
        assert held == {key("a"): ("knows",)}

    def test_recharge_get_charges_like_get(self):
        left, right = self._edge_table(), self._edge_table()
        left.recharge_get(7)
        right.get(7)
        assert left.metrics.snapshot() == right.metrics.snapshot()

    def test_recharge_get_on_a_missing_row_books_the_probe_then_raises(self):
        table = self._edge_table()
        before = table.metrics.snapshot()
        with pytest.raises(KeyError):
            table.recharge_get(999)
        assert table.metrics.snapshot() == {**before, "index_probes": before["index_probes"] + 1}

    def test_select_uses_best_access_path(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        row_id = table.insert({"name": "alice", "age": 1})
        assert list(table.select("id", row_id))[0]["name"] == "alice"
        assert list(table.select("name", "alice"))[0]["id"] == row_id

    def test_add_column_backfills_null(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        row_id = table.insert({"name": "a"})
        table.add_column(Column("city"))
        assert table.get(row_id)["city"] is None

    def test_count(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        for index in range(5):
            table.insert({"name": f"p{index}", "age": index})
        assert db.count("people") == 5
        assert db.count("people", lambda row: row["age"] < 2) == 2

    def test_duplicate_primary_key_rejected(self):
        db = RelationalDatabase()
        table = self._make_table(db)
        table.insert({"id": 5, "name": "a"})
        with pytest.raises(StorageError):
            table.insert({"id": 5, "name": "b"})

    def test_missing_table_raises(self):
        db = RelationalDatabase()
        with pytest.raises(ElementNotFoundError):
            db.table("missing")
