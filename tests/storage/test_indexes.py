"""Unit tests for the B+Tree, hash index, and bitmap structures."""

from __future__ import annotations

import pytest

from repro.exceptions import StorageError
from repro.storage.bitmap import Bitmap, BitmapIndex
from repro.storage.btree import BPlusTree
from repro.storage.hash_index import HashIndex
from repro.storage.metrics import StorageMetrics


class TestBPlusTree:
    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        tree.insert(3, "b")
        assert tree.search(5) == ["a"]
        assert tree.search(3) == ["b"]
        assert tree.search(99) == []

    def test_duplicate_keys_accumulate_values(self):
        tree = BPlusTree(order=4)
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert sorted(tree.search("k")) == [1, 2]
        assert len(tree) == 2
        assert tree.key_count == 1

    def test_splits_keep_all_keys_reachable(self):
        tree = BPlusTree(order=4)
        for value in range(200):
            tree.insert(value, value * 10)
        for value in range(200):
            assert tree.search(value) == [value * 10]
        assert tree.height > 1
        assert tree.rebalance_count > 0

    def test_keys_are_ordered(self):
        tree = BPlusTree(order=5)
        import random

        values = list(range(100))
        random.Random(1).shuffle(values)
        for value in values:
            tree.insert(value, value)
        assert list(tree.keys()) == sorted(values)

    def test_range_scan_inclusive(self):
        tree = BPlusTree(order=4)
        for value in range(20):
            tree.insert(value, value)
        scanned = [key for key, _value in tree.range(5, 10)]
        assert scanned == [5, 6, 7, 8, 9, 10]

    def test_range_scan_open_ended(self):
        tree = BPlusTree(order=4)
        for value in range(10):
            tree.insert(value, value)
        assert [key for key, _ in tree.range(low=7)] == [7, 8, 9]
        assert [key for key, _ in tree.range(high=2)] == [0, 1, 2]

    def test_delete_single_value(self):
        tree = BPlusTree(order=4)
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.delete("k", 1) == 1
        assert tree.search("k") == [2]

    def test_delete_whole_key(self):
        tree = BPlusTree(order=4)
        for value in range(50):
            tree.insert(value, value)
        assert tree.delete(25) == 1
        assert tree.search(25) == []
        assert not tree.contains(25)

    def test_delete_missing_returns_zero(self):
        tree = BPlusTree(order=4)
        assert tree.delete("missing") == 0

    def test_order_below_three_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)

    def test_metrics_charged_per_level(self):
        metrics = StorageMetrics()
        tree = BPlusTree(order=4, metrics=metrics)
        for value in range(100):
            tree.insert(value, value)
        probes_before = metrics.index_probes
        tree.search(50)
        assert metrics.index_probes - probes_before >= tree.height


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert sorted(index.lookup("a")) == [1, 2]
        assert index.lookup("missing") == []

    def test_unique_index_replaces(self):
        index = HashIndex(unique=True)
        index.insert("a", 1)
        index.insert("a", 2)
        assert index.lookup("a") == [2]

    def test_delete_value(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 2)
        assert index.delete("a", 1) == 1
        assert index.lookup("a") == [2]

    def test_delete_key(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 2)
        assert index.delete("a") == 2
        assert not index.contains("a")

    def test_delete_missing(self):
        index = HashIndex()
        index.insert("a", 1)
        assert index.delete("a", 99) == 0
        assert index.delete("zzz") == 0

    def test_rehash_preserves_entries(self):
        index = HashIndex()
        for value in range(500):
            index.insert(f"key-{value}", value)
        assert index.rehash_count > 0
        for value in range(500):
            assert index.lookup(f"key-{value}") == [value]

    def test_items_and_keys(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("b", 2)
        assert sorted(index.keys()) == ["a", "b"]
        assert sorted(index.items()) == [("a", 1), ("b", 2)]


class TestBitmap:
    def test_set_get_clear(self):
        bitmap = Bitmap()
        bitmap.set(5)
        assert bitmap.get(5)
        bitmap.clear(5)
        assert not bitmap.get(5)

    def test_construct_from_iterable(self):
        bitmap = Bitmap([1, 3, 5])
        assert bitmap.to_list() == [1, 3, 5]

    def test_cardinality(self):
        bitmap = Bitmap([2, 4, 8, 16])
        assert bitmap.cardinality() == 4
        assert len(bitmap) == 4

    def test_union_intersection_difference(self):
        left = Bitmap([1, 2, 3])
        right = Bitmap([3, 4])
        assert (left | right).to_list() == [1, 2, 3, 4]
        assert (left & right).to_list() == [3]
        assert (left - right).to_list() == [1, 2]

    def test_iteration_in_order(self):
        bitmap = Bitmap([9, 1, 200])
        assert list(bitmap) == [1, 9, 200]

    def test_equality_and_copy(self):
        original = Bitmap([1, 2])
        duplicate = original.copy()
        assert original == duplicate
        duplicate.set(3)
        assert original != duplicate

    def test_empty(self):
        assert Bitmap().is_empty()
        assert not Bitmap([0]).is_empty()


class TestBitmapIndex:
    def test_set_and_query_value(self):
        index = BitmapIndex()
        index.set_value(1, "red")
        index.set_value(2, "blue")
        index.set_value(3, "red")
        assert index.value_of(1) == "red"
        assert index.objects_with_value("red").to_list() == [1, 3]

    def test_replacing_value_moves_bitmaps(self):
        index = BitmapIndex()
        index.set_value(1, "red")
        index.set_value(1, "blue")
        assert index.objects_with_value("red").is_empty()
        assert index.objects_with_value("blue").to_list() == [1]

    def test_remove_object(self):
        index = BitmapIndex()
        index.set_value(1, "red")
        index.remove_object(1)
        assert index.value_of(1) is None
        assert index.objects_with_value("red").is_empty()
        assert len(index) == 0

    def test_distinct_values(self):
        index = BitmapIndex()
        for object_id in range(10):
            index.set_value(object_id, "even" if object_id % 2 == 0 else "odd")
        assert index.distinct_values == 2
        assert sorted(index.values()) == ["even", "odd"]

    def test_all_objects(self):
        index = BitmapIndex()
        index.set_value(1, "a")
        index.set_value(5, "b")
        assert index.all_objects().to_list() == [1, 5]
