"""Property-based tests of the core storage structures (hypothesis)."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.bitmap import Bitmap
from repro.storage.btree import BPlusTree, _InternalNode, flat_key
from repro.storage.hash_index import HashIndex
from repro.exceptions import StorageError
from repro.storage.metrics import StorageMetrics
from repro.storage.relational import Column, RelationalDatabase, index_key
from repro.storage.triple_store import ENDPOINTS, Triple, TripleStore

_keys = st.integers(min_value=-1000, max_value=1000)
_small_positions = st.integers(min_value=0, max_value=512)


class TestBPlusTreeProperties:
    @given(st.lists(st.tuples(_keys, st.integers()), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_multimap_model(self, pairs):
        tree = BPlusTree(order=4)
        model: dict[int, list[int]] = {}
        for key, value in pairs:
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        for key, values in model.items():
            assert sorted(tree.search(key)) == sorted(values)
        assert len(tree) == sum(len(values) for values in model.values())

    @given(st.lists(_keys, unique=True, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_keys_always_sorted(self, keys):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        assert list(tree.keys()) == sorted(keys)

    @given(st.lists(_keys, unique=True, min_size=1, max_size=100), st.data())
    @settings(max_examples=50, deadline=None)
    def test_range_matches_filter(self, keys, data):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        low = data.draw(_keys)
        high = data.draw(_keys.filter(lambda value: value >= low))
        expected = sorted(key for key in keys if low <= key <= high)
        assert [key for key, _value in tree.range(low, high)] == expected

    @given(st.lists(_keys, min_size=1, max_size=100), st.data())
    @settings(max_examples=50, deadline=None)
    def test_delete_then_search_empty(self, keys, data):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        victim = data.draw(st.sampled_from(keys))
        tree.delete(victim)
        assert tree.search(victim) == []


# Components that sort next to each other in every awkward way a prefix
# bound can meet: empty, a proper prefix of another, a suffix equal to the
# run's end bound (``"\x01"``), a quote.  Trees hold their flat keys.
_COMPONENTS = ["", "a", "a\x01", "ab", "b", "b'"]
_UNIVERSE = [
    key for width in (1, 2, 3) for key in itertools.product(_COMPONENTS, repeat=width)
]
_tuple_keys = st.sampled_from(_UNIVERSE)
#: ``(key, value)`` inserts ``value`` under ``key``; ``(n, value)`` deletes
#: ``value`` (every value when None) from the n-th key present, so deletes hit.
_history = st.lists(
    st.tuples(_tuple_keys | st.integers(0, 300), st.none() | st.integers(0, 2)),
    max_size=60,
)
#: Present and absent prefixes; the short ones head runs of many keys.
_prefixes = st.lists(
    st.sampled_from([key for key in _UNIVERSE if len(key) < 3]) | _tuple_keys,
    min_size=1,
    max_size=6,
)
#: Keys loaded before the drawn history, so trees reach heights 1-4 at order 3.
_preload = st.tuples(st.sampled_from([0, 12, 40, 90]), st.integers(0, 5))


def _replay(order, preload, history, after_each=lambda tree: None):
    """Build a tree from a seeded preload and a drawn insert/delete history."""
    count, seed = preload
    tree = BPlusTree(order=order)
    present = set()
    ops = [(key, 0) for key in random.Random(seed).sample(_UNIVERSE, count)] + history
    for target, value in ops:
        if isinstance(target, tuple):
            tree.insert(flat_key(*target), 0 if value is None else value)
            present.add(target)
        elif present:
            key = sorted(present)[target % len(present)]
            tree.delete(flat_key(*key), value)
            if not tree.contains(flat_key(*key)):
                present.discard(key)
        after_each(tree)
    return tree


def _probes(tree, consume):
    before = tree.metrics.index_probes
    result = consume()
    return result, tree.metrics.index_probes - before


def _range_until_mismatch(tree, prefix, take=None):
    """The hand-rolled loop the prefix scans replaced, abandoned after ``take``."""
    values = []
    for key, value in tree.range(low=prefix):
        if not key.startswith(prefix):
            break
        values.append(value)
        if len(values) == take:
            break
    return values


def _leaf_depths(tree):
    depths, stack = set(), [(tree._root, 1)]
    while stack:
        node, depth = stack.pop()
        children = getattr(node, "children", None)
        if children is None:
            depths.add(depth)
        else:
            stack.extend((child, depth + 1) for child in children)
    return depths


def _scan(tree, prefix):
    """The eager scan of one prefix."""
    [values] = tree.scan_prefixes([prefix])
    return values


class TestBPlusTreePrefixScans:
    """``scan_prefixes`` / ``iter_prefix`` against ``range(low=prefix)`` + break."""

    @given(st.sampled_from([3, 4, 8]), _preload, _history, _prefixes)
    @settings(max_examples=150, deadline=None)
    def test_same_values_and_probes_as_range_until_mismatch(
        self, order, preload, history, prefixes
    ):
        tree = _replay(order, preload, history)
        assert _leaf_depths(tree) == {tree.height}
        flat_prefixes = [flat_key(*components, "") for components in prefixes]
        runs = [_probes(tree, lambda: _range_until_mismatch(tree, p)) for p in flat_prefixes]
        # One call scans every prefix and books the sum of their scans.
        assert _probes(tree, lambda: tree.scan_prefixes(flat_prefixes)) == (
            [values for values, _booked in runs],
            sum(booked for _values, booked in runs),
        )
        # In ascending order later prefixes continue from the leaf the run
        # before them stopped in: the same runs, the same sum.
        ascending = sorted(zip(flat_prefixes, runs))
        assert _probes(tree, lambda: tree.scan_prefixes([p for p, _run in ascending])) == (
            [values for _p, (values, _booked) in ascending],
            sum(booked for _values, booked in runs),
        )
        for prefix, (expected, booked) in zip(flat_prefixes, runs):
            assert _probes(tree, lambda: _scan(tree, prefix)) == (expected, booked)
            assert _probes(tree, lambda: list(tree.iter_prefix(prefix))) == (expected, booked)
            # Abandoning after k items books what the range loop books for k;
            # stopping at the last item never pays for the key that ends the run.
            for take in range(1, len(expected) + 1):
                want = _probes(tree, lambda: _range_until_mismatch(tree, prefix, take))
                got = _probes(tree, lambda: list(islice(tree.iter_prefix(prefix), take)))
                assert got == want

    @given(st.sampled_from([3, 4, 8]), _preload, _history)
    @settings(max_examples=60, deadline=None)
    def test_every_leaf_sits_at_depth_height(self, order, preload, history):
        """What lets a descent book ``height`` probes without counting levels."""

        def check(tree):
            assert _leaf_depths(tree) == {tree.height}

        _replay(order, preload, history, after_each=check)

    def test_runs_across_leaves_empty_leaves_and_the_end_of_the_tree(self):
        tree = BPlusTree(order=3)
        keys = [(group, f"{index:02d}") for group in ("a", "b", "c") for index in range(8)]
        for key in keys:
            tree.insert(flat_key(*key), key)
        b, bb, c = (flat_key(group, "") for group in ("b", "bb", "c"))
        assert tree.height >= 3
        height = tree.height
        # 8 keys under one prefix span several order-3 leaves; a "c" key ends the run.
        assert _probes(tree, lambda: _scan(tree, b)) == (keys[8:16], height + 8 + 1)
        # The last run of the tree ends at the end of the leaf chain: no trailing probe.
        assert _probes(tree, lambda: _scan(tree, c)) == (keys[16:], height + 8)
        assert _probes(tree, lambda: list(tree.iter_prefix(c))) == (keys[16:], height + 8)
        # Lazy deletion empties whole leaves in the middle of the "b" run.
        for key in keys[10:14]:
            tree.delete(flat_key(*key))
        survivors = keys[8:10] + keys[14:16]
        assert [] in _leaf_keys(tree)
        assert _range_until_mismatch(tree, b) == survivors
        assert _probes(tree, lambda: _scan(tree, b)) == (survivors, height + 4 + 1)
        assert _probes(tree, lambda: list(tree.iter_prefix(b))) == (survivors, height + 4 + 1)
        # An absent prefix between two runs: the descent, then the key that ends it.
        assert _probes(tree, lambda: _scan(tree, bb)) == ([], height + 1)


class _RecursiveInsertTree(BPlusTree):
    """The textbook recursive insert, kept as the reference for the
    iterative one: a probe booked per level on the way down, splits
    returned up the call stack."""

    def insert(self, key, value):
        self.metrics.charge_index_update()
        split = self._insert_below(self._root, key, value)
        if split is not None:
            middle_key, right = split
            root = _InternalNode()
            root.keys = [middle_key]
            root.children = [self._root, right]
            self._root = root
            self._height += 1
            self._rebalance_count += 1

    def _insert_below(self, node, key, value):
        self.metrics.charge_index_probe()
        if not isinstance(node, _InternalNode):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(value)
                self._size += 1
                return None
            node.keys.insert(index, key)
            node.values.insert(index, [value])
            self._size += 1
            self._key_count += 1
            return self._split_leaf(node) if len(node.keys) > self.order else None
        index = bisect_right(node.keys, key)
        split = self._insert_below(node.children[index], key, value)
        if split is None:
            return None
        middle_key, right = split
        node.keys.insert(index, middle_key)
        node.children.insert(index + 1, right)
        return self._split_internal(node) if len(node.keys) > self.order else None


def _leaf_chain(tree):
    """``(key, values)`` along the leaf chain, left to right."""
    leaf, pairs = tree._leftmost_leaf(), []
    while leaf is not None:
        pairs.extend(zip(leaf.keys, leaf.values))
        leaf = leaf.next_leaf
    return pairs


def _leaf_keys(tree):
    leaf, leaves = tree._leftmost_leaf(), []
    while leaf is not None:
        leaves.append(leaf.keys)
        leaf = leaf.next_leaf
    return leaves


#: ``(key, value)`` inserts; ``(None, n)`` deletes every value of the n-th
#: key present.  A small key space, so duplicates and re-inserts are common.
_write_mix = st.lists(
    st.tuples(st.integers(0, 80) | st.none(), st.integers(0, 5)), max_size=150
)


class TestBPlusTreeIterativeInsert:
    @given(st.sampled_from([3, 4, 7]), _write_mix)
    @settings(max_examples=120, deadline=None)
    def test_books_and_builds_what_the_recursive_reference_does(self, order, mix):
        tree = BPlusTree(order=order)
        reference = _RecursiveInsertTree(order=order)
        model: dict[int, list[int]] = {}
        for key, value in mix:
            if key is None:
                if model:
                    victim = sorted(model)[value % len(model)]
                    assert tree.delete(victim) == reference.delete(victim) == len(model.pop(victim))
                continue
            height, rebalances = tree.height, tree.rebalance_count
            updates, probes = tree.metrics.index_updates, tree.metrics.index_probes
            tree.insert(key, value)
            reference.insert(key, value)
            model.setdefault(key, []).append(value)
            # A new root is a rebalance but writes no existing node.
            splits = (tree.rebalance_count - rebalances) - (tree.height - height)
            assert tree.metrics.index_updates - updates == 1 + splits
            assert tree.metrics.index_probes - probes == height
        assert _leaf_chain(tree) == sorted(model.items()) == _leaf_chain(reference)
        assert _leaf_depths(tree) == {tree.height}
        for attribute in ("key_count", "height", "rebalance_count"):
            assert getattr(tree, attribute) == getattr(reference, attribute)
        assert len(tree) == len(reference) == sum(map(len, model.values()))
        assert tree.metrics.snapshot() == reference.metrics.snapshot()

    @given(st.sampled_from([3, 4, 7]), _write_mix, st.lists(st.integers(-5, 90), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_peek_is_search_without_the_bill(self, order, mix, lookups):
        tree = BPlusTree(order=order)
        for key, value in mix:
            if key is not None:
                tree.insert(key, value)
            elif len(tree):
                tree.delete(next(tree.keys()))
        for key in lookups:
            before = tree.metrics.snapshot()
            peeked = tree.peek(key)
            assert tree.metrics.snapshot() == before
            assert peeked == tree.search(key)
            peeked.append("scribble")  # a copy, like search's
            assert "scribble" not in tree.peek(key)


class TestHashIndexProperties:
    @given(st.lists(st.tuples(st.text(max_size=8), st.integers()), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_multimap_model(self, pairs):
        index = HashIndex()
        model: dict[str, list[int]] = {}
        for key, value in pairs:
            index.insert(key, value)
            model.setdefault(key, []).append(value)
        for key, values in model.items():
            assert sorted(index.lookup(key)) == sorted(values)
        assert index.key_count == len(model)


class TestBitmapProperties:
    @given(st.sets(_small_positions), st.sets(_small_positions))
    @settings(max_examples=100, deadline=None)
    def test_algebra_matches_set_algebra(self, left_set, right_set):
        left, right = Bitmap(left_set), Bitmap(right_set)
        assert set(left | right) == left_set | right_set
        assert set(left & right) == left_set & right_set
        assert set(left - right) == left_set - right_set

    @given(st.sets(_small_positions))
    @settings(max_examples=100, deadline=None)
    def test_cardinality_matches_set_size(self, positions):
        assert Bitmap(positions).cardinality() == len(positions)

    @given(st.sets(_small_positions), _small_positions)
    @settings(max_examples=100, deadline=None)
    def test_set_clear_roundtrip(self, positions, extra):
        bitmap = Bitmap(positions)
        bitmap.set(extra)
        assert bitmap.get(extra)
        bitmap.clear(extra)
        assert not bitmap.get(extra)
        assert set(bitmap) == positions - {extra}


class TestTripleStoreProperties:
    _triples = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.sampled_from(["p1", "p2", "p3"]),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=100,
    )

    @given(_triples)
    @settings(max_examples=30, deadline=None)
    def test_pattern_matching_matches_filtering(self, triples):
        store = TripleStore()
        for subject, predicate, object_ in triples:
            store.add(subject, predicate, object_)
        for subject, predicate, object_ in triples[:10]:
            by_subject = [t.as_tuple() for t in store.match(subject=subject)]
            expected = [t for t in triples if t[0] == subject]
            assert sorted(by_subject) == sorted(expected)
            by_po = [t.as_tuple() for t in store.match(predicate=predicate, object_=object_)]
            expected_po = [t for t in triples if t[1] == predicate and t[2] == object_]
            assert sorted(by_po) == sorted(expected_po)


# -- the flat key encoding is the tuple encoding, order for order -----------------

#: Mixed-type terms: equal-but-distinct numbers, None, and strings that
#: prefix one another or hold quotes, backslashes, NUL and non-ASCII.
_terms = st.sampled_from([1, 10, -1, 1.0, True, False, None, 0]) | st.text(
    alphabet=["a", "b", "'", '"', "\\", "\x00", "\x01", "é", "ж"], max_size=3
)
_components = st.text(alphabet=["a", "b", "\x01", "\x7f", "é"], max_size=3)


class _Reference:
    """A triple store keyed by component tuples: the encoding it replaced."""

    def __init__(self, order, bulk):
        self.metrics = StorageMetrics()
        self.trees = [BPlusTree(order=order, metrics=self.metrics) for _ in range(3)]
        self.bulk = bulk
        self.buffer = []

    @staticmethod
    def keys(triple):
        s, p, o = map(repr, triple.as_tuple())
        return (s, p, o), (p, o, s), (o, s, p)

    def add(self, triple):
        if self.bulk:
            self.buffer.append(triple)
            return
        for tree, key in zip(self.trees, self.keys(triple)):
            tree.insert(key, triple)

    def end_bulk_load(self):
        self.bulk = False
        for triple in sorted(self.buffer, key=lambda triple: self.keys(triple)[0]):
            self.add(triple)

    def match(self, subject, predicate, object_):
        """``range(low=tuple_prefix)`` until the first key off the prefix."""
        spo, pos, osp = self.trees
        bound = [repr(term) for term in (subject, predicate, object_)]
        if subject is not None:
            tree, prefix = spo, bound[:1] if predicate is None else bound[:2]
        elif predicate is not None:
            tree, prefix = pos, bound[1:2] if object_ is None else bound[1:3]
        else:
            tree, prefix = osp, bound[2:3]
        prefix = tuple(prefix)
        found = []
        for key, triple in tree.range(low=prefix):
            if key[: len(prefix)] != prefix:
                break
            if TripleStore._matches(triple, subject, predicate, object_):
                found.append(triple)
        return found

    def remove(self, subject, predicate, object_):
        doomed = self.match(subject, predicate, object_)
        for triple in doomed:
            for tree, key in zip(self.trees, self.keys(triple)):
                tree.delete(key, triple)
        return len(doomed)


def _same_tree(flat, reference):
    """Same height, splits and leaf layout; each flat key is its tuple's join."""
    assert (flat.height, flat.rebalance_count) == (reference.height, reference.rebalance_count)
    assert [(key.split("\x00"), values) for key, values in _leaf_chain(flat)] == [
        (list(key), values) for key, values in _leaf_chain(reference)
    ]
    assert [len(keys) for keys in _leaf_keys(flat)] == [
        len(keys) for keys in _leaf_keys(reference)
    ]


#: ``("add", s, p, o)`` or ``("remove", s, p, o)``; a removed pattern may
#: leave components unbound.
_triple_ops = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove"]), _terms, _terms, _terms),
    max_size=60,
)
#: Match patterns (None is a wildcard; at least one component is bound).
_patterns = st.lists(
    st.tuples(_terms, _terms, _terms).filter(lambda pattern: pattern != (None, None, None)),
    max_size=8,
)


class TestFlatKeysAreTupleKeys:
    @given(*[st.lists(_components, min_size=1, max_size=3)] * 2)
    def test_flat_order_is_tuple_order(self, left, right):
        flat_left, flat_right = flat_key(*left), flat_key(*right)
        assert (flat_left < flat_right, flat_left == flat_right) == (left < right, left == right)
        # A prefix's run is exactly the keys whose leading components match.
        prefix = flat_key(*left, "")
        assert flat_right.startswith(prefix) == (right[: len(left)] == left and right != left)

    @given(st.sampled_from([3, 4]), st.booleans(), _triple_ops, _patterns)
    def test_triple_store_builds_and_books_what_tuple_keys_did(self, order, bulk, ops, patterns):
        store, reference = TripleStore(), _Reference(order, bulk)
        # Small nodes, so a short history splits the trees several levels deep.
        store._spo, store._pos, store._osp = (
            BPlusTree(order=order, metrics=store.metrics) for _ in range(3)
        )
        if bulk:
            store.begin_bulk_load()
        for op, subject, predicate, object_ in ops:
            if op == "add" or (bulk and store._bulk_mode):
                store.add(subject, predicate, object_)
                reference.add(Triple(subject, predicate, object_))
            elif subject is not None or predicate is not None or object_ is not None:
                assert store.remove(subject, predicate, object_) == reference.remove(
                    subject, predicate, object_
                )
            assert store.metrics.snapshot() == reference.metrics.snapshot()
        if bulk:
            store.end_bulk_load()
            reference.end_bulk_load()
        for flat, tree in zip((store._spo, store._pos, store._osp), reference.trees):
            _same_tree(flat, tree)
        assert store.metrics.snapshot() == reference.metrics.snapshot()
        statements = [
            triple.as_tuple()
            for _key, triple in reference.trees[0].items()
            if triple.as_tuple() != (None, None, None)
        ]
        for pattern in patterns + [(None, None, term) for term in (1, "a")] + statements[:4]:
            before = (store.metrics.snapshot(), reference.metrics.snapshot())
            assert list(store.match(*pattern)) == reference.match(*pattern)
            after = (store.metrics.snapshot(), reference.metrics.snapshot())
            assert {k: after[0][k] - before[0][k] for k in after[0]} == {
                k: after[1][k] - before[1][k] for k in after[1]
            }
        for subject in [subject for subject, _p, _o in statements[:4] if subject is not None]:
            before = store.metrics.index_probes
            objects = store.endpoint_objects(subject)
            booked = store.metrics.index_probes - before
            before = reference.metrics.index_probes
            expected = [
                (reference.match(subject, predicate, None) or [Triple(0, 0, None)])[-1].object
                for predicate in ENDPOINTS
            ]
            assert (objects, booked) == (expected, reference.metrics.index_probes - before)

    @given(
        st.lists(st.tuples(_terms, st.integers(0, 40)), max_size=80),
        st.lists(_terms, max_size=8),
    )
    def test_relational_index_builds_and_books_what_tuple_keys_did(self, history, lookups):
        """``index_key`` into a tree vs ``(type name, repr)``; deletes hit earlier inserts."""
        flat, reference = BPlusTree(order=4), BPlusTree(order=4)
        inserted = []
        for value, row_id in history:
            if row_id % 3 == 0 and inserted:
                value, row_id = inserted.pop(row_id % len(inserted))
                flat.delete(index_key(value), row_id)
                reference.delete((type(value).__name__, repr(value)), row_id)
            else:
                inserted.append((value, row_id))
                flat.insert(index_key(value), row_id)
                reference.insert((type(value).__name__, repr(value)), row_id)
        for value in lookups + [value for value, _row_id in inserted[:4]]:
            assert flat.search(index_key(value)) == reference.search(
                (type(value).__name__, repr(value))
            )
        _same_tree(flat, reference)
        assert flat.metrics.snapshot() == reference.metrics.snapshot()

    def test_a_component_holding_nul_is_refused_before_anything_is_booked(self):
        class Sly:
            def __repr__(self):
                return "sly\x00"

        store = TripleStore()
        store.add("s", "p", "o")
        table = RelationalDatabase().create_table("t", [Column("id"), Column("v")])
        table.create_index("v")
        table.insert({"v": "x"})
        before = (store.metrics.snapshot(), table.metrics.snapshot())
        refusals = [
            lambda: flat_key("a", "b\x00"),
            lambda: index_key(Sly()),
            lambda: store.add(Sly(), "p", "o"),
            lambda: store.add("s", "p", Sly()),
            lambda: list(store.match(subject=Sly())),
            lambda: list(store.match(predicate="p", object_=Sly())),
            lambda: store.endpoint_objects(Sly()),
            lambda: table.insert({"v": Sly()}),
            lambda: list(table.index_scan("v", Sly())),
        ]
        for refuse in refusals:
            with pytest.raises(StorageError):
                refuse()
        assert (store.metrics.snapshot(), table.metrics.snapshot()) == before
        assert len(store) == len(table) == 1
        assert [t.as_tuple() for t in store.match("s")] == [("s", "p", "o")]
        # A tuple-shaped or unterminated prefix is no flat prefix.
        tree = BPlusTree()
        for bad in [("a",), "a"]:
            with pytest.raises(StorageError):
                tree.scan_prefixes([bad])
            with pytest.raises(StorageError):
                list(tree.iter_prefix(bad))
