"""A B+Tree with explicit node fan-out and per-operation accounting.

BlazeGraph keeps its whole graph in B+Tree-indexed journal files and updates
and rebalances those trees after every insertion unless bulk loading is
enabled (paper, Sections 3.2 and 6.2).  Sparksee and the relational engine
also rely on tree-shaped indexes.  This module implements a textbook B+Tree:

* internal nodes route by key, leaves hold (key, values) lists;
* leaves are chained for ordered range scans;
* every descent charges one index probe per level, every key a scan visits
  one more, every structural change charges index updates — so tree height
  shows up in the benchmark numbers.

Keys may be any totally ordered Python values of a consistent type.  Each
key maps to a list of values (duplicates allowed), which matches the way the
engines use indexes (e.g. property value -> element ids).

Composite keys are *flat*: :func:`flat_key` joins their string components
with a NUL into one ``str``, so a bisect step is one string compare instead
of a tuple compare that dereferences each component.  No component may hold
a NUL, which makes the flat order the tuple order: the first differing
component decides, and a component that is a proper prefix of another sorts
first because NUL is the smallest code point.  Every sort, split, height,
leaf layout and bisect position — hence every booked probe and update — is
the one the tuple keys gave.  A *prefix* is the key of its leading
components followed by one empty component, so it ends in the separator;
the prefix scans take nothing else.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator

from repro.exceptions import StorageError
from repro.storage.metrics import StorageMetrics

_DEFAULT_ORDER = 64
#: Joins the components of a flat key; no component may contain it.
_SEPARATOR = "\x00"
#: ``_SEPARATOR``'s successor: a prefix with its final separator raised to
#: this bounds the run of keys that start with the prefix.
_AFTER_SEPARATOR = "\x01"


def flat_key(*components: str) -> str:
    """The one key encoding: ``components`` joined by NUL.

    ``flat_key(a, b, "")`` is the prefix of every key whose first two
    components are ``a`` and ``b``.  A component holding the separator
    (a custom ``__repr__``, say) would break the order isomorphism, so it
    is refused with :class:`StorageError` before the key reaches a tree.
    """
    key = _SEPARATOR.join(components)
    if key.count(_SEPARATOR) != len(components) - 1:
        raise StorageError(f"a key component contains NUL: {components!r}")
    return key


class _LeafNode:
    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[Any]] = []
        self.next_leaf: _LeafNode | None = None


class _InternalNode:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[_Node] = []


_Node = _LeafNode | _InternalNode


class BPlusTree:
    """An order-``order`` B+Tree mapping keys to lists of values.

    Parameters
    ----------
    name:
        Index name, used for diagnostics and metrics ownership.
    order:
        Maximum number of keys per node; nodes split when they exceed it.
    metrics:
        Counter charged for probes, updates, and leaf scans.
    """

    def __init__(
        self,
        name: str = "btree",
        order: int = _DEFAULT_ORDER,
        metrics: StorageMetrics | None = None,
    ) -> None:
        if order < 3:
            raise StorageError("B+Tree order must be at least 3")
        self.name = name
        self.order = order
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._root: _Node = _LeafNode()
        self._size = 0  # number of (key, value) pairs
        self._key_count = 0
        self._height = 1
        self._rebalance_count = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        """Total number of stored (key, value) pairs."""
        return self._size

    @property
    def key_count(self) -> int:
        """Number of distinct keys."""
        return self._key_count

    @property
    def height(self) -> int:
        """Current height of the tree (1 = a single leaf)."""
        return self._height

    @property
    def rebalance_count(self) -> int:
        """Number of node splits performed; a proxy for maintenance cost."""
        return self._rebalance_count

    @property
    def size_in_bytes(self) -> int:
        """Rough simulated on-disk footprint of the index."""
        return self._size * 32 + self._key_count * 16

    # -- insertion ---------------------------------------------------------

    def insert(self, key: Any, value: Any) -> bool:
        """Insert ``value`` under ``key``, splitting nodes as necessary.

        Returns whether ``key`` is new to the tree (``key_count`` moved).
        The write-side twin of :meth:`_find_leaf`: one iterative descent
        that books its ``height`` probes at once and remembers the
        ``(node, child index)`` path, so a split propagates up that stack
        instead of unwinding a recursion.
        """
        metrics = self.metrics
        metrics.index_updates += 1
        metrics.index_probes += self._height
        node = self._root
        path: list[tuple[_InternalNode, int]] = []
        while type(node) is _InternalNode:
            index = bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        keys = node.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            node.values[index].append(value)
            self._size += 1
            return False
        keys.insert(index, key)
        node.values.insert(index, [value])
        self._size += 1
        self._key_count += 1
        order = self.order
        if len(keys) <= order:
            return True
        middle_key, right = self._split_leaf(node)
        while path:
            parent, index = path.pop()
            parent.keys.insert(index, middle_key)
            parent.children.insert(index + 1, right)
            if len(parent.keys) <= order:
                return True
            middle_key, right = self._split_internal(parent)
        new_root = _InternalNode()
        new_root.keys = [middle_key]
        new_root.children = [self._root, right]
        self._root = new_root
        self._height += 1
        self._rebalance_count += 1
        return True

    def _split_leaf(self, leaf: _LeafNode):
        self._rebalance_count += 1
        self.metrics.charge_index_update()
        middle = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _InternalNode):
        self._rebalance_count += 1
        self.metrics.charge_index_update()
        middle = len(node.keys) // 2
        middle_key = node.keys[middle]
        right = _InternalNode()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return middle_key, right

    # -- lookup -------------------------------------------------------------

    def search(self, key: Any) -> list[Any]:
        """Return the list of values stored under ``key`` (empty if absent).

        :meth:`_find_leaf` inlined, as in :meth:`peek`: the point lookup is
        the one descent hot enough (a relational expansion runs one per edge
        table per direction) for the extra frame to show.
        """
        node = self._root
        while type(node) is _InternalNode:
            node = node.children[bisect_right(node.keys, key)]
        self.metrics.index_probes += self._height
        keys = node.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return list(node.values[index])
        return []

    def contains(self, key: Any) -> bool:
        """True if ``key`` has at least one stored value."""
        leaf, index = self._find_leaf(key)
        return index < len(leaf.keys) and leaf.keys[index] == key

    def peek(self, key: Any) -> list[Any]:
        """What :meth:`search` returns, without booking anything.

        For a caller whose discovery work the cost model deliberately
        leaves unbooked (the relational foreign-key cascade): the same
        descent, no counter moves.
        """
        node = self._root
        while type(node) is _InternalNode:
            node = node.children[bisect_right(node.keys, key)]
        keys = node.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return list(node.values[index])
        return []

    def _find_leaf(self, key: Any) -> tuple[_LeafNode, int]:
        """Descend to the leaf that holds (or would hold) ``key``.

        Every leaf sits at depth ``height`` — splits grow the tree at the
        root and deletes never merge — so the descent books its one probe
        per level arithmetically instead of level by level.
        """
        node = self._root
        while type(node) is _InternalNode:
            node = node.children[bisect_right(node.keys, key)]
        self.metrics.index_probes += self._height
        return node, bisect_left(node.keys, key)

    # -- range scans -----------------------------------------------------------

    def range(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with low <= key <= high in key order."""
        if low is None:
            leaf: _LeafNode | None = self._leftmost_leaf()
            index = 0
        else:
            leaf, index = self._find_leaf(low)
        metrics = self.metrics
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None and key > high:
                    return
                metrics.index_probes += 1
                for value in leaf.values[index]:
                    yield key, value
                index += 1
            leaf = leaf.next_leaf
            index = 0

    def scan_prefixes(self, prefixes: Iterable[str]) -> list[list[Any]]:
        """Per flat prefix, the values of every key that starts with it, in key order.

        The eager form, for consumers that always run to exhaustion, and
        one frame for several runs.  The run of a prefix (:func:`flat_key`
        ending in an empty component) is the key interval from it up to it
        with its final separator raised to ``"\\x01"``, so one bisect per
        leaf finds where it stops.  Prefixes in ascending order share their
        descent: a prefix at or past where the previous run stopped, whose
        first key sits in the leaf that run stopped in, is found by one
        bisect from there (finger search); any other prefix descends from
        the root.  Booked per prefix all the same, at once: what consuming
        ``range(low=prefix)`` up to the first mismatching key books — the
        descent, one probe per matching key, and one for the key that ends
        the run (none at the end of the tree).  Those are a function of the
        keys alone, so the shared descent changes no count.
        """
        root, height = self._root, self._height
        runs: list[list[Any]] = []
        probes = 0
        # The leaf the previous run stopped in, the index of the key that
        # ended it, and the run's upper bound (no leaf once a run reached
        # the end of the tree).
        leaf: _LeafNode | None = None
        index = 0
        bound = ""
        for prefix in prefixes:
            if prefix[-1:] != _SEPARATOR:
                raise StorageError(f"not a flat prefix: {prefix!r}")
            end = prefix[:-1] + _AFTER_SEPARATOR
            probes += height
            if (
                leaf is None
                or prefix < bound
                or (start := bisect_left(leaf.keys, prefix, index)) == len(leaf.keys)
            ):
                node = root
                while type(node) is _InternalNode:
                    node = node.children[bisect_right(node.keys, prefix)]
                leaf, start = node, bisect_left(node.keys, prefix)
            values: list[Any] = []
            while leaf is not None:
                keys = leaf.keys
                stop = bisect_left(keys, end, start)
                for bucket in leaf.values[start:stop]:
                    values += bucket
                probes += stop - start
                if stop < len(keys):
                    probes += 1
                    index = stop
                    break
                leaf = leaf.next_leaf
                start = 0
            bound = end
            runs.append(values)
        self.metrics.index_probes += probes
        return runs

    def iter_prefix(self, prefix: str) -> Iterator[Any]:
        """Yield the values :meth:`scan_prefixes` finds for ``prefix``, booking
        probes as consumed.

        The lazy form, for streams that may be abandoned: the descent is
        booked at the first item requested and each key when its first
        value is, so a consumer that stops early pays only for what it saw.
        (Its own loop, not a generator shared with the eager form: that
        costs the eager hot path a generator per scan.)
        """
        if prefix[-1:] != _SEPARATOR:
            raise StorageError(f"not a flat prefix: {prefix!r}")
        leaf, start = self._find_leaf(prefix)
        end = prefix[:-1] + _AFTER_SEPARATOR
        metrics = self.metrics
        while leaf is not None:
            keys = leaf.keys
            stop = bisect_left(keys, end, start)
            for bucket in leaf.values[start:stop]:
                metrics.index_probes += 1
                yield from bucket
            if stop < len(keys):
                metrics.index_probes += 1
                return
            leaf = leaf.next_leaf
            start = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Yield every (key, value) pair in key order."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        leaf: _LeafNode | None = self._leftmost_leaf()
        while leaf is not None:
            for key in leaf.keys:
                self.metrics.charge_index_probe()
                yield key
            leaf = leaf.next_leaf

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while type(node) is _InternalNode:
            node = node.children[0]
        return node

    # -- deletion -----------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Delete ``value`` from ``key`` (or all values when ``value`` is None).

        Returns the number of (key, value) pairs removed.  Underflowed leaves
        are left in place (lazy deletion), which matches the journal-style
        behaviour of the systems being modelled and keeps the structure
        simple; the keys themselves are removed when their value list empties.
        """
        self.metrics.charge_index_update()
        leaf, index = self._find_leaf(key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return 0
        if value is None:
            removed = len(leaf.values[index])
            del leaf.keys[index]
            del leaf.values[index]
            self._size -= removed
            self._key_count -= 1
            return removed
        bucket = leaf.values[index]
        if value not in bucket:
            return 0
        bucket.remove(value)
        self._size -= 1
        if not bucket:
            del leaf.keys[index]
            del leaf.values[index]
            self._key_count -= 1
        return 1
