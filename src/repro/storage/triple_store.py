"""An RDF-style triple store with SPO/POS/OSP B+Tree indexes.

BlazeGraph stores the whole graph as Subject-Predicate-Object statements and
indexes each statement three times — once per permutation (SPO, POS, OSP) —
in B+Trees backed by a journal file of pre-allocated fixed size (paper,
Sections 3.2 and 6.2).  Edge properties require *reified* statements: the
edge itself becomes the subject of further statements.  The consequences the
paper observes (very slow loading because every insert rebalances three
trees, roughly 3x the space of any other engine, several probes per edge
traversal) all follow directly from this structure, and they follow here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.storage.btree import BPlusTree
from repro.storage.metrics import StorageMetrics

#: Pre-allocated journal size, mirroring BlazeGraph's fixed-size journal
#: file that inflates its on-disk footprint (paper, Section 6.2).
JOURNAL_PREALLOCATION_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class Triple:
    """A single (subject, predicate, object) statement."""

    subject: Any
    predicate: Any
    object: Any

    def as_tuple(self) -> tuple[Any, Any, Any]:
        return (self.subject, self.predicate, self.object)


def _spo_key(triple: Triple) -> tuple[str, str, str]:
    """The statement's SPO index key; keys are lexicographically ordered reprs."""
    return (repr(triple.subject), repr(triple.predicate), repr(triple.object))


def _index_keys(triple: Triple) -> tuple[tuple[str, str, str], ...]:
    """The statement's keys in the SPO, POS and OSP indexes, in that order."""
    s, p, o = _spo_key(triple)
    return (s, p, o), (p, o, s), (o, s, p)


class TripleStore:
    """Statement store indexed by the SPO, POS, and OSP permutations."""

    def __init__(self, name: str = "triplestore", metrics: StorageMetrics | None = None) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else StorageMetrics(owner=name)
        self._spo = BPlusTree(f"{name}-spo", metrics=self.metrics)
        self._pos = BPlusTree(f"{name}-pos", metrics=self.metrics)
        self._osp = BPlusTree(f"{name}-osp", metrics=self.metrics)
        self._count = 0
        self._bulk_mode = False
        #: Statements awaiting indexing; non-empty only during a bulk load.
        self._bulk_buffer: list[Triple] = []

    def __len__(self) -> int:
        """Number of stored statements."""
        return self._count

    @property
    def size_in_bytes(self) -> int:
        """Journal pre-allocation plus the three indexes (hence ~3x payload)."""
        indexed = self._spo.size_in_bytes + self._pos.size_in_bytes + self._osp.size_in_bytes
        return JOURNAL_PREALLOCATION_BYTES + indexed

    # -- bulk loading -----------------------------------------------------------

    def begin_bulk_load(self) -> None:
        """Buffer inserts and defer index maintenance until the end of the load."""
        self._bulk_mode = True
        self._bulk_buffer = []

    def end_bulk_load(self) -> None:
        """Flush buffered statements into the three indexes in SPO key order.

        One sort serves all three trees: insertion order fixes each tree's
        split history, and with it the height and leaf layout every later
        probe is charged against.
        """
        self._bulk_mode = False
        buffered, self._bulk_buffer = self._bulk_buffer, []
        for triple in sorted(buffered, key=_spo_key):
            self._index(triple)

    # -- updates ---------------------------------------------------------------------

    def add(self, subject: Any, predicate: Any, object_: Any) -> Triple:
        """Add a statement; outside bulk mode every add maintains three B+Trees."""
        triple = Triple(subject, predicate, object_)
        self._count += 1
        if self._bulk_mode:
            self._bulk_buffer.append(triple)
        else:
            self._index(triple)
        return triple

    def remove(self, subject: Any, predicate: Any = None, object_: Any = None) -> int:
        """Remove every statement matching the (possibly partial) pattern."""
        matches = list(self.match(subject, predicate, object_))
        self._bulk_buffer = [
            triple
            for triple in self._bulk_buffer
            if not self._matches(triple, subject, predicate, object_)
        ]
        for triple in matches:
            spo, pos, osp = _index_keys(triple)
            self._spo.delete(spo, triple)
            self._pos.delete(pos, triple)
            self._osp.delete(osp, triple)
        self._count -= len(matches)
        return len(matches)

    def _index(self, triple: Triple) -> None:
        spo, pos, osp = _index_keys(triple)
        self._spo.insert(spo, triple)
        self._pos.insert(pos, triple)
        self._osp.insert(osp, triple)

    # -- pattern matching --------------------------------------------------------------

    def match(
        self, subject: Any = None, predicate: Any = None, object_: Any = None
    ) -> Iterator[Triple]:
        """Yield statements matching the pattern (None is a wildcard).

        The most selective index permutation is chosen from the bound
        components, exactly as a real SPO/POS/OSP layout allows, and its
        prefix run is scanned lazily: probes are booked as the stream is
        consumed, so abandoning it early costs only what was seen.
        """
        # Queries during a bulk load see buffered data too (rare path).
        for triple in self._bulk_buffer:
            if self._matches(triple, subject, predicate, object_):
                yield triple
        if subject is not None:
            tree = self._spo
            prefix = (repr(subject),) if predicate is None else (repr(subject), repr(predicate))
        elif predicate is not None:
            tree = self._pos
            prefix = (repr(predicate),) if object_ is None else (repr(predicate), repr(object_))
        elif object_ is not None:
            tree = self._osp
            prefix = (repr(object_),)
        else:
            for _key, triple in self._spo.items():
                yield triple
            return
        for triple in tree.iter_prefix(prefix):
            if self._matches(triple, subject, predicate, object_):
                yield triple

    def match_grouped(
        self, patterns: Iterable[tuple[Any, Any, Any]]
    ) -> Iterator[tuple[int, Triple]]:
        """Answer a group of ``(subject, predicate, object)`` patterns in one pass.

        Yields ``(position, triple)`` pairs grouped by pattern in input
        order — the batch scan entry point for the triple engine's bulk
        primitives.  Each pattern is one :meth:`match` stream, consumed as
        the caller consumes this one (identical logical charges, also when
        the caller stops early).
        """
        for position, pattern in enumerate(patterns):
            for triple in self.match(*pattern):
                yield position, triple

    def endpoint_objects(self, subject: Any, predicates: Iterable[Any]) -> list[Any]:
        """Resolve the object of each ``(subject, predicate)`` pattern flatly.

        Engines that reify edges resolve both endpoint statements of an
        edge with two :meth:`match` consumptions run to exhaustion; this
        performs the identical scans (same descent and leaf probes, last
        matching object wins) eagerly, one SPO prefix scan per predicate.
        ``subject`` and every predicate must be bound (not None).
        """
        results: list[Any] = []
        scan_prefix = self._spo.scan_prefix
        subject_key = repr(subject)
        for predicate in predicates:
            value = None
            for triple in self._bulk_buffer:
                if triple.subject == subject and triple.predicate == predicate:
                    value = triple.object
            for triple in scan_prefix((subject_key, repr(predicate))):
                if triple.subject == subject and triple.predicate == predicate:
                    value = triple.object
            results.append(value)
        return results

    def first_object(self, subject: Any, predicate: Any) -> Any:
        """Return the first object matching ``(subject, predicate)``, or None.

        Abandons the :meth:`match` stream at the first hit, so the scan is
        charged up to that statement's key and no further.
        """
        for triple in self.match(subject, predicate):
            return triple.object
        return None

    @staticmethod
    def _matches(triple: Triple, subject: Any, predicate: Any, object_: Any) -> bool:
        if subject is not None and triple.subject != subject:
            return False
        if predicate is not None and triple.predicate != predicate:
            return False
        if object_ is not None and triple.object != object_:
            return False
        return True

    def subjects(self) -> Iterator[Any]:
        """Yield distinct subjects (scan of the SPO index)."""
        seen: set[Any] = set()
        for _key_, triple in self._spo.items():
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self) -> Iterator[Any]:
        """Yield distinct predicates (scan of the POS index)."""
        seen: set[Any] = set()
        for _key_, triple in self._pos.items():
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate
