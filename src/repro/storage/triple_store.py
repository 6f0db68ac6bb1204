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
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.storage.btree import BPlusTree, flat_key
from repro.storage.metrics import StorageMetrics

#: Pre-allocated journal size, mirroring BlazeGraph's fixed-size journal
#: file that inflates its on-disk footprint (paper, Section 6.2).
JOURNAL_PREALLOCATION_BYTES = 8 * 1024 * 1024

#: RDF reification: an edge ``e`` from ``s`` to ``o`` labelled ``l`` is the
#: statements ``(e, rdf:subject, s)``, ``(e, rdf:object, o)`` and
#: ``(e, rdf:predicate, l)`` — the vocabulary :meth:`TripleStore.walk_edges`
#: walks.
RDF_SUBJECT = "rdf:subject"
RDF_OBJECT = "rdf:object"
RDF_PREDICATE = "rdf:predicate"
#: The two endpoint predicates in SPO key order, so an edge's endpoint
#: scans share one descent.
ENDPOINTS = (RDF_OBJECT, RDF_SUBJECT)
#: Each endpoint predicate's key component plus separator, in that order,
#: and the label's: an edge's prefixes are its subject's head plus these.
_ENDPOINT_KEYS = tuple(flat_key(repr(predicate), "") for predicate in ENDPOINTS)
_LABEL_KEY = flat_key(repr(RDF_PREDICATE), "")
#: Per walked endpoint predicate (the one naming the frontier vertex): its
#: rendered key, the far endpoint's predicate, and the far run's position
#: in ``ENDPOINTS``.
_PASSES = {
    near: (flat_key(repr(near), ""), far, ENDPOINTS.index(far))
    for near, far in ((RDF_SUBJECT, RDF_OBJECT), (RDF_OBJECT, RDF_SUBJECT))
}


@dataclass(frozen=True)
class Triple:
    """A single (subject, predicate, object) statement."""

    subject: Any
    predicate: Any
    object: Any

    def as_tuple(self) -> tuple[Any, Any, Any]:
        return (self.subject, self.predicate, self.object)


def _spo_key(triple: Triple) -> str:
    """The statement's SPO index key: the flat key of its three reprs."""
    return flat_key(repr(triple.subject), repr(triple.predicate), repr(triple.object))


def _index_keys(triple: Triple) -> tuple[str, str, str]:
    """The statement's keys in the SPO, POS and OSP indexes, in that order."""
    s, p, o = repr(triple.subject), repr(triple.predicate), repr(triple.object)
    return flat_key(s, p, o), flat_key(p, o, s), flat_key(o, s, p)


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
        if self._bulk_mode:
            self._bulk_buffer.append(triple)
        else:
            self._index(triple)
        self._count += 1
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
            tree, bound = self._spo, (subject,) if predicate is None else (subject, predicate)
        elif predicate is not None:
            tree, bound = self._pos, (predicate,) if object_ is None else (predicate, object_)
        elif object_ is not None:
            tree, bound = self._osp, (object_,)
        else:
            for _key, triple in self._spo.items():
                yield triple
            return
        for triple in tree.iter_prefix(flat_key(*map(repr, bound), "")):
            if self._matches(triple, subject, predicate, object_):
                yield triple

    def walk_edges(
        self,
        vertex_ids: Iterable[Any],
        walked: tuple[Any, ...],
        label: Any,
        endpoints: bool,
        require: Callable[[Any], object],
    ) -> Iterator[tuple[Any, Any]]:
        """Walk a frontier's reified edges: ``(vertex, far endpoint)`` pairs
        when ``endpoints`` is set, else ``(vertex, edge id)``.

        Per frontier vertex and per predicate of ``walked`` (each of
        ``RDF_SUBJECT`` / ``RDF_OBJECT``, naming the vertex's side of the
        edge), in that order: ``require(vertex)``, then the statements
        ``(?, predicate, vertex)`` — buffered ones first, then the POS run.
        Per edge found, when ``label`` is set, the first ``rdf:predicate``
        statement must carry it; for ``endpoints``, both endpoint scans run
        to exhaustion and the far one's last object is the answer.  Both
        endpoint scans are one :meth:`~repro.storage.btree.BPlusTree.scan_prefixes`
        call in SPO key order, so they share one descent.

        Charges are those of the same work done with :meth:`match`, at the
        same consumption points: one :meth:`match` stream per pass (lazy POS
        probes per key and run end), one abandoned at its first hit per
        label check (nothing probed on a buffered hit), and two exhausted
        ones per endpoint resolution.  A pass's buffered statements are
        read when it starts, and a vertex or edge whose ``repr`` holds NUL
        is refused by :func:`flat_key` when its keys are built, before its
        scans book anything.  Vertex and edge ids are never ``None``.
        """
        frontier = list(vertex_ids)
        pos, spo = self._pos, self._spo
        for vertex_id in frontier:
            for near in walked:
                near_key, far, far_slot = _PASSES[near]
                require(vertex_id)
                buffer = self._bulk_buffer
                buffered = (
                    [t for t in buffer if t.predicate == near and t.object == vertex_id]
                    if buffer
                    else ()
                )
                prefix = near_key + flat_key(repr(vertex_id), "")
                for triple in chain(buffered, pos.iter_prefix(prefix)):
                    if triple.predicate != near or triple.object != vertex_id:
                        continue
                    edge_id = triple.subject
                    if label is not None or endpoints:
                        head = flat_key(repr(edge_id), "")
                    if label is not None:
                        found = None
                        # Buffered statements first; the SPO scan starts
                        # only if none of them carries the label.
                        for stmt in chain(self._bulk_buffer, spo.iter_prefix(head + _LABEL_KEY)):
                            if stmt.subject == edge_id and stmt.predicate == RDF_PREDICATE:
                                found = stmt.object
                                break
                        if found != label:
                            continue
                    if not endpoints:
                        yield vertex_id, edge_id
                        continue
                    runs = spo.scan_prefixes(map(head.__add__, _ENDPOINT_KEYS))
                    # Buffered statements, then the run: the last match wins.
                    value = None
                    for stmt in self._bulk_buffer:
                        if stmt.subject == edge_id and stmt.predicate == far:
                            value = stmt.object
                    for stmt in runs[far_slot]:
                        if stmt.subject == edge_id and stmt.predicate == far:
                            value = stmt.object
                    yield vertex_id, value

    def endpoint_objects(self, edge_id: Any) -> list[Any]:
        """Resolve one reified edge's endpoints: the object of each
        ``(edge_id, predicate)`` pattern of ``ENDPOINTS``, in that order.

        The per-edge endpoint resolution of :meth:`walk_edges`, for one id:
        both SPO prefix scans run to exhaustion in one
        :meth:`~repro.storage.btree.BPlusTree.scan_prefixes` call (the
        charges of two exhausted :meth:`match` streams), buffered
        statements first, the last matching object wins, None if there is
        none.  ``edge_id`` is never ``None``.
        """
        head = flat_key(repr(edge_id), "")
        runs = self._spo.scan_prefixes(map(head.__add__, _ENDPOINT_KEYS))
        results: list[Any] = []
        for predicate, run in zip(ENDPOINTS, runs):
            value = None
            for triple in chain(self._bulk_buffer, run):
                if triple.subject == edge_id and triple.predicate == predicate:
                    value = triple.object
            results.append(value)
        return results

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
