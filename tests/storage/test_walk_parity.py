"""``TripleStore.walk_edges`` books what the composition it replaced booked.

The reference below is that composition, written with ``match`` alone: per
frontier vertex and walked predicate one ``match(None, predicate, vertex)``
stream; per edge the label check as a ``match(edge, rdf:predicate)``
abandoned at its first hit, and for neighbours both endpoint statements as
``match(edge, predicate)`` scans run to exhaustion (last object wins).  The
walk must yield the same pairs, call ``require`` at the same points and
leave ``metrics.snapshot()`` identical after every item — also when the
stream is abandoned after any number of items.

Trees are rebuilt at order 3-4 so runs cross leaves and reach the end of
the tree; edges come with self-loops, parallel edges, missing, repeated and
unmatched labels, and a bulk load left open so part of the graph — possibly
half of one edge's statements — sits in the buffer.  The run length comes
from the hypothesis profile in ``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import islice

from hypothesis import given, strategies as st

from repro.storage.btree import BPlusTree
from repro.storage.triple_store import (
    ENDPOINTS,
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_SUBJECT,
    TripleStore,
)

_END = object()
_FAR = {RDF_SUBJECT: RDF_OBJECT, RDF_OBJECT: RDF_SUBJECT}
_WALKED = [(RDF_SUBJECT,), (RDF_OBJECT,), (RDF_SUBJECT, RDF_OBJECT)]


def composed(store, vertex_ids, walked, label, endpoints, require):
    """The per-pattern ``match`` composition the walk stands for."""
    frontier = list(vertex_ids)
    for vertex_id in frontier:
        for near in walked:
            require(vertex_id)
            for triple in store.match(None, near, vertex_id):
                edge_id = triple.subject
                if label is not None:
                    found = None
                    for statement in store.match(edge_id, RDF_PREDICATE):
                        found = statement.object
                        break
                    if found != label:
                        continue
                if not endpoints:
                    yield vertex_id, edge_id
                    continue
                objects = {}
                for predicate in (RDF_SUBJECT, RDF_OBJECT):
                    objects[predicate] = None
                    for statement in store.match(edge_id, predicate):
                        objects[predicate] = statement.object
                yield vertex_id, objects[_FAR[near]]


def _small_order_store(order: int) -> TripleStore:
    store = TripleStore()
    for name in ("_spo", "_pos", "_osp"):
        setattr(store, name, BPlusTree(name, order=order, metrics=store.metrics))
    return store


_vertices = st.integers(0, 5)
#: Per edge: endpoints, its label statements (none, one, or two), and
#: whether it carries a property statement (which sorts before its rdf:
#: statements) or a second source statement (the last object wins).
_edges = st.lists(
    st.tuples(
        _vertices,
        _vertices,
        st.lists(st.sampled_from(["a", "b"]), max_size=2),
        st.booleans(),
        st.booleans(),
    ),
    max_size=14,
)


@st.composite
def _graphs(draw):
    """Statements in a drawn order, and how many are indexed before the
    bulk load that buffers the rest."""
    statements = []
    for number, (source, target, labels, weighted, twice) in enumerate(draw(_edges)):
        edge = f"e{number}"
        statements += [(edge, RDF_SUBJECT, f"v{source}"), (edge, RDF_OBJECT, f"v{target}")]
        statements += [(edge, RDF_PREDICATE, label) for label in labels]
        statements.append((edge, "rdf:type", "edge"))
        if weighted:
            statements.append((edge, "prop:w", number))
        if twice:
            statements.append((edge, RDF_SUBJECT, f"v{(source + 1) % 6}"))
    statements = draw(st.permutations(statements))
    indexed = draw(st.integers(0, len(statements)))
    return statements, indexed


def _twins(order, statements, indexed):
    stores = []
    for _ in range(2):
        store = _small_order_store(order)
        for position, statement in enumerate(statements):
            if position == indexed:
                store.begin_bulk_load()
            store.add(*statement)
        stores.append(store)
    return stores


@given(
    st.sampled_from([3, 4]),
    _graphs(),
    st.lists(_vertices.map(lambda v: f"v{v}"), max_size=5),
    st.sampled_from(_WALKED),
    st.sampled_from([None, "a", "b", "c"]),
    st.booleans(),
)
def test_the_walk_books_what_the_composed_matches_book(
    order, graph, frontier, walked, label, endpoints
):
    statements, indexed = graph
    walk_store, reference_store = _twins(order, statements, indexed)
    walk_calls, reference_calls = [], []
    walk = walk_store.walk_edges(frontier, walked, label, endpoints, walk_calls.append)
    reference = composed(reference_store, frontier, walked, label, endpoints, reference_calls.append)
    count = 0
    while True:
        got, want = next(walk, _END), next(reference, _END)
        assert got == want
        assert walk_calls == reference_calls
        assert walk_store.metrics.snapshot() == reference_store.metrics.snapshot()
        if got is _END:
            break
        count += 1
    # Abandoned after k items (reads leave the stores as they were).
    for take in range(count + 1):
        walk = walk_store.walk_edges(frontier, walked, label, endpoints, lambda _v: None)
        reference = composed(reference_store, frontier, walked, label, endpoints, lambda _v: None)
        assert list(islice(walk, take)) == list(islice(reference, take))
        walk.close()
        reference.close()
        assert walk_store.metrics.snapshot() == reference_store.metrics.snapshot()


def test_the_endpoint_predicates_are_in_spo_key_order():
    """What lets one ``scan_prefixes`` call share an edge's descent."""
    keys = [repr(predicate) for predicate in ENDPOINTS]
    assert keys == sorted(keys) and set(ENDPOINTS) == {RDF_SUBJECT, RDF_OBJECT}
