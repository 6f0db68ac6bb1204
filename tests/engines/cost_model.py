"""What one adjacency walk books, in closed form, per engine.

The charge of ``edges_for`` / ``neighbors`` on one vertex is a function of
observables a test reads without booking anything:

* ``degree[p]`` — the vertex's incident edges in pass ``p`` of the
  direction, every label (the passes are :func:`pass_table`'s: BOTH is the
  out pass, then the in pass);
* ``matched[p]`` — those of them the label filter keeps (all of them
  unfiltered);
* ``labelled`` — whether the walk names a label, and ``known`` — whether
  it is one the engine has seen (the native-linked engines only; true
  unfiltered);
* ``heights[p]`` — relational only: the summed heights of the endpoint
  indexes of every edge table the expansion unions over in pass ``p``;
* ``chains`` — ``nativelinked-3.0`` only: the vertex's typed chain heads,
  every label and direction, an emptied one included;
* ``trees`` — triple only: the heights of the POS and SPO permutations.

Each formula returns the six priced counters (the ones
``StorageMetrics.logical_io`` sums) plus network round trips.  The table
records the engines' booking as it is; a formula that disagrees with an
engine is a finding, not a tolerance.  ``tests/engines/test_cost_model.py``
holds the engines to it on random graphs.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.engines.native_linked import NativeLinkedEngine, NativeLinkedV3Engine
from repro.engines.relational_engine import RelationalEngine
from repro.engines.triple_engine import TripleEngine
from repro.model.elements import Direction, pass_table

#: The counters a formula states: the priced six, then round trips.
COUNTERS = (
    "page_reads",
    "page_writes",
    "index_probes",
    "index_updates",
    "records_read",
    "records_written",
    "network_round_trips",
)

#: Per pass: the position of the walked endpoint in a ``(source, target)`` pair.
_NEAR = pass_table({Direction.OUT: 0, Direction.IN: 1})
#: An edge table's endpoint columns, in that order.
_ENDS = ("source", "target")


class Observed(NamedTuple):
    """The observables of one walk of one vertex (see the module docstring)."""

    degree: tuple[int, ...]
    matched: tuple[int, ...]
    labelled: bool
    known: bool
    heights: tuple[int, ...] = ()
    chains: int = 0
    trees: tuple[int, int] = (0, 0)


def _vector(**counts: int) -> dict[str, int]:
    return {name: counts.get(name, 0) for name in COUNTERS}


def native_linked(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, one node-record read and one relationship-record read per
    chain element, whatever its label; per kept edge, one more for its far
    endpoint when neighbours are asked for.  A label the engine has never
    seen reads the node records and stops."""
    if not seen.known:
        return _vector(records_read=len(seen.degree))
    return _vector(
        records_read=sum(
            1 + degree + (matched if endpoints else 0)
            for degree, matched in zip(seen.degree, seen.matched)
        )
    )


def columnar(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, two row-key probes (the existence check and the slice) and
    one record read per sliced cell, at least one; per neighbour, the
    row-key probe of ``edge_endpoints``."""
    return _vector(
        index_probes=sum(2 + (matched if endpoints else 0) for matched in seen.matched),
        records_read=sum(max(1, matched) for matched in seen.matched),
    )


def relational(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, the height of every unioned endpoint index (its descent,
    or the same height booked where the holder map skips it); per found
    row, one record read, and for neighbours the primary-key probe and
    record read of ``edge_endpoints``."""
    return _vector(
        index_probes=sum(
            height + (matched if endpoints else 0)
            for height, matched in zip(seen.heights, seen.matched)
        ),
        records_read=sum(matched * (2 if endpoints else 1) for matched in seen.matched),
    )


def native_linked_v3(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, the adapter's probe.  Unfiltered: one node-record read,
    one probe per typed chain head, one relationship-record read per edge,
    and a pass with no edge reads the node record again (the base-chain
    fallback).  Filtered by a known label: one chain-head probe and one
    read per kept edge; an unknown label stops at the adapter.  Per
    neighbour, the relationship-record read of ``edge_endpoints``."""
    probes = reads = 0
    for degree, matched in zip(seen.degree, seen.matched):
        probes += 1
        if not seen.known:
            continue
        if seen.labelled:
            probes += 1
        else:
            probes += seen.chains
            reads += 1 + (degree == 0)
        reads += matched * (2 if endpoints else 1)
    return _vector(index_probes=probes, records_read=reads)


def native_indirect(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, the vertex record through the indirection map (one probe,
    one read); filtered, the same for every listed edge's record; per
    neighbour, the same again for ``edge_endpoints``."""
    resolved = sum(
        1 + (degree if seen.labelled else 0) + (matched if endpoints else 0)
        for degree, matched in zip(seen.degree, seen.matched)
    )
    return _vector(index_probes=resolved, records_read=resolved)


def bitmap(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, one incidence-bitmap probe and, filtered, one label-bitmap
    probe; per neighbour, the endpoint probe of ``edge_endpoints``."""
    return _vector(
        index_probes=sum(1 + seen.labelled + (matched if endpoints else 0) for matched in seen.matched)
    )


def document(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, one round trip, one endpoint hash-index probe and one read
    per edge document; per kept edge, one recharged read for the re-fetch
    after the label check and one for ``edge_endpoints``."""
    passes = len(seen.degree)
    return _vector(
        index_probes=passes,
        records_read=sum(
            degree + matched * (seen.labelled + endpoints)
            for degree, matched in zip(seen.degree, seen.matched)
        ),
        network_round_trips=passes,
    )


def triple(seen: Observed, endpoints: bool) -> dict[str, int]:
    """Per pass, the POS run of the vertex: the descent, one probe per
    statement and one for the key that ends the run.  Per edge found,
    filtered, the SPO label lookup abandoned at its hit (descent + one);
    per neighbour, the two endpoint scans of ``edge_endpoints`` (two
    descents + two probes each), booked apart though they share one."""
    pos, spo = seen.trees
    return _vector(
        index_probes=sum(
            pos + degree + 1
            + (degree * (spo + 1) if seen.labelled else 0)
            + (matched * (2 * spo + 4) if endpoints else 0)
            for degree, matched in zip(seen.degree, seen.matched)
        )
    )


#: Engine identifier -> its formula, ``formula(observed, endpoints)``.
FORMULAS: dict[str, Callable[[Observed, bool], dict[str, int]]] = {
    "nativelinked-1.9": native_linked,
    "nativelinked-3.0": native_linked_v3,
    "nativeindirect-2.2": native_indirect,
    "bitmapgraph-5.1": bitmap,
    "columnargraph-0.5": columnar,
    "columnargraph-1.0": columnar,
    "documentgraph-2.8": document,
    "triplegraph-2.1": triple,
    "relationalgraph-1.2": relational,
}


def observe(
    engine: Any,
    edges: list[tuple[Any, Any, str]],
    vertex: Any,
    direction: Direction,
    label: str | None,
) -> Observed:
    """The observables of walking ``vertex`` on ``engine``, whose live edges
    are ``edges`` as ``(source, target, label)``; books nothing."""
    passes = _NEAR[direction]
    degree = tuple(sum(edge[near] == vertex for edge in edges) for near in passes)
    matched = tuple(
        sum(edge[near] == vertex and label in (None, edge[2]) for edge in edges)
        for near in passes
    )
    labelled = label is not None
    known = not labelled or not isinstance(engine, NativeLinkedEngine) or label in engine._labels
    seen = Observed(degree, matched, labelled, known)
    if isinstance(engine, NativeLinkedV3Engine):
        seen = seen._replace(chains=len(engine._typed_chains.get(vertex, ())))
    if isinstance(engine, TripleEngine):
        store = engine._triples
        seen = seen._replace(trees=(store._pos.height, store._spo.height))
    if isinstance(engine, RelationalEngine):
        database = engine.database
        if label is None:
            names = database.table_names("E_")
        else:
            names = tuple(name for name in ("E_" + label,) if database.has_table(name))
        seen = seen._replace(heights=tuple(
            sum(database.table(name).secondary_index(_ENDS[near]).height for name in names)
            for near in passes
        ))
    return seen
