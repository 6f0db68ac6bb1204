"""What one adjacency walk books, in closed form, per engine.

The charge of ``edges_for`` / ``neighbors`` on one vertex is a function of
observables a test reads without booking anything:

* ``degree[p]`` — the vertex's incident edges in pass ``p`` of the
  direction, every label (the passes are :func:`pass_table`'s: BOTH is the
  out pass, then the in pass);
* ``matched[p]`` — those of them the label filter keeps (all of them
  unfiltered);
* ``known`` — whether the filter names a label the engine has seen;
* ``heights[p]`` — relational only: the summed heights of the endpoint
  indexes of every edge table the expansion unions over in pass ``p``.

Each formula returns the six priced counters (the ones
``StorageMetrics.logical_io`` sums) plus network round trips.  The table
records the engines' booking as it is; a formula that disagrees with an
engine is a finding, not a tolerance.  ``tests/engines/test_cost_model.py``
holds the engines to it on random graphs.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.engines.native_linked import NativeLinkedEngine
from repro.engines.relational_engine import RelationalEngine
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
    known: bool
    heights: tuple[int, ...]


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


#: Engine identifier -> its formula, ``formula(observed, endpoints)``.
FORMULAS: dict[str, Callable[[Observed, bool], dict[str, int]]] = {
    "nativelinked-1.9": native_linked,
    "columnargraph-1.0": columnar,
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
    known = label is None
    if isinstance(engine, NativeLinkedEngine):
        known = known or label in engine._labels
    heights: tuple[int, ...] = ()
    if isinstance(engine, RelationalEngine):
        database = engine.database
        if label is None:
            names = database.table_names("E_")
        else:
            names = tuple(name for name in ("E_" + label,) if database.has_table(name))
        heights = tuple(
            sum(database.table(name).secondary_index(_ENDS[near]).height for name in names)
            for near in passes
        )
    return Observed(degree, matched, known, heights)
