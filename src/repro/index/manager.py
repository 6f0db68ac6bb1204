"""Per-database cache of interval indexes with lazy, charged rebuilds.

One manager per :class:`~repro.model.graph.GraphDatabase` instance (a lazy
singleton created by ``GraphDatabase.structural_index()``, mirroring the
session-manager pattern), caching at most one
:class:`~repro.index.interval.IntervalReachabilityIndex` per edge label.
``get`` returns a *fresh* index — if the cached one went stale (any
structural mutation since its build) the manager rebuilds it, paying the
charged build pass again.  ``peek`` hands back the cached object without
rebuilding, stale or not, so tests and tools can observe the staleness
contract directly.
"""

from __future__ import annotations

from repro.index.interval import IntervalReachabilityIndex
from repro.model.graph import GraphDatabase


class StructuralIndexManager:
    """Owns every structural index built over one graph database."""

    def __init__(self, graph: GraphDatabase) -> None:
        self._graph = graph
        self._indexes: dict[str | None, IntervalReachabilityIndex] = {}
        #: Rebuilds performed after staleness (observability for benchmarks).
        self.rebuilds = 0

    def get(self, label: str | None = None) -> IntervalReachabilityIndex:
        """Return a fresh index over ``label``, building or rebuilding it."""
        index = self._indexes.get(label)
        if index is None or index.is_stale():
            if index is not None:
                self.rebuilds += 1
            index = IntervalReachabilityIndex(self._graph, label=label).build()
            self._indexes[label] = index
        return index

    def peek(self, label: str | None = None) -> IntervalReachabilityIndex | None:
        """Return the cached index (possibly stale) without rebuilding."""
        return self._indexes.get(label)

    def has_fresh(self, label: str | None = None) -> bool:
        """True if a cached index over ``label`` exists and is not stale."""
        index = self._indexes.get(label)
        return index is not None and not index.is_stale()

    def drop(self, label: str | None) -> None:
        """Forget the cached index over ``label`` (no-op if absent)."""
        self._indexes.pop(label, None)
