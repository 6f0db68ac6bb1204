"""Charged BFS reachability: the oracle the interval index is tested against.

Both functions run entirely through the engine's bulk structural
primitives, so every expansion books the engine's real traversal charges —
they are at once the differential-test ground truth, the index's fallback
for non-tree regions, and the "no index" arm of the reachability
benchmark.  Traversal follows *out*-edges, optionally restricted to one
edge label (the label-induced subgraph the index is built over).
"""

from __future__ import annotations

from typing import Any

from repro.model.elements import VERTEX, Direction
from repro.model.graph import GraphDatabase

#: Frontier chunk handed to ``neighbors_many`` per expansion round; matches
#: the traversal machine's batch so BFS charges mirror a Q32-style query.
_FRONTIER_CHUNK = 256


def bfs_reachable(
    graph: GraphDatabase, source: Any, target: Any, label: str | None = None
) -> bool:
    """True if ``target`` is reachable from ``source`` over out-edges.

    ``source`` reaches itself trivially.  Early-exits (closing the engine
    generator mid-stream) as soon as the target surfaces, so a hit pays
    only the partial expansion — the same lazy-charge behaviour as the
    per-id path.
    """
    graph._require(VERTEX, source)
    graph._require(VERTEX, target)
    if source == target:
        return True
    visited = {source}
    frontier = [source]
    while frontier:
        next_frontier: list[Any] = []
        for start in range(0, len(frontier), _FRONTIER_CHUNK):
            chunk = frontier[start : start + _FRONTIER_CHUNK]
            stream = graph.neighbors_many(chunk, Direction.OUT, label)
            for _src, neighbor in stream:
                if neighbor == target:
                    stream.close()
                    return True
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return False


def bfs_descendants(
    graph: GraphDatabase, source: Any, label: str | None = None
) -> list[Any]:
    """Every vertex reachable from ``source`` via >= 1 out-edge, BFS order.

    ``source`` itself is excluded, even when a cycle leads back to it.
    """
    graph._require(VERTEX, source)
    visited = {source}
    discovered: list[Any] = []
    frontier = [source]
    while frontier:
        next_frontier: list[Any] = []
        for start in range(0, len(frontier), _FRONTIER_CHUNK):
            chunk = frontier[start : start + _FRONTIER_CHUNK]
            for _src, neighbor in graph.neighbors_many(chunk, Direction.OUT, label):
                if neighbor not in visited:
                    visited.add(neighbor)
                    discovered.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return discovered
