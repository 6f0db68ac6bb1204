"""Graph shape statistics (regenerates the paper's Table 3).

For every dataset the paper reports: number of nodes and edges, number of
distinct edge labels, number of connected components and size of the largest
one, density, modularity, average and maximum degree, and diameter.  The
functions here compute the same statistics from a :class:`~repro.datasets.base.Dataset`
using only the standard library (tests cross-check them against NetworkX).

Modularity is computed for the partition induced by vertex labels (or, when
all vertices share one label, by a lightweight label-propagation community
detection), which is the usual convention for attribute-rich graphs.  The
diameter is measured on the largest connected component and, for graphs
beyond a few thousand nodes, estimated from a sample of BFS sweeps (double
sweep lower bound) to keep the computation tractable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.datasets.base import Dataset


@dataclass(frozen=True)
class GraphStatistics:
    """One row of the paper's Table 3."""

    name: str
    vertex_count: int
    edge_count: int
    label_count: int
    component_count: int
    max_component_size: int
    density: float
    modularity: float
    average_degree: float
    max_degree: int
    diameter: int

    def as_row(self) -> dict[str, Any]:
        """Return the Table 3 row, using the paper's column names."""
        return {
            "Dataset": self.name,
            "|V|": self.vertex_count,
            "|E|": self.edge_count,
            "|L|": self.label_count,
            "#": self.component_count,
            "Maxim": self.max_component_size,
            "Density": self.density,
            "Modularity": self.modularity,
            "Avg": round(self.average_degree, 1),
            "Max": self.max_degree,
            "Delta": self.diameter,
        }


def compute_statistics(dataset: Dataset, diameter_samples: int = 8) -> GraphStatistics:
    """Compute the Table 3 statistics of ``dataset``."""
    adjacency = _build_adjacency(dataset)
    vertex_count = len(dataset.vertices)
    edge_count = len(dataset.edges)
    labels = dataset.edge_labels()
    components = connected_components(adjacency)
    max_component = max((len(component) for component in components), default=0)
    density = 0.0
    if vertex_count > 1:
        density = edge_count / (vertex_count * (vertex_count - 1))
    degrees = {vertex: len(neighbors) for vertex, neighbors in adjacency.items()}
    average_degree = (2 * edge_count / vertex_count) if vertex_count else 0.0
    max_degree = max(degrees.values(), default=0)
    communities = _vertex_communities(dataset, adjacency)
    modularity_value = modularity(dataset, adjacency, communities)
    diameter_value = estimate_diameter(adjacency, components, samples=diameter_samples)
    return GraphStatistics(
        name=dataset.name,
        vertex_count=vertex_count,
        edge_count=edge_count,
        label_count=len(labels),
        component_count=len(components),
        max_component_size=max_component,
        density=density,
        modularity=modularity_value,
        average_degree=average_degree,
        max_degree=max_degree,
        diameter=diameter_value,
    )


# ---------------------------------------------------------------------------
# Structural helpers (undirected view of the graph)
# ---------------------------------------------------------------------------


def _build_adjacency(dataset: Dataset) -> dict[Any, set[Any]]:
    """Build an undirected adjacency map over external vertex ids."""
    adjacency: dict[Any, set[Any]] = {vertex["id"]: set() for vertex in dataset.vertices}
    for edge in dataset.edges:
        source = edge["source"]
        target = edge["target"]
        if source in adjacency and target in adjacency and source != target:
            adjacency[source].add(target)
            adjacency[target].add(source)
    return adjacency


def connected_components(adjacency: Mapping[Any, set[Any]]) -> list[set[Any]]:
    """Return the connected components of the undirected graph."""
    components: list[set[Any]] = []
    unvisited = set(adjacency)
    while unvisited:
        start = next(iter(unvisited))
        component = {start}
        frontier = deque([start])
        unvisited.discard(start)
        while frontier:
            vertex = frontier.popleft()
            for neighbor in adjacency[vertex]:
                if neighbor in unvisited:
                    unvisited.discard(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


def bfs_eccentricity(adjacency: Mapping[Any, set[Any]], start: Any) -> tuple[Any, int]:
    """Return the farthest vertex from ``start`` and its distance."""
    distances = {start: 0}
    frontier = deque([start])
    farthest = start
    while frontier:
        vertex = frontier.popleft()
        for neighbor in adjacency[vertex]:
            if neighbor not in distances:
                distances[neighbor] = distances[vertex] + 1
                if distances[neighbor] > distances[farthest]:
                    farthest = neighbor
                frontier.append(neighbor)
    return farthest, distances[farthest]


def estimate_diameter(
    adjacency: Mapping[Any, set[Any]],
    components: Iterable[set[Any]] | None = None,
    samples: int = 8,
) -> int:
    """Estimate the diameter of the largest component with double BFS sweeps
    (start vertices drawn with seed 5)."""
    if components is None:
        components = connected_components(adjacency)
    largest = max(components, key=len, default=set())
    if len(largest) <= 1:
        return 0
    rng = random.Random(5)
    # Sets iterate in per-process salted order; sort so the sampled start
    # vertices (and the estimate) are stable across processes.
    members = sorted(largest, key=repr)
    best = 0
    for _ in range(max(1, samples)):
        start = rng.choice(members)
        far_vertex, _distance = bfs_eccentricity(adjacency, start)
        _end_vertex, distance = bfs_eccentricity(adjacency, far_vertex)
        best = max(best, distance)
    return best


# ---------------------------------------------------------------------------
# Modularity
# ---------------------------------------------------------------------------


def _vertex_communities(dataset: Dataset, adjacency: Mapping[Any, set[Any]]) -> dict[Any, Any]:
    """Assign every vertex to a community.

    Vertex labels are used when the dataset has more than one; otherwise a
    few rounds of synchronous label propagation produce structural
    communities.
    """
    labels = {vertex["id"]: vertex.get("label") for vertex in dataset.vertices}
    distinct = {label for label in labels.values() if label is not None}
    if len(distinct) > 1:
        return {vertex: label if label is not None else "_none" for vertex, label in labels.items()}
    communities = {vertex: vertex for vertex in adjacency}
    for _round in range(5):
        changed = False
        for vertex, neighbors in adjacency.items():
            if not neighbors:
                continue
            counts: dict[Any, int] = {}
            for neighbor in neighbors:
                counts[communities[neighbor]] = counts.get(communities[neighbor], 0) + 1
            best = max(sorted(counts), key=lambda community: counts[community])
            if counts[best] > counts.get(communities[vertex], 0):
                communities[vertex] = best
                changed = True
        if not changed:
            break
    return communities


def modularity(
    dataset: Dataset, adjacency: Mapping[Any, set[Any]], communities: Mapping[Any, Any]
) -> float:
    """Newman modularity of ``communities`` over the undirected graph."""
    edge_count = 0
    intra: dict[Any, int] = {}
    degree_sum: dict[Any, int] = {}
    for vertex, neighbors in adjacency.items():
        community = communities.get(vertex)
        degree_sum[community] = degree_sum.get(community, 0) + len(neighbors)
    for edge in dataset.edges:
        source, target = edge["source"], edge["target"]
        if source == target or source not in adjacency or target not in adjacency:
            continue
        edge_count += 1
        if communities.get(source) == communities.get(target):
            community = communities.get(source)
            intra[community] = intra.get(community, 0) + 1
    if edge_count == 0:
        return 0.0
    value = 0.0
    for community, degree in degree_sum.items():
        internal = intra.get(community, 0)
        value += internal / edge_count - (degree / (2 * edge_count)) ** 2
    return value
