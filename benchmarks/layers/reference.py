"""A dict-adjacency reference model and cross-engine result digests.

Every read operation of the direct workloads is checked two ways:

* its result, mapped back to *external* (dataset) ids and put in a
  canonical order, must hash to the same crc32 on every engine;
* the canonical form must equal what this module computes from plain
  dictionaries over the dataset — an implementation too simple to be
  wrong (``build_adjacency`` / ``reachable_within`` from the harness's
  own workload module do the graph part).
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.bench.workload import LoadedGraph, build_adjacency, reachable_within
from repro.datasets.base import Dataset

#: Queries whose result is a list of vertex ids.
_VERTEX_LISTS = frozenset({"Q11", "Q22", "Q23", "Q24", "Q28", "Q29", "Q30", "Q31", "Q32", "Q33"})
#: Queries whose result is a list of edge ids.
_EDGE_LISTS = frozenset({"Q12", "Q13"})
#: Queries whose result is a list of labels.
_LABEL_LISTS = frozenset({"Q25", "Q26", "Q27"})
#: Queries whose result is a list of paths.
_PATH_LISTS = frozenset({"Q34", "Q35"})


def digest(canonical: Any) -> int:
    """crc32 of the canonical form's ``repr`` (stable across processes)."""
    return zlib.crc32(repr(canonical).encode())


def _sorted_props(properties: dict[str, Any]) -> list[tuple[str, str]]:
    return sorted((key, repr(value)) for key, value in properties.items())


class Canonicalizer:
    """Maps one engine's results back to dataset terms."""

    def __init__(self, loaded: LoadedGraph) -> None:
        self.vertex_of = {internal: external for external, internal in loaded.vertex_map.items()}
        self.edge_of = {internal: index for index, internal in loaded.edge_map.items()}

    def canonical(self, query_id: str, result: Any) -> Any:
        vertex_of = self.vertex_of
        if query_id in _VERTEX_LISTS:
            return sorted(vertex_of[vertex] for vertex in result)
        if query_id in _EDGE_LISTS:
            return sorted(self.edge_of[edge] for edge in result)
        if query_id in _LABEL_LISTS:
            return sorted(result)
        if query_id in _PATH_LISTS:
            # Which shortest path is found depends on each engine's
            # adjacency order; its length and endpoints do not.
            return sorted(
                (vertex_of[path[0]], vertex_of[path[-1]], len(path) - 1) for path in result
            )
        if query_id == "Q14":
            return (vertex_of[result.id], result.label, _sorted_props(result.properties))
        if query_id == "Q15":
            return (
                self.edge_of[result.id],
                vertex_of[result.source],
                vertex_of[result.target],
                result.label,
                _sorted_props(result.properties),
            )
        raise KeyError(f"no canonical form for {query_id}")


class Reference:
    """Answers Q11-Q15 and Q22-Q35 from dictionaries over the dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.vertices = {vertex["id"]: vertex for vertex in dataset.vertices}
        self.out: dict[Any, list[int]] = {}
        self.inc: dict[Any, list[int]] = {}
        for index, edge in enumerate(dataset.edges):
            self.out.setdefault(edge["source"], []).append(index)
            self.inc.setdefault(edge["target"], []).append(index)
        self._adjacency: dict[str | None, dict[Any, list[Any]]] = {
            None: build_adjacency(dataset.edges)
        }

    def _adjacency_for(self, label: str | None) -> dict[Any, list[Any]]:
        if label not in self._adjacency:
            self._adjacency[label] = build_adjacency(
                [edge for edge in self.dataset.edges if edge.get("label", "edge") == label]
            )
        return self._adjacency[label]

    def _degree_at_least(self, k: int, table_names: tuple[str, ...]) -> list[Any]:
        tables = [getattr(self, name) for name in table_names]
        return sorted(
            vertex
            for vertex in self.vertices
            if sum(len(table.get(vertex, ())) for table in tables) >= k
        )

    def _distance(self, source: Any, target: Any, label: str | None) -> int | None:
        adjacency = self._adjacency_for(label)
        if source == target:
            return 0
        seen = {source}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            following = []
            for vertex in frontier:
                for neighbor in adjacency.get(vertex, ()):
                    if neighbor not in seen:
                        if neighbor == target:
                            return hops
                        seen.add(neighbor)
                        following.append(neighbor)
            frontier = following
        return None

    def answer(self, query_id: str, params: dict[str, Any]) -> Any:
        """The canonical result of ``query_id`` with *external* parameters."""
        edges = self.dataset.edges
        vertex = getattr(params.get("vertex"), "id", None)
        label = params.get("label")
        if query_id == "Q11":
            key, value = params["key"], params["value"]
            return sorted(
                row["id"] for row in self.dataset.vertices
                if key in (row.get("properties") or {}) and row["properties"][key] == value
            )
        if query_id == "Q12":
            key, value = params["key"], params["value"]
            return [
                index for index, edge in enumerate(edges)
                if key in (edge.get("properties") or {}) and edge["properties"][key] == value
            ]
        if query_id == "Q13":
            return [i for i, edge in enumerate(edges) if edge.get("label", "edge") == label]
        if query_id == "Q14":
            row = self.vertices[vertex]
            return (vertex, row.get("label"), _sorted_props(row.get("properties") or {}))
        if query_id == "Q15":
            index = params["edge"].index
            edge = edges[index]
            return (
                index, edge["source"], edge["target"], edge.get("label", "edge"),
                _sorted_props(edge.get("properties") or {}),
            )
        if query_id == "Q22":
            return sorted(edges[i]["source"] for i in self.inc.get(vertex, ()))
        if query_id == "Q23":
            return sorted(edges[i]["target"] for i in self.out.get(vertex, ()))
        if query_id == "Q24":
            return sorted(
                [edges[i]["target"] for i in self.out.get(vertex, ()) if edges[i]["label"] == label]
                + [edges[i]["source"] for i in self.inc.get(vertex, ()) if edges[i]["label"] == label]
            )
        if query_id in ("Q25", "Q26", "Q27"):
            incident: list[int] = []
            if query_id != "Q26":
                incident += self.inc.get(vertex, [])
            if query_id != "Q25":
                incident += self.out.get(vertex, [])
            return sorted({edges[i].get("label", "edge") for i in incident})
        if query_id == "Q28":
            return self._degree_at_least(params["k"], ("inc",))
        if query_id == "Q29":
            return self._degree_at_least(params["k"], ("out",))
        if query_id == "Q30":
            return self._degree_at_least(params["k"], ("out", "inc"))
        if query_id == "Q31":
            return sorted({edge["target"] for edge in edges})
        if query_id in ("Q32", "Q33"):
            adjacency = self._adjacency_for(label if query_id == "Q33" else None)
            return sorted(reachable_within(adjacency, vertex, params["depth"]))
        if query_id in ("Q34", "Q35"):
            target = params["vertex2"].id
            hops = self._distance(vertex, target, label if query_id == "Q35" else None)
            return [] if hops is None or hops == 0 else [(vertex, target, hops)]
        raise KeyError(f"no reference answer for {query_id}")
