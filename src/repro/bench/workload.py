"""Workload construction: dataset loading and seeded parameter binding.

The paper requires that "any random selection made in one system has been
maintained the same across the other systems" (Section 5).  The harness
achieves this by drawing every random choice from the *dataset* (external
vertex ids, edge positions, property keys/values, labels) with a fixed seed,
and only then translating those external references into each engine's
internal identifiers through the id maps captured at load time.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.datasets.base import Dataset
from repro.exceptions import BenchmarkError
from repro.model.graph import GraphDatabase


def build_adjacency(edges: list[dict[str, Any]]) -> dict[Any, list[Any]]:
    """Undirected adjacency over external ids, in edge-list order."""
    adjacency: dict[Any, list[Any]] = {}
    for edge in edges:
        adjacency.setdefault(edge["source"], []).append(edge["target"])
        adjacency.setdefault(edge["target"], []).append(edge["source"])
    return adjacency


def reachable_within(
    adjacency: dict[Any, list[Any]], source: Any, hops: int = 3
) -> list[Any]:
    """External ids within ``hops`` of ``source``, in discovery order.

    Used to pick shortest-path targets that actually have a path.  The
    visited structure is a dict so iteration keeps insertion order —
    drawing a target from a *set* would pick up the per-process hash salt
    and break cross-process byte-identity of seeded parameter plans.
    """
    frontier = [source]
    visited = {source: True}
    for _hop in range(hops):
        next_frontier = []
        for vertex in frontier:
            for neighbor in adjacency.get(vertex, ()):
                if neighbor not in visited:
                    visited[neighbor] = True
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return [vertex for vertex in visited if vertex != source]


class HubPicker:
    """Degree-biased vertex picks: the best-connected of ``draws`` uniform draws.

    Hub bias is what makes seeded BFS frontiers large and transaction
    footprints overlap.  Ties go to the larger ``repr`` so a pick never
    depends on draw order.  The external ids and the undirected adjacency
    the picker is built on stay readable for the planner that owns it.
    """

    def __init__(self, dataset: Dataset, rng: random.Random, draws: int = 8) -> None:
        self.vertex_ids = [vertex["id"] for vertex in dataset.vertices]
        if not self.vertex_ids:
            raise BenchmarkError("cannot plan a workload over an empty dataset")
        self.adjacency = build_adjacency(dataset.edges)
        self._rng = rng
        self._draws = draws

    def __call__(self) -> Any:
        candidates = [self._rng.choice(self.vertex_ids) for _ in range(self._draws)]
        return max(candidates, key=lambda vid: (len(self.adjacency.get(vid, ())), repr(vid)))


@dataclass(frozen=True)
class ExternalVertex:
    """A parameter referring to a dataset-level vertex id."""

    id: Any


@dataclass(frozen=True)
class ExternalEdge:
    """A parameter referring to a dataset edge by its position in the edge list."""

    index: int


@dataclass
class LoadedGraph:
    """An engine with one dataset loaded and the external→internal id maps."""

    engine: GraphDatabase
    dataset: Dataset
    vertex_map: dict[Any, Any]
    edge_map: dict[int, Any]
    load_seconds: float = 0.0

    def bind(self, value: Any) -> Any:
        """Translate external references inside ``value`` to internal ids."""
        if isinstance(value, ExternalVertex):
            return self.vertex_map[value.id]
        if isinstance(value, ExternalEdge):
            return self.edge_map[value.index]
        if isinstance(value, list):
            return [self.bind(item) for item in value]
        if isinstance(value, tuple):
            return tuple(self.bind(item) for item in value)
        if isinstance(value, dict):
            return {key: self.bind(item) for key, item in value.items()}
        return value

    def bind_params(self, params: dict[str, Any]) -> dict[str, Any]:
        """Translate a whole parameter dictionary."""
        return {key: self.bind(value) for key, value in params.items()}


def load_dataset_into(engine: GraphDatabase, dataset: Dataset) -> LoadedGraph:
    """Bulk-load ``dataset`` into ``engine``, capturing vertex and edge id maps.

    This performs exactly the work of the Q1 load operation, but records the
    internal id of every created edge so that edge-parameterised queries
    (Q6, Q15, Q17, Q19, Q21) can address the same edge on every engine.
    """
    import time

    started = time.perf_counter()
    vertex_map: dict[Any, Any] = {}
    edge_map: dict[int, Any] = {}
    engine.begin_bulk_load()
    try:
        for vertex in dataset.vertices:
            vertex_map[vertex["id"]] = engine.add_vertex(
                properties=vertex.get("properties") or {}, label=vertex.get("label")
            )
        for index, edge in enumerate(dataset.edges):
            edge_map[index] = engine.add_edge(
                vertex_map[edge["source"]],
                vertex_map[edge["target"]],
                edge.get("label", "edge"),
                properties=edge.get("properties") or {},
            )
    finally:
        engine.end_bulk_load()
    elapsed = time.perf_counter() - started
    return LoadedGraph(
        engine=engine,
        dataset=dataset,
        vertex_map=vertex_map,
        edge_map=edge_map,
        load_seconds=elapsed,
    )


@dataclass
class ParameterPlan:
    """Seeded, engine-independent parameter choices for every query.

    One plan is built per (dataset, seed) pair and reused for every engine;
    :meth:`params_for` returns the parameter dictionaries in *external*
    terms, which a :class:`LoadedGraph` then binds to internal ids.
    """

    dataset: Dataset
    seed: int = 20181204
    k: int = 2
    depth: int = 2
    repetitions: int = 10
    _cache: dict[str, list[dict[str, Any]]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.dataset.vertices:
            raise BenchmarkError("cannot build a parameter plan over an empty dataset")
        self._rng = random.Random(self.seed)
        self._vertex_ids = [vertex["id"] for vertex in self.dataset.vertices]
        self._adjacency = self._build_adjacency()
        self._property_samples = self._sample_properties()

    # -- public API ---------------------------------------------------------

    def params_for(self, query_id: str, count: int | None = None) -> list[dict[str, Any]]:
        """Return ``count`` parameter bindings (external terms) for ``query_id``."""
        count = count if count is not None else self.repetitions
        key = f"{query_id}:{count}"
        if key not in self._cache:
            # zlib.crc32 keeps the per-query seed deterministic across
            # processes (str hashing is salted and would not be).
            rng = random.Random(self.seed * 1_000_003 + zlib.crc32(query_id.encode()) + count)
            if query_id == "Q18":
                bindings = self._unique_vertex_bindings(rng, count)
            elif query_id == "Q19":
                bindings = self._unique_edge_bindings(rng, count)
            else:
                bindings = [self._one_binding(query_id, rng, index) for index in range(count)]
            self._cache[key] = bindings
        return self._cache[key]

    def _unique_vertex_bindings(self, rng: random.Random, count: int) -> list[dict[str, Any]]:
        """Distinct vertices for Q18 so repeated deletions never collide."""
        population = min(count, len(self._vertex_ids))
        chosen = rng.sample(self._vertex_ids, population)
        while len(chosen) < count:
            chosen.append(rng.choice(self._vertex_ids))
        return [{"vertex": ExternalVertex(vertex)} for vertex in chosen]

    def _unique_edge_bindings(self, rng: random.Random, count: int) -> list[dict[str, Any]]:
        """Distinct edges for Q19 so repeated deletions never collide."""
        if not self.dataset.edges:
            raise BenchmarkError("dataset has no edges to parameterise an edge query")
        population = min(count, len(self.dataset.edges))
        chosen = rng.sample(range(len(self.dataset.edges)), population)
        while len(chosen) < count:
            chosen.append(rng.randrange(len(self.dataset.edges)))
        return [{"edge": ExternalEdge(index)} for index in chosen]

    # -- binding construction ---------------------------------------------------

    def _one_binding(self, query_id: str, rng: random.Random, index: int) -> dict[str, Any]:
        builders = {
            "Q1": lambda: {"dataset": self.dataset},
            "Q2": lambda: {"properties": self._new_properties(rng, index)},
            "Q3": lambda: self._edge_creation_params(rng, with_properties=False),
            "Q4": lambda: self._edge_creation_params(rng, with_properties=True, index=index),
            "Q5": lambda: {
                "vertex": self._random_vertex(rng),
                "key": f"bench_prop_{index}",
                "value": rng.randint(0, 10_000),
            },
            "Q6": lambda: {
                "edge": self._random_edge(rng),
                "key": f"bench_prop_{index}",
                "value": rng.randint(0, 10_000),
            },
            "Q7": lambda: {
                "properties": self._new_properties(rng, index),
                "neighbors": [self._random_vertex(rng) for _ in range(3)],
                "label": self._random_label(rng),
            },
            "Q8": dict,
            "Q9": dict,
            "Q10": dict,
            "Q11": lambda: self._existing_vertex_property(rng),
            "Q12": lambda: self._existing_edge_property(rng),
            "Q13": lambda: {"label": self._random_label(rng)},
            "Q14": lambda: {"vertex": self._random_vertex(rng)},
            "Q15": lambda: {"edge": self._random_edge(rng)},
            "Q16": lambda: self._update_vertex_property(rng),
            "Q17": lambda: self._update_edge_property(rng, index),
            "Q18": lambda: {"vertex": self._random_vertex(rng)},
            "Q19": lambda: {"edge": self._random_edge(rng)},
            "Q20": lambda: self._existing_vertex_property_key(rng),
            "Q21": lambda: self._existing_edge_property_key(rng, index),
            "Q22": lambda: {"vertex": self._random_vertex(rng)},
            "Q23": lambda: {"vertex": self._random_vertex(rng)},
            "Q24": lambda: {
                "vertex": self._random_vertex(rng),
                "label": self._random_label(rng),
            },
            "Q25": lambda: {"vertex": self._random_vertex(rng)},
            "Q26": lambda: {"vertex": self._random_vertex(rng)},
            "Q27": lambda: {"vertex": self._random_vertex(rng)},
            "Q28": lambda: {"k": self.k},
            "Q29": lambda: {"k": self.k},
            "Q30": lambda: {"k": self.k},
            "Q31": dict,
            "Q32": lambda: {"vertex": self._hub_vertex(rng), "depth": self.depth},
            "Q33": lambda: {
                "vertex": self._hub_vertex(rng),
                "depth": self.depth,
                "label": self._random_label(rng),
            },
            "Q34": lambda: self._path_endpoints(rng),
            "Q35": lambda: {**self._path_endpoints(rng), "label": self._random_label(rng)},
            # Complex (LDBC) queries.
            "max-iid": dict,
            "max-oid": dict,
            "create": lambda: {"properties": self._new_properties(rng, index)},
            "city": lambda: {
                "person": self._vertex_with_label(rng, "person"),
                "place": self._vertex_with_label(rng, "place"),
            },
            "company": lambda: {
                "person": self._vertex_with_label(rng, "person"),
                "organisation": self._vertex_with_label(rng, "organisation"),
            },
            "university": lambda: {
                "person": self._vertex_with_label(rng, "person"),
                "organisation": self._vertex_with_label(rng, "organisation"),
            },
            "friend1": lambda: {"person": self._vertex_with_label(rng, "person")},
            "friend2": lambda: {"person": self._vertex_with_label(rng, "person")},
            "friend-tags": lambda: {"person": self._vertex_with_label(rng, "person")},
            "add-tags": lambda: {
                "person": self._vertex_with_label(rng, "person"),
                "tags": [self._vertex_with_label(rng, "tag") for _ in range(3)],
            },
            "friend-of-friend": lambda: {
                "person": self._vertex_with_label(rng, "person"),
                "k": 5,
            },
            "triangle": lambda: {"person": self._vertex_with_label(rng, "person")},
            "places": lambda: {"person": self._vertex_with_label(rng, "person"), "k": 5},
        }
        try:
            builder = builders[query_id]
        except KeyError:
            raise BenchmarkError(f"no parameter builder for query {query_id!r}") from None
        return builder()

    # -- random choices over the dataset -------------------------------------------

    def _random_vertex(self, rng: random.Random) -> ExternalVertex:
        return ExternalVertex(rng.choice(self._vertex_ids))

    def _hub_vertex(self, rng: random.Random) -> ExternalVertex:
        """Pick a vertex biased towards higher degree (BFS/SP start points)."""
        candidates = [rng.choice(self._vertex_ids) for _ in range(8)]
        best = max(candidates, key=lambda vertex: len(self._adjacency.get(vertex, ())))
        return ExternalVertex(best)

    def _random_edge(self, rng: random.Random) -> ExternalEdge:
        if not self.dataset.edges:
            raise BenchmarkError("dataset has no edges to parameterise an edge query")
        return ExternalEdge(rng.randrange(len(self.dataset.edges)))

    def _random_label(self, rng: random.Random) -> str:
        labels = sorted(self.dataset.edge_labels())
        return rng.choice(labels) if labels else "edge"

    def _vertex_with_label(self, rng: random.Random, label: str) -> ExternalVertex:
        candidates = [vertex["id"] for vertex in self.dataset.vertices if vertex.get("label") == label]
        if not candidates:
            return self._random_vertex(rng)
        return ExternalVertex(rng.choice(candidates))

    def _new_properties(self, rng: random.Random, index: int) -> dict[str, Any]:
        return {
            "bench_name": f"new-object-{index}",
            "bench_score": rng.randint(0, 1000),
            "bench_flag": bool(rng.getrandbits(1)),
        }

    def _edge_creation_params(
        self, rng: random.Random, with_properties: bool, index: int = 0
    ) -> dict[str, Any]:
        params: dict[str, Any] = {
            "vertex": self._random_vertex(rng),
            "vertex2": self._random_vertex(rng),
            "label": self._random_label(rng),
        }
        if with_properties:
            params["properties"] = {"weight": rng.random(), "batch": index}
        return params

    def _existing_vertex_property(self, rng: random.Random) -> dict[str, Any]:
        key, value, _vertex = self._property_samples["vertex"][
            rng.randrange(len(self._property_samples["vertex"]))
        ]
        return {"key": key, "value": value}

    def _existing_edge_property(self, rng: random.Random) -> dict[str, Any]:
        samples = self._property_samples["edge"]
        if not samples:
            # Datasets without edge properties (everything except ldbc): the
            # query legitimately returns an empty result.
            return {"key": "creationDate", "value": -1}
        key, value, _index = samples[rng.randrange(len(samples))]
        return {"key": key, "value": value}

    def _existing_vertex_property_key(self, rng: random.Random) -> dict[str, Any]:
        key, _value, vertex = self._property_samples["vertex"][
            rng.randrange(len(self._property_samples["vertex"]))
        ]
        return {"vertex": ExternalVertex(vertex), "key": key}

    def _existing_edge_property_key(self, rng: random.Random, index: int) -> dict[str, Any]:
        samples = self._property_samples["edge"]
        if not samples:
            return {"edge": self._random_edge(rng), "key": f"bench_prop_{index}"}
        key, _value, edge_index = samples[rng.randrange(len(samples))]
        return {"edge": ExternalEdge(edge_index), "key": key}

    def _update_vertex_property(self, rng: random.Random) -> dict[str, Any]:
        key, _value, vertex = self._property_samples["vertex"][
            rng.randrange(len(self._property_samples["vertex"]))
        ]
        return {"vertex": ExternalVertex(vertex), "key": key, "value": f"updated-{rng.randint(0, 9999)}"}

    def _update_edge_property(self, rng: random.Random, index: int) -> dict[str, Any]:
        samples = self._property_samples["edge"]
        if not samples:
            return {
                "edge": self._random_edge(rng),
                "key": f"bench_prop_{index}",
                "value": rng.randint(0, 9999),
            }
        key, _value, edge_index = samples[rng.randrange(len(samples))]
        return {"edge": ExternalEdge(edge_index), "key": key, "value": rng.randint(0, 9999)}

    def _path_endpoints(self, rng: random.Random) -> dict[str, Any]:
        """Pick two vertices a few hops apart so shortest paths exist."""
        source = self._hub_vertex(rng).id
        reachable = reachable_within(self._adjacency, source)
        target = rng.choice(reachable) if reachable else rng.choice(self._vertex_ids)
        return {"vertex": ExternalVertex(source), "vertex2": ExternalVertex(target)}

    # -- dataset pre-processing -----------------------------------------------------

    def _build_adjacency(self) -> dict[Any, list[Any]]:
        return build_adjacency(self.dataset.edges)

    def _sample_properties(self) -> dict[str, list[tuple[str, Any, Any]]]:
        rng = random.Random(self.seed + 1)
        vertex_samples: list[tuple[str, Any, Any]] = []
        for vertex in rng.sample(self.dataset.vertices, min(64, len(self.dataset.vertices))):
            for key, value in (vertex.get("properties") or {}).items():
                vertex_samples.append((key, value, vertex["id"]))
        if not vertex_samples:
            vertex_samples.append(("missing", "missing", self._vertex_ids[0]))
        edge_samples: list[tuple[str, Any, int]] = []
        if self.dataset.edges:
            indexes = rng.sample(range(len(self.dataset.edges)), min(64, len(self.dataset.edges)))
            for index in indexes:
                for key, value in (self.dataset.edges[index].get("properties") or {}).items():
                    edge_samples.append((key, value, index))
        return {"vertex": vertex_samples, "edge": edge_samples}
