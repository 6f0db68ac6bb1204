"""Partitioning strategies: split a graph into K balanced shards.

Partitioning decides which shard *owns* each vertex; every edge whose
endpoints land on different shards becomes a **cut edge** that distributed
traversal must cross over the simulated network.  The three strategies
reproduce the classic trade-off triangle:

* **hash** — ownership by a stable hash of the external vertex id.  Perfect
  balance for free, but the cut ratio approaches ``(K-1)/K`` because hashing
  ignores structure entirely (the Dynamo/Cassandra default).
* **label** — co-locate vertices that share a label (the "entity type"
  affinity rule used by application-level sharding).  Groups larger than a
  shard's capacity are split into contiguous chunks, so a single-label graph
  degrades to contiguous range partitioning — which still beats hashing when
  the generator builds communities out of contiguous ids.
* **greedy** — greedy edge-cut minimisation in the spirit of LDG (linear
  deterministic greedy streaming partitioning): place each vertex, highest
  degree first, on the capacity-constrained shard holding most of its
  already-placed neighbours.

All strategies are pure functions of ``(dataset, shards)``: every tie-break
is explicit and every hash is ``zlib.crc32`` (never the process-salted
builtin ``hash``), so one assignment — and therefore one distributed
schedule and one charge sequence — reproduces bit-for-bit everywhere.

Partitioners operate on the *dataset* (external ids), not on a loaded
engine: the same assignment drives every engine, which is what makes
cut-ratio and balance per-strategy numbers rather than per-engine ones.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.datasets.base import Dataset
from repro.exceptions import BenchmarkError


def stable_hash(value: Any) -> int:
    """Process-stable hash used for ownership (builtin ``hash`` is salted)."""
    return zlib.crc32(repr(value).encode())


#: Drift fraction at which :meth:`PartitionPlan.rebalance` stops patching
#: and re-partitions from scratch (10% of the graph churned).
DEFAULT_DRIFT_THRESHOLD = 0.1


@dataclass
class PartitionPlan:
    """A vertex→shard assignment plus its quality metrics."""

    strategy: str
    shards: int
    #: External vertex id → shard index, in dataset vertex order.
    assignment: dict[Any, int]
    #: Vertices per shard.
    sizes: list[int] = field(default_factory=list)
    #: Edges whose endpoints live on different shards.
    cut_edges: int = 0
    total_edges: int = 0

    @property
    def balance(self) -> float:
        """Largest shard relative to the ideal ``n/K`` (1.0 == perfect)."""
        if not self.sizes or not sum(self.sizes):
            return 1.0
        ideal = sum(self.sizes) / len(self.sizes)
        return round(max(self.sizes) / ideal, 4)

    @property
    def cut_ratio(self) -> float:
        """Fraction of edges crossing shards (0.0 == no network traffic)."""
        if not self.total_edges:
            return 0.0
        return round(self.cut_edges / self.total_edges, 4)

    def stats(self) -> dict[str, Any]:
        """JSON-stable summary for the benchmark payload."""
        return {
            "strategy": self.strategy,
            "shards": self.shards,
            "sizes": list(self.sizes),
            "balance": self.balance,
            "cut_edges": self.cut_edges,
            "total_edges": self.total_edges,
            "cut_ratio": self.cut_ratio,
        }

    # -- CUD drift and re-partitioning --------------------------------------

    def drift(self, dataset: Dataset) -> float:
        """Fraction of the dataset this plan no longer covers correctly.

        CUD workloads move the graph out from under a plan computed at
        load time: new vertices have no owner, removed vertices leave
        stale assignments.  Both count — a stale entry is as misleading to
        the router as a missing one.
        """
        current = {vertex["id"] for vertex in dataset.vertices}
        assigned = set(self.assignment)
        if not current:
            return 1.0 if assigned else 0.0
        missing = len(current - assigned)
        stale = len(assigned - current)
        return round((missing + stale) / len(current), 4)

    def patch(self, dataset: Dataset) -> "PartitionPlan":
        """Cheap drift repair: keep every surviving placement.

        New vertices are hash-placed (structure-blind — this is what makes
        a patched plan's cut ratio decay under churn), stale entries are
        dropped, and sizes/cut are re-measured against the current
        dataset.  The full re-partition that restores cut quality is
        :meth:`rebalance`'s job once drift crosses the threshold.
        """
        current = {vertex["id"] for vertex in dataset.vertices}
        assignment = {
            vertex["id"]: self.assignment.get(
                vertex["id"], stable_hash(vertex["id"]) % self.shards
            )
            for vertex in dataset.vertices
        }
        sizes = [0] * self.shards
        for shard in assignment.values():
            sizes[shard] += 1
        cut = sum(
            1
            for edge in dataset.edges
            if edge["source"] in current
            and edge["target"] in current
            and assignment[edge["source"]] != assignment[edge["target"]]
        )
        return PartitionPlan(
            strategy=self.strategy,
            shards=self.shards,
            assignment=assignment,
            sizes=sizes,
            cut_edges=cut,
            total_edges=len(dataset.edges),
        )

    def rebalance(
        self,
        dataset: Dataset,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        partitioner: "str | Partitioner | None" = None,
    ) -> "PartitionPlan":
        """Re-partition when drift crosses the threshold, else patch.

        Below the threshold the surviving placements are kept (a
        :meth:`patch` — no data movement beyond the drifted vertices);
        at or above it the named strategy (this plan's own by default)
        recomputes the assignment from scratch, restoring the cut ratio
        to within tolerance of a fresh plan — it *is* a fresh plan.
        """
        if not 0.0 <= drift_threshold <= 1.0:
            raise BenchmarkError(
                f"drift threshold must be within [0, 1], not {drift_threshold}"
            )
        if self.drift(dataset) < drift_threshold:
            return self.patch(dataset)
        return partition_dataset(dataset, self.shards, partitioner or self.strategy)


class Partitioner(abc.ABC):
    """A deterministic vertex→shard assignment strategy."""

    name: str = "abstract"

    def partition(self, dataset: Dataset, shards: int) -> PartitionPlan:
        """Assign every dataset vertex to a shard and measure the cut."""
        if shards < 1:
            raise BenchmarkError(f"shard count must be >= 1, not {shards}")
        assignment = self._assign(dataset, shards)
        sizes = [0] * shards
        for shard in assignment.values():
            sizes[shard] += 1
        cut = sum(
            1
            for edge in dataset.edges
            if assignment[edge["source"]] != assignment[edge["target"]]
        )
        return PartitionPlan(
            strategy=self.name,
            shards=shards,
            assignment=assignment,
            sizes=sizes,
            cut_edges=cut,
            total_edges=len(dataset.edges),
        )

    @abc.abstractmethod
    def _assign(self, dataset: Dataset, shards: int) -> dict[Any, int]:
        """Return the external-id→shard map, keyed in dataset vertex order."""


class HashPartitioner(Partitioner):
    """Stable-hash ownership: perfectly balanced, structure-blind."""

    name = "hash"

    def _assign(self, dataset: Dataset, shards: int) -> dict[Any, int]:
        return {
            vertex["id"]: stable_hash(vertex["id"]) % shards
            for vertex in dataset.vertices
        }


class LabelAffinityPartitioner(Partitioner):
    """Co-locate same-label vertices, splitting oversized groups by capacity.

    Label groups are placed largest-first onto the least-loaded shard; a
    group that does not fit within the per-shard capacity ``ceil(n/K)``
    spills its remainder onto the next least-loaded shard, so balance stays
    within one capacity unit even when one label dominates (yeast has a
    single ``protein`` label — the strategy then degrades to contiguous
    chunking in dataset order).
    """

    name = "label"

    def _assign(self, dataset: Dataset, shards: int) -> dict[Any, int]:
        groups: dict[str, list[Any]] = {}
        for vertex in dataset.vertices:
            groups.setdefault(vertex.get("label") or "", []).append(vertex["id"])
        capacity = -(-len(dataset.vertices) // shards)  # ceil(n / K)
        loads = [0] * shards
        placed: dict[Any, int] = {}
        # Largest group first; label name breaks size ties.
        for label in sorted(groups, key=lambda name: (-len(groups[name]), name)):
            pending = groups[label]
            while pending:
                shard = min(range(shards), key=lambda index: (loads[index], index))
                room = max(capacity - loads[shard], 1)
                chunk, pending = pending[:room], pending[room:]
                for vertex_id in chunk:
                    placed[vertex_id] = shard
                loads[shard] += len(chunk)
        # Re-key in dataset vertex order so export iteration is stable.
        return {vertex["id"]: placed[vertex["id"]] for vertex in dataset.vertices}


class GreedyEdgeCutPartitioner(Partitioner):
    """Capacity-constrained greedy edge-cut minimisation (LDG-style).

    Vertices are placed highest degree first (hubs choose early, while
    every shard still has room near their neighbours); each goes to the
    shard holding most of its already-placed neighbours among the shards
    still under capacity, with load and index as deterministic tie-breaks.
    """

    name = "greedy"

    def _assign(self, dataset: Dataset, shards: int) -> dict[Any, int]:
        adjacency: dict[Any, list[Any]] = {vertex["id"]: [] for vertex in dataset.vertices}
        for edge in dataset.edges:
            adjacency[edge["source"]].append(edge["target"])
            adjacency[edge["target"]].append(edge["source"])
        order = sorted(
            adjacency,
            key=lambda vertex_id: (-len(adjacency[vertex_id]), repr(vertex_id)),
        )
        capacity = -(-len(order) // shards)  # ceil(n / K)
        loads = [0] * shards
        placed: dict[Any, int] = {}
        for vertex_id in order:
            affinity = [0] * shards
            for neighbor in adjacency[vertex_id]:
                shard = placed.get(neighbor)
                if shard is not None:
                    affinity[shard] += 1
            candidates = [index for index in range(shards) if loads[index] < capacity]
            shard = max(candidates, key=lambda index: (affinity[index], -loads[index], -index))
            placed[vertex_id] = shard
            loads[shard] += 1
        return {vertex["id"]: placed[vertex["id"]] for vertex in dataset.vertices}


#: Strategy registry, in report order.
PARTITIONERS: dict[str, Partitioner] = {
    partitioner.name: partitioner
    for partitioner in (
        HashPartitioner(),
        LabelAffinityPartitioner(),
        GreedyEdgeCutPartitioner(),
    )
}

#: Default strategy subset for benchmarks and the CLI.
DEFAULT_PARTITIONERS: tuple[str, ...] = tuple(PARTITIONERS)


def resolve_partitioner(name: str) -> Partitioner:
    """Return the registered strategy called ``name`` (clear error otherwise)."""
    try:
        return PARTITIONERS[name]
    except KeyError:
        known = ", ".join(sorted(PARTITIONERS))
        raise BenchmarkError(
            f"unknown partitioner {name!r}; known strategies: {known}"
        ) from None


def partition_dataset(
    dataset: Dataset, shards: int, strategy: str | Partitioner = "hash"
) -> PartitionPlan:
    """Convenience wrapper: partition ``dataset`` with a named strategy."""
    partitioner = (
        strategy if isinstance(strategy, Partitioner) else resolve_partitioner(strategy)
    )
    return partitioner.partition(dataset, shards)


def plan_matrix(
    dataset: Dataset, strategies: Sequence[str], shard_counts: Sequence[int]
) -> dict[tuple[str, int], PartitionPlan]:
    """Every ``(strategy, K)`` plan of a sweep, computed once.

    Plans are engine-independent, so the matrix benchmarks build them up
    front and reuse each across engines and cells.
    """
    return {
        (strategy, shards): partition_dataset(dataset, shards, strategy)
        for strategy in strategies
        for shards in shard_counts
    }
