"""The scale-out benchmark behind ``graphbench scaleout``.

For every engine × partitioner × shard count K, the benchmark loads the
dataset into a source engine, carves it into K shard engines through the
``export_partition`` bulk primitive, and replays the same seeded query set
(hub-biased BFS, 1-hop neighbourhoods, one shortest path) on the
distributed executor.  Speedup and parallel efficiency are reported
against the same strategy's K=1 run, whose makespan equals direct
single-engine execution by the charge-parity contract — so "speedup" here
is genuine scale-out over the unpartitioned engine, not over a strawman.

Every figure except ``wall_seconds`` derives from seeded choices, logical
charges, and the network cost model, so ``BENCH_partition.json`` is
byte-identical across machines; CI regenerates it on every push and gates
it on identity with ``graphbench gate scaleout``.  The defaults here are
the committed-baseline parameters, so a plain ``graphbench scaleout``
regenerates the baseline instead of clobbering it with an
incompatible-parameter payload.
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Any, Sequence

from repro.bench.workload import build_adjacency, load_dataset_into, reachable_within
from repro.datasets import get_dataset
from repro.datasets.base import Dataset
from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.partition.executor import DistributedExecutor, build_distributed
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import (
    DEFAULT_PARTITIONERS,
    PartitionPlan,
    partition_dataset,
)

#: Benchmark defaults — shared by the CLI, the CI gate, and the committed
#: baseline (same convention as the saturation sweep).
#: One native engine plus the B+Tree-heavy triple engine: their per-hop
#: charges differ by ~5x, so the scale-out curves separate visibly
#: (documentgraph's aggregate BFS charge coincidentally equals
#: nativelinked's on yeast, which would render as duplicate tables).
DEFAULT_BENCH_ENGINES = ("nativelinked-1.9", "triplegraph-2.1")
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
DEFAULT_DEPTH = 3
DEFAULT_BFS_SOURCES = 3


def plan_queries(
    dataset: Dataset,
    seed: int,
    depth: int = DEFAULT_DEPTH,
    bfs_sources: int = DEFAULT_BFS_SOURCES,
) -> list[dict[str, Any]]:
    """Bind the query set once per (dataset, seed), in external-id terms.

    Engine- and partitioner-independent, so every cell of the matrix
    answers the same questions: ``bfs_sources`` hub-biased BFS runs at
    ``depth``, two 1-hop neighbourhoods, and one shortest path whose
    endpoints are picked a few hops apart (same recipe as the
    microbenchmark's Q34 parameter builder).
    """
    rng = random.Random(seed * 1_000_003 + zlib.crc32(b"scaleout"))
    vertex_ids = [vertex["id"] for vertex in dataset.vertices]
    if not vertex_ids:
        raise BenchmarkError("cannot plan scale-out queries over an empty dataset")
    adjacency = build_adjacency(dataset.edges)

    def hub() -> Any:
        candidates = [rng.choice(vertex_ids) for _ in range(8)]
        return max(candidates, key=lambda vid: (len(adjacency.get(vid, ())), repr(vid)))

    queries: list[dict[str, Any]] = []
    for _ in range(bfs_sources):
        queries.append({"kind": "bfs", "source": hub(), "depth": depth})
    for _ in range(2):
        queries.append({"kind": "neighbourhood", "source": hub(), "depth": 1})

    source = hub()
    reachable = reachable_within(adjacency, source)
    target = rng.choice(reachable) if reachable else rng.choice(vertex_ids)
    queries.append({"kind": "shortest-path", "source": source, "target": target})
    return queries


def run_queries(
    executor: DistributedExecutor, queries: Sequence[dict[str, Any]]
) -> tuple[dict[str, int], list[dict[str, Any]]]:
    """Execute the query set; return summed charges and per-query results."""
    totals = {
        "makespan_charge": 0,
        "busy_charge": 0,
        "compute_charge": 0,
        "network_charge": 0,
        "supersteps": 0,
        "messages": 0,
        "message_items": 0,
    }
    results: list[dict[str, Any]] = []
    for query in queries:
        if query["kind"] == "shortest-path":
            outcome = executor.shortest_path(query["source"], query["target"])
            results.append(
                {
                    "kind": "shortest-path",
                    "distance": outcome.distances.get(query["target"], -1),
                }
            )
        elif query["kind"] == "neighbourhood":
            outcome = executor.neighbourhood(query["source"], query["depth"])
            results.append(
                {
                    "kind": query["kind"],
                    "reached": len(outcome.distances),
                    "distance_sum": sum(outcome.distances.values()),
                }
            )
        else:
            outcome = executor.bfs(query["source"], query["depth"])
            results.append(
                {
                    "kind": query["kind"],
                    "reached": len(outcome.distances),
                    "distance_sum": sum(outcome.distances.values()),
                }
            )
        totals["makespan_charge"] += outcome.makespan_charge
        totals["busy_charge"] += outcome.busy_charge
        totals["compute_charge"] += outcome.compute_charge
        totals["network_charge"] += outcome.network_charge
        totals["supersteps"] += outcome.supersteps
        totals["messages"] += outcome.messages
        totals["message_items"] += outcome.message_items
    return totals, results


def run_scaleout_cell(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    queries: Sequence[dict[str, Any]],
    network: NetworkCostModel,
) -> dict[str, Any]:
    """One (engine, partitioner, K) cell: shard the source, replay queries.

    The source engine (loaded once per engine id — extraction is read-only)
    and the partition plan (engine-independent) are computed by the caller
    and reused across cells; metrics reset here so ``extract_charge`` is
    exactly the export's own I/O in every cell.
    """
    source_engine.reset_metrics()
    executor, build = build_distributed(
        source_engine,
        vertex_map,
        plan,
        lambda: create_engine(engine_id),
        network=network,
    )
    totals, results = run_queries(executor, queries)
    row: dict[str, Any] = {
        "shards": plan.shards,
        "balance": plan.balance,
        "cut_ratio": plan.cut_ratio,
        "cut_edges": plan.cut_edges,
        "shard_sizes": build.shard_sizes,
        "extract_charge": build.extract_charge,
    }
    row.update(totals)
    row["results"] = results
    for shard in executor.shards:
        shard.engine.close()
    return row


def run_scaleout_benchmark(
    engine_ids: Sequence[str] = DEFAULT_BENCH_ENGINES,
    partitioner_names: Sequence[str] = DEFAULT_PARTITIONERS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    depth: int = DEFAULT_DEPTH,
    bfs_sources: int = DEFAULT_BFS_SOURCES,
    latency_per_message: int | None = None,
    cost_per_item: int | None = None,
    dataset_seed: int = 11,
) -> dict[str, Any]:
    """Run the engines × partitioners × K matrix (``BENCH_partition.json``)."""
    if any(count < 1 for count in shard_counts):
        raise BenchmarkError(f"shard counts must be >= 1, got {list(shard_counts)}")
    if 1 not in shard_counts:
        raise BenchmarkError(
            "shard counts must include 1: the K=1 run is the charge-parity "
            "baseline that speedup and efficiency are measured against"
        )
    network_kwargs = {}
    if latency_per_message is not None:
        network_kwargs["latency_per_message"] = latency_per_message
    if cost_per_item is not None:
        network_kwargs["cost_per_item"] = cost_per_item
    network = NetworkCostModel(**network_kwargs)
    dataset = get_dataset(dataset_name, scale=scale, seed=dataset_seed)
    queries = plan_queries(dataset, seed, depth=depth, bfs_sources=bfs_sources)
    started = time.perf_counter()
    # Plans are engine-independent; the source engine is loaded once per
    # engine id (extraction is read-only, metrics reset per cell).
    plans: dict[tuple[str, int], PartitionPlan] = {
        (strategy, shards): partition_dataset(dataset, shards, strategy)
        for strategy in partitioner_names
        for shards in shard_counts
    }
    engines: dict[str, dict[str, Any]] = {}
    for engine_id in engine_ids:
        source_engine = create_engine(engine_id)
        loaded = load_dataset_into(source_engine, dataset)
        strategies: dict[str, Any] = {}
        for strategy in partitioner_names:
            runs = [
                run_scaleout_cell(
                    engine_id,
                    source_engine,
                    loaded.vertex_map,
                    plans[(strategy, shards)],
                    queries,
                    network,
                )
                for shards in shard_counts
            ]
            baseline = next(run for run in runs if run["shards"] == 1)
            for run in runs:
                if baseline["makespan_charge"]:
                    speedup = baseline["makespan_charge"] / run["makespan_charge"]
                else:
                    speedup = 1.0
                run["speedup"] = round(speedup, 4)
                run["efficiency"] = round(speedup / run["shards"], 4)
            strategies[strategy] = {"runs": runs}
        engines[engine_id] = strategies
        source_engine.close()
    return {
        "benchmark": "partition-scaleout",
        "dataset": {
            "name": dataset_name,
            "scale": scale,
            "seed": dataset_seed,
            "vertices": dataset.vertex_count,
            "edges": dataset.edge_count,
        },
        "seed": seed,
        "depth": depth,
        "bfs_sources": bfs_sources,
        "shard_counts": list(shard_counts),
        "partitioners": list(partitioner_names),
        "network": network.params(),
        "queries": queries,
        "engines": engines,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
