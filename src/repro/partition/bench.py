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
it on identity with ``graphbench gate scaleout``.  The signature defaults
of :func:`run_scaleout_benchmark` are the committed-baseline parameters
(and, through :data:`SPEC`, the CLI's), so a plain ``graphbench scaleout``
regenerates the baseline.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Sequence

from repro.bench import registry
from repro.bench.workload import HubPicker, reachable_within
from repro.datasets.base import Dataset
from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.partition.executor import BuildReport, DistributedExecutor, build_distributed
from repro.partition.messages import (
    DEFAULT_COST_PER_ITEM,
    DEFAULT_LATENCY_PER_MESSAGE,
    NetworkCostModel,
)
from repro.partition.partitioners import (
    DEFAULT_PARTITIONERS,
    PARTITIONERS,
    PartitionPlan,
    plan_matrix,
)
from repro.partition.report import format_scaleout_report


def plan_queries(
    dataset: Dataset, seed: int, depth: int, bfs_sources: int
) -> list[dict[str, Any]]:
    """Bind the query set once per (dataset, seed), in external-id terms.

    Engine- and partitioner-independent, so every cell of the matrix
    answers the same questions: ``bfs_sources`` hub-biased BFS runs at
    ``depth``, two 1-hop neighbourhoods, and one shortest path whose
    endpoints are picked a few hops apart (same recipe as the
    microbenchmark's Q34 parameter builder).
    """
    rng = random.Random(seed * 1_000_003 + zlib.crc32(b"scaleout"))
    hub = HubPicker(dataset, rng)
    queries: list[dict[str, Any]] = []
    for _ in range(bfs_sources):
        queries.append({"kind": "bfs", "source": hub(), "depth": depth})
    for _ in range(2):
        queries.append({"kind": "neighbourhood", "source": hub(), "depth": 1})

    source = hub()
    reachable = reachable_within(hub.adjacency, source)
    target = rng.choice(reachable) if reachable else rng.choice(hub.vertex_ids)
    queries.append({"kind": "shortest-path", "source": source, "target": target})
    return queries


#: :class:`~repro.partition.executor.DistributedResult` fields summed per cell.
_TOTALS = (
    "makespan_charge",
    "busy_charge",
    "compute_charge",
    "network_charge",
    "supersteps",
    "messages",
    "message_items",
)


def answer_of(query: dict[str, Any], outcome: Any) -> dict[str, Any]:
    """What a distributed result answers to ``query``, as the payloads spell it."""
    if query["kind"] == "shortest-path":
        return {"distance": outcome.distances.get(query["target"], -1)}
    return {"reached": len(outcome.distances), "distance_sum": sum(outcome.distances.values())}


def run_queries(
    executor: DistributedExecutor, queries: Sequence[dict[str, Any]]
) -> tuple[dict[str, int], list[dict[str, Any]]]:
    """Execute the query set; return summed charges and per-query results."""
    totals = dict.fromkeys(_TOTALS, 0)
    results: list[dict[str, Any]] = []
    for query in queries:
        if query["kind"] == "shortest-path":
            outcome = executor.shortest_path(query["source"], query["target"])
        else:
            run = executor.neighbourhood if query["kind"] == "neighbourhood" else executor.bfs
            outcome = run(query["source"], query["depth"])
        results.append({"kind": query["kind"], **answer_of(query, outcome)})
        registry.accumulate(totals, outcome, _TOTALS)
    return totals, results


def carve_shards(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    network: NetworkCostModel,
) -> tuple[DistributedExecutor, BuildReport]:
    """Carve ``plan``'s shard engines out of the (read-only) source engine.

    Metrics reset first, so the report's ``extract_charge`` is exactly the
    export's own I/O however many cells the source has served.
    """
    source_engine.reset_metrics()
    return build_distributed(
        source_engine, vertex_map, plan, lambda: create_engine(engine_id), network=network
    )


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
    and reused across cells.
    """
    executor, build = carve_shards(engine_id, source_engine, vertex_map, plan, network)
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
    # One native engine plus the B+Tree-heavy triple engine: their per-hop
    # charges differ by ~5x, so the scale-out curves separate visibly
    # (documentgraph's aggregate BFS charge coincidentally equals
    # nativelinked's on yeast, which would render as duplicate tables).
    engine_ids: Sequence[str] = ("nativelinked-1.9", "triplegraph-2.1"),
    partitioner_names: Sequence[str] = DEFAULT_PARTITIONERS,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    depth: int = 3,
    bfs_sources: int = 3,
    latency_per_message: int = DEFAULT_LATENCY_PER_MESSAGE,
    cost_per_item: int = DEFAULT_COST_PER_ITEM,
) -> dict[str, Any]:
    """Run the engines × partitioners × K matrix (``BENCH_partition.json``)."""
    registry.check_args(SPEC.args, locals())
    if 1 not in shard_counts:
        raise BenchmarkError(
            "shard counts must include 1: the K=1 run is the charge-parity "
            "baseline that speedup and efficiency are measured against"
        )
    network = NetworkCostModel(latency_per_message, cost_per_item)
    dataset, header = registry.seeded_dataset(dataset_name, scale, registry.DATASET_SEED)
    queries = plan_queries(dataset, seed, depth=depth, bfs_sources=bfs_sources)
    plans = plan_matrix(dataset, partitioner_names, shard_counts)
    engines: dict[str, dict[str, Any]] = {}
    for engine_id, loaded in registry.loaded_sources(engine_ids, dataset):
        strategies: dict[str, Any] = {}
        for strategy in partitioner_names:
            runs = [
                run_scaleout_cell(
                    engine_id,
                    loaded.engine,
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
    return {
        "benchmark": "partition-scaleout",
        "dataset": header,
        "seed": seed,
        "depth": depth,
        "bfs_sources": bfs_sources,
        "shard_counts": list(shard_counts),
        "partitioners": list(partitioner_names),
        "network": network.params(),
        "queries": queries,
        "engines": engines,
    }


def partitioners_arg(help: str) -> registry.Arg:
    """``--partitioners``: the strategies a matrix sweeps."""
    return registry.arg(
        "--partitioners", help, kwarg="partitioner_names", choices=sorted(PARTITIONERS)
    )


#: ``--partitioner``: the one strategy of a benchmark that does not sweep them.
PARTITIONER = registry.arg(
    "--partitioner", "partitioning strategy for every cell", choices=sorted(PARTITIONERS)
)

SPEC = registry.BenchmarkSpec(
    name="scaleout",
    help="partition each engine across K charged executors and measure "
    "distributed traversal speedup per partitioner (Figure 10)",
    run=run_scaleout_benchmark,
    format=format_scaleout_report,
    args=(
        registry.engines_arg("shard"),
        partitioners_arg("partitioning strategies to compare"),
        registry.arg(
            "--shards",
            "shard counts K to sweep (must include 1, the parity baseline)",
            kwarg="shard_counts",
            minimum=1,
        ),
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        registry.arg("--depth", "BFS depth per seeded source", minimum=0),
        registry.arg("--bfs-sources", "seeded BFS sources", minimum=0),
        registry.arg(
            "--latency",
            "charge per cross-shard message batch (the RPC envelope)",
            kwarg="latency_per_message",
            minimum=0,
        ),
        registry.arg(
            "--per-item",
            "charge per frontier item carried in a batch",
            kwarg="cost_per_item",
            minimum=0,
        ),
    ),
    baseline="BENCH_partition.json",
    report="benchmarks/reports/fig10_scaleout.txt",
    gated_on="identity",
)
