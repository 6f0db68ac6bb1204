"""Partitioning & distributed execution: shard any engine across K executors.

The paper evaluates each system on a single node; this package adds the
scale-out axis.  ``partitioners`` splits a dataset into K shards (hash,
label-affinity, greedy edge-cut) once per build and measures balance and
edge-cut ratio; ``executor``/``messages`` run traversals (BFS,
neighbourhood, shortest path) over K shard engines in one BSP superstep
loop under one :class:`~repro.concurrency.scheduler.BarrierClock`, with
cut edges crossed via batched messages under an explicit charged network
cost model; ``bench``/``report`` produce the deterministic
``BENCH_partition.json`` + fig10 scale-out figure behind ``graphbench
scaleout``.  A K=1 distributed run is charge- and result-identical to
direct execution on the unpartitioned engine (the charge-parity contract,
pinned by ``tests/partition/``).
"""

from repro.partition.bench import (
    plan_queries,
    run_scaleout_benchmark,
    run_scaleout_cell,
)
from repro.partition.executor import (
    BuildReport,
    DistributedExecutor,
    DistributedResult,
    ShardRuntime,
    build_distributed,
    direct_bfs,
    direct_shortest_path,
)
from repro.partition.messages import MessageBatch, NetworkCostModel, NetworkStats
from repro.partition.partitioners import (
    DEFAULT_PARTITIONERS,
    PARTITIONERS,
    GreedyEdgeCutPartitioner,
    HashPartitioner,
    LabelAffinityPartitioner,
    PartitionPlan,
    Partitioner,
    partition_dataset,
    resolve_partitioner,
    stable_hash,
)
from repro.partition.report import format_scaleout_report

__all__ = [
    "BuildReport",
    "DEFAULT_PARTITIONERS",
    "DistributedExecutor",
    "DistributedResult",
    "GreedyEdgeCutPartitioner",
    "HashPartitioner",
    "LabelAffinityPartitioner",
    "MessageBatch",
    "NetworkCostModel",
    "NetworkStats",
    "PARTITIONERS",
    "PartitionPlan",
    "Partitioner",
    "ShardRuntime",
    "build_distributed",
    "direct_bfs",
    "direct_shortest_path",
    "format_scaleout_report",
    "partition_dataset",
    "plan_queries",
    "resolve_partitioner",
    "run_scaleout_benchmark",
    "run_scaleout_cell",
    "stable_hash",
]
