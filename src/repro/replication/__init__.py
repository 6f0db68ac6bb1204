"""Replicated read-scale tier: lagging MVCC replicas + charged caching.

The north star's "millions of users" read path, built on machinery the
repo already trusts: each read replica is a
:class:`~repro.concurrency.sessions.SnapshotPin` over the primary's
version store — a lagging snapshot fed by a charged
:class:`~repro.replication.log.ReplicationLog` and advanced on its own
apply interval — so replica reads are *provably* primary reads at an
older timestamp.  ``cache`` adds deterministic charged LRU caches
(hot-vertex on every server, ghost-adjacency per shard), ``replica`` the
cluster (primary + R replicas, round-robin routing under a staleness
bound with charged primary fallback), ``routing`` the partitioned
deployment over the PR 5 shard layer, and ``bench``/``report`` the
matrix behind ``graphbench readscale`` (fig12).

Charging follows the chaos layer's two-ledger rule: base charges are
byte-identical to the unreplicated path; capture, log, ship/apply, and
invalidation fan-out are overhead, reported separately and gated exactly.
"""

from repro.replication.cache import (
    DEFAULT_INVALIDATION_CHARGE,
    CacheEntry,
    CacheStats,
    ChargedCache,
    cache_keys_for,
)
from repro.replication.log import ReplicationLog, ReplicationRecord
from repro.replication.replica import (
    DEFAULT_APPLY_INTERVAL,
    DEFAULT_STALENESS_BOUND,
    ReadOutcome,
    ReadReplica,
    ReplicatedCluster,
    WriteReceipt,
)
from repro.replication.routing import (
    ReadScaleDeployment,
    ReplicatedShard,
    build_readscale,
)
from repro.replication.bench import (
    plan_workload,
    run_readscale_benchmark,
    run_readscale_cell,
)
from repro.replication.report import format_readscale_report

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ChargedCache",
    "DEFAULT_APPLY_INTERVAL",
    "DEFAULT_INVALIDATION_CHARGE",
    "DEFAULT_STALENESS_BOUND",
    "ReadOutcome",
    "ReadReplica",
    "ReadScaleDeployment",
    "ReplicatedCluster",
    "ReplicatedShard",
    "ReplicationLog",
    "ReplicationRecord",
    "WriteReceipt",
    "build_readscale",
    "cache_keys_for",
    "format_readscale_report",
    "plan_workload",
    "run_readscale_benchmark",
    "run_readscale_cell",
]
