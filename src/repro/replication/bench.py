"""The read-scale benchmark behind ``graphbench readscale``.

For every engine × replica count × staleness bound × cache size, the
benchmark shards the dataset (K=2, hash partitioner — the replication
variables are the subject, the partition variables were fig10's), builds a
:class:`~repro.replication.routing.ReadScaleDeployment`, and drives two
seeded phases:

* **steady**: a read-heavy mix (point records, adjacency, friends-of-
  friends) over a hub-biased hot set, with property writes interleaved;
* **storm**: a cache-coherence storm — every hot vertex is rewritten,
  repeatedly, while readers hammer the same vertices, plus one intra-shard
  edge create/remove per shard per round (exercising endpoint adjacency
  invalidation).

Throughput is reads per 1000 charge units of makespan, where makespan is
the busiest server's virtual time plus the (serialised) network and
ghost-coherence traffic — so replicas raise throughput by spreading serve
charges, caches raise it by deleting them, and every coherence message
pushes back.

Like the chaos bench, a coherence oracle runs *inside* the benchmark: the
driver tracks every vertex's stamp history by commit timestamp and checks
each served read against the serving snapshot (never newer than the
staleness bound allows, never older than the advertised snapshot).  A
violation raises instead of publishing a bad payload.  Everything except
``wall_seconds`` is a pure function of the seed and the cost models, so
``BENCH_readscale.json`` is byte-identical across machines and CI gates it
on identity with ``graphbench gate readscale``.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Sequence

from repro.bench import registry
from repro.bench.gates import check_readscale_invariants
from repro.bench.workload import HubPicker
from repro.concurrency.scheduler import percentile
from repro.datasets.base import Dataset
from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.partition.bench import PARTITIONER
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import PartitionPlan, partition_dataset
from repro.replication.log import ReplicationCostModel
from repro.replication.replica import DEFAULT_APPLY_INTERVAL, ReadOutcome
from repro.replication.report import format_readscale_report
from repro.replication.routing import ReadScaleDeployment, build_readscale


class _CoherenceOracle:
    """Tracks stamp history and checks every served read against it."""

    def __init__(self) -> None:
        #: external id -> [(owning shard commit_ts, value)], append order.
        self.history: dict[Any, list[tuple[int, Any]]] = {}

    def record_write(self, external: Any, commit_ts: int, value: Any) -> None:
        self.history.setdefault(external, []).append((commit_ts, value))

    def expected(self, external: Any, snapshot_ts: int) -> Any:
        value = None
        for commit_ts, stamped in self.history.get(external, ()):
            if commit_ts <= snapshot_ts:
                value = stamped
            else:
                break
        return value

    def check_record(
        self, external: Any, outcome: ReadOutcome, staleness_bound: int
    ) -> None:
        _label, props = outcome.value
        served = dict(props).get("stamp")
        expected = self.expected(external, outcome.snapshot_ts)
        if served != expected:
            raise BenchmarkError(
                f"coherence violation on {external!r}: served stamp {served!r} "
                f"at snapshot {outcome.snapshot_ts}, history says {expected!r}"
            )
        if outcome.served_by == "replica" and outcome.staleness > staleness_bound:
            raise BenchmarkError(
                f"staleness bound violated on {external!r}: served at "
                f"{outcome.staleness} > bound {staleness_bound}"
            )


def plan_workload(
    dataset: Dataset,
    plan: PartitionPlan,
    seed: int,
    steady_ops: int,
    hot_set_size: int,
) -> dict[str, Any]:
    """Bind the workload once per (dataset, plan, seed), engine-independent.

    Picks a hub-biased hot set, a seeded steady-phase op tape, and one
    intra-shard edge pair per shard for the storm's structural churn.
    """
    rng = random.Random(seed * 1_000_003 + zlib.crc32(b"readscale"))
    hub = HubPicker(dataset, rng)
    vertex_ids, adjacency = hub.vertex_ids, hub.adjacency

    # Hub bias makes the sampler revisit high-degree vertices, so cap the
    # draws and fill any shortfall in degree order: without the cap, asking
    # for a hot set as large as a tiny graph almost never samples its
    # lowest-degree vertex (the bias picks it only when all 8 candidates
    # are it) and the loop effectively never terminates.
    target = min(hot_set_size, len(vertex_ids))
    hot: dict[Any, None] = {}
    for _ in range(64 * target):
        if len(hot) >= target:
            break
        hot[hub()] = None
    for vid in sorted(
        vertex_ids, key=lambda vid: (-len(adjacency.get(vid, ())), repr(vid))
    ):
        if len(hot) >= target:
            break
        hot.setdefault(vid, None)
    hot_set = list(hot)

    # One co-located adjacent pair per shard (storm edge churn); shards
    # whose hot vertices have no intra-shard neighbour simply skip churn.
    pairs: list[tuple[Any, Any]] = []
    for shard in range(plan.shards):
        found = None
        for vid in hot_set:
            if plan.assignment.get(vid) != shard:
                continue
            for neighbor in adjacency.get(vid, ()):
                if plan.assignment.get(neighbor) == shard and neighbor != vid:
                    found = (vid, neighbor)
                    break
            if found:
                break
        if found:
            pairs.append(found)

    tape: list[tuple[str, Any]] = []
    for _ in range(steady_ops):
        roll = rng.random()
        vid = rng.choice(hot_set) if rng.random() < 0.7 else rng.choice(vertex_ids)
        if roll < 0.45:
            tape.append(("record", vid))
        elif roll < 0.70:
            tape.append(("adjacency", vid))
        elif roll < 0.85:
            tape.append(("foaf", rng.choice(hot_set)))
        else:
            tape.append(("write", rng.choice(hot_set)))
    return {"hot_set": hot_set, "tape": tape, "edge_pairs": pairs}


def _drive_tape(
    deployment: ReadScaleDeployment,
    tape: Sequence[tuple[str, Any]],
    oracle: _CoherenceOracle,
    staleness_bound: int,
    stamp_start: int,
) -> int:
    """Replay an op tape; returns the next unused stamp value."""
    stamp = stamp_start
    for kind, vid in tape:
        if kind == "record":
            outcome = deployment.read_record(vid)
            oracle.check_record(vid, outcome, staleness_bound)
        elif kind == "adjacency":
            deployment.adjacency(vid)
        elif kind == "foaf":
            deployment.foaf(vid)
        else:
            receipt = deployment.set_vertex_property(vid, "stamp", stamp)
            oracle.record_write(vid, receipt.commit_ts, stamp)
            stamp += 1
    return stamp


def _run_storm(
    deployment: ReadScaleDeployment,
    workload: dict[str, Any],
    oracle: _CoherenceOracle,
    staleness_bound: int,
    stamp_start: int,
    rounds: int,
) -> int:
    """The coherence storm: rewrite the whole hot set under read pressure."""
    hot_set = workload["hot_set"]
    stamp = stamp_start
    for _round in range(rounds):
        handles = []
        for source, target in workload["edge_pairs"]:
            _receipt, handle = deployment.add_intra_edge(source, target, "storm")
            handles.append(handle)
        for vid in hot_set:
            receipt = deployment.set_vertex_property(vid, "stamp", stamp)
            oracle.record_write(vid, receipt.commit_ts, stamp)
            stamp += 1
            # Readers hammer the same hot set between writes.
            for reader in hot_set[:3]:
                outcome = deployment.read_record(reader)
                oracle.check_record(reader, outcome, staleness_bound)
            deployment.adjacency(vid)
        for handle in handles:
            deployment.remove_edge(handle)
    return stamp


def _snapshot_overheads(deployment: ReadScaleDeployment) -> dict[str, int]:
    ledger = deployment.ledger()
    clusters = ledger["clusters"]
    return {
        "invalidation_charge": clusters["invalidation_charge"]
        + ledger["ghost_invalidation_charge"],
        "capture_charge": clusters["capture_charge"],
        "apply_charge": clusters["apply_charge"],
        "fallbacks": clusters["fallbacks"],
        "writes": clusters["writes"],
    }


def run_readscale_cell(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    workload: dict[str, Any],
    replicas: int,
    staleness_bound: int,
    cache_capacity: int,
    apply_interval: int,
    network: NetworkCostModel,
    cost_model: ReplicationCostModel,
    storm_rounds: int,
) -> dict[str, Any]:
    """One (engine, R, bound, cache) cell: steady phase, then the storm."""
    source_engine.reset_metrics()
    deployment, _build = build_readscale(
        source_engine,
        vertex_map,
        plan,
        lambda: create_engine(engine_id),
        replicas=replicas,
        apply_interval=apply_interval,
        cache_capacity=cache_capacity,
        staleness_bound=staleness_bound,
        network=network,
        cost_model=cost_model,
    )
    oracle = _CoherenceOracle()
    stamp = _drive_tape(deployment, workload["tape"], oracle, staleness_bound, 0)
    deployment.catch_up()
    steady = _snapshot_overheads(deployment)

    stamp = _run_storm(
        deployment, workload, oracle, staleness_bound, stamp, rounds=storm_rounds
    )
    deployment.catch_up()
    after = _snapshot_overheads(deployment)

    ledger = deployment.ledger()
    clusters = ledger["clusters"]
    reads = clusters["reads_primary"] + clusters["reads_replica"]
    makespan = (
        max(ledger["server_busy"])
        + ledger["network_charge"]
        + ledger["ghost_invalidation_charge"]
    )
    samples = ledger["staleness_samples"]
    row: dict[str, Any] = {
        "replicas": replicas,
        "staleness_bound": staleness_bound,
        "cache_capacity": cache_capacity,
        "reads": reads,
        "writes": clusters["writes"],
        "reads_replica": clusters["reads_replica"],
        "reads_primary": clusters["reads_primary"],
        "replica_share": round(clusters["reads_replica"] / reads, 4) if reads else 0.0,
        "fallbacks": clusters["fallbacks"],
        "base_read_charge": clusters["base_read_charge"],
        "base_write_charge": clusters["base_write_charge"],
        "overhead": {
            "capture_charge": clusters["capture_charge"],
            "log_append_charge": clusters["log_append_charge"],
            "apply_charge": clusters["apply_charge"],
            "invalidation_charge": clusters["invalidation_charge"]
            + ledger["ghost_invalidation_charge"],
        },
        "hot_cache": ledger["hot_cache"],
        "ghost_cache": ledger["ghost_cache"],
        "network_charge": ledger["network_charge"],
        "remote_fetches": ledger["remote_fetches"],
        "staleness_p50": percentile(samples, 50),
        "staleness_p95": percentile(samples, 95),
        "staleness_max": max(samples) if samples else 0,
        "makespan_charge": makespan,
        "throughput_per_kcharge": round(reads * 1000 / makespan, 4) if makespan else 0.0,
        "storm": {key: after[key] - steady[key] for key in after},
    }
    deployment.close()
    return row


def run_readscale_benchmark(
    # Two engines whose per-read charges differ ~5x keep the curves
    # visibly separate.
    engine_ids: Sequence[str] = ("nativelinked-1.9", "triplegraph-2.1"),
    replica_counts: Sequence[int] = (0, 2, 4),
    staleness_bounds: Sequence[int] = (64, 16384),
    cache_capacities: Sequence[int] = (0, 64),
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    shards: int = 2,
    partitioner: str = "hash",
    apply_interval: int = DEFAULT_APPLY_INTERVAL,
    steady_ops: int = 160,
    storm_rounds: int = 2,
    hot_set_size: int = 8,
    dataset_seed: int = 11,
) -> dict[str, Any]:
    """Run the engines × replicas × bounds × caches matrix."""
    registry.check_args(SPEC.args, locals())
    network = NetworkCostModel()
    cost_model = ReplicationCostModel()
    dataset, header = registry.seeded_dataset(dataset_name, scale, dataset_seed)
    plan = partition_dataset(dataset, shards, partitioner)
    workload = plan_workload(
        dataset, plan, seed, steady_ops=steady_ops, hot_set_size=hot_set_size
    )
    engines: dict[str, Any] = {}
    for engine_id, loaded in registry.loaded_sources(engine_ids, dataset):
        cells = [
            run_readscale_cell(
                engine_id,
                loaded.engine,
                loaded.vertex_map,
                plan,
                workload,
                replicas,
                bound,
                capacity,
                apply_interval,
                network,
                cost_model,
                storm_rounds=storm_rounds,
            )
            for replicas in replica_counts
            for bound in staleness_bounds
            for capacity in cache_capacities
        ]
        engines[engine_id] = {"cells": cells}
    return {
        "benchmark": "replication-readscale",
        "dataset": header,
        "seed": seed,
        "shards": shards,
        "partitioner": partitioner,
        "apply_interval": apply_interval,
        "steady_ops": steady_ops,
        "storm_rounds": storm_rounds,
        "hot_set_size": hot_set_size,
        "replica_counts": list(replica_counts),
        "staleness_bounds": list(staleness_bounds),
        "cache_capacities": list(cache_capacities),
        "network": network.params(),
        "replication": cost_model.params(),
        "hot_set": workload["hot_set"],
        "engines": engines,
    }


SPEC = registry.BenchmarkSpec(
    name="readscale",
    help="scale reads over lagging MVCC replicas with charged caches and "
    "measure throughput vs replicas × staleness × cache, including a "
    "cache-coherence storm (Figure 12)",
    run=run_readscale_benchmark,
    format=format_readscale_report,
    args=(
        registry.engines_arg("replicate"),
        registry.arg(
            "--replicas",
            "replica counts R to sweep (0 is the unreplicated baseline)",
            kwarg="replica_counts",
            minimum=0,
        ),
        registry.arg(
            "--bounds",
            "staleness bounds in charge units; reads beyond the bound "
            "fall back to the primary",
            kwarg="staleness_bounds",
            minimum=0,
        ),
        registry.arg(
            "--caches",
            "hot-vertex/ghost cache capacities to sweep (0 disables)",
            kwarg="cache_capacities",
            minimum=0,
        ),
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        registry.arg(
            "--shards",
            "partition shard count K (each shard gets its own replica set)",
            minimum=1,
        ),
        PARTITIONER,
        registry.arg(
            "--apply-interval",
            "virtual-time gap between replica log applies (scaled by "
            "replica rank, so replicas lag by different amounts)",
            minimum=1,
        ),
        registry.arg(
            "--steady-ops", "operations on the steady mixed tape before the storm", minimum=1
        ),
        registry.arg(
            "--storm-rounds",
            "cache-coherence storm rounds (every hot vertex rewritten "
            "under read pressure)",
            minimum=0,
        ),
        registry.arg(
            "--hot-set",
            "hub-biased hot-set size shared by tape and storm",
            kwarg="hot_set_size",
            minimum=1,
        ),
    ),
    baseline="BENCH_readscale.json",
    report="benchmarks/reports/fig12_readscale.txt",
    gated_on="identity; cache-off cells book no invalidation; storm "
    "invalidation monotone in R",
    invariants=check_readscale_invariants,
)
