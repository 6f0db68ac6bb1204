"""The availability-under-faults benchmark behind ``graphbench chaos``.

For every engine × query mix × shard count K × retry policy × fault rate,
the benchmark shards the dataset, wraps the shards in a
:class:`~repro.faults.chaos.ChaosExecutor` driven by a seeded
:class:`~repro.faults.plan.FaultPlan`, and replays the same seeded query
set.  Each cell reports availability (completed / attempted), the
exact/stale/failed outcome split, staleness percentiles over the degraded
queries, and the full fault-overhead ledger as a percentage of the same
cell's fault-free (rate 0) base charge.

The rate-0 cell is mandatory for every (engine, mix, K, policy): it is the
fault-free baseline the overhead is measured against, *and* the oracle for
the in-bench exactness self-check — every query a faulted cell labels
``"exact"`` must return the same answer and the same base charges as the
corresponding rate-0 query, or the run aborts with ``BenchmarkError``
rather than publish a payload that violates the chaos invariant.

Every figure except ``wall_seconds`` derives from seeded choices and
logical charges, so ``BENCH_chaos.json`` is byte-identical across machines;
CI regenerates it on every push and gates it on identity with
``graphbench gate chaos``.  The defaults here are the committed-baseline
parameters, so a plain ``graphbench chaos`` regenerates the baseline.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.bench.workload import load_dataset_into
from repro.concurrency.driver import RETRY_POLICIES, RetryPolicy
from repro.concurrency.scheduler import percentile
from repro.datasets import get_dataset
from repro.engines import create_engine
from repro.exceptions import BenchmarkError, ShardUnavailableError
from repro.faults.chaos import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_MAX_RESTARTS,
    DEFAULT_SUPERSTEP_TIMEOUT,
    FAILED,
    build_chaos,
)
from repro.faults.plan import FaultPlan
from repro.partition.bench import plan_queries
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import PartitionPlan, partition_dataset

#: Benchmark defaults — shared by the CLI, the CI gate, and the committed
#: baseline.  One engine keeps the matrix affordable; the interesting axes
#: are the fault rate and the retry policy, not the engine zoo (fig10
#: already sweeps engines × partitioners fault-free).
DEFAULT_CHAOS_ENGINES = ("nativelinked-1.9",)
DEFAULT_CHAOS_SHARDS = (2, 4)
#: The sweep needs the tail: below ~30% the retry budget absorbs nearly
#: everything, and only the high-rate cells show degraded service and
#: fail-fast outcomes (the availability story fig11 exists to tell).
DEFAULT_FAULT_RATES = (0, 10, 30, 60)
DEFAULT_CHAOS_PARTITIONER = "hash"

#: The two query mixes: deep hub BFS keeps shards exposed for many barriers
#: (faults hit mid-flight); shallow 1-hop lookups are in-and-out (faults
#: mostly hit between queries).  Parameters feed ``plan_queries``.
CHAOS_MIXES: dict[str, dict[str, int]] = {
    "deep-traversal": {"depth": 3, "bfs_sources": 3},
    "one-hop": {"depth": 1, "bfs_sources": 4},
}


def _run_cell_queries(
    executor: Any, queries: Sequence[dict[str, Any]]
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Replay the query set under faults; aggregate the outcome ledger."""
    totals = {
        "queries": len(queries),
        "exact": 0,
        "stale": 0,
        "failed": 0,
        "compute_charge": 0,
        "network_charge": 0,
        "degraded_charge": 0,
        "degraded_reads": 0,
        "wasted_compute_charge": 0,
        "backoff_charge": 0,
        "retransmit_charge": 0,
        "recovery_charge": 0,
        "checkpoint_charge": 0,
        "journal_charge": 0,
        "overhead_charge": 0,
        "crashes": 0,
        "restarts": 0,
        "stalls": 0,
        "abandoned": 0,
        "rejoins": 0,
        "torn_records": 0,
        "repaired_records": 0,
        "messages_lost": 0,
        "messages_duplicated": 0,
        "messages_reordered": 0,
    }
    staleness: list[int] = []
    per_query: list[dict[str, Any]] = []
    for query in queries:
        try:
            if query["kind"] == "shortest-path":
                outcome = executor.shortest_path(query["source"], query["target"])
                answer: dict[str, Any] = {
                    "distance": outcome.distances.get(query["target"], -1)
                }
            else:
                outcome = executor.bfs(query["source"], query["depth"])
                answer = {
                    "reached": len(outcome.distances),
                    "distance_sum": sum(outcome.distances.values()),
                }
        except ShardUnavailableError as error:
            totals["failed"] += 1
            per_query.append(
                {"kind": query["kind"], "label": FAILED, "error": str(error)}
            )
            continue
        totals[outcome.label] += 1
        if outcome.label == "stale":
            staleness.append(outcome.staleness)
        totals["compute_charge"] += outcome.compute_charge
        totals["network_charge"] += outcome.network_charge
        totals["degraded_charge"] += outcome.degraded_charge
        totals["degraded_reads"] += outcome.degraded_reads
        totals["wasted_compute_charge"] += outcome.wasted_compute_charge
        totals["backoff_charge"] += outcome.backoff_charge
        totals["retransmit_charge"] += outcome.retransmit_charge
        totals["recovery_charge"] += outcome.recovery_charge
        totals["checkpoint_charge"] += outcome.checkpoint_charge
        totals["journal_charge"] += outcome.journal_charge
        totals["overhead_charge"] += outcome.overhead_charge
        totals["crashes"] += outcome.crashes
        totals["restarts"] += outcome.restarts
        totals["stalls"] += outcome.stalls
        totals["abandoned"] += outcome.abandoned
        totals["rejoins"] += outcome.rejoins
        totals["torn_records"] += outcome.torn_records
        totals["repaired_records"] += outcome.repaired_records
        totals["messages_lost"] += outcome.messages_lost
        totals["messages_duplicated"] += outcome.messages_duplicated
        totals["messages_reordered"] += outcome.messages_reordered
        entry = {
            "kind": query["kind"],
            "label": outcome.label,
            "compute_charge": outcome.compute_charge,
            "network_charge": outcome.network_charge,
            "staleness": outcome.staleness,
        }
        entry.update(answer)
        per_query.append(entry)
    completed = totals["queries"] - totals["failed"]
    totals["availability"] = round(completed / totals["queries"], 4)
    totals["base_charge"] = totals["compute_charge"] + totals["network_charge"]
    totals["staleness_p50"] = percentile(staleness, 50) if staleness else 0
    totals["staleness_p95"] = percentile(staleness, 95) if staleness else 0
    totals["staleness_max"] = max(staleness) if staleness else 0
    return totals, per_query


def _check_exactness(
    cell: dict[str, Any],
    per_query: list[dict[str, Any]],
    baseline_queries: list[dict[str, Any]],
) -> None:
    """The in-bench invariant gate: "exact" must mean it, byte for byte."""
    for index, entry in enumerate(per_query):
        if entry["label"] != "exact":
            continue
        oracle = baseline_queries[index]
        checked = ("compute_charge", "network_charge", "reached", "distance_sum", "distance")
        for key in checked:
            if key in oracle and entry.get(key) != oracle[key]:
                raise BenchmarkError(
                    "chaos exactness invariant violated: query "
                    f"{index} ({entry['kind']}) of cell {cell['engine']}/"
                    f"{cell['mix']}/K={cell['shards']}/{cell['policy']}/"
                    f"rate={cell['rate']} reported label=exact but {key}="
                    f"{entry.get(key)} != fault-free {oracle[key]}"
                )


def run_chaos_cell(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    queries: Sequence[dict[str, Any]],
    network: NetworkCostModel,
    fault_plan: FaultPlan,
    retry_policy: str,
    retry: RetryPolicy,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> dict[str, Any]:
    """One (engine, mix, K, policy, rate) cell of the availability matrix."""
    source_engine.reset_metrics()
    executor, _build = build_chaos(
        source_engine,
        vertex_map,
        plan,
        lambda: create_engine(engine_id),
        fault_plan=fault_plan,
        network=network,
        retry=retry,
        retry_policy=retry_policy,
        max_restarts=max_restarts,
        superstep_timeout=superstep_timeout,
        checkpoint_interval=checkpoint_interval,
    )
    totals, per_query = _run_cell_queries(executor, queries)
    row: dict[str, Any] = {"build_charge": executor.faults.build_charge}
    row.update(totals)
    row["per_query"] = per_query
    for shard in executor.shards:
        shard.engine.close()
    return row


def run_chaos_benchmark(
    engine_ids: Sequence[str] = DEFAULT_CHAOS_ENGINES,
    mixes: Sequence[str] = tuple(CHAOS_MIXES),
    shard_counts: Sequence[int] = DEFAULT_CHAOS_SHARDS,
    fault_rates: Sequence[int] = DEFAULT_FAULT_RATES,
    retry_policies: Sequence[str] = RETRY_POLICIES,
    partitioner: str = DEFAULT_CHAOS_PARTITIONER,
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    dataset_seed: int = 11,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> dict[str, Any]:
    """Run the availability matrix (``BENCH_chaos.json``)."""
    if 0 not in fault_rates:
        raise BenchmarkError(
            "fault rates must include 0: the fault-free run is the baseline "
            "that overhead and the exactness self-check are measured against"
        )
    if any(rate < 0 or rate > 100 for rate in fault_rates):
        raise BenchmarkError(f"fault rates must be 0..100, got {list(fault_rates)}")
    unknown_mixes = [name for name in mixes if name not in CHAOS_MIXES]
    if unknown_mixes:
        raise BenchmarkError(
            f"unknown chaos mixes {unknown_mixes}; expected {sorted(CHAOS_MIXES)}"
        )
    unknown_policies = [name for name in retry_policies if name not in RETRY_POLICIES]
    if unknown_policies:
        raise BenchmarkError(
            f"unknown retry policies {unknown_policies}; expected {list(RETRY_POLICIES)}"
        )
    network = NetworkCostModel()
    retry = RetryPolicy()
    dataset = get_dataset(dataset_name, scale=scale, seed=dataset_seed)
    plans = {
        shards: partition_dataset(dataset, shards, partitioner)
        for shards in shard_counts
    }
    query_sets = {
        name: plan_queries(dataset, seed, **CHAOS_MIXES[name]) for name in mixes
    }
    # Rate 0 first so every faulted cell can be checked against its baseline.
    ordered_rates = sorted(set(fault_rates))
    started = time.perf_counter()
    cells: list[dict[str, Any]] = []
    for engine_id in engine_ids:
        source_engine = create_engine(engine_id)
        loaded = load_dataset_into(source_engine, dataset)
        for mix in mixes:
            for shards in shard_counts:
                for policy in retry_policies:
                    baseline: dict[str, Any] | None = None
                    for rate in ordered_rates:
                        fault_plan = (
                            FaultPlan.seeded(seed, rate) if rate else FaultPlan()
                        )
                        row = run_chaos_cell(
                            engine_id,
                            source_engine,
                            loaded.vertex_map,
                            plans[shards],
                            query_sets[mix],
                            network,
                            fault_plan,
                            policy,
                            retry,
                            max_restarts=max_restarts,
                            superstep_timeout=superstep_timeout,
                            checkpoint_interval=checkpoint_interval,
                        )
                        cell = {
                            "engine": engine_id,
                            "mix": mix,
                            "shards": shards,
                            "policy": policy,
                            "rate": rate,
                        }
                        cell.update(row)
                        if rate == 0:
                            baseline = cell
                            if cell["exact"] != cell["queries"]:
                                raise BenchmarkError(
                                    "fault-free chaos cell produced non-exact "
                                    f"outcomes: {cell['engine']}/{cell['mix']}"
                                )
                            cell["overhead_pct"] = round(
                                100.0 * cell["overhead_charge"] / cell["base_charge"],
                                2,
                            )
                        else:
                            assert baseline is not None  # rate 0 runs first
                            _check_exactness(cell, cell["per_query"], baseline["per_query"])
                            cell["overhead_pct"] = round(
                                100.0
                                * cell["overhead_charge"]
                                / baseline["base_charge"],
                                2,
                            )
                        cells.append(cell)
        source_engine.close()
    return {
        "benchmark": "chaos-availability",
        "dataset": {
            "name": dataset_name,
            "scale": scale,
            "seed": dataset_seed,
            "vertices": dataset.vertex_count,
            "edges": dataset.edge_count,
        },
        "seed": seed,
        "partitioner": partitioner,
        "mixes": {name: dict(CHAOS_MIXES[name]) for name in mixes},
        "shard_counts": list(shard_counts),
        "fault_rates": list(ordered_rates),
        "retry_policies": list(retry_policies),
        "network": network.params(),
        "retry": {"max_retries": retry.max_retries, "backoff_base": retry.backoff_base},
        "chaos": {
            "max_restarts": max_restarts,
            "superstep_timeout": superstep_timeout,
            "checkpoint_interval": checkpoint_interval,
        },
        "cells": cells,
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
