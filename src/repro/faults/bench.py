"""The availability-under-faults benchmark behind ``graphbench chaos``.

For every engine × query mix × shard count K × retry policy × fault rate,
the benchmark shards the dataset, puts the shards under a
:class:`~repro.faults.chaos.FaultPlane` driven by a seeded
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
``graphbench gate chaos``.  The signature defaults of
:func:`run_chaos_benchmark` are the committed-baseline parameters (and,
through :data:`SPEC`, the CLI's), so a plain ``graphbench chaos``
regenerates the baseline.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.bench import registry
from repro.bench.gates import check_chaos_invariants
from repro.concurrency.driver import RETRY_POLICIES, RetryPolicy
from repro.concurrency.scheduler import percentile
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
from repro.faults.report import format_chaos_report
from repro.partition.bench import PARTITIONER, answer_of, plan_queries
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import PartitionPlan, plan_matrix

#: The two query mixes: deep hub BFS keeps shards exposed for many barriers
#: (faults hit mid-flight); shallow 1-hop lookups are in-and-out (faults
#: mostly hit between queries).  Parameters feed ``plan_queries``.
CHAOS_MIXES: dict[str, dict[str, int]] = {
    "deep-traversal": {"depth": 3, "bfs_sources": 3},
    "one-hop": {"depth": 1, "bfs_sources": 4},
}


#: :class:`~repro.faults.chaos.ChaosResult` ledger fields summed per cell.
_LEDGER = (
    "compute_charge",
    "network_charge",
    "degraded_charge",
    "degraded_reads",
    "wasted_compute_charge",
    "backoff_charge",
    "retransmit_charge",
    "recovery_charge",
    "checkpoint_charge",
    "journal_charge",
    "overhead_charge",
    "crashes",
    "restarts",
    "stalls",
    "abandoned",
    "rejoins",
    "torn_records",
    "repaired_records",
    "messages_lost",
    "messages_duplicated",
    "messages_reordered",
)


def _run_cell_queries(
    executor: Any, queries: Sequence[dict[str, Any]]
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Replay the query set under faults; aggregate the outcome ledger."""
    totals = {"queries": len(queries), "exact": 0, "stale": 0, "failed": 0}
    totals.update(dict.fromkeys(_LEDGER, 0))
    staleness: list[int] = []
    per_query: list[dict[str, Any]] = []
    for query in queries:
        try:
            if query["kind"] == "shortest-path":
                outcome = executor.shortest_path(query["source"], query["target"])
            else:
                outcome = executor.bfs(query["source"], query["depth"])
        except ShardUnavailableError as error:
            totals["failed"] += 1
            per_query.append(
                {"kind": query["kind"], "label": FAILED, "error": str(error)}
            )
            continue
        totals[outcome.label] += 1
        if outcome.label == "stale":
            staleness.append(outcome.staleness)
        registry.accumulate(totals, outcome, _LEDGER)
        entry = {
            "kind": query["kind"],
            "label": outcome.label,
            "compute_charge": outcome.compute_charge,
            "network_charge": outcome.network_charge,
            "staleness": outcome.staleness,
        }
        entry.update(answer_of(query, outcome))
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
    **chaos: int,
) -> dict[str, Any]:
    """One (engine, mix, K, policy, rate) cell of the availability matrix.

    ``chaos`` is the :class:`~repro.faults.chaos.FaultPlane` budget
    (``max_restarts``, ``superstep_timeout``, ``checkpoint_interval``).
    """
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
        **chaos,
    )
    totals, per_query = _run_cell_queries(executor, queries)
    row: dict[str, Any] = {"build_charge": executor.faults.build_charge}
    row.update(totals)
    row["per_query"] = per_query
    for shard in executor.shards:
        shard.engine.close()
    return row


def run_chaos_benchmark(
    # One engine keeps the matrix affordable; the interesting axes are the
    # fault rate and the retry policy, not the engine zoo (fig10 already
    # sweeps engines × partitioners fault-free).
    engine_ids: Sequence[str] = ("nativelinked-1.9",),
    mixes: Sequence[str] = tuple(CHAOS_MIXES),
    shard_counts: Sequence[int] = (2, 4),
    # The sweep needs the tail: below ~30% the retry budget absorbs nearly
    # everything, and only the high-rate cells show degraded service and
    # fail-fast outcomes (the availability story fig11 exists to tell).
    fault_rates: Sequence[int] = (0, 10, 30, 60),
    retry_policies: Sequence[str] = RETRY_POLICIES,
    partitioner: str = "hash",
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    superstep_timeout: int = DEFAULT_SUPERSTEP_TIMEOUT,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> dict[str, Any]:
    """Run the availability matrix (``BENCH_chaos.json``)."""
    registry.check_args(SPEC.args, locals())
    if 0 not in fault_rates:
        raise BenchmarkError(
            "fault rates must include 0: the fault-free run is the baseline "
            "that overhead and the exactness self-check are measured against"
        )
    network = NetworkCostModel()
    retry = RetryPolicy()
    chaos = {
        "max_restarts": max_restarts,
        "superstep_timeout": superstep_timeout,
        "checkpoint_interval": checkpoint_interval,
    }
    dataset, header = registry.seeded_dataset(dataset_name, scale, registry.DATASET_SEED)
    plans = plan_matrix(dataset, [partitioner], shard_counts)
    query_sets = {
        name: plan_queries(dataset, seed, **CHAOS_MIXES[name]) for name in mixes
    }
    # Rate 0 first so every faulted cell can be checked against its baseline.
    ordered_rates = sorted(set(fault_rates))
    cells: list[dict[str, Any]] = []
    for engine_id, loaded in registry.loaded_sources(engine_ids, dataset):
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
                            loaded.engine,
                            loaded.vertex_map,
                            plans[(partitioner, shards)],
                            query_sets[mix],
                            network,
                            fault_plan,
                            policy,
                            retry,
                            **chaos,
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
                        else:
                            assert baseline is not None  # rate 0 runs first
                            _check_exactness(cell, cell["per_query"], baseline["per_query"])
                        cell["overhead_pct"] = round(
                            100.0 * cell["overhead_charge"] / baseline["base_charge"], 2
                        )
                        cells.append(cell)
    return {
        "benchmark": "chaos-availability",
        "dataset": header,
        "seed": seed,
        "partitioner": partitioner,
        "mixes": {name: dict(CHAOS_MIXES[name]) for name in mixes},
        "shard_counts": list(shard_counts),
        "fault_rates": list(ordered_rates),
        "retry_policies": list(retry_policies),
        "network": network.params(),
        "retry": {"max_retries": retry.max_retries, "backoff_base": retry.backoff_base},
        "chaos": chaos,
        "cells": cells,
    }


SPEC = registry.BenchmarkSpec(
    name="chaos",
    help="inject seeded faults (crashes, stalls, message loss/dup/reorder, "
    "torn WAL tails, snapshot loss) into the distributed executor and "
    "measure availability, staleness, and overhead (Figure 11)",
    run=run_chaos_benchmark,
    format=format_chaos_report,
    args=(
        registry.engines_arg("shard"),
        registry.arg("--mixes", "query mixes to replay under faults", choices=sorted(CHAOS_MIXES)),
        registry.arg("--shards", "shard counts K to sweep", kwarg="shard_counts", minimum=1),
        registry.arg(
            "--rates",
            "fault rates in percent (must include 0, the exactness oracle)",
            kwarg="fault_rates",
            minimum=0,
            maximum=100,
        ),
        registry.arg(
            "--policies",
            "retry policies to A/B per cell",
            kwarg="retry_policies",
            choices=list(RETRY_POLICIES),
        ),
        PARTITIONER,
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        registry.arg(
            "--max-restarts",
            "per-query fault budget per shard before it is abandoned",
            minimum=0,
        ),
        registry.arg(
            "--superstep-timeout",
            "fixed straggler timeout in charge units (adaptive policy "
            "scales it with the observed EWMA instead)",
            minimum=1,
        ),
        registry.arg(
            "--checkpoint-interval",
            "barriers between periodic charged snapshot checkpoints",
            minimum=1,
        ),
    ),
    baseline="BENCH_chaos.json",
    report="benchmarks/reports/fig11_chaos.txt",
    gated_on="identity; rate-0 availability = 100 %",
    invariants=check_chaos_invariants,
)
