"""The distributed-transaction benchmark behind ``graphbench txn``.

For every engine × partitioner × shard count K × isolation level, the
benchmark carves the dataset into K shard engines and replays one seeded
transaction wave through :class:`~repro.txn.distributed.DistributedSessionManager`.
Transactions arrive at staggered virtual times; each one's
snapshot-to-commit window is its base execution window **plus the charged
routing round-trips to every remote shard its footprint touches** — so a
high-cut partition stretches windows, more commits interpose, and the
abort rate climbs with the cut ratio.  That is the figure's claim: the
price of distributing *writes* is paid in aborts and commit latency, on
the same charge clock as everything else in the suite.

Three more phases ride along:

* **write skew** — seeded vertex pairs under the classic constraint
  "not both off".  SI commits both writers (anomaly count > 0), SSI
  aborts one with :class:`~repro.exceptions.SerializationFailureError`
  (anomaly count 0) — the isolation flip, measured not asserted.
* **K=1 parity** — the same wave on one shard versus plain local sessions
  on an unpartitioned engine: byte-identical final state, identical
  charges, zero messages.  Embedded in the payload so CI gates it.
* **value separation** — each transaction writes one oversized note, so
  the per-shard txn WALs exercise the BVLSM key/value split and the
  payload reports how many values the value logs absorbed.

Everything except ``wall_seconds`` derives from seeded choices and logical
charges, so ``BENCH_txn.json`` is byte-identical across machines.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Sequence

from repro.bench import registry
from repro.bench.gates import check_txn_invariants
from repro.bench.workload import HubPicker, load_dataset_into
from repro.concurrency.scheduler import percentile
from repro.datasets.base import Dataset
from repro.engines import create_engine
from repro.exceptions import SerializationFailureError, WriteConflictError
from repro.partition.bench import carve_shards, partitioners_arg
from repro.partition.messages import NetworkCostModel
from repro.partition.partitioners import PartitionPlan, partition_dataset, plan_matrix
from repro.txn.distributed import DistributedSessionManager
from repro.txn.report import format_txn_report

ISOLATION_SWEEP = ("si", "ssi")


def plan_transactions(
    dataset: Dataset, seed: int, count: int, footprint: int
) -> list[dict[str, Any]]:
    """Bind the transaction wave once per (dataset, seed), external-id terms.

    Each transaction reads-and-increments a ``balance`` on ``footprint``
    hub-biased vertices (hub bias is what makes footprints overlap — no
    overlap, no conflicts, no figure) and writes one oversized ``note``
    on its first vertex so the txn WAL's value log sees traffic.
    """
    rng = random.Random(seed * 1_000_003 + zlib.crc32(b"txn-wave"))
    hub = HubPicker(dataset, rng, draws=6)
    plans: list[dict[str, Any]] = []
    for index in range(count):
        vertices: list[Any] = []
        while len(vertices) < min(footprint, len(hub.vertex_ids)):
            candidate = hub()
            if candidate not in vertices:
                vertices.append(candidate)
        # Shuffle so a given hub is written by some transactions and only
        # read by others (the wave keeps its last footprint vertex
        # read-only) — that asymmetry is what produces rw-antidependencies
        # rather than pure write-write races.
        rng.shuffle(vertices)
        plans.append({"index": index, "vertices": vertices})
    return plans


def plan_skew_pairs(dataset: Dataset, seed: int) -> list[tuple[Any, Any]]:
    """Eight seeded distinct vertex pairs for the write-skew phase."""
    rng = random.Random(seed * 1_000_003 + zlib.crc32(b"txn-skew"))
    vertex_ids = [vertex["id"] for vertex in dataset.vertices]
    chosen: list[tuple[Any, Any]] = []
    used: set[Any] = set()
    while len(chosen) < 8 and len(used) + 2 <= len(vertex_ids):
        a = rng.choice(vertex_ids)
        b = rng.choice(vertex_ids)
        if a == b or a in used or b in used:
            continue
        used.update((a, b))
        chosen.append((a, b))
    return chosen


def _wave_events(
    txn_plans: Sequence[dict[str, Any]],
    owner: dict[Any, int],
    network: NetworkCostModel,
    arrival_gap: int,
    base_duration: int,
) -> list[tuple[int, int, int, str]]:
    """Schedule (time, phase, txn, kind) events for one wave, sorted.

    A transaction's window is ``base_duration`` plus one charged
    round-trip (request + response batch) per *remote* shard its
    footprint touches — the staggered-begin mechanism that ties abort
    rate to the partition's cut.
    """
    events: list[tuple[int, int, int, str]] = []
    for plan in txn_plans:
        index = plan["index"]
        arrival = index * arrival_gap
        per_shard: dict[int, int] = {}
        for vertex in plan["vertices"]:
            shard = owner[vertex]
            per_shard[shard] = per_shard.get(shard, 0) + 1
        home = owner[plan["vertices"][0]]
        routing = sum(
            2 * network.batch_cost(ops)
            for shard, ops in sorted(per_shard.items())
            if shard != home
        )
        duration = base_duration + routing
        events.append((arrival, 0, index, "begin"))
        events.append((arrival + duration, 1, index, "commit"))
    events.sort()
    return events


def _touch_footprint(graph: Any, vertices: Sequence[Any], index: int) -> None:
    """One transaction's reads and buffered writes (distributed or local)."""
    for position, vertex in enumerate(vertices):
        balance = graph.vertex_property(vertex, "balance") or 0
        # The last footprint vertex is read-only: its balance feeds the
        # others' updates but is never written, so a concurrent write to it
        # is invisible to SI (no write-write overlap) and an
        # rw-antidependency under SSI — the wave measures both abort kinds,
        # not just first-committer-wins.
        if position == len(vertices) - 1 and len(vertices) > 1:
            continue
        graph.set_vertex_property(vertex, "balance", balance + 1)
        if position == 0:
            graph.set_vertex_property(vertex, "note", f"txn-{index}:" + "x" * 96)


def _run_wave_distributed(
    manager: DistributedSessionManager,
    txn_plans: Sequence[dict[str, Any]],
    events: Sequence[tuple[int, int, int, str]],
) -> dict[str, Any]:
    """Drive one wave through a distributed manager; return the ledger."""
    sessions: dict[int, Any] = {}
    latencies: list[int] = []
    for _time, _phase, index, kind in events:
        plan = txn_plans[index]
        if kind == "begin":
            txn = manager.begin()
            _touch_footprint(txn, plan["vertices"], index)
            sessions[index] = txn
        else:
            txn = sessions.pop(index)
            before = sum(shard.engine.io_cost() for shard in manager.txn_shards)
            try:
                result = txn.commit()
            except (WriteConflictError, SerializationFailureError):
                continue
            after = sum(shard.engine.io_cost() for shard in manager.txn_shards)
            if result.mode == "2pc":
                latencies.append(result.total_latency)
            else:
                latencies.append(after - before)
    stats = manager.stats
    return {
        "commits": stats.committed,
        "one_phase": stats.one_phase,
        "two_phase": stats.two_phase,
        "conflict_aborts": stats.conflict_aborts,
        "ssi_aborts": stats.ssi_aborts,
        "abort_rate": round(stats.abort_rate, 6),
        "messages": stats.network.messages,
        "network_charge": stats.network.charge,
        "mean_latency": sum(latencies) // len(latencies) if latencies else 0,
        "p95_latency": percentile(latencies, 95),
        "separated_values": sum(
            shard.journal.separated_values for shard in manager.txn_shards
        ),
        "separated_bytes": sum(
            shard.journal.separated_bytes for shard in manager.txn_shards
        ),
    }


def run_txn_cell(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    txn_plans: Sequence[dict[str, Any]],
    network: NetworkCostModel,
    isolation: str,
    arrival_gap: int,
    base_duration: int,
) -> dict[str, Any]:
    """One (engine, partitioner, K, isolation) cell of the matrix."""
    executor, _build = carve_shards(engine_id, source_engine, vertex_map, plan, network)
    manager = DistributedSessionManager(
        executor.shards, executor.owner, network=network, isolation=isolation
    )
    events = _wave_events(txn_plans, manager.owner, network, arrival_gap, base_duration)
    ledger = _run_wave_distributed(manager, txn_plans, events)
    row: dict[str, Any] = {
        "shards": plan.shards,
        "isolation": isolation,
        "cut_ratio": plan.cut_ratio,
        "cut_edges": plan.cut_edges,
    }
    row.update(ledger)
    for shard in executor.shards:
        shard.engine.close()
    return row


# ----------------------------------------------------------------------
# Write-skew phase
# ----------------------------------------------------------------------


def run_skew_phase(
    engine_id: str,
    source_engine: Any,
    vertex_map: dict[Any, Any],
    plan: PartitionPlan,
    pairs: Sequence[tuple[Any, Any]],
    network: NetworkCostModel,
    isolation: str,
) -> dict[str, Any]:
    """Write-skew pairs under one isolation level on a sharded graph.

    Both vertices of a pair start ``on=1`` (the constraint: not both may
    end 0).  Two concurrent transactions each read *both* flags and
    switch off a different one — disjoint write sets, so SI commits both
    and violates the constraint; SSI detects the rw-antidependency and
    aborts the second writer.
    """
    executor, _build = carve_shards(engine_id, source_engine, vertex_map, plan, network)
    manager = DistributedSessionManager(
        executor.shards, executor.owner, network=network, isolation=isolation
    )
    anomalies = 0
    aborted = 0
    for a, b in pairs:
        setup = manager.begin()
        setup.set_vertex_property(a, "on", 1)
        setup.set_vertex_property(b, "on", 1)
        setup.commit()
        first = manager.begin()
        second = manager.begin()
        for txn in (first, second):
            assert (txn.vertex_property(a, "on") or 0) + (
                txn.vertex_property(b, "on") or 0
            ) >= 1
        first.set_vertex_property(a, "on", 0)
        second.set_vertex_property(b, "on", 0)
        first.commit()
        try:
            second.commit()
        except SerializationFailureError:
            aborted += 1
        check = manager.begin()
        if (check.vertex_property(a, "on") or 0) + (
            check.vertex_property(b, "on") or 0
        ) < 1:
            anomalies += 1
        check.commit()
    result = {
        "pairs": len(pairs),
        "anomalies": anomalies,
        "ssi_aborts": aborted,
    }
    for shard in executor.shards:
        shard.engine.close()
    return result


# ----------------------------------------------------------------------
# K=1 parity phase
# ----------------------------------------------------------------------


def _state_checksum(engine: Any, id_map: dict[Any, Any]) -> int:
    """Checksum of every vertex's properties, keyed by external id."""
    digest = 0
    for external, internal in sorted(id_map.items(), key=lambda item: repr(item[0])):
        blob = repr(sorted(engine.vertex(internal).properties.items()))
        digest = zlib.crc32(f"{external!r}={blob}".encode(), digest)
    return digest


def run_parity_phase(
    engine_id: str,
    dataset: Dataset,
    txn_plans: Sequence[dict[str, Any]],
    network: NetworkCostModel,
    arrival_gap: int,
    base_duration: int,
) -> dict[str, Any]:
    """The same wave at K=1 versus plain local sessions: must be identical.

    Compares final vertex state (checksummed), committed/aborted counts,
    and total engine charge; the distributed side must additionally show
    zero messages and zero network charge.  This is the benchmark-level
    restatement of the contract ``tests/txn/test_parity.py`` pins per
    engine.
    """
    # Distributed, one shard.
    source_engine = create_engine(engine_id)
    loaded = load_dataset_into(source_engine, dataset)
    plan = partition_dataset(dataset, 1, "hash")
    executor, _build = carve_shards(
        engine_id, source_engine, loaded.vertex_map, plan, network
    )
    manager = DistributedSessionManager(
        executor.shards, executor.owner, network=network, isolation="si"
    )
    events = _wave_events(txn_plans, manager.owner, network, arrival_gap, base_duration)
    _run_wave_distributed(manager, txn_plans, events)
    shard = manager.txn_shards[0]
    distributed = {
        "charge": shard.engine.io_cost(),
        "checksum": _state_checksum(shard.engine, shard.runtime.id_map),
        "commits": manager.stats.committed,
        "aborts": manager.stats.conflict_aborts,
        "messages": manager.stats.network.messages,
        "network_charge": manager.stats.network.charge,
    }
    shard.engine.close()
    source_engine.close()

    # Direct: plain local sessions on an identically-built single shard.
    # Both sides must come off the same load path (the partition loader)
    # so the comparison isolates exactly the distributed session layer's
    # added charges — engines may lay out storage differently under
    # different insertion orders, which is not what this contract pins.
    direct_source = create_engine(engine_id)
    direct_loaded = load_dataset_into(direct_source, dataset)
    direct_executor, _build = carve_shards(
        engine_id, direct_source, direct_loaded.vertex_map, plan, NetworkCostModel()
    )
    direct_engine = direct_executor.shards[0].engine
    local = direct_engine.transactions()
    id_map = direct_executor.shards[0].id_map
    sessions: dict[int, Any] = {}
    commits = 0
    aborts = 0
    for _time, _phase, index, kind in events:
        txn_plan = txn_plans[index]
        if kind == "begin":
            session = local.begin()
            footprint = [id_map[vertex] for vertex in txn_plan["vertices"]]
            _touch_footprint(session.graph, footprint, index)
            sessions[index] = session
        else:
            session = sessions.pop(index)
            try:
                session.commit()
                commits += 1
            except WriteConflictError:
                aborts += 1
    direct = {
        "charge": direct_engine.io_cost(),
        "checksum": _state_checksum(direct_engine, id_map),
        "commits": commits,
        "aborts": aborts,
    }
    direct_engine.close()
    direct_source.close()
    return {
        "distributed": distributed,
        "direct": direct,
        "identical": bool(
            distributed["checksum"] == direct["checksum"]
            and distributed["charge"] == direct["charge"]
            and distributed["commits"] == direct["commits"]
            and distributed["aborts"] == direct["aborts"]
            and distributed["messages"] == 0
            and distributed["network_charge"] == 0
        ),
    }


# ----------------------------------------------------------------------
# The full matrix
# ----------------------------------------------------------------------


def run_txn_benchmark(
    engine_ids: Sequence[str] = ("nativelinked-1.9", "triplegraph-2.1"),
    partitioner_names: Sequence[str] = ("hash", "greedy"),
    shard_counts: Sequence[int] = (1, 2, 4),
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    transactions: int = 48,
    footprint: int = 3,
    arrival_gap: int = 32,
    # Base snapshot-to-commit window of a purely local transaction.
    # Slightly above the gap, so neighbouring transactions overlap a little
    # even at K=1; every remote shard in the footprint adds a charged
    # request+response round trip, so high-cut partitions stretch the
    # window across several more arrivals — the abort-rate-vs-cut mechanism.
    base_duration: int = 60,
) -> dict[str, Any]:
    """Run the engines × partitioners × K × isolation matrix (fig13)."""
    registry.check_args(SPEC.args, locals())
    network = NetworkCostModel()
    dataset, header = registry.seeded_dataset(dataset_name, scale, registry.DATASET_SEED)
    txn_plans = plan_transactions(dataset, seed, transactions, footprint)
    skew_pairs = plan_skew_pairs(dataset, seed)
    plans = plan_matrix(dataset, partitioner_names, shard_counts)
    engines: dict[str, Any] = {}
    write_skew: dict[str, Any] = {}
    parity: dict[str, Any] = {}
    for engine_id, loaded in registry.loaded_sources(engine_ids, dataset):
        strategies: dict[str, Any] = {}
        for strategy in partitioner_names:
            runs = [
                run_txn_cell(
                    engine_id,
                    loaded.engine,
                    loaded.vertex_map,
                    plans[(strategy, shards)],
                    txn_plans,
                    network,
                    isolation,
                    arrival_gap,
                    base_duration,
                )
                for shards in shard_counts
                for isolation in ISOLATION_SWEEP
            ]
            strategies[strategy] = {"runs": runs}
        engines[engine_id] = strategies
        skew_plan = plans[(partitioner_names[0], max(shard_counts))]
        write_skew[engine_id] = {
            isolation: run_skew_phase(
                engine_id,
                loaded.engine,
                loaded.vertex_map,
                skew_plan,
                skew_pairs,
                network,
                isolation,
            )
            for isolation in ISOLATION_SWEEP
        }
        parity[engine_id] = run_parity_phase(
            engine_id, dataset, txn_plans, network, arrival_gap, base_duration
        )
    return {
        "benchmark": "distributed-transactions",
        "dataset": header,
        "seed": seed,
        "transactions": transactions,
        "footprint": footprint,
        "arrival_gap": arrival_gap,
        "base_duration": base_duration,
        "shard_counts": list(shard_counts),
        "partitioners": list(partitioner_names),
        "isolation_levels": list(ISOLATION_SWEEP),
        "network": network.params(),
        "engines": engines,
        "write_skew": write_skew,
        "parity": parity,
    }


SPEC = registry.BenchmarkSpec(
    name="txn",
    help="charged distributed transactions (per-shard WAL + 2PC): commit "
    "latency and abort rate vs cut ratio under SI and SSI (Figure 13)",
    run=run_txn_benchmark,
    format=format_txn_report,
    args=(
        registry.engines_arg("shard"),
        partitioners_arg("partitioning strategies to sweep (each changes the cut ratio)"),
        registry.arg(
            "--shards",
            "shard counts K to sweep (K=1 is the one-phase parity baseline)",
            kwarg="shard_counts",
            minimum=1,
        ),
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        registry.arg(
            "--transactions",
            "transactions per wave (each cell replays the same wave)",
            minimum=1,
        ),
        registry.arg(
            "--footprint",
            "hub-biased vertices each transaction reads (all but the "
            "last are also written)",
            minimum=1,
        ),
        registry.arg("--arrival-gap", "virtual-time gap between transaction arrivals", minimum=1),
        registry.arg(
            "--base-duration",
            "baseline commit-window width before per-remote-shard "
            "round-trip widening",
            minimum=0,
        ),
    ),
    baseline="BENCH_txn.json",
    report="benchmarks/reports/fig13_txn.txt",
    gated_on="identity; K=1 parity identical; SSI prevents / SI permits "
    "write skew; abort rate ≤ 0.25 and rising with cut",
    invariants=check_txn_invariants,
)
