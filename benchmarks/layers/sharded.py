"""The ``sharded`` workload: partition, txn, replication, faults.

Two engines (``nativelinked-1.9`` and ``triplegraph-2.1``), K = 4 shards,
hash partitioner — the maximum cut, so every distributed mechanism is
exercised.  Per engine the set-up builds three deployments off one loaded
source engine: a chaos deployment (whose shards the fault-free BSP executor
shares), a transactional one, and a replicated read-scale one.  Every slice
of the tape runs four phases per engine:

``bsp``
    BFS depth 3, 1-hop neighbourhoods and shortest paths through
    ``DistributedExecutor``; distances checked against ``direct_bfs`` on
    the unsharded source engine.
``2pc``
    A hub-biased transaction wave, half SI half SSI, in windows of four
    overlapping transactions with a cross-shard ``add_edge`` each, through
    ``DistributedSessionManager``.  A transaction that loses a conflict is
    retried alone straight away, so every planned transaction commits and
    aborts show as retries, not failures.  The last slice ends with one
    scripted participant crash-after-vote and ``recover()``.
``replica-read``
    ``ReadScaleDeployment``, R = 2, cache 64: a hot set of 32 (fits the
    cache) and a cold set of up to 512 (does not), writes interleaved.
``chaos``
    The first tenth of the slice's ``bsp`` tape under a seeded rate-30 ``FaultPlan`` with the
    adaptive retry policy.  ``exact`` answers must equal the fault-free
    phase in result and base charges.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.bench.workload import build_adjacency, load_dataset_into, reachable_within
from repro.concurrency.scheduler import percentile
from repro.datasets import get_dataset
from repro.engines import create_engine
from repro.exceptions import GraphBenchError, SerializationFailureError, WriteConflictError
from repro.faults import (
    PARTICIPANT_CRASH_AFTER_VOTE,
    SNAPSHOT_LOSS,
    FaultPlan,
    TxnFaultEvent,
    TxnFaultPlan,
    build_chaos,
)
from repro.faults.plan import DEFAULT_WEIGHTS
from repro.partition import (
    DistributedExecutor,
    NetworkCostModel,
    build_distributed,
    direct_bfs,
    direct_shortest_path,
    partition_dataset,
)
from repro.replication import build_readscale
from repro.txn import DistributedSessionManager

from benchmarks.layers.harness import ROUNDS, Context, Recorder, Samples

ENGINES = ("nativelinked-1.9", "triplegraph-2.1")
DATASET = "yeast"
SCALE = 0.25
SMOKE_SCALE = 0.05
SHARDS = 4
BFS_DEPTH = 3
REPLICAS = 2
CACHE_CAPACITY = 64
HOT_SET = 32
COLD_SET = 512
STALENESS_BOUND = 4096
FAULT_RATE = 30
#: Overlapping transactions per window (what manufactures conflicts).
TXN_WINDOW = 4
#: Frozen rates per requested second (÷ rounds gives one slice).
# Sized so the pooled percentiles sit on plateaus, not on cliffs.  Op counts
# are deterministic: transactions are ~80 % of the ops, and every op whose
# simulated latency exceeds a two-phase commit's (BSP searches, chaos
# queries) adds up to under 4 % — so the median *and* the simulated p95 are
# both two-phase commits, whose charge barely depends on the seed, while
# the BSP and chaos phases still take about a quarter of the wall.
BSP_QUERIES_PER_SECOND = 45.0
TXNS_PER_SECOND = 900.0
REPLICA_OPS_PER_SECOND = 180.0
#: Share of a slice's BSP tape the chaos phase replays: recoveries rebuild
#: whole shard engines, so a full replay would be most of the wall.
CHAOS_SHARE = 0.1

#: The fail-fast path needs a lost snapshot; the benchmark wants workloads
#: on which no operation fails, so the seeded plan keeps every fault kind
#: except that one (stale answers stay possible and are counted).
_CHAOS_WEIGHTS = {**DEFAULT_WEIGHTS, SNAPSHOT_LOSS: 0.0}


@dataclass
class ShardedCell:
    engine_id: str
    source: Any
    vertex_map: dict[Any, Any]
    bsp: DistributedExecutor
    chaos: Any
    txn_executor: DistributedExecutor
    managers: dict[str, DistributedSessionManager]
    readscale: Any
    #: Expected ``balance`` per vertex: one per acknowledged increment.
    balances: dict[Any, int] = field(default_factory=dict)
    #: Acknowledged cross-shard edges.
    cut_edges: list[tuple[Any, Any]] = field(default_factory=list)
    #: ``(slice, query index) -> (distances, compute charge, network charge)``.
    fault_free: dict[tuple[int, int], tuple[dict[Any, int], int, int]] = field(default_factory=dict)
    stamps: dict[Any, list[tuple[int, int]]] = field(default_factory=dict)
    next_stamp: int = 0


@dataclass
class ShardedState:
    dataset: Any
    plan: Any
    cells: list[ShardedCell]
    timings: dict[str, float]
    #: ``[slice] -> {"bsp": [...], "txn": [...], "replica": [...]}``.
    tapes: list[dict[str, list[Any]]]
    #: ``(slice, query index) -> external distances`` from the unsharded engine.
    expected: dict[tuple[int, int], Any] = field(default_factory=dict)
    sums: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value


def _plan_tapes(dataset: Any, plan: Any, ctx: Context) -> list[dict[str, list[Any]]]:
    rng = random.Random(ctx.seed * 1_000_003 + zlib.crc32(b"sharded"))
    vertex_ids = [vertex["id"] for vertex in dataset.vertices]
    adjacency = build_adjacency(dataset.edges)

    def hub(candidates: int = 8) -> Any:
        drawn = [rng.choice(vertex_ids) for _ in range(candidates)]
        return max(drawn, key=lambda vid: (len(adjacency.get(vid, ())), repr(vid)))

    by_degree = sorted(vertex_ids, key=lambda vid: (-len(adjacency.get(vid, ())), repr(vid)))
    hot = by_degree[:min(HOT_SET, len(vertex_ids))]
    cold = by_degree[len(hot):len(hot) + COLD_SET] or hot

    tapes = []
    for _slice in range(ROUNDS):
        bsp: list[dict[str, Any]] = []
        for index in range(ctx.scaled(BSP_QUERIES_PER_SECOND, minimum=4, smoke=4)):
            source = hub()
            if index % 8 == 7:
                reachable = reachable_within(adjacency, source)
                target = rng.choice(reachable) if reachable else rng.choice(vertex_ids)
                bsp.append({"kind": "path", "source": source, "target": target})
            elif index % 8 == 3:
                bsp.append({"kind": "hood", "source": source, "depth": 1})
            else:
                bsp.append({"kind": "bfs", "source": source, "depth": BFS_DEPTH})
        txns = []
        for index in range(ctx.scaled(TXNS_PER_SECOND, minimum=TXN_WINDOW, smoke=TXN_WINDOW)):
            footprint: list[Any] = []
            while len(footprint) < min(3, len(vertex_ids)):
                candidate = hub(6)
                if candidate not in footprint:
                    footprint.append(candidate)
            rng.shuffle(footprint)
            txns.append({"vertices": footprint, "isolation": "ssi" if index % 2 else "si"})
        replica = []
        for _ in range(ctx.scaled(REPLICA_OPS_PER_SECOND, minimum=12, smoke=12)):
            roll = rng.random()
            vid = rng.choice(hot) if rng.random() < 0.7 else rng.choice(cold)
            if roll < 0.45:
                replica.append(("record", vid))
            elif roll < 0.70:
                replica.append(("adjacency", vid))
            elif roll < 0.88:
                replica.append(("foaf", vid))
            else:
                replica.append(("write", rng.choice(hot)))
        tapes.append({"bsp": bsp, "txn": txns, "replica": replica})
    return tapes


class ShardedWorkload:
    name = "sharded"
    engines = ENGINES
    mutating = True

    # -- set-up ---------------------------------------------------------------

    def setup(self, ctx: Context) -> ShardedState:
        started = time.perf_counter()
        dataset = get_dataset(DATASET, scale=SMOKE_SCALE if ctx.smoke else SCALE, seed=ctx.seed)
        generated = time.perf_counter()
        plan = partition_dataset(dataset, SHARDS, "hash")
        tapes = _plan_tapes(dataset, plan, ctx)
        planned = time.perf_counter()
        timings = {"generate_s": generated - started, "plan_s": planned - generated, "build_s": 0.0}
        network = NetworkCostModel()
        cells = []
        for engine_id in self.engines:
            load_started = time.perf_counter()
            source = create_engine(engine_id)
            loaded = load_dataset_into(source, dataset)
            timings[f"load_s.{engine_id}"] = time.perf_counter() - load_started

            def factory(engine_id: str = engine_id) -> Any:
                return ctx.graph(create_engine(engine_id))

            build_started = time.perf_counter()
            chaos, _report = build_chaos(
                source, loaded.vertex_map, plan, factory,
                fault_plan=FaultPlan.seeded(ctx.seed, FAULT_RATE, weights=_CHAOS_WEIGHTS),
                network=network, retry_policy="adaptive",
            )
            bsp = DistributedExecutor(chaos.shards, chaos.owner, network=network, plan=plan)
            txn_executor, _report = build_distributed(
                source, loaded.vertex_map, plan, factory, network=network
            )
            managers = {
                isolation: DistributedSessionManager(
                    txn_executor.shards, txn_executor.owner, network=network, isolation=isolation
                )
                for isolation in ("si", "ssi")
            }
            readscale, _report = build_readscale(
                source, loaded.vertex_map, plan, factory, replicas=REPLICAS,
                cache_capacity=CACHE_CAPACITY, staleness_bound=STALENESS_BOUND, network=network,
            )
            timings["build_s"] += time.perf_counter() - build_started
            queries = ["bfs", "neighbourhood", "shortest_path"]
            ctx.traced_methods(bsp, queries, "partition")
            ctx.traced_methods(chaos, queries, "faults")
            for manager in managers.values():
                ctx.traced_methods(manager, ["begin", "commit", "recover"], "txn")
            ctx.traced_methods(
                readscale,
                ["read_record", "adjacency", "foaf", "set_vertex_property", "catch_up"],
                "replication",
            )
            cells.append(ShardedCell(
                engine_id, source, loaded.vertex_map, bsp, chaos, txn_executor, managers, readscale
            ))
        state = ShardedState(dataset, plan, cells, timings, tapes)
        self._warm_up(state)
        return state

    def _warm_up(self, state: ShardedState) -> None:
        """Touch every shard once and fill the replica caches' hot entries."""
        tape = state.tapes[0]
        for cell in state.cells:
            for query in tape["bsp"][:max(1, len(tape["bsp"]) // 20)]:
                cell.bsp.bfs(query["source"], 1)
            for kind, vid in tape["replica"][:max(1, len(tape["replica"]) // 20)]:
                if kind != "write":
                    cell.readscale.read_record(vid)

    def live_engines(self, state: ShardedState) -> list[Any]:
        """Every shard engine, in a stable slot order (recovery swaps some)."""
        engines = []
        for cell in state.cells:
            for executor in (cell.bsp, cell.txn_executor):
                engines.extend(shard.engine for shard in executor.shards)
            engines.extend(shard.runtime.engine for shard in cell.readscale.shards)
        return engines

    def prepare_checks(self, state: ShardedState) -> None:
        """Answer every BSP query on the unsharded source engine."""
        cell = state.cells[0]
        reverse = {internal: external for external, internal in cell.vertex_map.items()}
        for slice_index, tape in enumerate(state.tapes):
            for index, query in enumerate(tape["bsp"]):
                source = cell.vertex_map[query["source"]]
                if query["kind"] == "path":
                    answer: Any = direct_shortest_path(
                        cell.source, source, cell.vertex_map[query["target"]]
                    )
                else:
                    distances = direct_bfs(cell.source, source, query["depth"])
                    answer = {reverse[vertex]: hops for vertex, hops in distances.items()}
                state.expected[(slice_index, index)] = answer

    # -- one slice ------------------------------------------------------------

    def run_round(self, state: ShardedState, round_index: int, checked: bool,
                  rec: Recorder, ctx: Context) -> None:
        del checked  # every slice is new work: always booked and checked
        tape = state.tapes[round_index]
        for cell in state.cells:
            self._query_phase(state, cell, cell.bsp, "bsp", tape["bsp"], round_index, rec)
            self._txn_phase(state, cell, tape["txn"], round_index, rec)
            if round_index == ROUNDS - 1:
                self._crash_and_recover(state, cell, round_index, rec)
            self._replica_phase(state, cell, tape["replica"], round_index, rec)
            chaos_tape = tape["bsp"][:max(1, round(len(tape["bsp"]) * CHAOS_SHARE))]
            self._query_phase(state, cell, cell.chaos, "chaos", chaos_tape, round_index, rec)

    def _query_phase(self, state: ShardedState, cell: ShardedCell, executor: Any, phase: str,
                     tape: list[dict[str, Any]], round_index: int, rec: Recorder) -> None:
        clock = time.perf_counter
        samples = Samples()
        for index, query in enumerate(tape):
            started = clock()
            try:
                if query["kind"] == "path":
                    result = executor.shortest_path(query["source"], query["target"])
                elif query["kind"] == "hood":
                    result = executor.neighbourhood(query["source"], query["depth"])
                else:
                    result = executor.bfs(query["source"], query["depth"])
                stopped = clock()
            except GraphBenchError as error:
                rec.time_ops(round_index, cell.engine_id, f"{phase}.{query['kind']}", [clock() - started])
                rec.fail(f"{cell.engine_id}/{phase}: {query['kind']} raised {type(error).__name__}")
                continue
            charge = result.total_charge if phase == "bsp" else result.grand_total_charge
            samples.add(f"{phase}.{query['kind']}", stopped - started, charge, result.makespan_charge)
            key = (round_index, index)
            if phase == "bsp":
                cell.fault_free[key] = (result.distances, result.compute_charge, result.network_charge)
                self._check_bsp(state, cell, query, key, result, rec)
                for name in ("supersteps", "messages", "network_charge", "compute_charge",
                             "makespan_charge"):
                    state.add(f"bsp.{name}", getattr(result, name))
                state.add("bsp.queries", 1)
            else:
                self._check_chaos(state, cell, key, result, rec)
        samples.book(rec, round_index, cell.engine_id)

    def _check_bsp(self, state: ShardedState, cell: ShardedCell, query: dict[str, Any],
                   key: tuple[int, int], result: Any, rec: Recorder) -> None:
        expected = state.expected.get(key)
        if query["kind"] == "path":
            got: Any = result.distances.get(query["target"], -1)
        else:
            got = result.distances
        if expected is not None and got != expected:
            rec.fail(f"{cell.engine_id}/bsp: {query['kind']} from {query['source']!r} "
                     "differs from direct execution on the unsharded engine")

    def _check_chaos(self, state: ShardedState, cell: ShardedCell, key: tuple[int, int],
                     result: Any, rec: Recorder) -> None:
        state.add("chaos.queries", 1)
        state.add("chaos.exact", result.label == "exact")
        state.add("chaos.injected", result.crashes + result.stalls + result.messages_lost
                  + result.messages_duplicated + result.messages_reordered)
        state.add("chaos.retries", result.restarts)
        state.add("chaos.overhead", result.overhead_charge)
        state.add("chaos.base", result.total_charge)
        if result.label != "exact":
            return
        distances, compute, network = cell.fault_free[key]
        if (result.distances, result.compute_charge, result.network_charge) != (
            distances, compute, network
        ):
            rec.fail(f"{cell.engine_id}/chaos: query {key} is labelled exact but differs "
                     "from the fault-free phase in result or base charges")

    # -- 2PC ------------------------------------------------------------------

    def _txn_charge(self, cell: ShardedCell) -> int:
        total = sum(shard.engine.io_cost() for shard in cell.txn_executor.shards)
        for manager in cell.managers.values():
            total += manager.stats.network.charge + manager.decision_log.metrics.logical_io
            total += sum(shard.journal_charge() for shard in manager.txn_shards)
        return total

    def _attempt(self, cell: ShardedCell, plan: dict[str, Any], tag: str) -> Any:
        """Begin one transaction and buffer its reads and writes."""
        txn = cell.managers[plan["isolation"]].begin()
        vertices = plan["vertices"]
        for position, vertex in enumerate(vertices):
            balance = txn.vertex_property(vertex, "balance") or 0
            # The last footprint vertex is only read: a concurrent write to
            # it is an rw-antidependency (SSI aborts, SI does not).
            if position == len(vertices) - 1 and len(vertices) > 1:
                continue
            txn.set_vertex_property(vertex, "balance", balance + 1)
        if len(vertices) > 1:
            txn.add_edge(vertices[0], vertices[1], "bench", {"tag": tag})
        return txn

    def _acknowledge(self, cell: ShardedCell, plan: dict[str, Any]) -> None:
        vertices = plan["vertices"]
        for vertex in vertices[:-1] if len(vertices) > 1 else vertices:
            cell.balances[vertex] = cell.balances.get(vertex, 0) + 1
        if len(vertices) > 1:
            owner = cell.txn_executor.owner
            if owner[vertices[0]] != owner[vertices[1]]:
                cell.cut_edges.append((vertices[0], vertices[1]))

    def _txn_phase(self, state: ShardedState, cell: ShardedCell, tape: list[dict[str, Any]],
                   round_index: int, rec: Recorder) -> None:
        clock = time.perf_counter
        samples = Samples()
        for base in range(0, len(tape), TXN_WINDOW):
            window = tape[base:base + TXN_WINDOW]
            open_txns = []
            for offset, plan in enumerate(window):
                before = self._txn_charge(cell)
                started = clock()
                txn = self._attempt(cell, plan, f"{round_index}.{base + offset}")
                seconds = clock() - started
                open_txns.append([plan, txn, seconds, self._txn_charge(cell) - before])
            for plan, txn, seconds, charge in open_txns:
                before = self._txn_charge(cell)
                started = clock()
                try:
                    try:
                        result = txn.commit()
                    except (WriteConflictError, SerializationFailureError):
                        # Lost the race: run again, alone, on a fresh snapshot.
                        result = self._attempt(cell, plan, "retry").commit()
                    seconds += clock() - started
                except GraphBenchError as error:
                    rec.time_ops(round_index, cell.engine_id, f"txn.{plan['isolation']}",
                                 [seconds + clock() - started])
                    rec.fail(f"{cell.engine_id}/2pc: commit raised {type(error).__name__}: {error}")
                    continue
                charge += self._txn_charge(cell) - before
                self._acknowledge(cell, plan)
                samples.add(f"txn.{plan['isolation']}", seconds, charge,
                            result.total_latency if result.mode == "2pc" else None)
        samples.book(rec, round_index, cell.engine_id)

    def _crash_and_recover(self, state: ShardedState, cell: ShardedCell, round_index: int,
                           rec: Recorder) -> None:
        """One participant votes yes and dies; ``recover()`` must finish its commit."""
        manager = cell.managers["si"]
        owner = cell.txn_executor.owner
        first = next(iter(owner))
        second = next((vertex for vertex in owner if owner[vertex] != owner[first]), None)
        if second is None:
            return
        clock = time.perf_counter
        before = self._txn_charge(cell)
        started = clock()
        manager.fault_plan = TxnFaultPlan.explicit(
            TxnFaultEvent(PARTICIPANT_CRASH_AFTER_VOTE, txn=None, shard=owner[second])
        )
        try:
            txn = manager.begin()
            for vertex in (first, second):
                txn.set_vertex_property(vertex, "balance", (txn.vertex_property(vertex, "balance") or 0) + 1)
            txn.add_edge(first, second, "bench", {"tag": "crash"})
            result = txn.commit()
            committed = clock()
            manager.fault_plan = TxnFaultPlan()
            manager.recover()
        except GraphBenchError as error:
            rec.time_ops(round_index, cell.engine_id, "txn.recover", [clock() - started])
            rec.fail(f"{cell.engine_id}/2pc: crash scenario raised {type(error).__name__}: {error}")
            return
        finally:
            manager.fault_plan = TxnFaultPlan()
        recovered = clock()
        if not result.in_doubt_shards:
            rec.fail(f"{cell.engine_id}/2pc: the scripted crash-after-vote did not fire")
        for vertex in (first, second):
            cell.balances[vertex] = cell.balances.get(vertex, 0) + 1
        cell.cut_edges.append((first, second))
        state.add("txn.recover_s", recovered - committed)
        rec.time_ops(round_index, cell.engine_id, "txn.recover", [recovered - started])
        rec.charge_ops(cell.engine_id, "txn.recover", [self._txn_charge(cell) - before])

    def _check_durability(self, cell: ShardedCell, rec: Recorder) -> None:
        """Acknowledged commits readable, unacknowledged attempts absent."""
        reader = cell.managers["si"].begin()
        wrong = sum(
            1 for vertex, expected in cell.balances.items()
            if (reader.vertex_property(vertex, "balance") or 0) != expected
        )
        reader.commit()
        if wrong:
            rec.fail(f"{cell.engine_id}/2pc: {wrong} balances differ from the acknowledged "
                     "commits after recover()", wrong)
        owner = cell.txn_executor.owner
        shards = cell.txn_executor.shards
        for source, target in cell.cut_edges:
            for local, remote in ((source, target), (target, source)):
                if (remote, owner[remote]) not in shards[owner[local]].remote.get(local, ()):
                    rec.fail(f"{cell.engine_id}/2pc: acknowledged cut edge {source!r}->{target!r} "
                             f"is missing on shard {owner[local]}")

    # -- replicas -------------------------------------------------------------

    def _replica_phase(self, state: ShardedState, cell: ShardedCell, tape: list[tuple[str, Any]],
                       round_index: int, rec: Recorder) -> None:
        clock = time.perf_counter
        deployment = cell.readscale
        ticks = deployment.clock
        samples = Samples()
        for kind, vid in tape:
            before = ticks.now
            started = clock()
            try:
                if kind == "record":
                    outcome = deployment.read_record(vid)
                elif kind == "adjacency":
                    outcome = deployment.adjacency(vid)
                elif kind == "foaf":
                    outcome = deployment.foaf(vid)["first_hop"]
                else:
                    receipt = deployment.set_vertex_property(vid, "stamp", cell.next_stamp)
                stopped = clock()
            except GraphBenchError as error:
                rec.time_ops(round_index, cell.engine_id, "replica.read", [clock() - started])
                rec.fail(f"{cell.engine_id}/replica-read: {kind} raised {type(error).__name__}")
                continue
            cls = "replica.write" if kind == "write" else "replica.read"
            samples.add(cls, stopped - started, ticks.now - before)
            if kind == "write":
                cell.stamps.setdefault(vid, []).append((receipt.commit_ts, cell.next_stamp))
                cell.next_stamp += 1
                continue
            if outcome.served_by == "replica" and outcome.staleness > STALENESS_BOUND:
                rec.fail(f"{cell.engine_id}/replica-read: served {outcome.staleness} charge "
                         f"units stale, bound is {STALENESS_BOUND}")
            if kind == "record":
                self._check_stamp(cell, vid, outcome, rec)
        before = ticks.now
        started = clock()
        deployment.catch_up()
        samples.add("replica.write", clock() - started, ticks.now - before)
        samples.book(rec, round_index, cell.engine_id)

    @staticmethod
    def _check_stamp(cell: ShardedCell, vid: Any, outcome: Any, rec: Recorder) -> None:
        """The served record must be the newest write at or below its snapshot."""
        expected = None
        for commit_ts, stamp in cell.stamps.get(vid, ()):
            if commit_ts > outcome.snapshot_ts:
                break
            expected = stamp
        served = dict(outcome.value[1]).get("stamp")
        if served != expected:
            rec.fail(f"{cell.engine_id}/replica-read: {vid!r} served stamp {served!r} at "
                     f"snapshot {outcome.snapshot_ts}, history says {expected!r}")

    # -- after the last slice --------------------------------------------------

    def finish(self, state: ShardedState, rec: Recorder, ctx: Context) -> dict[str, float]:
        sums = state.sums
        staleness: list[int] = []
        hits = lookups = invalidations = log_charge = fallbacks = served = reads = 0
        stats = []
        journal = 0
        for cell in state.cells:
            self._check_durability(cell, rec)
            ledger = cell.readscale.ledger()
            clusters = ledger["clusters"]
            served += clusters["reads_replica"]
            reads += clusters["reads_replica"] + clusters["reads_primary"]
            fallbacks += clusters["fallbacks"]
            log_charge += clusters["log_append_charge"]
            hits += ledger["hot_cache"]["hits"]
            lookups += ledger["hot_cache"]["hits"] + ledger["hot_cache"]["misses"]
            invalidations += ledger["hot_cache"]["invalidations"] + ledger["ghost_cache"]["invalidations"]
            staleness.extend(ledger["staleness_samples"])
            for manager in cell.managers.values():
                stats.append(manager.stats)
                journal += manager.decision_log.metrics.logical_io
                journal += sum(shard.journal_charge() for shard in manager.txn_shards)
        committed = sum(s.committed for s in stats)
        queries = max(1.0, sums.get("bsp.queries", 0.0))
        chaos_queries = max(1.0, sums.get("chaos.queries", 0.0))
        return {
            "partition.build_s": state.timings["build_s"],
            "partition.cut_ratio": state.plan.cut_ratio,
            "partition.supersteps": sums.get("bsp.supersteps", 0.0),
            "partition.messages": sums.get("bsp.messages", 0.0),
            "partition.network_charge": sums.get("bsp.network_charge", 0.0),
            "partition.compute_charge": sums.get("bsp.compute_charge", 0.0),
            "partition.sim_makespan_per_query": sums.get("bsp.makespan_charge", 0.0) / queries,
            "txn.committed": float(committed),
            "txn.two_phase_share": sum(s.two_phase for s in stats) / max(1, committed),
            "txn.conflict_aborts": float(sum(s.conflict_aborts for s in stats)),
            "txn.ssi_aborts": float(sum(s.ssi_aborts for s in stats)),
            "txn.journal_charge": float(journal),
            "txn.network_charge": float(sum(s.network.charge for s in stats)),
            "txn.recover_s": sums.get("txn.recover_s", 0.0),
            "replication.replica_served_share": served / max(1, reads),
            "replication.primary_fallbacks": float(fallbacks),
            "replication.cache_hit_ratio": hits / max(1, lookups),
            "replication.invalidations": float(invalidations),
            "replication.log_charge": float(log_charge),
            "replication.staleness_p95": float(percentile(staleness, 95)),
            "faults.injected": sums.get("chaos.injected", 0.0),
            "faults.retries": sums.get("chaos.retries", 0.0),
            "faults.overhead_charge_share": sums.get("chaos.overhead", 0.0)
            / max(1.0, sums.get("chaos.base", 0.0)),
            "faults.exact_share": sums.get("chaos.exact", 0.0) / chaos_queries,
        }
