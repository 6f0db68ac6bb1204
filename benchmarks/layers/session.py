"""The ``session-mix`` workload: MVCC sessions, scheduler, versions.

Three fast engines, eight *virtual-time* closed-loop clients (they are
iterators inside ``VirtualTimeScheduler``, not threads).  Every slice of
the tape runs four phases per engine:

``read-heavy`` / ``write-heavy``
    ``plan_client`` → ``client_stream`` → ``VirtualTimeScheduler.run()``.
    Per-op host time is taken by wrapping each ``ClientOp.run``; per-op
    simulated latency is the scheduler's own ``OpTrace.latency`` (queueing
    included).
``direct-replay``
    The read ops of the slice's read-heavy plan run straight on the engine:
    the denominator of ``concurrency.session_wall_ratio``.
``asof``
    Eight ``versions().commit()`` with a churn session between them, the
    as-of read tape at depth 1, 4 and 8 and live at head, one structural
    diff over the slice's chain, then ``depth-2`` retention (whose pin
    releases run the GC).
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.bench.workload import LoadedGraph, load_dataset_into
from repro.concurrency.driver import (
    MIXES,
    WRITE_KINDS,
    PlannedOp,
    RetryPolicy,
    client_stream,
    plan_client,
)
from repro.concurrency.scheduler import ClientOp, VirtualTimeScheduler, percentile
from repro.datasets import get_dataset
from repro.engines import create_engine
from repro.exceptions import GraphBenchError

from benchmarks.layers.harness import ROUNDS, Context, Recorder, Samples

ENGINES = ("nativelinked-1.9", "columnargraph-1.0", "documentgraph-2.8")
CLIENTS = 8
#: Conflict-aborted transactions retry with seeded exponential backoff; the
#: budget is deep enough that a give-up (a failed op) means something broke.
RETRY = RetryPolicy(max_retries=8, backoff_base=64)
DATASET = "yeast"
SCALE = 0.25
SMOKE_SCALE = 0.04
#: Frozen rate: transactions per client per phase per requested second.
TXNS_PER_SECOND = 150.0
VERSION_CHAIN = 8
ASOF_DEPTHS = (1, 4, 8)
#: Read ops replayed as-of each depth (and live at head).
ASOF_READS = 400
CHURN_OPS = 10


@dataclass
class SessionCell:
    engine_id: str
    engine: Any
    graph: Any
    loaded: LoadedGraph
    manager: Any
    catalog: Any
    #: ``[slice][phase] -> [client][txn][PlannedOp]``.
    plans: list[dict[str, list[list[list[PlannedOp]]]]] = field(default_factory=list)
    vertices: list[Any] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)


@dataclass
class SessionState:
    dataset: Any
    cells: list[SessionCell]
    timings: dict[str, float]
    txns: int
    ledger: dict[str, float] = field(default_factory=dict)
    commit_latencies: list[int] = field(default_factory=list)
    makespan: int = 0
    scheduled_ops: int = 0


def _normal(result: Any) -> Any:
    """Order-free, comparable form of a planned read op's result."""
    if hasattr(result, "properties"):
        return (result.id, result.label, sorted(result.properties.items(), key=repr))
    if isinstance(result, (list, set, tuple)):
        return sorted(result, key=repr)
    return result


def _timed_stream(stream: Iterator[ClientOp], sink: list[tuple[str, float]]) -> Iterator[ClientOp]:
    """Re-yield a client stream with every op's ``run`` timed into ``sink``."""
    clock = time.perf_counter
    for op in stream:
        def run(inner=op.run, kind=op.kind) -> Any:
            started = clock()
            try:
                return inner()
            finally:
                sink.append((kind, clock() - started))

        op.run = run
        yield op


class SessionWorkload:
    name = "session-mix"
    engines = ENGINES
    mutating = True

    # -- set-up ---------------------------------------------------------------

    def setup(self, ctx: Context) -> SessionState:
        started = time.perf_counter()
        dataset = get_dataset(DATASET, scale=SMOKE_SCALE if ctx.smoke else SCALE, seed=ctx.seed)
        generated = time.perf_counter()
        txns = ctx.scaled(TXNS_PER_SECOND, minimum=4, smoke=3)
        timings = {"generate_s": generated - started, "plan_s": 0.0}
        cells: list[SessionCell] = []
        for engine_id in self.engines:
            load_started = time.perf_counter()
            engine = create_engine(engine_id, durability="sync")
            graph = ctx.graph(engine)
            loaded = load_dataset_into(graph, dataset)
            manager = graph.transactions()
            catalog = ctx.traced_methods(
                graph.versions(), ["commit", "view", "diff", "apply_retention"], "versions"
            )
            cell = SessionCell(
                engine_id, engine, graph, loaded, manager, catalog,
                vertices=list(loaded.vertex_map.values()),
                labels=sorted(dataset.edge_labels()) or ["edge"],
            )
            timings[f"load_s.{engine_id}"] = time.perf_counter() - load_started
            plan_started = time.perf_counter()
            for index in range(ROUNDS):
                cell.plans.append({
                    mix: [
                        plan_client(loaded, MIXES[mix], client, txns, ctx.seed * 31 + index)
                        for client in range(CLIENTS)
                    ]
                    for mix in ("read-heavy", "write-heavy")
                })
            timings["plan_s"] += time.perf_counter() - plan_started
            cells.append(cell)
        state = SessionState(dataset, cells, timings, txns)
        self._warm_up(state, ctx)
        return state

    def _warm_up(self, state: SessionState, ctx: Context) -> None:
        """One tiny unmeasured read-heavy wave per engine (5 % of a slice)."""
        txns = max(1, state.txns // 20)
        for cell in state.cells:
            streams = [
                client_stream(
                    cell.manager,
                    plan_client(cell.loaded, MIXES["read-heavy"], client, txns, ctx.seed + 977),
                    retry=RETRY,
                    backoff_rng=random.Random(client),
                )
                for client in range(CLIENTS)
            ]
            VirtualTimeScheduler(cell.graph, cell.manager, streams).run()

    def prepare_checks(self, state: SessionState) -> None:
        """Nothing to precompute: every check compares the program to itself."""

    # -- one slice ------------------------------------------------------------

    def run_round(self, state: SessionState, round_index: int, checked: bool,
                  rec: Recorder, ctx: Context) -> None:
        del checked  # every slice is new work: always booked and checked
        for cell in state.cells:
            for mix in ("read-heavy", "write-heavy"):
                self._scheduled_phase(state, cell, mix, round_index, rec, ctx)
            self._direct_replay(cell, round_index, rec)
            self._asof_phase(state, cell, round_index, rec, ctx)

    def _scheduled_phase(self, state: SessionState, cell: SessionCell, mix: str,
                         round_index: int, rec: Recorder, ctx: Context) -> None:
        sink: list[tuple[str, float]] = []
        seed = ctx.seed * 2_147_483_629 + round_index * 104_729 + zlib.crc32(mix.encode())
        streams = [
            _timed_stream(
                client_stream(
                    cell.manager, cell.plans[round_index][mix][client], retry=RETRY,
                    backoff_rng=random.Random(seed + client * 13),
                ),
                sink,
            )
            for client in range(CLIENTS)
        ]
        stats = cell.manager.stats
        giveups, failures = stats.giveups, stats.commit_failures
        result = VirtualTimeScheduler(cell.graph, cell.manager, streams).run()
        if len(sink) != len(result.traces):
            rec.fail(f"{cell.engine_id}/{mix}: {len(sink)} timed ops, {len(result.traces)} traces")
            return
        samples = Samples()
        for (kind, seconds), trace in zip(sink, result.traces):
            samples.add(f"session.{kind}", seconds, trace.cost, trace.latency)
            if trace.error:
                rec.fail(f"{cell.engine_id}/{mix}: {trace.label} raised {trace.error}")
        samples.book(rec, round_index, cell.engine_id)
        rec.charge += result.background_cost
        lost = (stats.giveups - giveups) + (stats.commit_failures - failures)
        if lost:
            rec.fail(f"{cell.engine_id}/{mix}: {lost} transactions gave up or failed to apply", lost)
        state.commit_latencies.extend(samples.sim_latencies("session.commit"))
        state.makespan += result.makespan
        state.scheduled_ops += result.operations

    def _read_tape(self, cell: SessionCell, round_index: int, limit: int | None = None) -> list[PlannedOp]:
        tape = [
            op
            for client in cell.plans[round_index]["read-heavy"]
            for txn in client
            for op in txn
            if op.kind not in WRITE_KINDS
        ]
        return tape if limit is None else tape[:limit]

    def _run_reads(self, cell: SessionCell, tape: list[PlannedOp], graph: Any, cls: str,
                   round_index: int, rec: Recorder) -> list[Any]:
        """Replay planned read ops on ``graph`` (engine or as-of view), timed."""
        clock = time.perf_counter
        io_cost = cell.engine.io_cost
        seconds: list[float] = []
        charges: list[int] = []
        results: list[Any] = []
        before = io_cost()
        for op in tape:
            started = clock()
            try:
                result = op.run(graph)
                stopped = clock()
            except GraphBenchError as error:
                stopped = clock()
                result = None
                rec.fail(f"{cell.engine_id}/{cls}: {op.kind} raised {type(error).__name__}")
            seconds.append(stopped - started)
            after = io_cost()
            charges.append(after - before)
            before = after
            results.append(_normal(result))
        rec.time_ops(round_index, cell.engine_id, cls, seconds)
        rec.charge_ops(cell.engine_id, cls, charges)
        return results

    def _direct_replay(self, cell: SessionCell, round_index: int, rec: Recorder) -> None:
        self._run_reads(cell, self._read_tape(cell, round_index), cell.graph,
                        "direct.read", round_index, rec)

    def _churn(self, cell: SessionCell, rng: random.Random, step: int) -> None:
        """One write session between two version commits (no deletions: an
        id freed and re-issued inside one commit is the documented blind
        spot of the version store, and this phase measures, not probes)."""
        session = cell.manager.begin()
        graph = session.graph
        for position in range(CHURN_OPS):
            roll = rng.randrange(10)
            if roll < 6:
                graph.set_vertex_property(rng.choice(cell.vertices), "rank", rng.randrange(1000))
            elif roll < 9:
                graph.add_edge(rng.choice(cell.vertices), rng.choice(cell.vertices),
                               rng.choice(cell.labels))
            else:
                graph.add_vertex({"name": f"churn-{step}.{position}"}, label="churn")
        session.commit()

    def _asof_phase(self, state: SessionState, cell: SessionCell, round_index: int,
                    rec: Recorder, ctx: Context) -> None:
        clock = time.perf_counter
        io_cost = cell.engine.io_cost
        rng = random.Random(ctx.seed * 7_919 + round_index * 31 + zlib.crc32(cell.engine_id.encode()))
        tape = self._read_tape(cell, round_index, ASOF_READS)
        catalog = cell.catalog
        commits: list[Any] = []
        recorded: dict[int, list[Any]] = {}
        for step in range(1, VERSION_CHAIN + 1):
            before = io_cost() + catalog.refs.charge
            started = clock()
            self._churn(cell, rng, round_index * VERSION_CHAIN + step)
            churned = clock()
            commits.append(catalog.commit(message=f"slice {round_index} step {step}"))
            sealed = clock()
            charge = io_cost() + catalog.refs.charge - before
            rec.time_ops(round_index, cell.engine_id, "version.churn", [churned - started])
            rec.time_ops(round_index, cell.engine_id, "version.commit", [sealed - churned])
            rec.charge_ops(cell.engine_id, "version.churn", [charge])
            rec.charge_ops(cell.engine_id, "version.commit", [0])
            depth = VERSION_CHAIN - step + 1
            if depth in ASOF_DEPTHS and depth > 1:
                # Untimed oracle: what the tape answers while this commit is head.
                recorded[depth] = [_normal(op.run(cell.graph)) for op in tape]
        recorded[1] = self._run_reads(cell, tape, cell.graph, "asof.head", round_index, rec)
        for depth in ASOF_DEPTHS:
            view = catalog.view(commits[-depth].id)
            answers = self._run_reads(cell, tape, view, f"asof.d{depth}", round_index, rec)
            wrong = sum(1 for got, want in zip(answers, recorded[depth]) if got != want)
            if wrong:
                rec.fail(f"{cell.engine_id}: {wrong} as-of reads at depth {depth} differ "
                         "from the live run at that commit", wrong)

        before = io_cost()
        started = clock()
        diff = catalog.diff(commits[0].id, "HEAD")
        stopped = clock()
        rec.time_ops(round_index, cell.engine_id, "version.diff", [stopped - started])
        rec.charge_ops(cell.engine_id, "version.diff", [diff.walk_charge + io_cost() - before])

        reclaimed = _reclaimed(cell)
        started = clock()
        catalog.apply_retention("depth-2")
        stopped = clock()
        rec.time_ops(round_index, cell.engine_id, "version.retention", [stopped - started])
        rec.charge_ops(cell.engine_id, "version.retention", [0])
        state.ledger["versions.gc_reclaimed_after_retention"] = (
            state.ledger.get("versions.gc_reclaimed_after_retention", 0.0)
            + _reclaimed(cell) - reclaimed
        )

    # -- after the last slice --------------------------------------------------

    def live_engines(self, state: SessionState) -> list[Any]:
        return [cell.engine for cell in state.cells]

    def finish(self, state: SessionState, rec: Recorder, ctx: Context) -> dict[str, float]:
        stats = [cell.manager.stats for cell in state.cells]
        commits = sum(s.commits for s in stats)
        aborts = sum(s.conflict_aborts for s in stats)
        failures = sum(s.commit_failures for s in stats)
        ledger = dict(state.ledger)
        ledger.update({
            "concurrency.commits": commits,
            "concurrency.conflict_aborts": aborts,
            "concurrency.retries": sum(s.retries for s in stats),
            "concurrency.giveups": sum(s.giveups for s in stats),
            "concurrency.commit_success_ratio": commits / max(1, commits + aborts + failures),
            "concurrency.gc_reclaimed": sum(_reclaimed(cell) for cell in state.cells),
            "concurrency.retained_entries_end": sum(
                cell.manager.store.retained_entries() for cell in state.cells
            ),
            "concurrency.sim_commit_p99_charge": percentile(state.commit_latencies, 99),
            "concurrency.sim_ops_per_kcharge": state.scheduled_ops * 1000 / max(1, state.makespan),
            "versions.retained_commits": sum(
                len(cell.catalog.retained_commits()) for cell in state.cells
            ),
        })
        return {name: float(value) for name, value in ledger.items()}


def _reclaimed(cell: SessionCell) -> int:
    snapshot = cell.manager.store.gc_snapshot()
    return sum(value for key, value in snapshot.items() if key.startswith("gc_reclaimed"))
