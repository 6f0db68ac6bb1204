"""Reproducible multi-client workload driver for the concurrency bench.

Builds N per-client transaction streams from the same seeded-parameter
philosophy as :mod:`repro.bench.workload` — every random choice (operation
kinds, target vertices, property values, transaction sizes) is drawn at
*plan* time from a per-client ``random.Random`` seeded from the global
seed, so the resulting schedule is a pure function of
``(engine, dataset, mix, clients, txns, seed)``.  Write operations are
biased toward a small *hot set* of vertices, which is what produces
write-write conflicts under snapshot isolation once streams interleave.

Each engine is benchmarked under both durability modes: SYNC charges every
WAL append inside the committing client's latency, ASYNC defers them to
group flushes that the scheduler runs off the client path.  Comparing the
two commit-latency columns reproduces the paper's Section 6.4 observation
about ArangoDB's asynchronous WAL flattering client-side CUD latencies —
now under real multi-client contention instead of single-client runs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.bench import registry
from repro.bench.workload import LoadedGraph, load_dataset_into
from repro.concurrency.report import format_concurrency_report
from repro.concurrency.scheduler import ClientOp, ScheduleResult, VirtualTimeScheduler, percentile
from repro.concurrency.sessions import Session, SessionManager
from repro.engines import DEFAULT_ENGINES, create_engine
from repro.exceptions import BenchmarkError, TransactionError, WriteConflictError
from repro.model.elements import Direction
from repro.queries import query_by_id
from repro.storage.wal import DurabilityMode

#: Engines × durability modes benchmarked by default.
DURABILITY_MODES = tuple(mode.value for mode in DurabilityMode)

#: Number of hot vertices that write operations are biased toward.
HOT_SET_SIZE = 16

#: Fraction (percent) of write targets drawn from the hot set.
HOT_WRITE_PERCENT = 70

#: Default retry budget for conflict-aborted transactions.
DEFAULT_RETRIES = 2

#: Default backoff base, in charge units (doubles per attempt + jitter).
DEFAULT_BACKOFF = 64


@dataclass(frozen=True)
class RetryPolicy:
    """How a client reacts to a first-committer-wins conflict abort.

    The aborted transaction is re-planned onto a fresh session and its
    first operation re-enqueues at virtual-time + backoff, where backoff
    for attempt ``n`` (1-based) is ``backoff_base * 2**(n-1)`` plus a
    jitter drawn from the client's seeded generator — deterministic
    exponential backoff, bounded by ``max_retries`` attempts.  Retries are
    counted separately from aborts (an abort that retries is still an
    abort) and exhausted budgets count as ``giveups``.
    """

    max_retries: int = DEFAULT_RETRIES
    backoff_base: int = DEFAULT_BACKOFF

    def backoff_for(self, attempt: int, rng: random.Random) -> int:
        """Backoff before retry ``attempt`` (1-based), in charge units."""
        base = self.backoff_base * (2 ** (attempt - 1))
        jitter = rng.randrange(self.backoff_base) if self.backoff_base > 0 else 0
        return base + jitter


#: EWMA weight denominator: each observation contributes 1/SMOOTHING.
SMOOTHING = 4

#: Adaptive straggler threshold: a peer slower than ``ewma × factor`` is
#: presumed stalled.
STRAGGLER_FACTOR = 4

#: Retry-policy names accepted by the CLI and the chaos executor.
RETRY_POLICIES = ("fixed", "adaptive")


@dataclass
class AdaptiveRetryPolicy:
    """Latency-aware retry: waits scale with *observed* charge, not a constant.

    The fixed policy waits ``backoff_base × 2^(n-1)`` regardless of how fast
    the target actually is — on a lightly loaded shard that over-waits, on a
    heavy one it under-waits and burns its budget.  This policy keeps an
    integer EWMA of the observed per-attempt charge (each observation
    weighted ``1/SMOOTHING``) and derives both waits from it:

    * backoff before retry ``n`` = ``max(1, ewma // 2) × 2^(n-1)`` + seeded
      jitter of up to a quarter unit — proportional to how long work
      actually takes where the retry will run;
    * straggler timeout = ``ewma × STRAGGLER_FACTOR`` — a peer that has
      charged several multiples of typical is presumed stalled, instead of
      waiting out a worst-case constant.

    Until the first observation both fall back to the fixed policy's
    numbers.  All arithmetic is integer, so A/B runs stay byte-identical.
    """

    base: RetryPolicy = RetryPolicy()
    ewma: int = field(default=0, init=False)
    observations: int = field(default=0, init=False)

    def observe(self, charge: int) -> None:
        """Feed one observed per-attempt charge into the moving average."""
        if charge < 0:
            raise BenchmarkError(f"observed charge must be >= 0, got {charge}")
        if self.observations == 0:
            self.ewma = charge
        else:
            self.ewma = (self.ewma * (SMOOTHING - 1) + charge) // SMOOTHING
        self.observations += 1

    def backoff_for(self, attempt: int, rng: random.Random) -> int:
        """Backoff before retry ``attempt`` (1-based), in charge units."""
        if self.observations == 0 or self.ewma <= 0:
            return self.base.backoff_for(attempt, rng)
        unit = max(1, self.ewma // 2)
        jitter_span = max(1, unit // 4)
        return unit * (2 ** (attempt - 1)) + rng.randrange(jitter_span)

    def timeout(self, default: int) -> int:
        """Straggler-abandon threshold, in charge units."""
        if self.observations == 0 or self.ewma <= 0:
            return default
        return max(1, self.ewma * STRAGGLER_FACTOR)

    @property
    def max_retries(self) -> int:
        return self.base.max_retries


def make_retry_policy(
    name: str, base: RetryPolicy | None = None
) -> RetryPolicy | AdaptiveRetryPolicy:
    """Resolve a ``--retry-policy`` name into a policy instance."""
    base = base if base is not None else RetryPolicy()
    if name == "fixed":
        return base
    if name == "adaptive":
        return AdaptiveRetryPolicy(base=base)
    raise BenchmarkError(
        f"unknown retry policy {name!r}; expected one of {RETRY_POLICIES}"
    )


@dataclass(frozen=True)
class MixSpec:
    """A named operation mix: ``(op_kind, weight)`` pairs (weights sum to 100)."""

    name: str
    ops: tuple[tuple[str, int], ...]

    def choose(self, rng: random.Random) -> str:
        total = sum(weight for _kind, weight in self.ops)
        roll = rng.randrange(total)
        acc = 0
        for kind, weight in self.ops:
            acc += weight
            if roll < acc:
                return kind
        return self.ops[-1][0]  # pragma: no cover - weights always cover the roll


#: The three workload mixes from the issue: read-heavy 90/10, write-heavy
#: 50/50, and a traversal+CUD blend.
MIXES: dict[str, MixSpec] = {
    spec.name: spec
    for spec in (
        MixSpec(
            "read-heavy",
            (
                ("lookup", 40),
                ("out-neighbors", 25),
                ("in-neighbors", 15),
                ("edge-labels", 10),
                ("set-prop", 6),
                ("add-edge", 4),
            ),
        ),
        MixSpec(
            "write-heavy",
            (
                ("lookup", 20),
                ("out-neighbors", 20),
                ("in-neighbors", 10),
                ("set-prop", 25),
                ("add-edge", 15),
                ("remove-edge", 5),
                ("add-vertex", 5),
            ),
        ),
        MixSpec(
            "traversal-cud",
            (
                ("bfs", 10),
                ("out-neighbors", 20),
                ("lookup", 10),
                ("edge-labels", 10),
                ("set-prop", 20),
                ("add-edge", 15),
                ("remove-edge", 5),
                ("add-vertex", 10),
            ),
        ),
    )
}

#: Operation kinds that buffer writes (everything else is a read).
WRITE_KINDS = frozenset({"set-prop", "add-edge", "remove-edge", "add-vertex"})


@dataclass
class PlannedOp:
    """One operation with all random choices already bound."""

    kind: str
    run: Callable[[Any], Any]  # takes the session's VersionedGraph


def _plan_op(
    kind: str,
    rng: random.Random,
    vertices: list[Any],
    hot: list[Any],
    edges: list[Any],
    labels: list[str],
    client: int,
    serial: int,
) -> PlannedOp:
    """Bind one operation's parameters at plan time (deterministic)."""
    if kind == "lookup":
        vid = rng.choice(vertices)
        return PlannedOp(kind, lambda g: g.vertex(vid))
    if kind == "out-neighbors":
        vid = rng.choice(vertices)
        return PlannedOp(kind, lambda g: list(g.neighbors(vid, Direction.OUT)))
    if kind == "in-neighbors":
        vid = rng.choice(vertices)
        return PlannedOp(kind, lambda g: list(g.neighbors(vid, Direction.IN)))
    if kind == "edge-labels":
        vid = rng.choice(vertices)
        return PlannedOp(
            kind, lambda g: {g.edge_label(e) for e in g.edges_for(vid, Direction.BOTH)}
        )
    if kind == "bfs":
        vid = rng.choice(vertices)
        query = query_by_id("Q32")
        return PlannedOp(kind, lambda g: query(g, {"vertex": vid, "depth": 2}))
    if kind == "set-prop":
        pool = hot if rng.randrange(100) < HOT_WRITE_PERCENT else vertices
        vid = rng.choice(pool)
        key = f"hot_{rng.randrange(4)}"
        value = rng.randrange(10_000)
        return PlannedOp(kind, lambda g: g.set_vertex_property(vid, key, value))
    if kind == "add-edge":
        source = rng.choice(vertices)
        target = rng.choice(vertices)
        label = rng.choice(labels)
        return PlannedOp(kind, lambda g: g.add_edge(source, target, label))
    if kind == "remove-edge":
        eid = rng.choice(edges)
        return PlannedOp(
            kind, lambda g: g.remove_edge(eid) if g.edge_exists(eid) else None
        )
    if kind == "add-vertex":
        name = f"txn-c{client}-{serial}"
        score = rng.randrange(1_000)
        return PlannedOp(
            kind, lambda g: g.add_vertex({"bench_name": name, "bench_score": score}, label="bench")
        )
    raise BenchmarkError(f"unknown operation kind {kind!r}")


def plan_client(
    loaded: LoadedGraph,
    mix: MixSpec,
    client: int,
    txns: int,
    seed: int,
) -> list[list[PlannedOp]]:
    """Plan every transaction of one client (all randomness bound here)."""
    rng = random.Random(
        seed * 1_000_003 + client * 7_919 + zlib.crc32(mix.name.encode())
    )
    vertices = list(loaded.vertex_map.values())
    edges = list(loaded.edge_map.values())
    hot_rng = random.Random(seed)  # same hot set for every client: contention
    hot = hot_rng.sample(vertices, min(HOT_SET_SIZE, len(vertices)))
    labels = sorted(loaded.dataset.edge_labels()) or ["edge"]

    plans: list[list[PlannedOp]] = []
    serial = 0
    for _txn in range(txns):
        size = rng.choice((1, 1, 2, 3))
        ops = []
        for _slot in range(size):
            kind = mix.choose(rng)
            ops.append(
                _plan_op(kind, rng, vertices, hot, edges, labels, client, serial)
            )
            serial += 1
        plans.append(ops)
    return plans


def client_stream(
    manager: SessionManager,
    plans: list[list[PlannedOp]],
    retry: RetryPolicy | AdaptiveRetryPolicy | None = None,
    backoff_rng: random.Random | None = None,
) -> Iterator[ClientOp]:
    """Turn planned transactions into a lazily-evaluated ClientOp stream.

    ``manager.begin()`` runs when the transaction's first operation
    *executes* — i.e. at the stream's true schedule position, **after**
    any retry backoff has elapsed — so the snapshot reflects every commit
    that happened before that moment.  (Beginning at fetch time would hand
    a retried transaction a snapshot from before its backoff window,
    guaranteeing a re-abort against whatever commits during the wait, and
    would pin the GC low-water mark through the idle window.)

    With a :class:`RetryPolicy`, a conflict-aborted transaction replays on
    a fresh session: its first operation carries a submission delay (the
    seeded exponential backoff), so the scheduler re-enqueues the client at
    virtual-time + backoff.  Jitter draws come from ``backoff_rng`` in
    stream order, which is deterministic because the generator is
    per-client.

    With an :class:`AdaptiveRetryPolicy`, every transaction attempt feeds
    its observed engine charge (measured from first operation to commit,
    at execution time on the scheduler's clock) into the policy's EWMA, so
    backoff windows track what transactions actually cost on this engine
    instead of a fixed constant.
    """
    rng = backoff_rng if backoff_rng is not None else random.Random(0)
    observer = retry.observe if isinstance(retry, AdaptiveRetryPolicy) else None
    for txn in plans:
        attempt = 0
        delay = 0
        while True:
            # The session is created by whichever bound op runs first.
            cell: dict[str, Any] = {}
            outcome: dict[str, bool] = {}
            for op in txn:
                kind = "write" if op.kind in WRITE_KINDS else "read"
                yield ClientOp(kind, _bind_run(op, manager, cell), label=op.kind, delay=delay)
                delay = 0
            yield ClientOp(
                "commit",
                _bind_commit(manager, cell, outcome, observer),
                label="commit",
                delay=delay,
            )
            delay = 0
            if not outcome.get("conflict"):
                break
            if retry is None or attempt >= retry.max_retries:
                manager.stats.giveups += 1
                break
            attempt += 1
            manager.stats.retries += 1
            delay = retry.backoff_for(attempt, rng)


def _session_of(manager: SessionManager, cell: dict[str, Any]) -> Session:
    session = cell.get("session")
    if session is None:
        session = cell["session"] = manager.begin()
        # Mark where this attempt's engine work starts, so an adaptive
        # policy can observe the attempt's true charge at commit time.
        cell["start_cost"] = manager.engine.io_cost()
    return session


def _bind_run(
    op: PlannedOp, manager: SessionManager, cell: dict[str, Any]
) -> Callable[[], Any]:
    def run() -> Any:
        return op.run(_session_of(manager, cell).graph)

    return run


def _bind_commit(
    manager: SessionManager,
    cell: dict[str, Any],
    outcome: dict[str, bool],
    observer: Callable[[int], None] | None = None,
) -> Callable[[], Any]:
    def run() -> Any:
        try:
            _session_of(manager, cell).commit()
        except WriteConflictError:
            # A first-committer-wins loss; the manager counted the abort
            # and the stream decides whether to retry with backoff.
            outcome["conflict"] = True
        except TransactionError:
            # Non-conflict commit failure (e.g. a blind write on a dead
            # id): not retryable — replaying would fail identically.  The
            # manager counted the abort; this counter keeps the dropped
            # transaction visible in the driver's accounting invariant.
            outcome["failed"] = True
            manager.stats.commit_failures += 1
        finally:
            if observer is not None:
                observer(manager.engine.io_cost() - cell.get("start_cost", 0))

    return run


def _stats_row(result: ScheduleResult, manager: SessionManager) -> dict[str, Any]:
    """Summarise one (engine, durability) run into a JSON-stable row."""
    latencies = result.latencies()
    commit_latencies = result.latencies("commit")
    commit_costs = result.costs("commit")
    makespan = result.makespan
    ops = result.operations
    throughput = round(ops * 1000 / makespan, 4) if makespan else 0.0
    errors = sum(1 for trace in result.traces if trace.error)
    row: dict[str, Any] = {
        "operations": ops,
        "makespan_charge": makespan,
        "background_charge": result.background_cost,
        "throughput_ops_per_kcharge": throughput,
        "p50_charge": percentile(latencies, 50),
        "p95_charge": percentile(latencies, 95),
        "p99_charge": percentile(latencies, 99),
        "commit_p50_charge": percentile(commit_latencies, 50),
        "commit_p95_charge": percentile(commit_latencies, 95),
        "commit_p99_charge": percentile(commit_latencies, 99),
        "commit_mean_charge": (
            round(sum(commit_latencies) / len(commit_latencies), 4)
            if commit_latencies
            else 0.0
        ),
        # Pure commit service cost (no queueing): isolates the WAL charges
        # that SYNC durability puts on the committing client's path.
        "commit_cost_mean_charge": (
            round(sum(commit_costs) / len(commit_costs), 4) if commit_costs else 0.0
        ),
        "op_errors": errors,
    }
    row.update(manager.stats.snapshot())
    # Version-store health: cumulative reclaim counters plus what is still
    # retained at the end of the run (bounded when GC works).
    row.update(manager.store.gc_snapshot())
    return row


def run_engine_mode(
    engine_id: str,
    durability: str,
    dataset: Any,
    mix: MixSpec,
    clients: int,
    txns: int,
    seed: int,
    group_commit: int,
    loop: str = "closed",
    arrival_interval: int = 0,
    retries: int = DEFAULT_RETRIES,
    backoff: int = DEFAULT_BACKOFF,
    retry_policy: str = "fixed",
) -> dict[str, Any]:
    """Run one (engine, durability) cell of the benchmark matrix."""
    if loop == "open" and arrival_interval <= 0:
        raise BenchmarkError(
            "an open loop requires a positive arrival interval (--arrival-interval)"
        )
    engine = create_engine(engine_id, durability=durability)
    loaded = load_dataset_into(engine, dataset)
    engine.reset_metrics()
    # First transactions() call on the fresh engine: configuration applies
    # and engine.begin_session() stays on the same clock as the benchmark.
    manager = engine.transactions(group_commit_size=group_commit)
    base_retry = (
        RetryPolicy(max_retries=retries, backoff_base=backoff) if retries > 0 else None
    )
    streams = [
        client_stream(
            manager,
            plan_client(loaded, mix, client, txns, seed),
            # Each client gets its own policy instance: an adaptive policy
            # carries per-client EWMA state that must not be shared.
            retry=(
                make_retry_policy(retry_policy, base_retry)
                if base_retry is not None
                else None
            ),
            backoff_rng=random.Random(seed * 2_147_483_629 + client * 104_729 + 13),
        )
        for client in range(clients)
    ]
    scheduler = VirtualTimeScheduler(
        engine, manager, streams, loop=loop, arrival_interval=arrival_interval
    )
    result = scheduler.run()
    row = _stats_row(result, manager)
    engine.close()
    return row


def run_concurrent_benchmark(
    engine_ids: Sequence[str] = DEFAULT_ENGINES,
    clients: int = 8,
    mix_name: str = "read-heavy",
    dataset_name: str = "yeast",
    scale: float = 0.25,
    seed: int = 20181204,
    txns: int = 24,
    group_commit: int = 4,
    loop: str = "closed",
    arrival_interval: int = 0,
    retries: int = DEFAULT_RETRIES,
    backoff: int = DEFAULT_BACKOFF,
    retry_policy: str = "fixed",
) -> dict[str, Any]:
    """Run the full engines × durability matrix and return the report.

    Every field is derived from seeded choices and logical charges, so the
    payload is byte-identical across runs with the same arguments (the
    determinism regression test holds this).
    """
    registry.check_args(SPEC.args, locals())
    mix = MIXES[mix_name]
    dataset, header = registry.seeded_dataset(dataset_name, scale, registry.DATASET_SEED)
    # Passed to every cell and echoed in the payload under the same names.
    submission = {
        "loop": loop,
        "arrival_interval": arrival_interval,
        "retries": retries,
        "backoff": backoff,
        "retry_policy": retry_policy,
    }
    engines: dict[str, dict[str, Any]] = {}
    for engine_id in engine_ids:
        engines[engine_id] = {
            durability: run_engine_mode(
                engine_id, durability, dataset, mix, clients, txns, seed, group_commit, **submission
            )
            for durability in DURABILITY_MODES
        }
    return {
        "benchmark": "concurrency-tail-latency",
        "dataset": header,
        "clients": clients,
        "mix": mix_name,
        "txns_per_client": txns,
        "seed": seed,
        "group_commit": group_commit,
        **submission,
        "engines": engines,
    }


#: Flags the closed-loop matrix and the open-loop sweep declare alike.
MIX = registry.arg("--mix", "operation mix per client", kwarg="mix_name", choices=sorted(MIXES))
GROUP_COMMIT = registry.arg("--group-commit", "commits batched per ASYNC WAL flush", minimum=1)

SPEC = registry.BenchmarkSpec(
    name="concurrent",
    help="multi-client MVCC sessions under deterministic virtual-time "
    "scheduling, SYNC vs ASYNC group commit (Figure 8)",
    run=run_concurrent_benchmark,
    format=format_concurrency_report,
    args=(
        registry.engines_arg("benchmark"),
        registry.arg("--clients", "concurrent clients", minimum=1),
        MIX,
        registry.arg("--txns", "transactions per client", minimum=1),
        registry.DATASET,
        registry.SCALE,
        registry.SEED,
        GROUP_COMMIT,
        registry.arg("--loop", "client loop model", choices=["closed", "open"]),
        registry.arg(
            "--arrival-interval",
            "open-loop inter-arrival gap per client, in charge units",
            minimum=0,
        ),
        registry.arg(
            "--retries", "retry budget for conflict-aborted transactions (0 disables)", minimum=0
        ),
        registry.arg(
            "--backoff",
            "retry backoff base in charge units (doubles per attempt + seeded jitter)",
            minimum=0,
        ),
        registry.arg(
            "--retry-policy",
            "backoff policy for conflict retries: fixed constants or an "
            "EWMA of each client's observed commit charge",
            choices=list(RETRY_POLICIES),
        ),
    ),
    baseline="BENCH_concurrency.json",
    report="benchmarks/reports/fig8_concurrency.txt",
    gated_on="identity",
    # The committed baseline is the CI-sized subset: one native engine,
    # one remote/async-flavoured one (the architecture the Section 6.4
    # durability effect is about).
    baseline_args=(
        *("--engines", "nativelinked-1.9", "documentgraph-2.8"),
        *("--clients", "4", "--txns", "12", "--mix", "write-heavy"),
    ),
)
