"""Shared machinery of the layers benchmark: context, recorder, metric math.

The run protocol every workload follows (one process, one thread, closed
loop, one caller):

1. *set-up* — generate the dataset from the seed, plan the op tape, load
   every engine, build indexes / shards / replicas / session managers, and
   replay 5 % of the tape to fill lazily built structures.  All of it is
   booked in ``setup_s``;
2. ``gc.collect(); gc.freeze()`` — cyclic GC stays on, but never walks the
   loaded graphs;
3. *rounds* — a read-only tape is replayed :data:`ROUNDS` times, a
   mutating tape is cut into :data:`ROUNDS` consecutive slices with the
   same class mix.  Every op is timed on its own (``perf_counter`` around
   the call, result consumed inside); harness bookkeeping is outside the
   timed window.

The tape length is ``ops_per_second × --seconds``: the sizes are frozen
per workload (see ``README.md``), so simulated metrics are a pure function
of ``(seed, seconds)`` and repeat exactly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.concurrency.scheduler import percentile
from repro.engines import DEFAULT_ENGINES

from benchmarks.layers.trace import EngineProxy, Tracer

#: Rounds of a read-only tape / slices of a mutating tape.
ROUNDS = 5
#: Share of the tape replayed (unmeasured) at the end of set-up.
WARMUP_SHARE = 0.05

#: The nine op classes of the three direct workloads, in report order.
QUERY_CLASSES = ("point", "search", "local", "degree", "bfs", "path", "create", "update", "delete")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("peak_rss_mb", "MB"),
    ("charge_per_op", "charges"),
    ("sim_p95_charge", "charges"),
)

_ENGINE_METRICS = (("ops_per_s", "1/s"), ("charge_per_op", "charges"),
                   ("us_per_kcharge", "us"), ("load_s", "s"))

PER_LAYER = (
    [(f"storage.{name}", unit) for name, unit in (
        ("page_reads", "count"), ("page_writes", "count"), ("index_probes", "count"),
        ("index_updates", "count"), ("records_read", "count"), ("records_written", "count"),
        ("bytes_written_per_user_byte", "ratio"), ("wal_records", "count"),
        ("peak_materialized_bytes", "bytes"), ("self_s", "s"), ("btree_self_s", "s"),
        ("wal_self_s", "s"), ("self_share", "ratio"))]
    + [(f"engines.{engine}.{name}", unit) for engine in DEFAULT_ENGINES
       for name, unit in _ENGINE_METRICS]
    + [(f"engines.{name}", unit) for name, unit in (
        ("calls", "count"), ("bulk_ids_per_call", "count"), ("self_s", "s"),
        ("digest_mismatches", "count"))]
    + [(f"gremlin.{name}", unit) for name, unit in (
        ("traversals", "count"), ("engine_calls_per_traversal", "count"),
        ("ids_expanded_per_result", "ratio"), ("self_s", "s"), ("self_share", "ratio"))]
    + [(f"queries.{cls}.{name}", unit) for cls in QUERY_CLASSES
       for name, unit in (("p50_us", "us"), ("charge_per_op", "charges"))]
    + [("queries.self_s", "s")]
    + [(f"concurrency.{name}", unit) for name, unit in (
        ("begin_self_s", "s"), ("commit_self_s", "s"), ("overlay_self_s", "s"),
        ("scheduler_self_s", "s"), ("session_wall_ratio", "ratio"), ("commits", "count"),
        ("conflict_aborts", "count"), ("retries", "count"), ("giveups", "count"),
        ("commit_success_ratio", "ratio"), ("gc_reclaimed", "count"),
        ("retained_entries_end", "count"), ("sim_commit_p99_charge", "charges"),
        ("sim_ops_per_kcharge", "1/kcharge"))]
    + [(f"partition.{name}", unit) for name, unit in (
        ("build_s", "s"), ("cut_ratio", "ratio"), ("supersteps", "count"),
        ("messages", "count"), ("network_charge", "charges"), ("compute_charge", "charges"),
        ("sim_makespan_per_query", "charges"), ("us_per_query", "us"), ("self_s", "s"))]
    + [(f"txn.{name}", unit) for name, unit in (
        ("committed", "count"), ("two_phase_share", "ratio"), ("conflict_aborts", "count"),
        ("ssi_aborts", "count"), ("journal_charge", "charges"), ("network_charge", "charges"),
        ("us_per_txn", "us"), ("prepare_self_s", "s"), ("commit_self_s", "s"),
        ("recover_s", "s"))]
    + [(f"replication.{name}", unit) for name, unit in (
        ("replica_served_share", "ratio"), ("primary_fallbacks", "count"),
        ("cache_hit_ratio", "ratio"), ("invalidations", "count"), ("log_charge", "charges"),
        ("staleness_p95", "charges"), ("us_per_read", "us"), ("self_s", "s"))]
    + [(f"faults.{name}", unit) for name, unit in (
        ("injected", "count"), ("retries", "count"), ("overhead_charge_share", "ratio"),
        ("exact_share", "ratio"), ("recovery_self_s", "s"), ("self_s", "s"))]
    + [(f"versions.{name}", unit) for name, unit in (
        ("commit_us", "us"), ("asof_wall_ratio", "ratio"), ("diff_us", "us"),
        ("retained_commits", "count"), ("gc_reclaimed_after_retention", "count"))]
    + [("datasets.generate_s", "s"), ("datasets.plan_s", "s"),
       ("trace.overhead_share", "ratio"), ("trace.unattributed_share", "ratio")]
)


# ----------------------------------------------------------------------
# Metric math
# ----------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (0.0 for an empty or non-positive input)."""
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the contract's rule)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


# ----------------------------------------------------------------------
# Context and recorder
# ----------------------------------------------------------------------


@dataclass
class Context:
    """What one workload run was asked to do."""

    seed: int
    seconds: float
    smoke: bool = False
    tracer: Tracer | None = None

    def scaled(self, per_second: float, minimum: int, smoke: int) -> int:
        """Ops in one round: frozen rate × requested seconds ÷ rounds."""
        if self.smoke:
            return smoke
        return max(minimum, round(per_second * self.seconds / ROUNDS))

    def graph(self, engine: Any) -> Any:
        """The handle the program gets: the engine, or its traced proxy."""
        return engine if self.tracer is None else EngineProxy(engine, self.tracer)

    def traced(self, fn: Any, name: str, layer: str) -> Any:
        return fn if self.tracer is None else self.tracer.wrap(fn, name, layer)

    def traced_methods(self, obj: Any, methods: Sequence[str], layer: str) -> Any:
        if self.tracer is not None:
            self.tracer.wrap_methods(obj, methods, layer)
        return obj


class Samples:
    """Per-class op samples of one phase, booked into a recorder at once."""

    def __init__(self) -> None:
        self._rows: dict[str, tuple[list[float], list[int], list[int]]] = {}

    def add(self, cls: str, seconds: float, charge: int, sim_latency: int | None = None) -> None:
        row = self._rows.setdefault(cls, ([], [], []))
        row[0].append(seconds)
        row[1].append(charge)
        row[2].append(charge if sim_latency is None else sim_latency)

    def sim_latencies(self, cls: str) -> list[int]:
        return self._rows.get(cls, ([], [], []))[2]

    def book(self, rec: "Recorder", round_index: int, cell: str) -> None:
        for cls, (seconds, charges, latencies) in self._rows.items():
            rec.time_ops(round_index, cell, cls, seconds)
            rec.charge_ops(cell, cls, charges, latencies)


@dataclass
class Recorder:
    """Per-op samples of one workload run, in both currencies."""

    #: ``(round, cell) -> [seconds, ...]`` host latency of every op.
    latencies: dict[tuple[int, str], list[float]] = field(default_factory=dict)
    #: ``class -> [seconds, ...]`` pooled over rounds and cells.
    by_class: dict[str, list[float]] = field(default_factory=dict)
    #: ``class -> [ops, charge]``.
    class_charge: dict[str, list[int]] = field(default_factory=dict)
    #: ``cell -> [ops, charge]``.
    cell_charge: dict[str, list[int]] = field(default_factory=dict)
    #: Per-op simulated latency (charge units), pooled.
    sim_latencies: list[int] = field(default_factory=list)
    #: All charged work, every ledger included, and the ops it was booked for
    #: (a read-only tape charges the same every round, so only checked
    #: rounds book charges).
    charge: int = 0
    charged_ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Result digests in op order per cell (first checked round).
    digests: dict[str, list[int]] = field(default_factory=dict)
    #: Human-readable correctness failures (each also counts as failed).
    check_failures: list[str] = field(default_factory=list)
    #: Rounds whose spans were recorded (excluded from end-to-end numbers).
    traced_rounds: set[int] = field(default_factory=set)

    def time_ops(self, round_index: int, cell: str, cls: str, seconds: Sequence[float]) -> None:
        self.latencies.setdefault((round_index, cell), []).extend(seconds)
        self.by_class.setdefault(cls, []).extend(seconds)
        self.attempted += len(seconds)

    def charge_ops(self, cell: str, cls: str, charges: Sequence[int],
                   sim_latencies: Sequence[int] | None = None) -> None:
        total = sum(charges)
        for table, key in ((self.class_charge, cls), (self.cell_charge, cell)):
            row = table.setdefault(key, [0, 0])
            row[0] += len(charges)
            row[1] += total
        self.charge += total
        self.charged_ops += len(charges)
        self.sim_latencies.extend(charges if sim_latencies is None else sim_latencies)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.check_failures) < 50:
            self.check_failures.append(message)

    # -- derived ------------------------------------------------------------

    def _measured(self) -> dict[tuple[int, str], list[float]]:
        return {
            key: samples for key, samples in self.latencies.items()
            if key[0] not in self.traced_rounds
        }

    def cells(self) -> list[str]:
        return list(dict.fromkeys(cell for _round, cell in self.latencies))

    def round_wall(self, round_index: int) -> float:
        return sum(
            sum(samples) for (r, _cell), samples in self.latencies.items() if r == round_index
        )

    def cell_ops_per_s(self, cell: str) -> float:
        walls = [sum(s) for (r, c), s in self._measured().items() if c == cell]
        counts = [len(s) for (r, c), s in self._measured().items() if c == cell]
        wall = median(walls)
        return median(counts) / wall if wall else 0.0

    def class_table(self) -> dict[str, dict[str, float]]:
        """Per op class: count, host p50/p95, share of the wall, charge per op."""
        wall = sum(sum(samples) for samples in self.by_class.values()) or 1.0
        table = {}
        for cls, samples in self.by_class.items():
            ops, charge = self.class_charge.get(cls, (0, 0))
            table[cls] = {
                "ops": len(samples),
                "p50_us": percentile(samples, 50) * 1e6,
                "p95_us": percentile(samples, 95) * 1e6,
                "wall_share": sum(samples) / wall,
                "charge_per_op": charge / max(1, ops),
            }
        return table

    def per_round(self) -> dict[str, list[float]]:
        """Each host metric taken on one untraced round alone (for spreads)."""
        measured = self._measured()
        series: dict[str, list[float]] = {"wall_s": [], "ops_per_s": [], "op_p50_us": [], "op_p95_us": []}
        for index in sorted({r for r, _cell in measured}):
            cells = {c: samples for (r, c), samples in measured.items() if r == index}
            pooled = [x for samples in cells.values() for x in samples]
            series["wall_s"].append(sum(pooled))
            series["ops_per_s"].append(geomean([len(s) / sum(s) for s in cells.values() if sum(s)]))
            series["op_p50_us"].append(percentile(pooled, 50) * 1e6)
            series["op_p95_us"].append(percentile(pooled, 95) * 1e6)
        return series

    def end_to_end(self) -> dict[str, float]:
        rounds = self.per_round()
        return {
            "wall_s": sum(rounds["wall_s"]),
            "ops_per_s": geomean([self.cell_ops_per_s(cell) for cell in self.cells()]),
            "op_p50_us": median(rounds["op_p50_us"]),
            "op_p95_us": median(rounds["op_p95_us"]),
            "charge_per_op": self.charge / max(1, self.charged_ops),
            "sim_p95_charge": float(percentile(self.sim_latencies, 95)),
        }
