"""``python benchmarks/layers/run.py`` — the two-currency layers benchmark.

Two ways to call it:

``--workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this process.  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.  This is the form ``BENCHMARK.json`` names.
no ``--workload``
    Every workload, untraced and traced, each in its own child process, one
    at a time; prints every metric by name with its unit, checks that the
    traced run booked byte-identical charges and digests, and exits
    non-zero on any correctness failure.

Results, traces and logs go only under ``--output`` (default
``benchmarks/layers/out/``, which ignores its own contents).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"layers benchmark: the program under test is missing ({_ROOT / 'src' / 'repro'})")
# Run as a script, Python puts this directory first on the path, where
# ``trace.py`` would shadow the standard library's module of that name.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import kernels  # noqa: E402
from repro.engines import DEFAULT_ENGINES  # noqa: E402

from benchmarks.layers.direct import POINT_READ, TRAVERSE, WRITE_CUD, DirectWorkload  # noqa: E402
from benchmarks.layers.harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    QUERY_CLASSES,
    ROUNDS,
    Context,
    Recorder,
    median,
)
from benchmarks.layers.session import SessionWorkload  # noqa: E402
from benchmarks.layers.sharded import ShardedWorkload  # noqa: E402
from benchmarks.layers.trace import Tracer, install_program_patches  # noqa: E402

DEFAULT_OUTPUT = _HERE / "out"
DEFAULT_SECONDS = 10
#: Set-up is repeated and its median reported, so one slow load cannot move it.
SETUP_REPEATS = 3

#: ``name -> (factory, why)``; the whys are measured, see ``README.md``.
WORKLOADS = {
    "point-read": (
        lambda: DirectWorkload(POINT_READ),
        "per-id primitives: B+Tree, hash-index and record-chain lookups under one-hop plans; "
        "storage, gremlin and engines each take a quarter to a third; MVCC and distribution idle",
    ),
    "traverse": (
        lambda: DirectWorkload(TRAVERSE),
        "dense graph, large frontiers: bulk primitives and the substrate scans under them "
        "(storage 3/4 of self time, triple and relational BFS the tail); bypass for WAL changes",
    ),
    "write-cud": (
        lambda: DirectWorkload(WRITE_CUD),
        "same storage structures as point-read but through insert, split, delete and SYNC "
        "WAL append; a read-side gain that costs writes shows here",
    ),
    "session-mix": (
        SessionWorkload,
        "8 virtual clients on three fast engines: begin/overlay/validate/commit/GC and the "
        "scheduler are over half the self time; the only workload where concurrency and versions work",
    ),
    "sharded": (
        ShardedWorkload,
        "K=4 hash shards: the only workload where partition, txn (2PC + recovery), "
        "replication (hot/cold cache sets) and faults (rate-30 chaos) run at all",
    ),
}

_STORAGE_COUNTERS = ("page_reads", "page_writes", "index_probes", "index_updates",
                     "records_read", "records_written", "bytes_written")


# ----------------------------------------------------------------------
# Storage ledger: counter deltas that survive engines being replaced
# ----------------------------------------------------------------------


def _snapshots(engines: list[Any]) -> list[tuple[int, dict[str, int], int]]:
    """``(identity, counters, WAL length)`` per engine slot."""
    return [
        (id(engine), engine.combined_metrics().snapshot(), len(engine.wal)) for engine in engines
    ]


class StorageLedger:
    """Sums per-engine counter deltas round by round.

    A chaos recovery swaps a shard's engine for a rebuilt one whose
    counters restart at zero; a slot whose engine changed contributes what
    the new engine has booked since it was built.
    """

    def __init__(self) -> None:
        self.totals = {name: 0 for name in _STORAGE_COUNTERS}
        self.wal_records = 0
        self.peak_materialized = 0

    def per_round(self, rounds: int) -> dict[str, float]:
        """Counters per round: a traced run replays a read-only tape fewer
        times than an untraced one, and must still book the same numbers."""
        counters = dict(self.totals, wal_records=self.wal_records)
        return {name: value / rounds for name, value in counters.items()}

    def add(self, before: list[Any], after: list[Any]) -> None:
        for (old_id, old, old_wal), (new_id, new, new_wal) in zip(before, after):
            same = old_id == new_id
            for name in _STORAGE_COUNTERS:
                self.totals[name] += new[name] - (old[name] if same else 0)
            self.wal_records += new_wal - (old_wal if same else 0)
            self.peak_materialized = max(self.peak_materialized, new["peak_materialized_bytes"])


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 output: Path | None = None) -> dict[str, Any]:
    """Run one workload and return its full result payload."""
    workload = WORKLOADS[name][0]()
    tracer = Tracer() if trace else None
    ctx = Context(seed=seed, seconds=seconds, smoke=smoke, tracer=tracer)
    if tracer is not None:
        install_program_patches(tracer)
    try:
        return _run(workload, ctx, output)
    finally:
        if tracer is not None:
            tracer.close()


def _run(workload: Any, ctx: Context, output: Path | None) -> dict[str, Any]:
    tracer = ctx.tracer
    repeats = 1 if (ctx.smoke or tracer is not None) else SETUP_REPEATS
    setups: list[float] = []
    state = None
    for _ in range(repeats):
        state = None  # drop the previous build before timing the next
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(ctx)
        setups.append(time.perf_counter() - started)
    workload.prepare_checks(state)
    gc.collect()
    gc.freeze()

    if tracer is None:
        rounds = list(range(ROUNDS))
    else:
        # One traced round, preceded by the untraced rounds it needs: all of
        # a mutating tape's earlier slices, one replay of a read-only tape.
        rounds = list(range(ROUNDS)) if workload.mutating else [0, 1]
    rec = Recorder()
    storage = StorageLedger()
    for round_index in rounds:
        traced = tracer is not None and round_index == rounds[-1]
        before = _snapshots(workload.live_engines(state))
        if traced:
            rec.traced_rounds.add(round_index)
            tracer.enabled = True
        try:
            # A mutating tape's slices are all new work; a read-only tape books
            # charges and digests on its first round and on the traced one.
            checked = workload.mutating or round_index == 0 or traced
            workload.run_round(state, round_index, checked, rec, ctx)
        finally:
            if traced:
                tracer.enabled = False
        storage.add(before, _snapshots(workload.live_engines(state)))
    ledger = workload.finish(state, rec, ctx)
    gc.unfreeze()

    metrics = rec.end_to_end()
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = _per_layer(state, rec, storage, ledger, rounds, tracer)
    digest = 0
    for cell in sorted(rec.digests):
        digest = zlib.crc32(repr(rec.digests[cell]).encode(), digest)
    payload = {
        "workload": workload.name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "smoke": ctx.smoke,
        "traced": tracer is not None,
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "check_failures": rec.check_failures,
        "end_to_end": {key: metrics[key] for key, _unit in END_TO_END},
        "per_layer": layers,
        "classes": rec.class_table(),
        "simulated": {
            "charge": rec.charge,
            "charged_ops": rec.charged_ops,
            "charge_per_op": metrics["charge_per_op"],
            "sim_p95_charge": metrics["sim_p95_charge"],
            "result_digest": digest,
            "storage_per_round": storage.per_round(len(rounds)),
        },
        "rounds": rec.per_round(),
        "setup_runs_s": setups,
        "environment": environment(),
    }
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        suffix = "traced" if tracer is not None else "untraced"
        (output / f"{workload.name}-{suffix}.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        if tracer is not None:
            tracer.write(output / f"{workload.name}-trace.json")
    return payload


def environment() -> dict[str, Any]:
    numpy = kernels.numpy()
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "vectorized_kernels": kernels.vectorized_enabled(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Per-layer sheet
# ----------------------------------------------------------------------


def _per_layer(state: Any, rec: Recorder, storage: StorageLedger, ledger: dict[str, float],
               rounds: list[int], tracer: Tracer | None) -> dict[str, float]:
    values = {name: 0.0 for name, _unit in PER_LAYER}

    per_round = storage.per_round(len(rounds))
    for name in (*_STORAGE_COUNTERS[:-1], "wal_records"):
        values[f"storage.{name}"] = per_round[name]
    user_bytes = ledger.pop("storage.user_bytes", 0.0) * len(state.cells)
    if user_bytes:
        values["storage.bytes_written_per_user_byte"] = storage.totals["bytes_written"] / user_bytes
    values["storage.peak_materialized_bytes"] = float(storage.peak_materialized)

    for engine in DEFAULT_ENGINES:
        if engine not in rec.cell_charge:
            continue
        ops, charge = rec.cell_charge[engine]
        rate = rec.cell_ops_per_s(engine)
        values[f"engines.{engine}.ops_per_s"] = rate
        values[f"engines.{engine}.charge_per_op"] = charge / max(1, ops)
        if rate and charge:
            values[f"engines.{engine}.us_per_kcharge"] = 1e6 / rate / (charge / ops / 1000.0)
        values[f"engines.{engine}.load_s"] = state.timings.get(f"load_s.{engine}", 0.0)

    for cls in QUERY_CLASSES:
        if cls in rec.by_class:
            values[f"queries.{cls}.p50_us"] = median(rec.by_class[cls]) * 1e6
            ops, charge = rec.class_charge.get(cls, (0, 0))
            values[f"queries.{cls}.charge_per_op"] = charge / max(1, ops)

    def class_median(cls: str) -> float:
        return median(rec.by_class.get(cls, ()))

    if class_median("direct.read"):
        values["concurrency.session_wall_ratio"] = class_median("session.read") / class_median("direct.read")
    if class_median("asof.head"):
        values["versions.asof_wall_ratio"] = class_median(f"asof.d{8}") / class_median("asof.head")
    values["versions.commit_us"] = class_median("version.commit") * 1e6
    values["versions.diff_us"] = class_median("version.diff") * 1e6
    bsp = [x for cls, xs in rec.by_class.items() if cls.startswith("bsp.") for x in xs]
    values["partition.us_per_query"] = median(bsp) * 1e6
    txns = [x for cls in ("txn.si", "txn.ssi") for x in rec.by_class.get(cls, ())]
    values["txn.us_per_txn"] = median(txns) * 1e6
    values["replication.us_per_read"] = class_median("replica.read") * 1e6

    values["datasets.generate_s"] = state.timings["generate_s"]
    values["datasets.plan_s"] = state.timings["plan_s"]
    for name, value in ledger.items():
        values[name] = value

    if tracer is not None:
        _trace_metrics(values, rec, rounds, tracer.summary())
    return values


def _trace_metrics(values: dict[str, float], rec: Recorder, rounds: list[int],
                   summary: dict[str, Any]) -> None:
    """Self times per layer from the traced round's spans."""
    layers = summary["layers"]
    names = summary["names"]
    traced = rounds[-1]
    traced_wall = rec.round_wall(traced)
    untraced = [rec.round_wall(index) for index in rounds[:-1]]
    base = median(untraced)

    def self_of(*prefixes: str) -> float:
        return sum(row["self_s"] for name, row in names.items() if name.startswith(prefixes))

    for layer in ("storage", "engines", "gremlin", "queries", "partition", "replication", "faults"):
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)
    attributed = sum(layers.values()) or 1.0
    values["storage.self_share"] = layers.get("storage", 0.0) / attributed
    values["gremlin.self_share"] = layers.get("gremlin", 0.0) / attributed
    values["storage.btree_self_s"] = self_of("BPlusTree.")
    values["storage.wal_self_s"] = self_of("WriteAheadLog.", "ValueLog.")
    values["concurrency.begin_self_s"] = self_of("SessionManager.begin")
    values["concurrency.commit_self_s"] = self_of(
        "SessionManager.commit", "SessionManager.prepare", "SessionManager.flush",
        "VersionStore.collect_garbage",
    )
    values["concurrency.overlay_self_s"] = self_of("VersionedGraph.")
    values["concurrency.scheduler_self_s"] = self_of("VirtualTimeScheduler.")
    if "DistributedSessionManager.commit" in names:
        values["txn.prepare_self_s"] = self_of("SessionManager.prepare")
    values["txn.commit_self_s"] = self_of("DistributedSessionManager.commit")
    # Recovery *is* the engine rebuild it drives: inclusive time, not self time.
    values["faults.recovery_self_s"] = sum(
        row["total_s"] for name, row in names.items() if name == "ShardJournal.recover"
    )

    engine_rows = [row for name, row in names.items() if name.startswith("engine.")]
    values["engines.calls"] = float(sum(row["calls"] for row in engine_rows))
    bulk = [names[name] for name in ("engine.neighbors_many", "engine.edges_for_many") if name in names]
    bulk_calls = sum(row["calls"] for row in bulk)
    if bulk_calls:
        values["engines.bulk_ids_per_call"] = sum(row["bulk_ids"] for row in bulk) / bulk_calls
    machine = names.get("TraversalMachine.run")
    if machine:
        values["gremlin.traversals"] = float(machine["calls"])
        values["gremlin.engine_calls_per_traversal"] = values["engines.calls"] / machine["calls"]
        if machine["yielded"]:
            values["gremlin.ids_expanded_per_result"] = (
                sum(row["yielded"] for row in bulk) / machine["yielded"]
            )
    # Tracing cost: the traced round against the untraced ones, per op when
    # the rounds are slices of different length.
    if base and traced_wall:
        values["trace.overhead_share"] = traced_wall / base - 1.0
        values["trace.unattributed_share"] = max(0.0, 1.0 - summary["covered_s"] / traced_wall)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def result_line(payload: dict[str, Any]) -> str:
    """The contract's last line: end-to-end untraced, per-layer traced."""
    if payload["traced"]:
        metrics = {name: {"value": payload["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": payload["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({
        "correct": payload["correct"],
        "attempted": max(1, payload["attempted"]),
        "failed": payload["failed"],
        "metrics": metrics,
    })


def _child(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    """Run one workload in a child process; return its result payload."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--output", str(args.output),
    ]
    if args.smoke:
        command.append("--smoke")
    log = args.output / f"{name}-{'traced' if trace else 'untraced'}.log"
    with log.open("w") as stream:
        completed = subprocess.run(command, stdout=subprocess.PIPE, stderr=stream, text=True,
                                   timeout=900, check=False)
    if completed.returncode not in (0, 1):
        raise SystemExit(f"{name}: child exited with {completed.returncode}; see {log}")
    suffix = "traced" if trace else "untraced"
    return json.loads((args.output / f"{name}-{suffix}.json").read_text())


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    args.output.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    problems: list[str] = []
    for name in names:
        untraced = _child(name, args, 0)
        traced = _child(name, args, 1)
        print(f"== {name} (seed {args.seed}, {untraced['attempted']} ops) ==")
        for metric, unit in END_TO_END:
            print(f"  {metric:<44} {untraced['end_to_end'][metric]:>16.4f} {unit}")
        print(f"  {'failed_share':<44} {untraced['failed'] / max(1, untraced['attempted']):>16.6f} ratio")
        for metric, unit in PER_LAYER:
            value = traced["per_layer"][metric]
            if value:
                print(f"  {metric:<44} {value:>16.4f} {unit}")
        for payload in (untraced, traced):
            for failure in payload["check_failures"]:
                problems.append(f"{name}: {failure}")
            if not payload["correct"] and not payload["check_failures"]:
                problems.append(f"{name}: {payload['failed']} ops failed")
        for key in ("charge_per_op", "sim_p95_charge", "result_digest"):
            if untraced["simulated"][key] != traced["simulated"][key]:
                problems.append(
                    f"{name}: traced run changed {key}: "
                    f"{untraced['simulated'][key]} -> {traced['simulated'][key]}"
                )
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20181204)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement length the frozen tape rates are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny dataset and tape")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.workload is None or args.trace is None:
        return run_all(args)
    payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           smoke=args.smoke, output=args.output)
    for failure in payload["check_failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(result_line(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
