"""The one table of benchmarks: name, entry point, flags, baseline, gate.

Every ``BENCH_*.json`` benchmark is one :class:`BenchmarkSpec` in
:data:`SPECS`.  ``graphbench`` generates a subcommand per spec from its
argument table (:func:`add_subcommand`), runs it through :func:`execute`,
persists through :func:`write_report`, and gates it through :func:`check` —
so what a benchmark is called, how it is invoked, where its committed
baseline lives and how it is gated is decided here and nowhere else.

``baseline_args`` are the flags that regenerate the committed baseline;
they are empty when a plain ``graphbench <name>`` already does.  A plain
run writes to the committed paths only in that case — otherwise
``--output``/``--report`` default to ``''`` (skip), so an
incompatible-parameter payload never clobbers a baseline by accident.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.bench import gates
from repro.bench.microbench import DEFAULT_DATASET, format_report, run_traversal_matrix
from repro.concurrency.driver import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    MIXES,
    RETRY_POLICIES,
    run_concurrent_benchmark,
)
from repro.concurrency.report import (
    format_concurrency_report,
    format_loop_comparison,
    format_saturation_report,
)
from repro.concurrency.saturation import (
    DEFAULT_MAX_STEPS,
    DEFAULT_MIN_INTERVAL,
    DEFAULT_START_INTERVAL,
    DEFAULT_SWEEP_ENGINES,
    run_loop_comparison,
    run_saturation_sweep,
)
from repro.datasets import available_datasets
from repro.engines import DEFAULT_ENGINES, resolve_engine_id
from repro.faults.bench import (
    CHAOS_MIXES,
    DEFAULT_CHAOS_ENGINES,
    DEFAULT_CHAOS_PARTITIONER,
    DEFAULT_CHAOS_SHARDS,
    DEFAULT_FAULT_RATES,
    run_chaos_benchmark,
)
from repro.faults.chaos import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_MAX_RESTARTS,
    DEFAULT_SUPERSTEP_TIMEOUT,
)
from repro.faults.report import format_chaos_report
from repro.index.bench import (
    DEFAULT_REACH_ENGINES,
    DEFAULT_REACH_PAIRS,
    DEFAULT_REACH_SHAPES,
    DEFAULT_REACH_SOURCES,
    DEFAULT_REACH_VERTICES,
    run_reachability_benchmark,
)
from repro.index.generators import SHAPES
from repro.index.report import format_reachability_report
from repro.partition.bench import (
    DEFAULT_BENCH_ENGINES,
    DEFAULT_BFS_SOURCES,
    DEFAULT_DEPTH,
    DEFAULT_SHARD_COUNTS,
    run_scaleout_benchmark,
)
from repro.partition.messages import DEFAULT_COST_PER_ITEM, DEFAULT_LATENCY_PER_MESSAGE
from repro.partition.partitioners import DEFAULT_PARTITIONERS, PARTITIONERS
from repro.partition.report import format_scaleout_report
from repro.replication import bench as readscale
from repro.replication.report import format_readscale_report
from repro.txn import bench as txn
from repro.txn.report import format_txn_report
from repro.versions import bench as versions
from repro.versions.report import format_versions_report


@dataclass(frozen=True)
class Arg:
    """One CLI flag: its argparse options and the ``run`` kwarg it feeds."""

    flag: str
    #: Attribute of the parsed namespace (argparse's own derivation).
    dest: str
    #: Keyword of the spec's ``run`` function; ``None`` for flags that only
    #: steer the CLI (``--compare-loops`` ...).
    kwarg: str | None
    options: dict[str, Any]
    #: Applied to the parsed value before it is passed on (engine prefixes).
    convert: Callable[[Any], Any] | None = None


def _arg(
    flag: str,
    default: Any,
    help: str | None = None,
    *,
    kwarg: str | None = "",
    convert: Callable[[Any], Any] | None = None,
    **options: Any,
) -> Arg:
    """Build an :class:`Arg`; ``type``/``nargs`` follow from the default.

    ``kwarg`` defaults to the flag's own name (``--group-commit`` →
    ``group_commit``); pass ``None`` for a flag ``run`` never sees.
    """
    if isinstance(default, (list, tuple)):
        default = list(default)
        options.setdefault("nargs", "+")
    sample = default[0] if isinstance(default, list) else default
    if isinstance(sample, (int, float)) and not isinstance(sample, bool):
        options.setdefault("type", type(sample))
    if "action" not in options:
        options["default"] = default
    if help is not None:
        options["help"] = help
    dest = flag.lstrip("-").replace("-", "_")
    return Arg(flag, dest, dest if kwarg == "" else kwarg, options, convert)


def _resolve_all(names: Sequence[str]) -> list[str]:
    return [resolve_engine_id(name) for name in names]


def _engines(default: Sequence[str], verb: str) -> Arg:
    # Short aliases are accepted ("triple" -> "triplegraph-2.1"), so no
    # argparse choices here; resolution happens in `convert`.
    return _arg(
        "--engines",
        default,
        f"engines to {verb}; identifiers or unambiguous prefixes",
        kwarg="engine_ids",
        convert=_resolve_all,
    )


def _dataset(default: str = "yeast") -> Arg:
    return _arg("--dataset", default, kwarg="dataset_name", choices=list(available_datasets()))


_SCALE = _arg("--scale", 0.25)
_SEED = _arg("--seed", 20181204)


def _mix(default: str) -> Arg:
    return _arg(
        "--mix", default, "operation mix per client", kwarg="mix_name", choices=sorted(MIXES)
    )


def _partitioners(default: Sequence[str], help: str) -> Arg:
    return _arg(
        "--partitioners", default, help, kwarg="partitioner_names", choices=sorted(PARTITIONERS)
    )


def _partitioner(default: str) -> Arg:
    return _arg(
        "--partitioner",
        default,
        "partitioning strategy for every cell",
        choices=sorted(PARTITIONERS),
    )


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything ``graphbench`` knows about one benchmark."""

    name: str
    help: str
    run: Callable[..., dict[str, Any]]
    format: Callable[[dict[str, Any]], str]
    args: tuple[Arg, ...]
    #: Committed JSON payload (repo-root relative).
    baseline: str
    #: Tracked text figure rendered from the baseline run, if any.
    report: str | None
    #: What the gate checks, for the docs table.
    gated_on: str
    baseline_args: tuple[str, ...] = ()
    #: Payload-local invariant checks run on top of identity.
    invariants: Callable[[dict[str, Any]], list[str]] | None = None
    #: Wall-clock payloads cannot be gated on identity.
    wall_clock: bool = False
    #: Extra CLI-only step after the main report: ``(payload, args) -> paths``.
    after: Callable[[dict[str, Any], argparse.Namespace], list[Path]] | None = None

    @property
    def regenerate_command(self) -> str:
        """The command line that rewrites the committed baseline + figure."""
        parts = ["graphbench", self.name, *self.baseline_args]
        if self.baseline_args:
            parts += ["--output", self.baseline]
            if self.report:
                parts += ["--report", self.report]
        return " ".join(parts)


def _compare_loops(payload: dict[str, Any], args: argparse.Namespace) -> list[Path]:
    """``saturate --compare-loops``: re-drive closed-loop, write Figure 9b."""
    if not args.compare_loops:
        return []
    comparison = run_loop_comparison(payload)
    text = format_loop_comparison(comparison)
    print()
    print(text)
    return write_report(comparison, text, None, args.loop_report)


_SPECS = (
    BenchmarkSpec(
        name="traversal",
        help="time Q22-Q35 on the legacy per-walker executor vs the bulked "
        "traversal machine, per engine (wall-clock A/B)",
        run=run_traversal_matrix,
        format=format_report,
        args=(
            _arg(
                "--engine",
                "all",
                "engine identifier or prefix, or 'all' for every default engine",
                kwarg="engine_names",
                convert=lambda name: (
                    DEFAULT_ENGINES if name == "all" else (resolve_engine_id(name),)
                ),
            ),
            _dataset(DEFAULT_DATASET),
            _arg("--scale", 1.0),
            _arg("--repeats", 3),
            _arg("--depth", 3, "BFS depth for Q32/Q33", kwarg="bfs_depth"),
        ),
        baseline="BENCH_traversal.json",
        report=None,
        gated_on="Q32/Q34 optimized median within `--max-regression` (+25 %) per engine",
        baseline_args=("--repeats", "5"),
        wall_clock=True,
    ),
    BenchmarkSpec(
        name="concurrent",
        help="multi-client MVCC sessions under deterministic virtual-time "
        "scheduling, SYNC vs ASYNC group commit (Figure 8)",
        run=run_concurrent_benchmark,
        format=format_concurrency_report,
        args=(
            _engines(DEFAULT_ENGINES, "benchmark"),
            _arg("--clients", 8, "concurrent clients"),
            _mix("read-heavy"),
            _arg("--txns", 24, "transactions per client"),
            _dataset(),
            _SCALE,
            _SEED,
            _arg("--group-commit", 4, "commits batched per ASYNC WAL flush"),
            _arg("--loop", "closed", "client loop model", choices=["closed", "open"]),
            _arg("--arrival-interval", 0, "open-loop inter-arrival gap per client, in charge units"),
            _arg(
                "--retries",
                DEFAULT_RETRIES,
                "retry budget for conflict-aborted transactions (0 disables)",
            ),
            _arg(
                "--backoff",
                DEFAULT_BACKOFF,
                "retry backoff base in charge units (doubles per attempt + seeded jitter)",
            ),
            _arg(
                "--retry-policy",
                "fixed",
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
    ),
    BenchmarkSpec(
        name="saturate",
        help="open-loop saturation sweep: step the arrival rate until "
        "throughput collapses and report the knee (Figure 9); "
        "--compare-loops adds the closed-vs-open Figure 9b",
        run=run_saturation_sweep,
        format=format_saturation_report,
        args=(
            _engines(DEFAULT_SWEEP_ENGINES, "sweep"),
            _arg("--clients", 4, "open-loop clients"),
            _mix("write-heavy"),
            _arg("--txns", 8, "transactions per client"),
            _dataset(),
            _SCALE,
            _SEED,
            _arg("--durability", "sync", "WAL durability mode", choices=["sync", "async"]),
            _arg("--group-commit", 4, "commits batched per ASYNC WAL flush"),
            _arg(
                "--start-interval",
                DEFAULT_START_INTERVAL,
                "first (slowest) per-client arrival interval, in charge units",
            ),
            _arg(
                "--min-interval",
                DEFAULT_MIN_INTERVAL,
                "stop stepping below this interval even without a knee",
            ),
            _arg("--max-steps", DEFAULT_MAX_STEPS, "maximum sweep steps per engine"),
            _arg("--retries", DEFAULT_RETRIES),
            _arg("--backoff", DEFAULT_BACKOFF),
            _arg(
                "--compare-loops",
                None,
                "after the sweep, re-drive the same workload closed-loop and "
                "write the closed-vs-open comparison figure (Figure 9b)",
                kwarg=None,
                action="store_true",
            ),
            _arg(
                "--loop-report",
                "benchmarks/reports/fig9b_loop_comparison.txt",
                "where --compare-loops writes the comparison figure ('' to skip)",
                kwarg=None,
            ),
        ),
        baseline="BENCH_saturation.json",
        report="benchmarks/reports/fig9_saturation.txt",
        gated_on="identity",
        after=_compare_loops,
    ),
    BenchmarkSpec(
        name="scaleout",
        help="partition each engine across K charged executors and measure "
        "distributed traversal speedup per partitioner (Figure 10)",
        run=run_scaleout_benchmark,
        format=format_scaleout_report,
        args=(
            _engines(DEFAULT_BENCH_ENGINES, "shard"),
            _partitioners(DEFAULT_PARTITIONERS, "partitioning strategies to compare"),
            _arg(
                "--shards",
                DEFAULT_SHARD_COUNTS,
                "shard counts K to sweep (must include 1, the parity baseline)",
                kwarg="shard_counts",
            ),
            _dataset(),
            _SCALE,
            _SEED,
            _arg("--depth", DEFAULT_DEPTH, "BFS depth per seeded source"),
            _arg("--bfs-sources", DEFAULT_BFS_SOURCES, "seeded BFS sources"),
            _arg(
                "--latency",
                DEFAULT_LATENCY_PER_MESSAGE,
                "charge per cross-shard message batch (the RPC envelope)",
                kwarg="latency_per_message",
            ),
            _arg(
                "--per-item",
                DEFAULT_COST_PER_ITEM,
                "charge per frontier item carried in a batch",
                kwarg="cost_per_item",
            ),
        ),
        baseline="BENCH_partition.json",
        report="benchmarks/reports/fig10_scaleout.txt",
        gated_on="identity",
    ),
    BenchmarkSpec(
        name="chaos",
        help="inject seeded faults (crashes, stalls, message loss/dup/reorder, "
        "torn WAL tails, snapshot loss) into the distributed executor and "
        "measure availability, staleness, and overhead (Figure 11)",
        run=run_chaos_benchmark,
        format=format_chaos_report,
        args=(
            _engines(DEFAULT_CHAOS_ENGINES, "shard"),
            _arg(
                "--mixes",
                list(CHAOS_MIXES),
                "query mixes to replay under faults",
                choices=sorted(CHAOS_MIXES),
            ),
            _arg("--shards", DEFAULT_CHAOS_SHARDS, "shard counts K to sweep", kwarg="shard_counts"),
            _arg(
                "--rates",
                DEFAULT_FAULT_RATES,
                "fault rates in percent (must include 0, the exactness oracle)",
                kwarg="fault_rates",
            ),
            _arg(
                "--policies",
                RETRY_POLICIES,
                "retry policies to A/B per cell",
                kwarg="retry_policies",
                choices=list(RETRY_POLICIES),
            ),
            _partitioner(DEFAULT_CHAOS_PARTITIONER),
            _dataset(),
            _SCALE,
            _SEED,
            _arg(
                "--max-restarts",
                DEFAULT_MAX_RESTARTS,
                "per-query fault budget per shard before it is abandoned",
            ),
            _arg(
                "--superstep-timeout",
                DEFAULT_SUPERSTEP_TIMEOUT,
                "fixed straggler timeout in charge units (adaptive policy "
                "scales it with the observed EWMA instead)",
            ),
            _arg(
                "--checkpoint-interval",
                DEFAULT_CHECKPOINT_INTERVAL,
                "barriers between periodic charged snapshot checkpoints",
            ),
        ),
        baseline="BENCH_chaos.json",
        report="benchmarks/reports/fig11_chaos.txt",
        gated_on="identity; rate-0 availability = 100 %",
        invariants=gates.check_chaos_invariants,
    ),
    BenchmarkSpec(
        name="readscale",
        help="scale reads over lagging MVCC replicas with charged caches and "
        "measure throughput vs replicas × staleness × cache, including a "
        "cache-coherence storm (Figure 12)",
        run=readscale.run_readscale_benchmark,
        format=format_readscale_report,
        args=(
            _engines(readscale.DEFAULT_BENCH_ENGINES, "replicate"),
            _arg(
                "--replicas",
                readscale.DEFAULT_REPLICA_COUNTS,
                "replica counts R to sweep (0 is the unreplicated baseline)",
                kwarg="replica_counts",
            ),
            _arg(
                "--bounds",
                readscale.DEFAULT_STALENESS_BOUNDS,
                "staleness bounds in charge units; reads beyond the bound "
                "fall back to the primary",
                kwarg="staleness_bounds",
            ),
            _arg(
                "--caches",
                readscale.DEFAULT_CACHE_CAPACITIES,
                "hot-vertex/ghost cache capacities to sweep (0 disables)",
                kwarg="cache_capacities",
            ),
            _dataset(),
            _SCALE,
            _SEED,
            _arg(
                "--shards",
                readscale.DEFAULT_SHARDS,
                "partition shard count K (each shard gets its own replica set)",
            ),
            _partitioner(readscale.DEFAULT_PARTITIONER),
            _arg(
                "--apply-interval",
                readscale.DEFAULT_APPLY_INTERVAL,
                "virtual-time gap between replica log applies (scaled by "
                "replica rank, so replicas lag by different amounts)",
            ),
            _arg(
                "--steady-ops",
                readscale.DEFAULT_STEADY_OPS,
                "operations on the steady mixed tape before the storm",
            ),
            _arg(
                "--storm-rounds",
                readscale.DEFAULT_STORM_ROUNDS,
                "cache-coherence storm rounds (every hot vertex rewritten "
                "under read pressure)",
            ),
            _arg(
                "--hot-set",
                readscale.DEFAULT_HOT_SET,
                "hub-biased hot-set size shared by tape and storm",
                kwarg="hot_set_size",
            ),
        ),
        baseline="BENCH_readscale.json",
        report="benchmarks/reports/fig12_readscale.txt",
        gated_on="identity; cache-off cells book no invalidation; storm "
        "invalidation monotone in R",
        invariants=gates.check_readscale_invariants,
    ),
    BenchmarkSpec(
        name="txn",
        help="charged distributed transactions (per-shard WAL + 2PC): commit "
        "latency and abort rate vs cut ratio under SI and SSI (Figure 13)",
        run=txn.run_txn_benchmark,
        format=format_txn_report,
        args=(
            _engines(txn.DEFAULT_TXN_ENGINES, "shard"),
            _partitioners(
                txn.DEFAULT_TXN_STRATEGIES,
                "partitioning strategies to sweep (each changes the cut ratio)",
            ),
            _arg(
                "--shards",
                txn.DEFAULT_TXN_SHARD_COUNTS,
                "shard counts K to sweep (K=1 is the one-phase parity baseline)",
                kwarg="shard_counts",
            ),
            _dataset(),
            _SCALE,
            _SEED,
            _arg(
                "--transactions",
                txn.DEFAULT_TXN_COUNT,
                "transactions per wave (each cell replays the same wave)",
            ),
            _arg(
                "--footprint",
                txn.DEFAULT_FOOTPRINT,
                "hub-biased vertices each transaction reads (all but the "
                "last are also written)",
            ),
            _arg(
                "--arrival-gap",
                txn.DEFAULT_ARRIVAL_GAP,
                "virtual-time gap between transaction arrivals",
            ),
            _arg(
                "--base-duration",
                txn.DEFAULT_BASE_DURATION,
                "baseline commit-window width before per-remote-shard "
                "round-trip widening",
            ),
        ),
        baseline="BENCH_txn.json",
        report="benchmarks/reports/fig13_txn.txt",
        gated_on="identity; K=1 parity identical; SSI prevents / SI permits "
        "write skew; abort rate ≤ 0.25 and rising with cut",
        invariants=gates.check_txn_invariants,
    ),
    BenchmarkSpec(
        name="reachability",
        help="benchmark the interval reachability index against the charged "
        "BFS oracle per engine × structural shape (Figure 14)",
        run=run_reachability_benchmark,
        format=format_reachability_report,
        args=(
            _engines(DEFAULT_REACH_ENGINES, "index"),
            _arg(
                "--shapes", DEFAULT_REACH_SHAPES, "structural shapes to sweep", choices=list(SHAPES)
            ),
            _arg("--vertices", DEFAULT_REACH_VERTICES, "vertices per generated shape"),
            _arg("--pairs", DEFAULT_REACH_PAIRS, "seeded reachable(src, dst) pairs per cell"),
            _arg("--sources", DEFAULT_REACH_SOURCES, "seeded descendants(src) sources per cell"),
            _SEED,
        ),
        baseline="BENCH_reachability.json",
        report="benchmarks/reports/fig14_reachability.txt",
        gated_on="identity; tree-covered cells ≤ BFS charge; build ≤ 8 charges/element",
        invariants=gates.check_reachability_invariants,
    ),
    BenchmarkSpec(
        name="versions",
        help="graph versioning: commit chains under CUD churn, as-of replay "
        "(byte-identical to the live run), structural diff, and retained "
        "bytes vs GC reclaim per retention policy (Figure 15)",
        run=versions.run_versions_benchmark,
        format=format_versions_report,
        args=(
            _engines(versions.DEFAULT_VERSION_ENGINES, "version"),
            _arg(
                "--depths",
                versions.DEFAULT_VERSION_DEPTHS,
                "commit-chain depths to sweep (churn steps per chain)",
            ),
            _arg(
                "--mixes",
                versions.DEFAULT_VERSION_MIXES,
                "query mixes replayed as-of every retained commit",
                choices=["read", "traversal"],
            ),
            _arg(
                "--retentions",
                versions.DEFAULT_VERSION_RETENTIONS,
                "retention policies to sweep: keep-all, keep-tagged, depth-N",
            ),
            _arg(
                "--base-vertices",
                versions.DEFAULT_VERSION_BASE_VERTICES,
                "vertices in the seeded base graph",
            ),
            _arg(
                "--churn-ops",
                versions.DEFAULT_VERSION_CHURN_OPS,
                "CUD operations between consecutive commits",
            ),
            _arg(
                "--tag-every",
                versions.DEFAULT_VERSION_TAG_EVERY,
                "tag every Nth commit (what keep-tagged retains)",
            ),
            _SEED,
        ),
        baseline="BENCH_versions.json",
        report="benchmarks/reports/fig15_versions.txt",
        gated_on="identity; as-of replay matches with head charge parity; "
        "diff ≤ 8 charges/element; pruning reclaims ≥ keep-all",
        invariants=gates.check_versions_invariants,
    ),
)

#: Every registered benchmark by subcommand name, in figure order.
SPECS: dict[str, BenchmarkSpec] = {spec.name: spec for spec in _SPECS}


def add_subcommand(subparsers: Any, spec: BenchmarkSpec) -> argparse.ArgumentParser:
    """Generate ``graphbench <spec.name>`` from the spec's argument table."""
    parser = subparsers.add_parser(spec.name, help=spec.help)
    for arg in spec.args:
        parser.add_argument(arg.flag, **arg.options)
    writes_baseline = not spec.baseline_args
    parser.add_argument(
        "--output",
        default=spec.baseline if writes_baseline else "",
        help=f"write the JSON payload here, e.g. {spec.baseline} ('' to skip)",
    )
    parser.add_argument(
        "--report",
        default=spec.report if writes_baseline and spec.report else "",
        help="write the rendered figure here ('' to skip)",
    )
    return parser


def execute(spec: BenchmarkSpec, args: argparse.Namespace) -> dict[str, Any]:
    """Map parsed flags to ``spec.run`` keywords and run the benchmark."""
    kwargs = {}
    for arg in spec.args:
        if arg.kwarg is None:
            continue
        value = getattr(args, arg.dest)
        kwargs[arg.kwarg] = arg.convert(value) if arg.convert else value
    return spec.run(**kwargs)


def write_report(
    payload: dict[str, Any],
    text: str,
    json_path: str | Path | None,
    text_path: str | Path | None,
) -> list[Path]:
    """Persist a payload and/or its rendered figure; falsy paths are skipped."""
    written: list[Path] = []
    for target, content in (
        (json_path, json.dumps(payload, indent=2, sort_keys=True)),
        (text_path, text),
    ):
        if target:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content + "\n")
            written.append(path)
    return written


def check(
    spec: BenchmarkSpec,
    baseline: dict[str, Any],
    current: dict[str, Any],
    max_regression: float = gates.DEFAULT_MAX_REGRESSION,
) -> list[str]:
    """Gate a regenerated payload against the committed one; return failures."""
    if spec.wall_clock:
        return gates.check_traversal_regressions(
            baseline, current, max_regression=max_regression
        )
    failures = gates.check_payload_identity(baseline, current, spec.regenerate_command)
    if spec.invariants is not None:
        failures.extend(spec.invariants(current))
    return failures


def markdown_table() -> str:
    """The README's benchmark table (a test keeps the README in sync)."""
    lines = [
        "| regenerate the committed baseline | baseline | figure | `graphbench gate` checks |",
        "|---|---|---|---|",
    ]
    for spec in SPECS.values():
        figure = f"`{spec.report}`" if spec.report else "— (wall-clock)"
        lines.append(
            f"| `{spec.regenerate_command}` | `{spec.baseline}` | {figure} "
            f"| {spec.gated_on} |"
        )
    return "\n".join(lines)
