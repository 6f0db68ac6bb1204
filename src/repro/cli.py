"""Command-line interface: ``graphbench`` / ``python -m repro``.

Sub-commands mirror the workflow of the paper's test suite:

* ``graphbench engines`` — list the simulated systems (Table 1);
* ``graphbench datasets`` — list the datasets and their Table 3 statistics;
* ``graphbench micro`` — run the microbenchmark and print the per-figure
  timing tables, the time-out table, the overall totals, and Table 4;
* ``graphbench complex`` — run the 13 LDBC-style complex queries (Figure 2);
* ``graphbench space`` — measure space occupancy (Figure 1a/1b);
* ``graphbench gate`` — regenerate committed ``BENCH_*.json`` baselines into
  a temp dir and gate them on identity;

plus one generated sub-command per entry of
:data:`repro.bench.registry.SPECS` (listed below from the registry itself).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from repro.bench.registry import (
    SPECS,
    BenchmarkSpec,
    add_subcommand,
    check,
    execute,
    output_paths,
    write_report,
)
from repro.bench.report import (
    overall_table,
    rows_table,
    space_table,
    timeout_table,
    timing_table,
)
from repro.bench.spaces import measure_space_matrix
from repro.bench.suite import BenchmarkSuite
from repro.bench.summary import summary_table
from repro.config import BenchConfig
from repro.datasets import available_datasets, compute_statistics, get_dataset
from repro.engines import DEFAULT_ENGINES, available_engines, engine_info
from repro.exceptions import BenchmarkError, VersionError
from repro.queries.registry import query_ids

if __doc__:  # absent under -OO
    __doc__ += "\n" + "\n".join(
        f"* ``graphbench {spec.name}`` — {spec.help};" for spec in SPECS.values()
    )


def _engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engines",
        nargs="+",
        default=list(DEFAULT_ENGINES),
        choices=list(available_engines()),
        help="engines to benchmark (default: one version per system)",
    )


def _common_bench_arguments(parser: argparse.ArgumentParser) -> None:
    _engine_argument(parser)
    parser.add_argument("--scale", type=float, default=0.5, help="dataset scale factor")
    parser.add_argument("--timeout", type=float, default=30.0, help="per-query timeout in seconds")
    parser.add_argument("--batch-size", type=int, default=10, help="repetitions in batch mode")
    parser.add_argument("--seed", type=int, default=20181204, help="random seed for parameter choices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbench",
        description="Microbenchmark-based graph database evaluation suite",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("engines", help="list the simulated systems (Table 1)")

    datasets_parser = subparsers.add_parser("datasets", help="list datasets and statistics (Table 3)")
    datasets_parser.add_argument("--scale", type=float, default=0.5)
    datasets_parser.add_argument("--seed", type=int, default=20181204)

    micro_parser = subparsers.add_parser("micro", help="run the microbenchmark")
    _common_bench_arguments(micro_parser)
    micro_parser.add_argument(
        "--datasets",
        nargs="+",
        default=["frb-s", "frb-o"],
        choices=list(available_datasets()),
        help="datasets to run on",
    )
    micro_parser.add_argument(
        "--queries", nargs="+", default=None, help="restrict to specific query ids (e.g. Q22 Q32)"
    )

    complex_parser = subparsers.add_parser("complex", help="run the LDBC-style complex queries")
    _common_bench_arguments(complex_parser)

    space_parser = subparsers.add_parser("space", help="measure space occupancy (Figure 1a/1b)")
    _engine_argument(space_parser)
    space_parser.add_argument("--scale", type=float, default=0.5)
    space_parser.add_argument(
        "--datasets", nargs="+", default=["frb-s", "frb-o"], choices=list(available_datasets())
    )
    space_parser.add_argument("--seed", type=int, default=20181204)

    for spec in SPECS.values():
        add_subcommand(subparsers, spec)

    gate_parser = subparsers.add_parser(
        "gate",
        help="regenerate committed BENCH_*.json baselines and gate them",
    )
    gate_parser.add_argument(
        "names", nargs="*", metavar="NAME", help=f"benchmarks to gate: {', '.join(SPECS)}"
    )
    gate_parser.add_argument("--all", action="store_true", help="gate every benchmark")
    return parser


def _command_engines() -> int:
    rows = [engine_info(identifier).as_row() for identifier in available_engines()]
    headers = ["System", "Type", "Storage", "Edge Traversal", "Gremlin", "Query Execution", "Access", "Languages"]
    print(rows_table(headers, rows, title="Simulated systems (Table 1)"))
    return 0


def _command_datasets(scale: float, seed: int) -> int:
    rows = []
    for name in available_datasets():
        dataset = get_dataset(name, scale=scale, seed=seed)
        rows.append(compute_statistics(dataset).as_row())
    headers = ["Dataset", "|V|", "|E|", "|L|", "#", "Maxim", "Density", "Modularity", "Avg", "Max", "Delta"]
    print(rows_table(headers, rows, title=f"Dataset characteristics (Table 3, scale={scale})"))
    return 0


def _command_micro(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(
        engine_ids=args.engines,
        dataset_names=args.datasets,
        scale=args.scale,
        bench_config=BenchConfig(timeout=args.timeout, batch_size=args.batch_size, seed=args.seed),
        query_ids=args.queries,
    )
    results = suite.run_micro()
    selected = args.queries or ["Q1"] + list(query_ids())[1:]
    for dataset in args.datasets:
        print(timing_table(results, selected, dataset, title=f"Microbenchmark timings on {dataset}"))
        print()
    print(timeout_table(results))
    print()
    print(overall_table(results, mode="single", title="Overall cumulative time (single executions)"))
    print()
    print(overall_table(results, mode="batch", title="Overall cumulative time (batch executions)"))
    print()
    print(summary_table(results))
    return 0


def _command_complex(args: argparse.Namespace) -> int:
    suite = BenchmarkSuite(
        engine_ids=args.engines,
        dataset_names=["ldbc"],
        scale=args.scale,
        bench_config=BenchConfig(timeout=args.timeout, batch_size=args.batch_size, seed=args.seed),
    )
    results = suite.run_complex()
    from repro.queries.complex_ldbc import COMPLEX_QUERIES

    print(
        timing_table(
            results, list(COMPLEX_QUERIES), "ldbc", title="Complex query performance on ldbc (Figure 2)"
        )
    )
    return 0


def _run(
    parser: argparse.ArgumentParser, spec: BenchmarkSpec, args: argparse.Namespace
) -> int:
    """Run one registry benchmark: print the figure, write what was asked."""
    try:
        payload = execute(spec, args)
    except (BenchmarkError, VersionError) as error:
        print(f"graphbench {spec.name}: {error}", file=sys.stderr)
        return 2
    text = spec.format(payload)
    print(text)
    baseline = parser.parse_args([spec.name, *spec.baseline_args])
    written = write_report(payload, text, *output_paths(spec, args, baseline))
    if spec.after is not None:
        written.extend(spec.after(payload, args))
    for path in written:
        print(f"wrote {path.resolve()}")
    return 0


def _command_gate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Regenerate each named baseline into a temp dir and gate it."""
    unknown = [name for name in args.names if name not in SPECS]
    if unknown or args.all == bool(args.names):
        parser.error(f"gate takes benchmark names from {list(SPECS)}, or --all")
    specs = [SPECS[name] for name in (SPECS if args.all else args.names)]
    for spec in specs:
        for path in (spec.baseline, spec.report):
            if not Path(path).exists():
                parser.error(f"{path} not found: gate runs from the repository root")
    out_dir = Path(tempfile.mkdtemp(prefix="graphbench-gate-"))
    exit_code = 0
    for spec in specs:
        json_path = out_dir / spec.baseline
        text_path = out_dir / Path(spec.report).name
        argv = [spec.name, *spec.baseline_args]
        argv += ["--output", str(json_path), "--report", str(text_path)]
        if _run(parser, spec, parser.parse_args(argv)) != 0:
            failures = ["the benchmark itself failed (see stderr)"]
        else:
            failures = check(
                spec,
                json.loads(Path(spec.baseline).read_text()),
                json.loads(json_path.read_text()),
            )
            if text_path.read_text() != Path(spec.report).read_text():
                failures.append(
                    f"rendered figure differs from the tracked {spec.report} "
                    f"(re-render via `{spec.regenerate_command}`)"
                )
        if failures:
            exit_code = 1
            print(f"{spec.name} gate FAILED:")
            for failure in failures:
                print(f"  - {failure}")
        else:
            print(f"{spec.name} gate passed: {spec.gated_on}")
    print(f"regenerated artifacts are in {out_dir}")
    return exit_code


def _command_space(args: argparse.Namespace) -> int:
    datasets = [get_dataset(name, scale=args.scale, seed=args.seed) for name in args.datasets]
    measurements = measure_space_matrix(list(args.engines), datasets)
    print(space_table(measurements, title="Space occupancy (Figure 1a/1b)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``graphbench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "engines":
        return _command_engines()
    if args.command == "datasets":
        return _command_datasets(args.scale, args.seed)
    if args.command == "micro":
        return _command_micro(args)
    if args.command == "complex":
        return _command_complex(args)
    if args.command == "space":
        return _command_space(args)
    if args.command == "gate":
        return _command_gate(parser, args)
    if args.command in SPECS:
        return _run(parser, SPECS[args.command], args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
