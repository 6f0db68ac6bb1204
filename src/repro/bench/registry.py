"""The one benchmark harness: parameters, matrix scaffolding, figures, gate.

Every ``BENCH_*.json`` benchmark is one :class:`BenchmarkSpec`, declared
beside its ``run_*`` function (the ``SPEC`` of each module in
:data:`SPEC_MODULES`) and collected here as :data:`SPECS`.  ``graphbench``
generates a subcommand per spec (:func:`add_subcommand`), runs it through
:func:`execute`, persists through :func:`write_report`, and gates it through
:func:`check` — so what a benchmark is called, how it is invoked, where its
committed baseline lives and how it is gated is decided here and nowhere
else.

A parameter is declared once.  Its **default** is the ``run_*`` signature
default — :func:`add_subcommand` reads it from there — and its **choices
and range** are on the :class:`Arg`; ``run_*`` starts with
:func:`check_args`, so the CLI, the gate and a library call refuse the same
values with the same message.  The pieces every matrix driver repeats — the seeded dataset and
its payload header, one loaded source engine per id, summed outcome
ledgers, the aligned ``_COLUMNS`` table — live here too and are called from
the drivers; each driver still spells its own axes and payload.

``baseline_args`` are the flags that regenerate the committed baseline;
they are empty when a plain ``graphbench <name>`` already does.  A run
writes to the committed paths by default only when every run parameter
equals the baseline's (:func:`output_paths`) — otherwise ``--output`` /
``--report`` default to ``''`` (skip), so an incompatible-parameter payload
never clobbers a baseline by accident.

This module imports no subsystem at import time (the subsystems' bench
modules import *it*); :data:`SPECS` is assembled on first access.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.bench import gates
from repro.bench.workload import LoadedGraph, load_dataset_into
from repro.datasets import available_datasets, get_dataset
from repro.datasets.base import Dataset
from repro.engines import create_engine, resolve_engine_id
from repro.exceptions import BenchmarkError

if TYPE_CHECKING:
    import argparse


# ----------------------------------------------------------------------
# Parameters and specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Arg:
    """One CLI flag: the ``run`` keyword it feeds and the values it accepts."""

    flag: str
    #: Attribute of the parsed namespace (argparse's own derivation).
    dest: str
    #: Keyword of the spec's ``run`` function, whose signature default is
    #: the flag's default; ``None`` for flags that only steer the CLI
    #: (``--compare-loops`` ...).
    kwarg: str | None
    #: argparse options; a ``default`` here overrides the signature's.
    options: dict[str, Any]
    #: Inclusive bounds, applied to every element of a list-valued flag.
    minimum: float | None = None
    maximum: float | None = None
    #: Applied to the parsed value before it is passed on (engine prefixes).
    convert: Callable[[Any], Any] | None = None


def arg(
    flag: str,
    help: str | None = None,
    *,
    kwarg: str | None = "",
    minimum: float | None = None,
    maximum: float | None = None,
    convert: Callable[[Any], Any] | None = None,
    **options: Any,
) -> Arg:
    """Build an :class:`Arg`.

    ``kwarg`` defaults to the flag's own name (``--group-commit`` →
    ``group_commit``); pass ``None`` for a flag ``run`` never sees.
    """
    if help is not None:
        options["help"] = help
    dest = flag.lstrip("-").replace("-", "_")
    return Arg(flag, dest, dest if kwarg == "" else kwarg, options, minimum, maximum, convert)


def _resolve_all(names: Sequence[str]) -> list[str]:
    return [resolve_engine_id(name) for name in names]


def engines_arg(verb: str) -> Arg:
    """``--engines``: short aliases are accepted ("triple" → "triplegraph-2.1"),
    so no argparse choices; resolution happens in ``convert``."""
    return arg(
        "--engines",
        f"engines to {verb}; identifiers or unambiguous prefixes",
        kwarg="engine_ids",
        convert=_resolve_all,
    )


DATASET = arg("--dataset", kwarg="dataset_name", choices=list(available_datasets()))
#: The generators clamp every count to a floor, so a scale at or below zero
#: would silently run on the smallest graph instead of failing.
SCALE = arg("--scale", minimum=0.01)
SEED = arg("--seed")


def check_args(args: Sequence[Arg], values: Mapping[str, Any]) -> None:
    """Refuse any ``values[arg.kwarg]`` outside the choices or range its flag declares."""
    for declared in args:
        if declared.kwarg is None:
            continue
        value = values[declared.kwarg]
        items = value if isinstance(value, (list, tuple)) else (value,)
        choices = declared.options.get("choices")
        if choices is not None and any(item not in choices for item in items):
            raise BenchmarkError(
                f"unknown {declared.flag} in {value!r}; expected one of {list(choices)}"
            )
        low, high = declared.minimum, declared.maximum
        if any(
            (low is not None and item < low) or (high is not None and item > high)
            for item in items
        ):
            wanted = f">= {low:g}" if high is None else f"in {low:g}..{high:g}"
            raise BenchmarkError(f"need {declared.flag} {wanted}, got {value}")


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
    #: Tracked text figure rendered from the baseline run.
    report: str
    #: What the gate checks, for the docs table.
    gated_on: str
    baseline_args: tuple[str, ...] = ()
    #: Payload-local invariant checks run on top of identity.
    invariants: Callable[[dict[str, Any]], list[str]] | None = None
    #: Extra CLI-only step after the main report: ``(payload, args) -> paths``.
    after: Callable[[dict[str, Any], argparse.Namespace], list[Path]] | None = None

    @property
    def regenerate_command(self) -> str:
        """The command line that rewrites the committed baseline + figure."""
        return " ".join(["graphbench", self.name, *self.baseline_args])


#: Modules that declare a ``SPEC`` beside their ``run_*``, in figure order.
SPEC_MODULES = (
    "repro.bench.microbench",
    "repro.concurrency.driver",
    "repro.concurrency.saturation",
    "repro.partition.bench",
    "repro.faults.bench",
    "repro.replication.bench",
    "repro.txn.bench",
    "repro.index.bench",
    "repro.versions.bench",
)


def load_specs() -> dict[str, BenchmarkSpec]:
    """Every registered benchmark by subcommand name (also ``SPECS``).

    Assembled on use, not at import: the spec modules import this one.
    """
    specs = (import_module(module).SPEC for module in SPEC_MODULES)
    return {spec.name: spec for spec in specs}


def __getattr__(name: str) -> Any:
    if name == "SPECS":
        return load_specs()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Matrix-run scaffolding
# ----------------------------------------------------------------------


def seeded_dataset(name: str, scale: float, seed: int) -> tuple[Dataset, dict[str, Any]]:
    """Generate a dataset and the ``"dataset"`` header its payloads carry."""
    dataset = get_dataset(name, scale=scale, seed=seed)
    return dataset, {
        "name": name,
        "scale": scale,
        "seed": seed,
        "vertices": dataset.vertex_count,
        "edges": dataset.edge_count,
    }


def dataset_line(payload: Mapping[str, Any]) -> str:
    """How every figure names the dataset its ``payload`` ran on."""
    dataset = payload["dataset"]
    return (
        f"dataset={dataset['name']} scale={dataset['scale']} "
        f"(V={dataset['vertices']}, E={dataset['edges']})"
    )


def loaded_sources(
    engine_ids: Iterable[str], dataset: Dataset
) -> Iterator[tuple[str, LoadedGraph]]:
    """One freshly loaded engine per id, closed when the caller moves on.

    The matrix drivers carve every cell's shards out of this source
    (extraction is read-only; they reset its metrics per cell).
    """
    for engine_id in engine_ids:
        engine = create_engine(engine_id)
        try:
            yield engine_id, load_dataset_into(engine, dataset)
        finally:
            engine.close()


def accumulate(totals: dict[str, Any], outcome: Any, fields: Iterable[str]) -> None:
    """``totals[field] += outcome.field`` for every named ledger field."""
    for name in fields:
        totals[name] += getattr(outcome, name)


# ----------------------------------------------------------------------
# Figure tables
# ----------------------------------------------------------------------

#: ``(payload key, column title, format spec)`` per column.
Columns = Sequence[tuple[str, str, str]]


def header_cells(columns: Columns, width: int = 9) -> str:
    """The right-aligned column titles of a figure table."""
    return "".join(f" {title:>{max(width, len(title))}}" for _key, title, _fmt in columns)


def row_cells(columns: Columns, values: Mapping[str, Any], width: int = 9) -> str:
    """One row's formatted values under :func:`header_cells`."""
    return "".join(
        f" {fmt.format(values[key]):>{max(width, len(title))}}" for key, title, fmt in columns
    )


def text_table(
    columns: Columns,
    rows: Iterable[tuple[str, Mapping[str, Any]]],
    *,
    width: int = 9,
    lead: str = "  ",
    indent: str = "  ",
    dashes: bool = True,
) -> list[str]:
    """Header, dashes and one line per ``(lead, values)`` row.

    ``lead`` starts the header line and each row brings its own (a marker,
    a label column); the dashes span the header right of ``indent``.
    """
    header = lead + header_cells(columns, width)
    lines = [header]
    if dashes:
        lines.append(indent + "-" * (len(header) - len(indent)))
    lines.extend(row_lead + row_cells(columns, values, width) for row_lead, values in rows)
    return lines


# ----------------------------------------------------------------------
# CLI generation, persistence, gate
# ----------------------------------------------------------------------


def add_subcommand(subparsers: Any, spec: BenchmarkSpec) -> argparse.ArgumentParser:
    """Generate ``graphbench <spec.name>`` from the spec's argument table.

    ``type``/``nargs`` follow from each flag's default, which is the
    ``spec.run`` signature's unless the :class:`Arg` carries its own.
    """
    parser = subparsers.add_parser(spec.name, help=spec.help)
    signature = inspect.signature(spec.run).parameters
    for declared in spec.args:
        options = dict(declared.options)
        if "action" not in options:
            if "default" in options:
                default = options["default"]
            else:
                default = signature[declared.kwarg].default
            if isinstance(default, (list, tuple)):
                default = list(default)
                options.setdefault("nargs", "+")
            sample = default[0] if isinstance(default, list) else default
            if isinstance(sample, (int, float)) and not isinstance(sample, bool):
                options.setdefault("type", type(sample))
            options["default"] = default
        parser.add_argument(declared.flag, **options)
    parser.add_argument(
        "--output",
        help=f"write the JSON payload here, e.g. {spec.baseline} ('' to skip)",
    )
    parser.add_argument("--report", help="write the rendered figure here ('' to skip)")
    return parser


def output_paths(
    spec: BenchmarkSpec, args: argparse.Namespace, baseline: argparse.Namespace
) -> tuple[str, str]:
    """Where a run writes its payload and figure.

    ``--output`` / ``--report`` win when given; left out, they mean the
    committed paths if every run parameter equals the ``baseline``
    invocation's (``spec.baseline_args`` parsed), and ``''`` otherwise.
    """
    regenerates = all(
        getattr(args, declared.dest) == getattr(baseline, declared.dest)
        for declared in spec.args
        if declared.kwarg is not None
    )
    output, report = (spec.baseline, spec.report) if regenerates else ("", "")
    return (
        output if args.output is None else args.output,
        report if args.report is None else args.report,
    )


def execute(spec: BenchmarkSpec, args: argparse.Namespace) -> dict[str, Any]:
    """Map parsed flags to ``spec.run`` keywords, run, stamp ``wall_seconds``."""
    kwargs = {}
    for declared in spec.args:
        if declared.kwarg is None:
            continue
        value = getattr(args, declared.dest)
        kwargs[declared.kwarg] = declared.convert(value) if declared.convert else value
    started = time.perf_counter()
    payload = spec.run(**kwargs)
    # The one field that is not a function of the arguments; identity
    # gates strip it (``gates.comparable_payload``).
    payload["wall_seconds"] = round(time.perf_counter() - started, 3)
    return payload


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
    spec: BenchmarkSpec, baseline: dict[str, Any], current: dict[str, Any]
) -> list[str]:
    """Gate a regenerated payload against the committed one; return failures."""
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
    for spec in load_specs().values():
        lines.append(
            f"| `{spec.regenerate_command}` | `{spec.baseline}` | `{spec.report}` "
            f"| {spec.gated_on} |"
        )
    return "\n".join(lines)
