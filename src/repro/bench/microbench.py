"""Traversal-machine A/B in the deterministic currency (Q22-Q35).

Runs every traversal query twice against the same loaded engine: once on
the legacy per-walker executor
(:func:`~repro.gremlin.machine.baseline_execution`, the seed behaviour —
paths always tracked, no frontier batching, no bulking, no count pushdown)
and once on the optimized machine, and records per side the logical charge
and a digest of the result.  That is the machine's contract as a payload:
the rewrite may *save* charges (merged duplicates expand once) but never
adds any and never changes an answer — ``graphbench gate traversal``
checks exactly that, plus identity with ``BENCH_traversal.json``.

Wall time for traversals is not measured here: ``BENCHMARK.json``'s
``traverse`` workload owns it, under a pairs protocol.

:func:`run_traversal_matrix` covers every default engine (one version per
system, seven in total) with the same dataset and the same seeded
parameter plan, the paper's "same random selections across systems" rule.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

from repro.bench import registry
from repro.bench.gates import check_traversal_invariants
from repro.bench.workload import LoadedGraph, ParameterPlan
from repro.engines import DEFAULT_ENGINES, resolve_engine_id
from repro.gremlin.machine import baseline_execution
from repro.queries import query_by_id

#: The queries the machine rewrite targets (Table 2, category T).
TRAVERSAL_QUERY_IDS = tuple(f"Q{number}" for number in range(22, 36))


def _digest(result: Any) -> int:
    """Order-free checksum of a query result (ids are engine-internal)."""
    items = result if isinstance(result, (list, tuple, set)) else [result]
    return zlib.crc32(repr(sorted(map(repr, items))).encode())


def _run_engine(loaded: LoadedGraph, plan: ParameterPlan) -> dict[str, dict[str, int]]:
    """Charge and digest of every query under both executors."""
    engine = loaded.engine
    queries: dict[str, dict[str, int]] = {}
    for query_id in TRAVERSAL_QUERY_IDS:
        query = query_by_id(query_id)
        params = loaded.bind_params(dict(plan.params_for(query_id, count=1)[0]))
        engine.reset_metrics()
        with baseline_execution():
            baseline = query(engine, params)
        baseline_charge = engine.io_cost()
        engine.reset_metrics()
        optimized = query(engine, params)
        queries[query_id] = {
            "baseline_charge": baseline_charge,
            "optimized_charge": engine.io_cost(),
            "baseline_digest": _digest(baseline),
            "optimized_digest": _digest(optimized),
        }
    return queries


def run_traversal_matrix(
    engine_names: Iterable[str] = DEFAULT_ENGINES,
    # The dense generated co-authorship-like graph: its large BFS frontiers
    # are what the frontier batching is for.
    dataset_name: str = "mico",
    scale: float = 1.0,
    seed: int = 42,
    bfs_depth: int = 3,
    dataset_seed: int = 7,
) -> dict[str, Any]:
    """Run Q22-Q35 on both executors on every engine."""
    registry.check_args(SPEC.args, locals())
    dataset, header = registry.seeded_dataset(dataset_name, scale, dataset_seed)
    plan = ParameterPlan(dataset, seed=seed, depth=bfs_depth)
    engines = {
        engine_name: {"queries": _run_engine(loaded, plan)}
        for engine_name, loaded in registry.loaded_sources(engine_names, dataset)
    }
    return {
        "benchmark": "traversal-machine-charges",
        "dataset": header,
        "seed": seed,
        "bfs_depth": bfs_depth,
        "engines": engines,
    }


_COLUMNS = (
    ("query", "query", "{:s}"),
    ("baseline_charge", "baseline", "{:d}"),
    ("optimized_charge", "optimized", "{:d}"),
    ("saved", "saved", "{:.1%}"),
    ("result", "result", "{:s}"),
)


def format_report(report: dict[str, Any]) -> str:
    """Render the per-engine charge A/B as aligned text tables."""
    lines = [
        "Traversal machine: legacy per-walker executor vs bulked machine, "
        "logical charges per query (Q22-Q35)",
        f"{registry.dataset_line(report)}  "
        f"bfs depth={report['bfs_depth']}  seed={report['seed']}",
    ]
    for engine_name, entry in registry.by_engine(report["engines"]):
        rows = []
        for query_id, row in entry["queries"].items():
            baseline = row["baseline_charge"]
            saved = 1 - row["optimized_charge"] / baseline if baseline else 0.0
            same = row["baseline_digest"] == row["optimized_digest"]
            result = "same" if same else "DIFFERS"
            rows.append(("  ", {**row, "query": query_id, "saved": saved, "result": result}))
        lines.append("")
        lines.append(engine_name)
        lines.extend(registry.text_table(_COLUMNS, rows, width=10))
    lines.append("")
    lines.append(
        "charge = page reads/writes + index probes + record touches; the "
        "bulk primitives charge exactly what the per-id calls would, so the "
        "machine saves charges only where merged duplicate walkers expand "
        "once — and 'result' compares order-free digests of both answers."
    )
    return "\n".join(lines)


SPEC = registry.BenchmarkSpec(
    name="traversal",
    help="run Q22-Q35 on the legacy per-walker executor vs the bulked "
    "traversal machine, per engine (charge and result A/B)",
    run=run_traversal_matrix,
    format=format_report,
    args=(
        registry.arg(
            "--engine",
            "engine identifier or prefix, or 'all' for every default engine",
            kwarg="engine_names",
            default="all",
            convert=lambda name: (
                DEFAULT_ENGINES if name == "all" else (resolve_engine_id(name),)
            ),
        ),
        registry.DATASET,
        registry.SCALE,
        registry.arg("--depth", "BFS depth for Q32/Q33", kwarg="bfs_depth", minimum=0),
    ),
    baseline="BENCH_traversal.json",
    report="benchmarks/reports/fig7_traversal_machine.txt",
    gated_on="identity; optimized charge ≤ legacy charge; result digests equal",
    invariants=check_traversal_invariants,
)
