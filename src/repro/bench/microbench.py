"""Before/after microbenchmark for the traversal machine (Q22-Q35).

Times every traversal query twice against the same loaded engine: once with
the legacy per-walker executor
(:func:`~repro.gremlin.machine.baseline_execution`, the seed behaviour —
paths always tracked, no frontier batching, no bulking, no count pushdown)
and once with the optimized machine.  The per-query wall-clock medians and
speedups are written to ``BENCH_traversal.json``.

:func:`run_traversal_matrix` runs the A/B comparison over every default
engine (one version per system, seven in total), so the report shows how
much of each architecture's traversal cost is interpreter overhead that
bulking removes versus charge-bearing work in its storage substrate — the
paper's claim that the engine-internal representation, not the query
language, dominates graph-workload cost.

Run it through ``graphbench traversal``; gate regressions with
``graphbench gate traversal``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Iterable

from repro.bench.workload import ParameterPlan, load_dataset_into
from repro.datasets import get_dataset
from repro.engines import DEFAULT_ENGINES, create_engine
from repro.gremlin.machine import baseline_execution
from repro.queries import query_by_id

#: The queries the tentpole rewrite targets (Table 2, category T).
TRAVERSAL_QUERY_IDS = tuple(f"Q{number}" for number in range(22, 36))

#: Default benchmark subject: the dense generated co-authorship-like graph
#: (its large BFS frontiers are what the frontier batching is for), timed
#: against every default engine.
DEFAULT_DATASET = "mico"


def _median_seconds(run, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _time_engine(
    engine_name: str,
    dataset,
    plan: ParameterPlan,
    repeats: int,
    bfs_depth: int,
    query_ids: tuple[str, ...],
) -> dict[str, dict[str, float]]:
    """Load ``dataset`` into a fresh engine and A/B-time every query."""
    engine = create_engine(engine_name)
    loaded = load_dataset_into(engine, dataset)

    queries: dict[str, dict[str, float]] = {}
    for query_id in query_ids:
        query = query_by_id(query_id)
        params = loaded.bind_params(dict(plan.params_for(query_id, count=1)[0]))
        if "depth" in params:
            params["depth"] = bfs_depth

        def run_once(query=query, params=params):
            query(engine, params)

        run_once()  # warm both code paths and the structures once
        with baseline_execution():
            baseline = _median_seconds(run_once, repeats)
        optimized = _median_seconds(run_once, repeats)
        queries[query_id] = {
            "baseline_median_s": round(baseline, 6),
            "optimized_median_s": round(optimized, 6),
            "speedup": round(baseline / optimized, 3) if optimized > 0 else float("inf"),
        }
    engine.close()
    return queries


def run_traversal_matrix(
    engine_names: Iterable[str] = DEFAULT_ENGINES,
    dataset_name: str = DEFAULT_DATASET,
    scale: float = 1.0,
    seed: int = 7,
    param_seed: int = 42,
    repeats: int = 3,
    bfs_depth: int = 3,
    query_ids: tuple[str, ...] = TRAVERSAL_QUERY_IDS,
) -> dict[str, Any]:
    """Time ``query_ids`` before/after the machine rewrite on every engine.

    Every engine sees the same dataset and the same seeded parameter plan
    (the paper's "same random selections across systems" rule), so the
    per-engine speedups are directly comparable.
    """
    dataset = get_dataset(dataset_name, scale=scale, seed=seed)
    plan = ParameterPlan(dataset, seed=param_seed, depth=bfs_depth)
    engines: dict[str, dict[str, Any]] = {}
    for engine_name in engine_names:
        engines[engine_name] = {
            "queries": _time_engine(
                engine_name, dataset, plan, repeats, bfs_depth, query_ids
            )
        }
    return {
        "benchmark": "traversal-machine-microbench",
        "dataset": {
            "name": dataset_name,
            "scale": scale,
            "seed": seed,
            "vertices": dataset.vertex_count,
            "edges": dataset.edge_count,
        },
        "bfs_depth": bfs_depth,
        "repeats": repeats,
        "engines": engines,
    }


def format_report(report: dict[str, Any]) -> str:
    """Render the report as aligned per-engine text tables."""
    dataset = report["dataset"]
    lines = [
        f"traversal microbench — {dataset['name']} "
        f"(V={dataset['vertices']}, E={dataset['edges']}, "
        f"depth={report['bfs_depth']}, repeats={report['repeats']})"
    ]
    for engine_name, entry in report["engines"].items():
        lines.append("")
        lines.append(f"[{engine_name}]")
        lines.append(f"{'query':<6} {'baseline':>12} {'optimized':>12} {'speedup':>8}")
        for query_id, row in sorted(
            entry["queries"].items(), key=lambda item: int(item[0][1:])
        ):
            lines.append(
                f"{query_id:<6} {row['baseline_median_s'] * 1000:>10.2f}ms "
                f"{row['optimized_median_s'] * 1000:>10.2f}ms {row['speedup']:>7.2f}x"
            )
    return "\n".join(lines)
