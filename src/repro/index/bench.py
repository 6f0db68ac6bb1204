"""The reachability benchmark behind ``graphbench reachability`` (fig14).

For every engine × structural shape, the benchmark loads the seeded shape,
replays the same seeded query set twice — once through the charged BFS
oracle (the "no index" arm every paper engine runs today) and once through
the interval index built by a charged labelling pass — and reports the
build cost, the per-arm query charges, and the charge speedup.

An in-bench differential check compares every indexed answer against the
BFS oracle's and aborts with :class:`~repro.exceptions.BenchmarkError`
rather than publish a payload from a wrong index.

Every figure except ``wall_seconds`` derives from seeded choices and
logical charges, so ``BENCH_reachability.json`` is byte-identical across
machines; CI regenerates it on every push and gates it on identity with
``graphbench gate reachability``.  The signature defaults of
:func:`run_reachability_benchmark` are the committed-baseline parameters.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.bench import registry
from repro.bench.gates import check_reachability_invariants
from repro.bench.workload import load_dataset_into
from repro.engines import create_engine
from repro.exceptions import BenchmarkError
from repro.index.generators import SHAPES, STRUCTURE_LABEL, generate_shape
from repro.index.interval import IntervalReachabilityIndex
from repro.index.oracle import bfs_descendants, bfs_reachable
from repro.index.report import format_reachability_report


def _plan_queries(
    vertex_ids: Sequence[Any], pairs: int, sources: int, seed: int
) -> tuple[list[tuple[Any, Any]], list[Any]]:
    """Seeded (src, dst) reachability pairs and descendant sources."""
    rng = random.Random(seed)
    reach = [(rng.choice(vertex_ids), rng.choice(vertex_ids)) for _ in range(pairs)]
    descend = [rng.choice(vertex_ids) for _ in range(sources)]
    return reach, descend


def run_reachability_cell(
    engine_id: str,
    shape: str,
    vertices: int,
    pairs: int,
    sources: int,
    seed: int,
) -> dict[str, Any]:
    """One (engine, shape) cell: BFS arm, charged build, indexed arm."""
    dataset = generate_shape(shape, vertices, seed=seed)
    engine = create_engine(engine_id)
    loaded = load_dataset_into(engine, dataset)
    ordered = [loaded.vertex_map[f"r{position}"] for position in range(vertices)]
    reach_queries, descend_queries = _plan_queries(ordered, pairs, sources, seed)

    # Arm 1 — the BFS oracle, what an unindexed engine pays per query.
    engine.reset_metrics()
    bfs_answers: list[bool] = []
    before = engine.io_cost()
    for src, dst in reach_queries:
        bfs_answers.append(bfs_reachable(engine, src, dst, STRUCTURE_LABEL))
    bfs_reachable_charge = engine.io_cost() - before
    before = engine.io_cost()
    bfs_sets = [set(bfs_descendants(engine, src, STRUCTURE_LABEL)) for src in descend_queries]
    bfs_descendants_charge = engine.io_cost() - before

    # Arm 2 — charged build, then the same queries through the index.
    engine.reset_metrics()
    index = IntervalReachabilityIndex(engine, label=STRUCTURE_LABEL).build()
    build_charge = engine.io_cost()
    stats = index.stats
    before = engine.io_cost()
    indexed_answers = [index.reachable(src, dst) for src, dst in reach_queries]
    indexed_reachable_charge = engine.io_cost() - before
    before = engine.io_cost()
    indexed_sets = [set(index.descendants(src)) for src in descend_queries]
    indexed_descendants_charge = engine.io_cost() - before
    engine.close()

    # The differential gate: a wrong index never reaches the payload.
    if indexed_answers != bfs_answers or indexed_sets != bfs_sets:
        raise BenchmarkError(
            f"reachability invariant violated on {engine_id}/{shape}: the "
            "interval index disagreed with the BFS oracle"
        )

    bfs_total = bfs_reachable_charge + bfs_descendants_charge
    indexed_total = indexed_reachable_charge + indexed_descendants_charge
    return {
        "engine": engine_id,
        "shape": shape,
        "dataset": {"vertices": dataset.vertex_count, "edges": dataset.edge_count},
        "index": {
            "build_charge": build_charge,
            "tree_coverage": round(stats.tree_coverage, 4),
            "components": stats.components,
            "tree_components": stats.tree_components,
            "edges_scanned": stats.edges_scanned,
        },
        "queries": {
            "reachable_pairs": pairs,
            "descendant_sources": sources,
            "reachable_true": sum(1 for answer in bfs_answers if answer),
        },
        "bfs": {
            "reachable_charge": bfs_reachable_charge,
            "descendants_charge": bfs_descendants_charge,
            "total_charge": bfs_total,
        },
        "indexed": {
            "reachable_charge": indexed_reachable_charge,
            "descendants_charge": indexed_descendants_charge,
            "total_charge": indexed_total,
        },
        "charge_speedup": round(bfs_total / max(indexed_total, 1), 2),
        # Queries after which the charged build pays for itself (None when
        # the index saves nothing on this shape, e.g. all-fallback regions).
        "amortize_after_queries": (
            round(build_charge * (pairs + sources) / (bfs_total - indexed_total), 1)
            if bfs_total > indexed_total
            else None
        ),
    }


def run_reachability_benchmark(
    # Three engines cover the three storage families with dedicated
    # vectorized kernels plus the linked-list native store the paper
    # centres on.
    engine_ids: Sequence[str] = ("nativelinked-3.0", "bitmapgraph-5.1", "columnargraph-1.0"),
    shapes: Sequence[str] = SHAPES,
    vertices: int = 96,
    pairs: int = 24,
    sources: int = 8,
    seed: int = 20181204,
) -> dict[str, Any]:
    """Run the engine × shape matrix (``BENCH_reachability.json``)."""
    registry.check_args(SPEC.args, locals())
    cells = [
        run_reachability_cell(engine_id, shape, vertices, pairs, sources, seed)
        for engine_id in engine_ids
        for shape in shapes
    ]
    return {
        "benchmark": "reachability-index",
        "label": STRUCTURE_LABEL,
        "vertices": vertices,
        "reachable_pairs": pairs,
        "descendant_sources": sources,
        "seed": seed,
        "shapes": list(shapes),
        "engines": list(engine_ids),
        "cells": cells,
    }


SPEC = registry.BenchmarkSpec(
    name="reachability",
    help="benchmark the interval reachability index against the charged "
    "BFS oracle per engine × structural shape (Figure 14)",
    run=run_reachability_benchmark,
    format=format_reachability_report,
    args=(
        registry.engines_arg("index"),
        registry.arg("--shapes", "structural shapes to sweep", choices=list(SHAPES)),
        registry.arg("--vertices", "vertices per generated shape", minimum=4),
        registry.arg("--pairs", "seeded reachable(src, dst) pairs per cell", minimum=1),
        registry.arg("--sources", "seeded descendants(src) sources per cell", minimum=1),
        registry.SEED,
    ),
    baseline="BENCH_reachability.json",
    report="benchmarks/reports/fig14_reachability.txt",
    gated_on="identity; tree-covered cells ≤ BFS charge; build ≤ 8 charges/element",
    invariants=check_reachability_invariants,
)
