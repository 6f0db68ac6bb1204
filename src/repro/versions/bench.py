"""The versioning benchmark behind ``graphbench versions`` (fig15).

For every engine × chain depth × query mix × retention policy, the
benchmark grows a version chain over a seeded base graph — a CUD churn
batch through the session layer, then ``catalog.commit()``, tagging
every ``tag_every``-th commit — and at each commit runs the query mix
*live*, recording results and base charge.  After each commit the cell's
retention policy is applied.  At the end the same queries replay as-of
every still-retained commit, and the cell reports:

* **as-of parity** — replayed results must be identical to the recorded
  live run at that commit, and the *head* replay must also match the
  live charge exactly (the overlay's fast-path delegation); any mismatch
  aborts with :class:`~repro.exceptions.BenchmarkError` rather than
  publish a wrong payload — this is the differential contract
  ``tests/versions/`` pins on all nine engines;
* **retention vs reclaim** — retained version-store bytes/entries and GC
  reclaim counters per policy (the workload seed deliberately excludes
  the retention policy, so all policies replay byte-identical churn and
  the cross-policy gates of ``graphbench gate versions`` hold);
* **diff cost** — a structural diff from the oldest retained commit to
  head, with its per-element charge;
* **as-of latency** — the logical charge of historical reads, reported
  as overhead over the live run at the same commit.

Every figure except ``wall_seconds`` derives from seeded choices and
logical charges, so ``BENCH_versions.json`` is byte-identical across
machines; CI regenerates and gates it with ``--require-identical``.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Sequence

from repro.bench import registry
from repro.bench.gates import check_versions_invariants
from repro.engines import create_engine
from repro.exceptions import BenchmarkError, ElementNotFoundError
from repro.versions.catalog import VersionCatalog
from repro.versions.report import format_versions_report


def _cell_seed(seed: int, engine_id: str, depth: int, mix: str) -> int:
    """Deterministic per-cell seed.  The retention policy is deliberately
    excluded so every policy replays the identical churn workload."""
    return zlib.crc32(f"{seed}:{engine_id}:{depth}:{mix}".encode())


def _run_mix(graph: Any, mix: str, sample: Sequence[Any]) -> list[Any]:
    """Run one query mix; identical code serves live and as-of runs.

    Results are canonicalized (sorted by repr) so list-ordering freedom
    across engines never masks or fakes a differential failure.
    """
    if mix == "read":
        out: list[Any] = []
        for vertex_id in sample:
            try:
                vertex = graph.vertex(vertex_id)
            except ElementNotFoundError:
                out.append((repr(vertex_id), None))
                continue
            out.append(
                (
                    repr(vertex_id),
                    vertex.label,
                    sorted(vertex.properties.items(), key=repr),
                    graph.degree(vertex_id),
                )
            )
        return out
    if mix == "traversal":
        names = sorted(
            graph.traversal().V().has_label("person").values("name").to_list(), key=repr
        )
        hops = sorted(
            graph.traversal().V(*sample).out("knows").values("name").to_list(), key=repr
        )
        return [names, hops, graph.traversal().E().count()]
    raise BenchmarkError(f"unknown query mix {mix!r}; expected 'read' or 'traversal'")


def _churn(engine: Any, rng: random.Random, live: list[Any], edges: list[Any], ops: int, step: int, floor: int) -> None:
    """One seeded CUD batch: create, update, and delete through sessions.

    Deletions commit in their own sessions, after the creates/updates:
    engines reuse freed ids, and a single commit that removes object X
    and creates a new object the engine hands the same id would leave the
    version store unable to tell the two lifetimes apart (same-timestamp
    marks).  Splitting the batch keeps reuse strictly *cross*-commit,
    which the MVCC marks order correctly.  A deletion landing on an
    element a previous cascade already took is skipped (probed first,
    because GC may have reclaimed the tombstone the overlay's own
    stale-removal rejection relies on).
    """
    mutate = engine.begin_session()
    new_vertices: list[Any] = []
    new_edges: list[Any] = []
    remove_edge_slots = 0
    remove_vertex_slots = 0
    for position in range(ops):
        op = rng.randrange(6)
        if op <= 1:  # create vertex (weighted up to offset removals)
            new_vertices.append(
                mutate.graph.add_vertex(
                    {"name": f"v{step}.{position}", "rank": rng.randrange(10)},
                    label="person",
                )
            )
        elif op == 2 and len(live) >= 2:  # create edge
            source, target = rng.choice(live), rng.choice(live)
            if source != target:
                new_edges.append(
                    mutate.graph.add_edge(source, target, "knows", {"w": rng.randrange(5)})
                )
        elif op == 3 and live:  # update property
            mutate.graph.set_vertex_property(rng.choice(live), "rank", rng.randrange(100))
        elif op == 4:
            remove_edge_slots += 1
        else:
            remove_vertex_slots += 1
    result = mutate.commit()
    live.extend(result.id_map[p] for p in new_vertices)
    edges.extend(result.id_map[p] for p in new_edges)

    if remove_edge_slots:
        drop = engine.begin_session()
        for _ in range(remove_edge_slots):
            if not edges:
                break
            edge_id = edges.pop(rng.randrange(len(edges)))
            # A previous vertex cascade may already have taken this edge.
            # The overlay rejects the stale removal while its tombstone
            # survives, but pruning retention policies let GC reclaim
            # tombstones — so probe first.  Both paths pop the id, skip
            # the removal, and consume no randomness, so the churn stays
            # byte-identical across retention policies.
            try:
                if drop.graph.edge_exists(edge_id):
                    drop.graph.remove_edge(edge_id)
            except ElementNotFoundError:
                pass
        drop.commit()

    if remove_vertex_slots:
        drop = engine.begin_session()
        for _ in range(remove_vertex_slots):
            if len(live) <= floor:
                break
            drop.graph.remove_vertex(live.pop(rng.randrange(len(live))))
        drop.commit()


def run_versions_cell(
    engine_id: str,
    depth: int,
    mix: str,
    retention: str,
    base_vertices: int,
    churn_ops: int,
    tag_every: int,
    seed: int,
) -> dict[str, Any]:
    """One (engine, depth, mix, retention) cell; see the module docstring."""
    cell_seed = _cell_seed(seed, engine_id, depth, mix)
    rng = random.Random(cell_seed)
    engine = create_engine(engine_id)

    # Base graph through one session commit: versioning only covers writes
    # that flow through the MVCC layer, so the bench loads the same way.
    session = engine.begin_session()
    provisional = [
        session.graph.add_vertex({"name": f"base{i}", "rank": i % 7}, label="person")
        for i in range(base_vertices)
    ]
    base_edges = []
    for i in range(base_vertices):
        j = (i * 3 + 1) % base_vertices
        if j != i:
            base_edges.append(
                session.graph.add_edge(provisional[i], provisional[j], "knows", {"w": i % 5})
            )
    result = session.commit()
    live = [result.id_map[p] for p in provisional]
    edges = [result.id_map[p] for p in base_edges]

    # Commit the base version before any churn: its pin makes every later
    # commit capture before-images and cascade marks, which the overlay's
    # stale-deletion rejection (and the whole as-of replay) relies on.
    # Deliberately untagged — a tag on the oldest commit would hold the GC
    # low-water mark at the epoch under *every* policy and flatten the
    # retention-vs-reclaim axis the figure exists to show.
    catalog: VersionCatalog = engine.versions()
    catalog.commit(message="seeded base graph")

    records: list[dict[str, Any]] = []
    for step in range(1, depth + 1):
        _churn(engine, rng, live, edges, churn_ops, step, base_vertices // 2)
        tag = f"t{step}" if step % tag_every == 0 else None
        commit = catalog.commit(tag=tag, message=f"churn step {step}")
        sample = [rng.choice(live) for _ in range(min(4, len(live)))]
        engine.reset_metrics()
        results = _run_mix(engine, mix, sample)
        records.append(
            {
                "commit": commit.id,
                "tag": tag,
                "sample": sample,
                "results": results,
                "live_charge": engine.io_cost(),
            }
        )
        catalog.apply_retention(retention)

    # As-of replay over every still-retained commit, oldest first.
    replay_rows: list[dict[str, Any]] = []
    total_overhead = 0
    for record in records:
        commit = catalog.commits[record["commit"]]
        if not commit.retained:
            continue
        view = catalog.view(commit.id)
        engine.reset_metrics()
        asof_results = _run_mix(view, mix, record["sample"])
        asof_charge = engine.io_cost()
        if asof_results != record["results"]:
            raise BenchmarkError(
                f"as-of differential violated on {engine_id} depth={depth} mix={mix} "
                f"retention={retention}: commit {commit.id} replayed different results"
            )
        is_head = commit.id == catalog.head_id
        overhead = asof_charge - record["live_charge"]
        if is_head and overhead != 0:
            raise BenchmarkError(
                f"head as-of charge parity violated on {engine_id} depth={depth} "
                f"mix={mix}: live {record['live_charge']} vs as-of {asof_charge}"
            )
        total_overhead += overhead
        replay_rows.append(
            {
                "commit": commit.id,
                "tag": record["tag"],
                "live_charge": record["live_charge"],
                "asof_charge": asof_charge,
                "overhead": overhead,
                "head": is_head,
            }
        )

    oldest_retained = catalog.retained_commits()[0].id
    diff = catalog.diff(oldest_retained, "HEAD")
    diff_summary = diff.summary()
    diff_summary["charge_per_element"] = round(diff.charge / max(diff.visited, 1), 2)
    engine.close()

    return {
        "engine": engine_id,
        "depth": depth,
        "mix": mix,
        "retention": retention,
        "seed": cell_seed,
        "graph": {"vertices": len(live), "churn_ops_per_step": churn_ops},
        "asof": {
            "replayed": len(replay_rows),
            "results_match": True,
            "head_overhead": 0,
            "total_overhead": total_overhead,
            "rows": replay_rows,
        },
        "diff": diff_summary,
        "catalog": catalog.snapshot(),
    }


def run_versions_benchmark(
    # The linked-list native store the paper centres on plus the columnar
    # and relational families.
    engine_ids: Sequence[str] = ("nativelinked-1.9", "columnargraph-1.0", "relationalgraph-1.2"),
    depths: Sequence[int] = (4, 8),
    mixes: Sequence[str] = ("read", "traversal"),
    retentions: Sequence[str] = ("keep-all", "keep-tagged", "depth-2"),
    base_vertices: int = 24,
    churn_ops: int = 12,
    tag_every: int = 2,
    seed: int = 20181204,
) -> dict[str, Any]:
    """Run the engine × depth × mix × retention matrix (``BENCH_versions.json``)."""
    registry.check_args(SPEC.args, locals())
    cells = [
        run_versions_cell(
            engine_id, depth, mix, retention, base_vertices, churn_ops, tag_every, seed
        )
        for engine_id in engine_ids
        for depth in depths
        for mix in mixes
        for retention in retentions
    ]
    return {
        "benchmark": "graph-versions",
        "base_vertices": base_vertices,
        "churn_ops": churn_ops,
        "tag_every": tag_every,
        "seed": seed,
        "engines": list(engine_ids),
        "depths": list(depths),
        "mixes": list(mixes),
        "retentions": list(retentions),
        "cells": cells,
    }


SPEC = registry.BenchmarkSpec(
    name="versions",
    help="graph versioning: commit chains under CUD churn, as-of replay "
    "(byte-identical to the live run), structural diff, and retained "
    "bytes vs GC reclaim per retention policy (Figure 15)",
    run=run_versions_benchmark,
    format=format_versions_report,
    args=(
        registry.engines_arg("version"),
        registry.arg("--depths", "commit-chain depths to sweep (churn steps per chain)", minimum=1),
        registry.arg(
            "--mixes",
            "query mixes replayed as-of every retained commit",
            choices=["read", "traversal"],
        ),
        registry.arg("--retentions", "retention policies to sweep: keep-all, keep-tagged, depth-N"),
        # The base graph halves under churn (the deletion floor), and the
        # query mixes sample four live vertices.
        registry.arg("--base-vertices", "vertices in the seeded base graph", minimum=8),
        registry.arg("--churn-ops", "CUD operations between consecutive commits", minimum=1),
        registry.arg("--tag-every", "tag every Nth commit (what keep-tagged retains)", minimum=1),
        registry.SEED,
    ),
    baseline="BENCH_versions.json",
    report="benchmarks/reports/fig15_versions.txt",
    gated_on="identity; as-of replay matches with head charge parity; "
    "diff ≤ 8 charges/element; pruning reclaims ≥ keep-all",
    invariants=check_versions_invariants,
)
