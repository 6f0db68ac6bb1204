"""Gate checks for the committed ``BENCH_*.json`` payloads.

All nine benchmarks derive every figure from seeded choices and logical
charges, so there is one gate and it is *identity*: a regenerated payload
must equal the committed one (:func:`check_payload_identity`, modulo
``wall_seconds``), and a red gate means a bug or an unregenerated
baseline — never box load.  Identity subsumes any baseline-relative
threshold, so the only other checks kept are invariants that inspect one
payload on its own — they name *what* broke when an intentional change
regenerates a baseline.

Each benchmark's :class:`~repro.bench.registry.BenchmarkSpec` binds it to
its invariants; ``graphbench gate`` runs them.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

#: How many differing JSON paths an identity failure names.
MAX_DIFF_PATHS = 10


def comparable_payload(report: dict[str, Any]) -> str:
    """The report serialised without wall-clock fields (determinism checks)."""
    stripped = {key: value for key, value in report.items() if key != "wall_seconds"}
    return json.dumps(stripped, indent=2, sort_keys=True)


def _payload_diff(baseline: Any, current: Any, path: str = "") -> Iterator[str]:
    """``/json/path[i]: old → new`` for every leaf two JSON values differ in."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in sorted(baseline.keys() | current.keys()):
            if key not in current:
                yield f"{path}/{key}: {json.dumps(baseline[key])} → (absent)"
            elif key not in baseline:
                yield f"{path}/{key}: (absent) → {json.dumps(current[key])}"
            else:
                yield from _payload_diff(baseline[key], current[key], f"{path}/{key}")
    elif isinstance(baseline, list) and isinstance(current, list):
        for index, (old, new) in enumerate(zip(baseline, current)):
            yield from _payload_diff(old, new, f"{path}[{index}]")
        if len(baseline) != len(current):
            yield f"{path}: {len(baseline)} → {len(current)} items"
    elif baseline != current:
        yield f"{path}: {json.dumps(baseline)} → {json.dumps(current)}"


def check_payload_identity(baseline: dict, current: dict, regen_hint: str) -> list[str]:
    """Require the payloads to match exactly (modulo wall-clock fields).

    On an unchanged tree the comparison is byte-exact; a mismatch means
    either an intentional cost-model change (regenerate the committed
    baseline) or lost determinism (a bug).  The failure names the first
    :data:`MAX_DIFF_PATHS` JSON paths that differ, baseline → current.
    """
    old, new = comparable_payload(baseline), comparable_payload(current)
    if old == new:
        return []
    # Through JSON on both sides: a freshly built payload may still hold
    # tuples or int keys the committed file spells as lists and strings.
    paths = list(_payload_diff(json.loads(old), json.loads(new)))
    shown = paths[:MAX_DIFF_PATHS]
    if len(paths) > len(shown):
        shown.append(f"… and {len(paths) - len(shown)} more")
    return [
        "payload differs from the committed baseline (determinism lost, or an "
        f"intentional change that needs the baseline regenerated via `{regen_hint}`):"
        + "".join(f"\n    {line}" for line in shown)
    ]


def check_traversal_invariants(payload: dict) -> list[str]:
    """Return one failure per query the machine rewrite made worse or wrong.

    Against the legacy per-walker executor on the same loaded engine, the
    optimized machine may save charges (merged duplicates expand once) but
    must never add any, and must return the same answer.
    """
    failures: list[str] = []
    for engine_name, entry in sorted(payload.get("engines", {}).items()):
        for query_id, row in sorted(entry["queries"].items()):
            if row["optimized_charge"] > row["baseline_charge"]:
                failures.append(
                    f"{engine_name}/{query_id}: optimized charge "
                    f"{row['optimized_charge']} exceeds the legacy executor's "
                    f"{row['baseline_charge']}"
                )
            if row["optimized_digest"] != row["baseline_digest"]:
                failures.append(
                    f"{engine_name}/{query_id}: result digest "
                    f"{row['optimized_digest']} differs from the legacy "
                    f"executor's {row['baseline_digest']}"
                )
    return failures


def check_chaos_invariants(payload: dict) -> list[str]:
    """Rate-0 cells pin the exactness invariant: 100% availability outright."""
    failures: list[str] = []
    for cell in payload.get("cells", []):
        if cell["rate"] == 0 and cell["availability"] < 1.0:
            name = "/".join(
                str(cell[part]) for part in ("engine", "mix", "shards", "policy", "rate")
            )
            failures.append(
                f"{name}: fault-free availability {cell['availability']:.2%} "
                "< 100% (the exactness baseline itself failed)"
            )
    return failures


def check_readscale_invariants(payload: dict) -> list[str]:
    """Return one failure per read-scale cell whose coherence slipped.

    Cache-off cells must book zero invalidation charge, and the storm
    invalidation overhead must grow with the replica count at every
    (bound, cache>0) point — the coherence fan-out the figure exists to
    show.
    """
    failures: list[str] = []
    for engine_name, sweep in sorted(payload.get("engines", {}).items()):
        storm_inval: dict[tuple, dict[int, int]] = {}
        for cell in sweep.get("cells", []):
            name = (
                f"{engine_name}/R={cell['replicas']}"
                f"/bound={cell['staleness_bound']}"
                f"/cache={cell['cache_capacity']}"
            )
            if (
                cell["cache_capacity"] == 0
                and cell["overhead"]["invalidation_charge"] != 0
            ):
                failures.append(
                    f"{name}: cache-off cell booked invalidation charge "
                    f"{cell['overhead']['invalidation_charge']} (expected 0)"
                )
            if cell["cache_capacity"] > 0:
                storm_inval.setdefault(
                    (cell["staleness_bound"], cell["cache_capacity"]), {}
                )[cell["replicas"]] = cell["storm"]["invalidation_charge"]
        for (bound, cache), by_replicas in sorted(storm_inval.items()):
            ordered = [by_replicas[r] for r in sorted(by_replicas)]
            if any(b < a for a, b in zip(ordered, ordered[1:])):
                failures.append(
                    f"{engine_name}/bound={bound}/cache={cache}: storm "
                    f"invalidation charge {ordered} does not grow with the "
                    "replica count (coherence fan-out lost)"
                )
    return failures


#: Highest tolerable abort rate for any txn cell — the wave is tuned for
#: contention you can see, not a thrashing system; a cell past this ceiling
#: means the commit-window/conflict model changed character.
TXN_ABORT_CEILING = 0.25


def check_txn_invariants(payload: dict) -> list[str]:
    """Return one failure per broken distributed-transaction invariant.

    K=1 parity must hold (the distributed session layer is free until
    writes actually span shards), SSI must prevent the write-skew ledger's
    anomalies while SI permits them, SI cells must never book
    serialization aborts, every cell's abort rate must stay under the
    ceiling, and the abort rate at the largest K must not drop below K=1
    (the cut-ratio pressure fig13 exists to show).
    """
    failures: list[str] = []

    for engine_name, cell in sorted(payload.get("parity", {}).items()):
        if not cell.get("identical"):
            failures.append(
                f"{engine_name}: K=1 parity DIVERGED — distributed "
                f"{cell.get('distributed')} vs direct {cell.get('direct')}"
            )

    for engine_name, modes in sorted(payload.get("write_skew", {}).items()):
        si = modes.get("si", {})
        ssi = modes.get("ssi", {})
        if si.get("anomalies", 0) <= 0:
            failures.append(
                f"{engine_name}: SI write-skew ledger shows no anomalies — "
                "the skew workload no longer exercises the gap SSI closes"
            )
        if ssi.get("anomalies", 0) != 0:
            failures.append(
                f"{engine_name}: SSI permitted {ssi['anomalies']} write-skew "
                "anomalies (expected 0)"
            )
        if ssi.get("ssi_aborts", 0) <= 0:
            failures.append(
                f"{engine_name}: SSI prevented skew without booking any "
                "serialization aborts — prevention must be charged"
            )

    for engine_name, strategies in sorted(payload.get("engines", {}).items()):
        for strategy, sweep in sorted(strategies.items()):
            by_iso: dict[str, dict[int, float]] = {}
            for run in sweep.get("runs", []):
                name = (
                    f"{engine_name}/{strategy}/K={run['shards']}"
                    f"/{run['isolation']}"
                )
                if run["abort_rate"] > TXN_ABORT_CEILING:
                    failures.append(
                        f"{name}: abort rate {run['abort_rate']:.3f} above "
                        f"the {TXN_ABORT_CEILING:.2f} ceiling"
                    )
                if run["isolation"] == "si" and run["ssi_aborts"] != 0:
                    failures.append(
                        f"{name}: SI cell booked {run['ssi_aborts']} "
                        "serialization aborts (SI never validates reads)"
                    )
                by_iso.setdefault(run["isolation"], {})[run["shards"]] = run[
                    "abort_rate"
                ]
            for isolation, by_shards in sorted(by_iso.items()):
                if len(by_shards) < 2:
                    continue
                low, high = min(by_shards), max(by_shards)
                if by_shards[high] < by_shards[low]:
                    failures.append(
                        f"{engine_name}/{strategy}/{isolation}: abort rate "
                        f"at K={high} ({by_shards[high]:.3f}) fell below "
                        f"K={low} ({by_shards[low]:.3f}) — cut-ratio "
                        "pressure lost"
                    )
    return failures


#: The charged build pass may cost at most this many logical charges per
#: graph element (vertex or edge): one engine-side scan plus the index's own
#: labelling updates, with headroom — not a second traversal of everything.
REACH_BUILD_CEILING = 8.0


def check_reachability_invariants(payload: dict) -> list[str]:
    """Return one failure per broken reachability-index invariant.

    Tree-covered shapes must answer the query set for no more charge than
    the BFS oracle (the index's whole reason to exist), and the charged
    build pass must stay under a fixed per-element ceiling.
    """
    failures: list[str] = []
    for cell in payload.get("cells", []):
        name = f"{cell['engine']}/{cell['shape']}"
        if (
            cell["index"]["tree_coverage"] == 1.0
            and cell["indexed"]["total_charge"] > cell["bfs"]["total_charge"]
        ):
            failures.append(
                f"{name}: tree-covered shape but indexed charge "
                f"{cell['indexed']['total_charge']} exceeds the BFS oracle's "
                f"{cell['bfs']['total_charge']}"
            )
        elements = cell["dataset"]["vertices"] + cell["dataset"]["edges"]
        ceiling = REACH_BUILD_CEILING * elements
        if cell["index"]["build_charge"] > ceiling:
            failures.append(
                f"{name}: build charge {cell['index']['build_charge']} above "
                f"the ceiling {ceiling:.0f} ({REACH_BUILD_CEILING:g} per element "
                f"x {elements} elements)"
            )
    return failures


#: The structural diff may cost at most this many logical charges per visited
#: element: one walk-sink record read plus both-side materialisation, with
#: headroom — not a full re-scan of the graph per changed element.
VERSIONS_DIFF_CEILING = 8.0


def check_versions_invariants(payload: dict) -> list[str]:
    """Return one failure per broken graph-versioning invariant.

    Every cell's as-of replay must match its recorded live results with
    exact head charge parity, the structural diff must stay under a fixed
    per-element charge ceiling, and — per (engine, depth, mix) — pruning
    retention policies must actually prune: retained bytes at or below
    keep-all's and GC-reclaimed undo entries at or above keep-all's, with
    at least one commit released.
    """
    failures: list[str] = []
    groups: dict[tuple, dict[str, dict]] = {}
    for cell in payload.get("cells", []):
        name = "/".join(
            str(cell[part]) for part in ("engine", "depth", "mix", "retention")
        )
        asof = cell["asof"]
        if asof["results_match"] is not True:
            failures.append(f"{name}: as-of replay diverged from the live run")
        if asof["head_overhead"] != 0:
            failures.append(
                f"{name}: head as-of charge overhead {asof['head_overhead']} "
                "(the head replay must be charge-identical to the live run)"
            )
        if asof["replayed"] < 1:
            failures.append(f"{name}: no retained commit was replayed")
        if cell["diff"]["charge_per_element"] > VERSIONS_DIFF_CEILING:
            failures.append(
                f"{name}: diff charge {cell['diff']['charge_per_element']:.2f} "
                f"per element above the {VERSIONS_DIFF_CEILING:g} ceiling"
            )
        groups.setdefault(
            (cell["engine"], cell["depth"], cell["mix"]), {}
        )[cell["retention"]] = cell["catalog"]

    for (engine_name, depth, mix), by_policy in sorted(groups.items()):
        keep_all = by_policy.get("keep-all")
        if keep_all is None:
            continue
        for policy, catalog in sorted(by_policy.items()):
            if policy == "keep-all":
                continue
            name = f"{engine_name}/{depth}/{mix}/{policy}"
            if catalog["retained_bytes"] > keep_all["retained_bytes"]:
                failures.append(
                    f"{name}: retained {catalog['retained_bytes']} bytes, more "
                    f"than keep-all's {keep_all['retained_bytes']} (pruning "
                    "retention must not retain more than no retention)"
                )
            if catalog["gc_reclaimed_undo"] < keep_all["gc_reclaimed_undo"]:
                failures.append(
                    f"{name}: reclaimed {catalog['gc_reclaimed_undo']} undo "
                    f"entries, fewer than keep-all's "
                    f"{keep_all['gc_reclaimed_undo']}"
                )
            if catalog["released_commits"] == 0:
                failures.append(
                    f"{name}: pruning retention released no commits "
                    "(the retention axis collapsed)"
                )
    return failures
