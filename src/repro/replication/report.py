"""Rendering of the read-scale benchmark report.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``readscale`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import dataset_line, header_cells, row_cells

_COLUMNS = (
    ("replicas", "R", "{:d}"),
    ("staleness_bound", "bound", "{:d}"),
    ("cache_capacity", "cache", "{:d}"),
    ("reads", "reads", "{:d}"),
    ("replica_share", "repl%", "{:.1%}"),
    ("fallbacks", "fallb", "{:d}"),
    ("staleness_p95", "stale95", "{:d}"),
    ("makespan_charge", "makespan", "{:d}"),
    ("throughput_per_kcharge", "thr/kc", "{:.2f}"),
)

_STORM_COLUMNS = (
    ("writes", "CUDs", "{:d}"),
    ("invalidation_charge", "inval", "{:d}"),
    ("capture_charge", "capture", "{:d}"),
    ("apply_charge", "apply", "{:d}"),
    ("fallbacks", "fallb", "{:d}"),
)


def format_readscale_report(report: dict[str, Any]) -> str:
    """Render the per-engine replica × bound × cache sweeps as text tables."""
    replication = report["replication"]
    lines = [
        "Figure 12: read scale-out over lagging MVCC replicas with charged "
        "hot-vertex / ghost-adjacency caches",
        f"{dataset_line(report)}  "
        f"K={report['shards']} ({report['partitioner']})  seed={report['seed']}  "
        f"steady={report['steady_ops']} ops, storm={report['storm_rounds']}× "
        f"hot set of {report['hot_set_size']}",
        f"replication: {replication['append_per_record']}/append + "
        f"{replication['ship_latency_per_batch']}/batch + "
        f"{replication['ship_per_record']}/record + "
        f"{replication['apply_per_op']}/op applied; apply interval "
        f"{report['apply_interval']} × replica rank",
    ]
    header = "  " + header_cells(_COLUMNS) + "   hit% |" + header_cells(_STORM_COLUMNS, 8)
    for engine_id, sweep in report["engines"].items():
        cells = sweep["cells"]
        best = max(cells, key=lambda cell: cell["throughput_per_kcharge"])
        lines.append("")
        lines.append(
            f"{engine_id} — best {best['throughput_per_kcharge']:.2f} reads/kcharge "
            f"at R={best['replicas']} bound={best['staleness_bound']} "
            f"cache={best['cache_capacity']} "
            f"(hit rate {best['hot_cache']['hit_rate']:.1%})"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for cell in cells:
            marker = "*" if cell is best else " "
            row = row_cells(_COLUMNS, cell)
            row += f"  {cell['hot_cache']['hit_rate']:>5.1%} |"
            row += row_cells(_STORM_COLUMNS, cell["storm"], 8)
            lines.append(f" {marker:<1}{row}")
    lines.append("")
    lines.append(
        "thr/kc = served reads per 1000 charge units of makespan (busiest "
        "server + network + ghost-coherence traffic); repl% = reads served "
        "by replicas within the staleness bound; fallb = bound violations "
        "routed back to the primary."
    )
    lines.append(
        "storm columns are the coherence-storm deltas: every hot vertex "
        "rewritten under read pressure — inval is the charged invalidation "
        "fan-out (primary eager, replicas at apply, ghosts cross-shard), "
        "which grows with replica count × cache size; capture is the MVCC "
        "before-image cost of feeding lagging snapshots."
    )
    lines.append(
        "Base read/CUD charges stay byte-identical to the unreplicated "
        "path (differential harness); every replica-served read equals a "
        "primary read at the same snapshot timestamp."
    )
    return "\n".join(lines)
