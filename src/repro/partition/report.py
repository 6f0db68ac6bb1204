"""Rendering of the scale-out benchmark report.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``scaleout`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import dataset_line, text_table

_COLUMNS = (
    ("shards", "K", "{:d}"),
    ("balance", "balance", "{:.2f}"),
    ("cut_ratio", "cut%", "{:.1%}"),
    ("extract_charge", "extract", "{:d}"),
    ("makespan_charge", "makespan", "{:d}"),
    ("busy_charge", "busy", "{:d}"),
    ("network_charge", "net", "{:d}"),
    ("messages", "msgs", "{:d}"),
    ("supersteps", "steps", "{:d}"),
    ("speedup", "speedup", "{:.2f}x"),
    ("efficiency", "eff", "{:.1%}"),
)


def format_scaleout_report(report: dict[str, Any]) -> str:
    """Render the per-engine × partitioner sweeps as aligned text tables."""
    lines = [
        "Figure 10: scale-out over K charged executors "
        "(BSP supersteps, batched cut-edge messages, deterministic charges)",
        f"{dataset_line(report)}  "
        f"queries={len(report['queries'])} (bfs depth {report['depth']} ×"
        f"{report['bfs_sources']}, 1-hop ×2, shortest path ×1)  "
        f"seed={report['seed']}  "
        f"network: {report['network']['latency_per_message']}/msg + "
        f"{report['network']['cost_per_item']}/item",
    ]
    for engine_id, strategies in report["engines"].items():
        for strategy, sweep in strategies.items():
            best = max(sweep["runs"], key=lambda run: run["speedup"])
            lines.append("")
            lines.append(
                f"{engine_id} × {strategy} — best {best['speedup']:.2f}x "
                f"at K={best['shards']} "
                f"(cut {best['cut_ratio']:.1%}, efficiency {best['efficiency']:.1%})"
            )
            rows = (
                (" *" if run["shards"] == best["shards"] else "  ", run)
                for run in sweep["runs"]
            )
            lines.extend(text_table(_COLUMNS, rows))
    lines.append("")
    lines.append(
        "makespan = Σ per-superstep max over shards of (local bulk-frontier "
        "I/O + batched message send); busy = the serial-equivalent sum."
    )
    lines.append(
        "K=1 charges exactly like direct execution (charge-parity contract), "
        "so speedup is scale-out over the unpartitioned engine; '*' marks "
        "the best K — past it, per-message latency on an ever-thinner "
        "frontier beats the gain from splitting local I/O."
    )
    lines.append(
        "efficiency can exceed 100% at low K: cut edges live in the RAM "
        "routing table instead of the shard engines, so a heavily cut "
        "partition leaves each shard less charged adjacency to scan."
    )
    return "\n".join(lines)
