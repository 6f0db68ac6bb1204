"""Rendering of the chaos availability benchmark.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``chaos`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import dataset_line, text_table

_COLUMNS = (
    ("rate", "fault%", "{:d}"),
    ("policy", "policy", "{:s}"),
    ("availability", "avail", "{:.1%}"),
    ("exact", "exact", "{:d}"),
    ("stale", "stale", "{:d}"),
    ("failed", "failed", "{:d}"),
    ("staleness_p95", "stale-p95", "{:d}"),
    ("overhead_pct", "ovr%", "{:.1f}"),
    ("recovery_charge", "recov", "{:d}"),
    ("retransmit_charge", "retrans", "{:d}"),
    ("checkpoint_charge", "ckpt", "{:d}"),
    ("crashes", "crash", "{:d}"),
    ("restarts", "restart", "{:d}"),
    ("messages_lost", "lost", "{:d}"),
)


def format_chaos_report(report: dict[str, Any]) -> str:
    """Render the availability matrix as aligned per-(engine, mix, K) tables."""
    chaos = report["chaos"]
    lines = [
        "Figure 11: availability and overhead under seeded fault injection "
        "(crashes, stalls, message loss/dup/reorder, torn WALs, snapshot loss)",
        f"{dataset_line(report)}  "
        f"partitioner={report['partitioner']}  seed={report['seed']}  "
        f"retry budget={chaos['max_restarts']} restarts, "
        f"checkpoint every {chaos['checkpoint_interval']} barriers, "
        f"fixed timeout={chaos['superstep_timeout']}",
    ]
    groups: dict[tuple[str, str, int], list[dict[str, Any]]] = {}
    for cell in report["cells"]:
        groups.setdefault((cell["engine"], cell["mix"], cell["shards"]), []).append(cell)
    for (engine_id, mix, shards), cells in groups.items():
        worst = min(cells, key=lambda c: (c["availability"], -c["rate"]))
        lines.append("")
        lines.append(
            f"{engine_id} × {mix} × K={shards} — worst availability "
            f"{worst['availability']:.1%} at rate {worst['rate']}% "
            f"({worst['policy']})"
        )
        lines.extend(text_table(_COLUMNS, (("  ", cell) for cell in cells)))
    lines.append("")
    lines.append(
        "avail = completed/attempted; a query completes 'exact' (answer and "
        "base charges byte-identical to the fault-free run — asserted, not "
        "assumed), 'stale' (served from the last checkpoint snapshot, "
        "staleness bound in virtual-time units), or fails fast with a typed "
        "error when a down shard has no retained snapshot."
    )
    lines.append(
        "ovr% = fault overhead (wasted attempts, backoff, retransmits, "
        "recovery replay, checkpoints, journal appends) over the rate-0 "
        "cell's base charge; rate-0 rows show the pure durability tax."
    )
    lines.append(
        "policy A/B: 'adaptive' scales backoff and straggler timeouts with "
        "an EWMA of observed per-shard charge instead of fixed constants — "
        "compare stalls' wasted wait in ovr% at equal rates."
    )
    return "\n".join(lines)
