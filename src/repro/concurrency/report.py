"""Rendering of the concurrency benchmark reports (fig8, fig9, fig9b).

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``concurrent`` and ``saturate`` entries); this module turns payloads into
text figures and strips wall-clock fields for determinism checks.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import dataset_line, text_table

_COLUMNS = (
    ("throughput_ops_per_kcharge", "thrpt/kc", "{:.2f}"),
    ("p50_charge", "p50", "{:d}"),
    ("p95_charge", "p95", "{:d}"),
    ("p99_charge", "p99", "{:d}"),
    ("commit_p50_charge", "cmt p50", "{:d}"),
    ("commit_p99_charge", "cmt p99", "{:d}"),
    ("commit_mean_charge", "cmt mean", "{:.1f}"),
    ("commit_cost_mean_charge", "cmt cost", "{:.1f}"),
    ("commits", "commits", "{:d}"),
    ("conflict_aborts", "aborts", "{:d}"),
    ("abort_rate", "abort%", "{:.1%}"),
    ("retries", "retries", "{:d}"),
    ("gc_reclaimed_undo", "gc undo", "{:d}"),
    ("gc_reclaimed_tombstones", "gc tomb", "{:d}"),
    ("retained_entries", "retained", "{:d}"),
)


def format_concurrency_report(report: dict[str, Any]) -> str:
    """Render the engines × durability matrix as an aligned text table."""
    lines = [
        "Figure 8: multi-client throughput and tail latency "
        "(charged units, deterministic virtual time)",
        f"{dataset_line(report)}  "
        f"clients={report['clients']}  mix={report['mix']}  "
        f"txns/client={report['txns_per_client']}  seed={report['seed']}  "
        f"group-commit={report['group_commit']}  loop={report['loop']}",
        "",
    ]
    rows = (
        (f"{engine_id:<22} {durability:<10}", row)
        for engine_id, modes in report["engines"].items()
        for durability, row in modes.items()
    )
    lines.extend(
        text_table(_COLUMNS, rows, lead=f"{'engine':<22} {'durability':<10}", indent="")
    )
    lines.append("")
    lines.append(
        "latency unit: logical charge (page reads/writes + index probes + "
        "record touches); 'cmt' columns are commit-only latencies —"
    )
    lines.append(
        "ASYNC durability moves WAL page writes out of the committing "
        "client's path into batched background group flushes (Section 6.4)."
    )
    lines.append(
        "'retries' re-enqueue conflict-aborted transactions at virtual-time "
        "+ seeded backoff; 'gc'/'retained' count MVCC version-store entries "
        "reclaimed at the low-water mark vs still held at the end."
    )
    return "\n".join(lines)


_SATURATION_COLUMNS = (
    ("arrival_interval", "interval", "{:d}"),
    ("offered_ops_per_kcharge", "offered/kc", "{:.2f}"),
    ("throughput_ops_per_kcharge", "thrpt/kc", "{:.2f}"),
    ("p50_charge", "p50", "{:d}"),
    ("p95_charge", "p95", "{:d}"),
    ("p99_charge", "p99", "{:d}"),
    ("abort_rate", "abort%", "{:.1%}"),
    ("retries", "retries", "{:d}"),
)


def format_saturation_report(report: dict[str, Any]) -> str:
    """Render the per-engine open-loop sweeps as aligned text tables."""
    lines = [
        "Figure 9: open-loop saturation sweep "
        "(offered arrival rate stepped until throughput collapses)",
        f"{dataset_line(report)}  "
        f"clients={report['clients']}  mix={report['mix']}  "
        f"txns/client={report['txns_per_client']}  seed={report['seed']}  "
        f"durability={report['durability']}  retries={report['retries']}",
    ]
    for engine_id, sweep in report["engines"].items():
        knee_interval = sweep["knee"]["arrival_interval"]
        lines.append("")
        lines.append(
            f"{engine_id} — knee at interval {knee_interval} "
            f"({sweep['knee']['throughput_ops_per_kcharge']:.2f} ops/kcharge"
            f"{', collapse observed' if sweep['saturated'] else ', budget exhausted'})"
        )
        rows = (
            ("  * " if step["arrival_interval"] == knee_interval else "    ", step)
            for step in sweep["steps"]
        )
        lines.extend(text_table(_SATURATION_COLUMNS, rows, width=11, lead="    "))
    lines.append("")
    lines.append(
        "each step halves the arrival interval (doubles the offered load); "
        "'*' marks the knee — past it the single charged server saturates: "
        "throughput flattens while open-loop queueing blows up the tail."
    )
    return "\n".join(lines)


#: The sweep's columns minus the offered load a closed loop does not have.
_LOOP_COLUMNS = tuple(
    column for column in _SATURATION_COLUMNS if column[0] != "offered_ops_per_kcharge"
)

def format_loop_comparison(report: dict[str, Any]) -> str:
    """Render the closed-vs-open-loop comparison (Figure 9b)."""
    lines = [
        "Figure 9b: closed vs open loop on the identical seeded workload",
        f"{dataset_line(report)}  "
        f"clients={report['clients']}  mix={report['mix']}  "
        f"txns/client={report['txns_per_client']}  seed={report['seed']}  "
        f"durability={report['durability']}",
    ]
    for engine_id, rows in report["engines"].items():
        # A sweep that exhausted its budget never saw a failed doubling,
        # so its last step is not evidence of collapse.
        collapse_label = (
            "open @ collapse" if rows.get("saturated", True) else "open @ last step"
        )
        row_labels = (
            ("closed", "closed loop"),
            ("open_knee", "open @ knee"),
            ("open_collapse", collapse_label),
        )
        lines.append("")
        lines.append(engine_id)
        labelled = ((f"  {label:<16}", rows[key]) for key, label in row_labels)
        lines.extend(
            text_table(_LOOP_COLUMNS, labelled, width=11, lead=f"  {'loop model':<16}")
        )
    lines.append("")
    lines.append(
        "closed-loop clients self-throttle (submission waits for "
        "completion), so latency stays near service time and throughput "
        "understates saturation; the open loop offers load regardless of "
        "completions — at the knee it matches the server's capacity, past "
        "it the same workload shows queueing-dominated tails (interval 0 "
        "means 'no fixed arrival interval'; 'open @ last step' marks a "
        "sweep that ran out of budget before observing the collapse)."
    )
    return "\n".join(lines)

