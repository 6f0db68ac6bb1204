"""Rendering of the distributed-transaction report.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``txn`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import by_engine, dataset_line, in_order, text_table

_COLUMNS = (
    ("shards", "K", "{:d}"),
    ("isolation", "iso", "{:s}"),
    ("cut_ratio", "cut%", "{:.1%}"),
    ("commits", "commits", "{:d}"),
    ("conflict_aborts", "ww", "{:d}"),
    ("ssi_aborts", "ssi", "{:d}"),
    ("abort_rate", "abort%", "{:.1%}"),
    ("mean_latency", "lat", "{:d}"),
    ("p95_latency", "p95", "{:d}"),
    ("two_phase", "2pc", "{:d}"),
    ("messages", "msgs", "{:d}"),
    ("network_charge", "net", "{:d}"),
)


def format_txn_report(report: dict[str, Any]) -> str:
    """Render the per-engine × partitioner sweeps plus the skew/parity ledgers."""
    lines = [
        "Figure 13: distributed commits — 2PC latency and abort rate vs cut "
        "ratio, SI vs SSI",
        f"{dataset_line(report)}  "
        f"transactions={report['transactions']} × footprint "
        f"{report['footprint']}  seed={report['seed']}  "
        f"window={report['base_duration']}+routing, arrivals every "
        f"{report['arrival_gap']}  "
        f"network: {report['network']['latency_per_message']}/msg + "
        f"{report['network']['cost_per_item']}/item",
    ]
    for engine_id, strategies in by_engine(report["engines"]):
        for strategy, sweep in in_order(strategies, report["partitioners"]):
            lines.append("")
            lines.append(f"{engine_id} × {strategy}")
            rows = (("  ", run) for run in sweep["runs"])
            lines.extend(text_table(_COLUMNS, rows, width=8))
    lines.append("")
    lines.append("write skew (pairs with constraint 'not both off'):")
    for engine_id, modes in by_engine(report["write_skew"]):
        si = modes["si"]
        ssi = modes["ssi"]
        lines.append(
            f"  {engine_id}: SI {si['anomalies']}/{si['pairs']} anomalies "
            f"(permitted), SSI {ssi['anomalies']}/{ssi['pairs']} anomalies "
            f"({ssi['ssi_aborts']} serialization aborts — prevented)"
        )
    lines.append("")
    lines.append("K=1 parity (distributed vs plain local sessions):")
    for engine_id, cell in by_engine(report["parity"]):
        verdict = "IDENTICAL" if cell["identical"] else "DIVERGED"
        lines.append(
            f"  {engine_id}: {verdict} — charge "
            f"{cell['distributed']['charge']} vs {cell['direct']['charge']}, "
            f"{cell['distributed']['commits']} commits / "
            f"{cell['distributed']['aborts']} aborts on both sides, "
            f"{cell['distributed']['messages']} messages"
        )
    lines.append("")
    lines.append(
        "A transaction's commit window grows by one charged round-trip per "
        "remote shard its footprint touches, so higher cut ratios widen "
        "windows, interpose more commits, and raise the abort rate; SSI "
        "adds rw-antidependency aborts (the 'ssi' column) — the measurable "
        "price of turning write skew from permitted into prevented."
    )
    lines.append(
        "lat/p95: one-phase commits cost exactly their local apply charge; "
        "2PC commits add prepare (op batch + journal + vote) and decide "
        "(decision record + commit + ack) phases, slowest participant each."
    )
    return "\n".join(lines)
