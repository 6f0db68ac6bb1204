"""Rendering of the graph-versioning benchmark.

Paths, persistence and gating live in :mod:`repro.bench.registry` (the
``versions`` entry); this module only turns a payload into the text figure.
"""

from __future__ import annotations

from typing import Any

from repro.bench.registry import text_table

_COLUMNS = (
    ("depth", "depth", "{:d}"),
    ("mix", "mix", "{:s}"),
    ("retention", "  retention", "{:s}"),
    ("retained", "commits", "{:s}"),
    ("retained_bytes", "ret-bytes", "{:d}"),
    ("reclaimed_undo", "gc-undo", "{:d}"),
    ("asof_overhead", "asof-ovh", "{:+d}"),
    ("diff_entries", "diff", "{:d}"),
    ("diff_cpe", "chg/elem", "{:.2f}"),
)


def format_versions_report(report: dict[str, Any]) -> str:
    """Render the engine × depth × mix × retention matrix per engine."""
    lines = [
        "Figure 15: graph versioning — retained bytes vs GC reclaim vs as-of "
        "overhead, per retention policy",
        f"base |V|={report['base_vertices']}  {report['churn_ops']} churn ops/step  "
        f"tag every {report['tag_every']} commits  seed={report['seed']}",
        "as-of parity held on every cell (head charge-identical; "
        "older commits report charge overhead)",
    ]
    groups: dict[str, list[dict[str, Any]]] = {}
    for cell in report["cells"]:
        groups.setdefault(cell["engine"], []).append(cell)
    for engine_id, cells in groups.items():
        keep_all = [c for c in cells if c["retention"] == "keep-all"]
        pruned = [c for c in cells if c["retention"] != "keep-all"]
        saved = 0
        if keep_all and pruned:
            saved = max(
                ka["catalog"]["retained_bytes"] - pr["catalog"]["retained_bytes"]
                for ka in keep_all
                for pr in pruned
                if (ka["depth"], ka["mix"]) == (pr["depth"], pr["mix"])
            )
        lines.append("")
        lines.append(f"{engine_id} — pruning retention reclaims up to {saved} bytes")
        rows = []
        for cell in cells:
            catalog = cell["catalog"]
            diff = cell["diff"]
            values = {
                "depth": cell["depth"],
                "mix": cell["mix"],
                "retention": cell["retention"],
                "retained": f"{catalog['retained_commits']}/{catalog['commits']}",
                "retained_bytes": catalog["retained_bytes"],
                "reclaimed_undo": catalog["gc_reclaimed_undo"],
                "asof_overhead": cell["asof"]["total_overhead"],
                "diff_entries": diff["entries"],
                "diff_cpe": diff["charge_per_element"],
            }
            rows.append(("  ", values))
        lines.extend(text_table(_COLUMNS, rows, dashes=False))
    return "\n".join(lines)
